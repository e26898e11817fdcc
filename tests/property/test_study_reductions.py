"""Study reductions keep the bits of their scalar definitions.

``CostDistribution`` takes its statistics on a float64 column when
numpy is installed and on the sample tuple otherwise; ``run_search``
keeps its running top-k as row references and builds candidates only
for the rows it returns.  Both paths must give exactly what the plain
definitions give: a left-to-right fold for every sum, libm ``pow`` for
every square, ``sorted`` for the order, and for the search the
non-dominated set and the (total, index) ranking over every candidate,
ties included.
"""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from checks import assert_bit_equal
from repro.config import ConfigRegistries
from repro.engine.fastmc import ColumnSamples
from repro.explore import montecarlo
from repro.explore.montecarlo import CostDistribution, monte_carlo_cost
from repro.explore.partition import partition_monolith
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node
from repro.search import evaluate as evaluate_module
from repro.search.engine import _materialize, run_search
from repro.search.evaluate import SpaceEvaluator
from repro.search.space import DesignSpace
from strategies import batch_sizes

QUANTILES = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)

#: Deviations whose libm square differs from ``d * d`` in the last bit
#: (glibc); a sample pair ``(d, -d)`` has mean 0.0 and squares them.
POW_DIFFERS = tuple(
    float.fromhex(value)
    for value in (
        "0x1.43497ba448888p+17", "0x1.fb0d1d2805112p+18",
        "0x1.29038e4721aafp+17", "0x1.d26acfc5881e2p+19",
        "0x1.e697546ce2febp+19", "0x1.adc478c91a708p+19",
    )
)

#: Finite values whose squared deviations cannot overflow.  ``-0.0`` is
#: left out: a sort may order it either side of ``0.0``, and a sum of
#: ``-0.0`` alone is ``-0.0`` in ``cumsum`` but ``0.0`` in the fold;
#: costs are positive.
values = st.floats(
    min_value=-1e150, max_value=1e150, allow_nan=False,
    allow_infinity=False,
).map(lambda value: value + 0.0)


@st.composite
def sample_sets(draw):
    """Sample tuples: single values, sets drawn from a small pool (so
    duplicates are common), pairs with libm-sensitive squares, mixes."""
    kind = draw(st.sampled_from(("one", "pool", "pow", "mixed")))
    if kind == "one":
        return (draw(values),)
    if kind == "pool":
        pool = draw(st.lists(values, min_size=1, max_size=3))
        return tuple(
            draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
        )
    pairs = draw(st.lists(st.sampled_from(POW_DIFFERS), min_size=1,
                          max_size=8))
    paired = [value for d in pairs for value in (d, -d)]
    if kind == "mixed":
        paired += draw(st.lists(values, max_size=20))
    return tuple(draw(st.permutations(paired)))


def _reference(samples):
    """The scalar definitions: fold sums, ``** 2``, ``sorted``."""
    n = len(samples)
    total = 0.0
    for value in samples:
        total = total + value
    mean = total / n
    squares = 0.0
    for value in samples:
        squares = squares + (value - mean) ** 2
    ordered = sorted(samples)

    def quantile(q):
        if n == 1:
            return ordered[0]
        position = q * (n - 1)
        lower, upper = math.floor(position), math.ceil(position)
        if lower == upper:
            return ordered[lower]
        weight = position - lower
        return ordered[lower] * (1.0 - weight) + ordered[upper] * weight

    return mean, math.sqrt(squares / n), [quantile(q) for q in QUANTILES]


def _statistics(samples):
    return _statistics_of(CostDistribution(samples=samples))


def _statistics_of(distribution):
    return (
        distribution.mean,
        distribution.std,
        [distribution.quantile(q) for q in QUANTILES],
    )


def _assert_reference(samples, path):
    mean, std, quantiles = _statistics(samples)
    ref_mean, ref_std, ref_quantiles = _reference(samples)
    assert_bit_equal(path, "mean", mean.hex(), ref_mean.hex())
    assert_bit_equal(path, "std", std.hex(), ref_std.hex())
    for q, value, expected in zip(QUANTILES, quantiles, ref_quantiles):
        assert_bit_equal(path, f"quantile({q})", value.hex(), expected.hex())
    for value in (mean, std, *quantiles):
        assert type(value) is float


needs_numpy = pytest.mark.skipif(montecarlo._np is None,
                                 reason="needs numpy")


@needs_numpy
@given(samples=sample_sets())
def test_column_statistics_equal_the_scalar_definitions(samples):
    _assert_reference(samples, "CostDistribution[numpy]")


#: ``no_numpy`` is set once for all of a test's examples, which is what
#: those tests want.
with_fixture = settings(suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
])


@with_fixture
@given(samples=sample_sets())
def test_fallback_statistics_equal_the_scalar_definitions(samples, no_numpy):
    _assert_reference(samples, "CostDistribution[no numpy]")


@pytest.mark.parametrize("numpy", [True, False])
def test_mean_is_the_left_fold(numpy, request):
    # The fold gives 0.0; compensated (Neumaier) summation gives 1/3.
    if numpy and montecarlo._np is None:
        pytest.skip("needs numpy")
    if not numpy:
        request.getfixturevalue("no_numpy")
    assert CostDistribution((1e16, 1.0, -1e16)).mean == 0.0


@pytest.mark.parametrize("numpy", [True, False])
@pytest.mark.parametrize("d", POW_DIFFERS)
def test_negative_deviations_square_like_the_definition(d, numpy, request):
    # (-d, -d, 2d) has mean 0.0 exactly, so two of its deviations are
    # -d, whose libm square differs from the product.
    if numpy and montecarlo._np is None:
        pytest.skip("needs numpy")
    if not numpy:
        request.getfixturevalue("no_numpy")
    assert (-d) ** 2 != (-d) * (-d)
    for samples in ((-d, -d, 2 * d), (-d, d)):
        _assert_reference(samples, f"std{samples}")


@needs_numpy
@given(samples=sample_sets())
def test_handed_over_column_gives_the_tuple_statistics(samples):
    column = montecarlo._np.array(samples, dtype=float)
    handed = CostDistribution.of(ColumnSamples(column))
    assert handed.samples == samples
    assert vars(handed)["_column"] is column
    mean, std, quantiles = _statistics_of(handed)
    assert (mean, std, quantiles) == _statistics(samples)


@needs_numpy
def test_monte_carlo_cost_hands_its_column_over():
    system = partition_monolith(500.0, get_node("7nm"), 4, mcm())
    distribution = monte_carlo_cost(system, draws=300, seed=3)
    assert "_column" in vars(distribution)  # before any statistic
    assert _statistics_of(distribution) == _statistics(distribution.samples)
    assert all(type(value) is float for value in distribution.samples)


# -- run_search selection ---------------------------------------------------

#: A node with every parameter of 7nm under another name: each of its
#: candidates ties the 7nm twin in every metric.
TWIN = "7nm-twin"

#: 7nm at a lower wafer price: each of its candidates dominates the
#: same design on 7nm or the twin (lower RE, same NRE and footprint).
CHEAP = "7nm-cheap"


def _registries():
    registries = ConfigRegistries()
    seven = get_node("7nm")
    registries.nodes.register(TWIN, dataclasses.replace(seven, name=TWIN))
    registries.nodes.register(CHEAP, dataclasses.replace(
        seven, name=CHEAP, wafer_price=0.8 * seven.wafer_price
    ))
    return registries


@st.composite
def tied_spaces(draw, cheap_last=False):
    """Spaces priced on 7nm and its twin, so totals tie across nodes,
    with repeated module areas, so they tie across area chunks too (the
    evaluator then yields tied rows out of index order); ``top_k`` runs
    from none to more than every candidate.  With ``cheap_last`` the
    cheaper 7nm is listed last, so its blocks arrive after the ones
    they dominate and must evict what the running frontier holds."""
    nodes = tuple(draw(st.permutations(("7nm", TWIN))))
    return DesignSpace(
        module_areas=tuple(draw(st.lists(
            st.sampled_from((100.0, 250.0, 400.0, 550.0)),
            min_size=1, max_size=5,
        ))),
        nodes=nodes + (CHEAP,) if cheap_last else nodes,
        technologies=tuple(draw(st.lists(
            st.sampled_from(("mcm", "2.5d")), min_size=1, max_size=2,
            unique=True,
        ))),
        chiplet_counts=(2, 3),
        d2d_fractions=(0.1,),
        quantity=draw(st.sampled_from((1e4, 5e5))),
        objectives=draw(st.sampled_from(
            (("total", "footprint"), ("re", "nre", "footprint"))
        )),
        top_k=draw(st.integers(min_value=0, max_value=40)),
        include_soc=draw(st.booleans()),
    )


def _every_candidate(space, registries):
    evaluator = SpaceEvaluator(space, registries=registries)
    return [
        _materialize(block, offset, False)
        for block in evaluator.blocks()
        for offset in range(len(block))
    ]


def _dominates(a, b):
    return all(x <= y for x, y in zip(a, b)) and a != b


def _reference_selection(space, registries):
    """The non-dominated set in index order and the first ``top_k`` of
    every candidate by (total, index)."""
    candidates = sorted(
        _every_candidate(space, registries), key=lambda c: c.index
    )
    vectors = [c.objective_vector(space.objectives) for c in candidates]
    frontier = tuple(
        candidate
        for candidate, mine in zip(candidates, vectors)
        if not any(_dominates(other, mine) for other in vectors)
    )
    top = tuple(
        sorted(candidates, key=lambda c: (c.total, c.index))[: space.top_k]
    )
    return frontier, top


def _assert_selection(space, batch_size):
    registries = _registries()
    with mock.patch.object(evaluate_module, "BATCH_SIZE", batch_size):
        result = run_search(space, registries=registries)
        frontier, top = _reference_selection(space, registries)
    totals = [c.total for c in _every_candidate(space, registries)]
    assert len(set(totals)) < len(totals)  # the space has ties
    assert result.frontier == frontier
    assert result.top == top
    return result


@needs_numpy
@given(space=tied_spaces(), batch_size=batch_sizes)
def test_search_selection_with_ties(space, batch_size):
    _assert_selection(space, batch_size)


@with_fixture
@given(space=tied_spaces(), batch_size=batch_sizes)
def test_search_selection_with_ties_without_numpy(space, batch_size, no_numpy):
    _assert_selection(space, batch_size)


def _assert_evictions(space, batch_size):
    result = _assert_selection(space, batch_size)
    # The 7nm and twin blocks come first and put members on the running
    # frontier; the cheap node's later blocks dominate all of them.
    assert {candidate.node for candidate in result.frontier} == {CHEAP}


@needs_numpy
@given(space=tied_spaces(cheap_last=True), batch_size=batch_sizes)
def test_search_selection_when_later_blocks_dominate(space, batch_size):
    _assert_evictions(space, batch_size)


@with_fixture
@given(space=tied_spaces(cheap_last=True), batch_size=batch_sizes)
def test_search_selection_when_later_blocks_dominate_without_numpy(
    space, batch_size, no_numpy
):
    _assert_evictions(space, batch_size)
