"""Fast == oracle parity on arbitrary generated inputs.

Every accelerated path — ``fastmc``, the equal-partition kernel
behind ``CostEngine.partition_grid``, ``fastportfolio``, the
``SpaceEvaluator`` and the ``rng`` stream — carries a bit-parity
contract against its naive oracle (PERFORMANCE.md).  The unit suites
hold them equal on the seven paper figures; these properties hold them
equal on *generated* systems, portfolios and spaces, and hold the
numpy-free scalar fallbacks equal to the numpy paths.
"""

import random
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from checks import assert_bit_equal, assert_sequences_equal
from repro.core.re_cost import compute_re_cost
from repro.engine import fastmc, fastportfolio, partition_columns
from repro.engine.costengine import CostEngine
from repro.engine.fastmc import sample_re_costs
from repro.engine.fastportfolio import PortfolioEngine
from repro.engine.rng import sample_prior
from repro.explore.montecarlo import monte_carlo_cost_naive
from repro.explore.partition import partition_monolith, soc_reference
from repro.process.catalog import get_node
from repro.search import evaluate
from repro.search.engine import run_search
from repro.search.oracle import run_search_oracle
from repro.wafer.diecache import no_cache
from repro.yieldmodel.sampling import DefectDensityPrior
from strategies import (
    TECHNOLOGIES,
    batch_sizes,
    catalog_node_names,
    design_spaces,
    module_areas,
    portfolios,
    systems,
    technology_names,
)

_RE_COMPONENTS = (
    "raw_chips", "chip_defects", "raw_package", "package_defects",
    "wasted_kgd", "total",
)


@given(system=systems(), draws=st.integers(min_value=1, max_value=6),
       sigma=st.floats(min_value=0.01, max_value=0.4),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_fastmc_matches_naive_sampler(system, draws, sigma, seed):
    fast = sample_re_costs(system, draws=draws, sigma=sigma, seed=seed)
    naive = monte_carlo_cost_naive(
        system, draws=draws, sigma=sigma, seed=seed
    ).samples
    assert_sequences_equal("fastmc.sample_re_costs", "re_total", fast, naive)


@given(system=systems(), draws=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_fastmc_scalar_fallback_matches_numpy(system, draws, seed):
    vectorized = sample_re_costs(system, draws=draws, seed=seed)
    saved, fastmc._np = fastmc._np, None
    try:
        scalar = sample_re_costs(system, draws=draws, seed=seed)
    finally:
        fastmc._np = saved
    assert_sequences_equal(
        "fastmc no-numpy fallback", "re_total", scalar, vectorized
    )


@given(areas=st.lists(module_areas, min_size=1, max_size=4),
       node=catalog_node_names,
       counts=st.lists(st.integers(min_value=1, max_value=4),
                       min_size=1, max_size=3),
       technology=technology_names,
       d2d=st.floats(min_value=0.0, max_value=0.3),
       scalar=st.booleans())
def test_partition_grid_matches_oracle(areas, node, counts, technology, d2d,
                                       scalar):
    node = get_node(node)
    tech = TECHNOLOGIES[technology]()
    with mock.patch.object(
        partition_columns, "_np", None if scalar else partition_columns._np
    ):
        grid = CostEngine().partition_grid(
            "g", areas, counts, node, tech, d2d_fraction=d2d
        )
    for point in grid.points:
        oracle = compute_re_cost(partition_monolith(
            point.row, node, point.col, tech, d2d_fraction=d2d
        ))
        for component in _RE_COMPONENTS:
            assert_bit_equal(
                "CostEngine.partition_grid", component,
                getattr(point.value, component), getattr(oracle, component),
            )
        assert point.value.chip_details == oracle.chip_details


@given(area=module_areas, node=catalog_node_names, scalar=st.booleans())
def test_partition_sweep_soc_matches_oracle(area, node, scalar):
    node = get_node(node)
    with mock.patch.object(
        partition_columns, "_np", None if scalar else partition_columns._np
    ):
        sweep = CostEngine().partition_sweep(
            "s", area, node, [1], TECHNOLOGIES["mcm"]()
        )
    fast = sweep.points[0].value
    oracle = compute_re_cost(soc_reference(area, node))
    for component in _RE_COMPONENTS:
        assert_bit_equal(
            "CostEngine.partition_sweep", component,
            getattr(fast, component), getattr(oracle, component),
        )
    assert fast.chip_details == oracle.chip_details


@given(system=systems())
def test_costengine_matches_compute_re_cost(system):
    """The engine prices a built system with ``compute_re_cost`` on the
    shared die-cost memo; warm, it must equal the uncached call."""
    compute_re_cost(system)  # warm
    fast = compute_re_cost(system)
    with no_cache():
        oracle = compute_re_cost(system)
    for component in _RE_COMPONENTS:
        assert_bit_equal(
            "compute_re_cost (memoized)", component,
            getattr(fast, component), getattr(oracle, component),
        )


@given(portfolio=portfolios())
def test_fastportfolio_matches_portfolio_oracle(portfolio):
    engine = PortfolioEngine()
    batched = engine.evaluate(portfolio)
    for system, cost in zip(portfolio.systems, batched.costs):
        oracle = portfolio.amortized_cost(system)
        assert_bit_equal(
            "PortfolioEngine.evaluate", f"total[{system.name}]",
            cost.total, oracle.total,
        )
        assert_bit_equal(
            "PortfolioEngine.evaluate", f"nre[{system.name}]",
            cost.amortized_nre.total, oracle.amortized_nre.total,
        )
    assert_bit_equal(
        "PortfolioEngine.evaluate", "average",
        batched.average, portfolio.average_cost(),
    )


@given(portfolio=portfolios(),
       scales=st.lists(st.floats(min_value=0.1, max_value=10.0),
                       min_size=1, max_size=3))
def test_fastportfolio_solve_matches_scalar_evaluate(portfolio, scales):
    engine = PortfolioEngine()
    decomposition = engine.decompose(portfolio)
    solve = decomposition.solve(scales)
    for index, scale in enumerate(solve.scales):
        scalar = decomposition.evaluate(scale)
        assert_sequences_equal(
            "PortfolioDecomposition.solve", f"totals[scale={scale}]",
            solve.point_totals(index), scalar.totals(),
        )
        assert_bit_equal(
            "PortfolioDecomposition.solve", f"average[scale={scale}]",
            solve.point_average(index), scalar.average,
        )


@given(portfolio=portfolios(),
       scales=st.lists(st.floats(min_value=0.1, max_value=10.0),
                       min_size=1, max_size=3))
def test_fastportfolio_scalar_fallback_matches_numpy(portfolio, scales):
    decomposition = PortfolioEngine().decompose(portfolio)
    vectorized = decomposition.solve(scales)
    saved, fastportfolio._np = fastportfolio._np, None
    try:
        scalar = decomposition.solve(scales)
    finally:
        fastportfolio._np = saved
    for index in range(len(vectorized.scales)):
        assert_sequences_equal(
            "PortfolioDecomposition._solve_scalar", f"totals[{index}]",
            scalar.point_totals(index), vectorized.point_totals(index),
        )
        assert_bit_equal(
            "PortfolioDecomposition._solve_scalar", f"average[{index}]",
            scalar.point_average(index), vectorized.point_average(index),
        )


@given(space=design_spaces(), batch_size=batch_sizes)
def test_space_evaluator_matches_search_oracle(space, batch_size):
    with mock.patch.object(evaluate, "BATCH_SIZE", batch_size):
        fast = run_search(space)
    oracle = run_search_oracle(space)
    assert_bit_equal(
        "run_search", "n_candidates", fast.n_candidates, oracle.n_candidates
    )
    assert_sequences_equal(
        "run_search", "frontier_indices",
        fast.frontier_indices(), oracle.frontier_indices(),
    )
    for fast_candidate, oracle_candidate in zip(fast.frontier, oracle.frontier):
        for metric in ("re", "nre", "total", "silicon_area", "footprint"):
            assert_bit_equal(
                "run_search", f"frontier.{metric}[#{fast_candidate.index}]",
                getattr(fast_candidate, metric),
                getattr(oracle_candidate, metric),
            )
    assert_sequences_equal(
        "run_search", "top_indices",
        [candidate.index for candidate in fast.top],
        [candidate.index for candidate in oracle.top],
    )


@given(mode=st.floats(min_value=0.01, max_value=1.0),
       sigma=st.floats(min_value=0.01, max_value=0.5),
       count=st.integers(min_value=1, max_value=300),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_rng_prior_stream_matches_per_call_loop(mode, sigma, count, seed):
    prior = DefectDensityPrior(mode=mode, sigma=sigma)
    vectorized = sample_prior(prior, random.Random(seed), count)
    loop_rng = random.Random(seed)
    looped = [prior.sample(loop_rng) for _ in range(count)]
    assert_sequences_equal("engine.rng.sample_prior", "draws", vectorized, looped)
