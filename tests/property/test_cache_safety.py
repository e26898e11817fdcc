"""Cache-staleness safety on arbitrary generated inputs.

The engine's throughput comes from memoization — the value-keyed
die-cost LRU and per-(portfolio, override) decompositions.  The
invariant: *no mutation of inputs, overrides or registries may ever
surface a stale memoized cost.*  Every property warms a cache, changes
something, and compares against a freshly computed oracle (priced
under ``no_cache()`` where the cache is the die-cost LRU).
"""

from hypothesis import given
from hypothesis import strategies as st

from checks import assert_bit_equal, assert_sequences_equal
from repro.config import ConfigRegistries
from repro.core.re_cost import compute_re_cost
from repro.engine.costengine import CostEngine
from repro.wafer.diecache import no_cache
from repro.engine.fastmc import sample_re_costs
from repro.engine.fastportfolio import PortfolioDecomposition, PortfolioEngine
from repro.explore.montecarlo import monte_carlo_cost_naive
from repro.explore.partition import partition_monolith
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node
from strategies import catalog_node_names, module_areas, portfolios, systems


@given(first=systems(), second=systems())
def test_warm_cache_never_serves_other_systems_cost(first, second):
    compute_re_cost(first)  # warm
    compute_re_cost(second)  # may collide in the die-cost cache
    again = compute_re_cost(first)
    with no_cache():
        oracle = compute_re_cost(first)
    assert_bit_equal(
        "die-cost warm cache", "re_total", again.total, oracle.total,
    )


@given(area=module_areas, node=catalog_node_names,
       count=st.integers(min_value=2, max_value=4),
       factor=st.floats(min_value=0.2, max_value=5.0))
def test_node_mutation_reprices(area, node, count, factor):
    """An evolved node (new defect density) must never reuse the old
    node's memoized die cost."""
    base = get_node(node)
    original = partition_monolith(area, base, count, mcm())
    compute_re_cost(original)  # warm the die-cost cache
    evolved = base.with_defect_density(base.defect_density * factor)
    mutated = partition_monolith(area, evolved, count, mcm())
    warm = compute_re_cost(mutated)
    with no_cache():
        oracle = compute_re_cost(mutated)
    assert_bit_equal(
        "die-cost node mutation", "re_total", warm.total, oracle.total,
    )


@given(system=systems())
def test_die_cost_override_switching_never_stale(system):
    """fn1 -> fn2 -> None on the same warmed cache, each correct."""
    registries = ConfigRegistries()
    fn1 = registries.die_cost_fn("poisson", "")
    fn2 = registries.die_cost_fn("murphy", "450mm")
    for override in (fn1, fn2, None, fn1):
        warm = compute_re_cost(system, die_cost_fn=override)
        with no_cache():
            oracle = compute_re_cost(system, die_cost_fn=override)
        assert_bit_equal(
            "die-cost override switching",
            f"re_total[{'default' if override is None else 'override'}]",
            warm.total, oracle.total,
        )


@given(portfolio=portfolios())
def test_portfolio_decomposition_cache_keyed_by_override(portfolio):
    registries = ConfigRegistries()
    fn1 = registries.die_cost_fn("poisson", "")
    engine = PortfolioEngine()
    for override in (None, fn1, None):
        batched = engine.evaluate(portfolio, die_cost_fn=override)
        fresh = PortfolioDecomposition(
            portfolio, die_cost_fn=override
        ).evaluate()
        assert_sequences_equal(
            "PortfolioEngine override switching", "totals",
            batched.totals(), fresh.totals(),
        )


@given(system=systems(), draws=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_mc_override_then_default_never_stale(system, draws, seed):
    """A die-cost override on one MC call must not leak into the next."""
    override = ConfigRegistries().die_cost_fn("poisson", "")
    sample_re_costs(system, draws=draws, seed=seed, die_cost_fn=override)
    plain = sample_re_costs(system, draws=draws, seed=seed)
    naive = monte_carlo_cost_naive(system, draws=draws, seed=seed).samples
    assert_sequences_equal(
        "fastmc override isolation", "re_total", plain, naive
    )


@given(system=systems())
def test_clear_caches_preserves_results(system):
    before = compute_re_cost(system)
    CostEngine().clear_caches()
    after = compute_re_cost(system)
    assert_bit_equal(
        "CostEngine.clear_caches", "re_total", after.total, before.total
    )
