"""Die-pricing overrides at every engine entry point: a ``die_cost_fn``
passed to the partition engine, Monte-Carlo, the search or the
portfolio engine prices exactly like the core path under the same
closure."""

import pytest

from repro.config import ConfigRegistries, build_registries
from repro.core.re_cost import compute_re_cost
from repro.engine import CostEngine
from repro.engine.fastportfolio import PortfolioEngine
from repro.errors import ConfigError
from repro.explore.montecarlo import monte_carlo_cost, monte_carlo_cost_naive
from repro.explore.partition import partition_monolith, soc_reference
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node
from repro.search.engine import run_search
from repro.search.oracle import run_search_oracle
from repro.search.space import DesignSpace


def _die_cost_fn(yield_model="poisson", wafer_geometry=""):
    return ConfigRegistries().die_cost_fn(
        yield_model, wafer_geometry, context="test"
    )


@pytest.fixture
def system():
    return partition_monolith(500.0, get_node("7nm"), 3, mcm())


class TestEngineEquivalence:
    """engine entry point under ``die_cost_fn`` == core path, bit for bit."""

    def test_monte_carlo(self, system):
        fn = _die_cost_fn()
        priced = monte_carlo_cost(system, draws=50, seed=3, die_cost_fn=fn)
        naive = monte_carlo_cost_naive(system, draws=50, seed=3, die_cost_fn=fn)
        assert priced.samples == naive.samples

    def test_sweep_and_grid(self):
        node = get_node("7nm")
        engine = CostEngine()
        fn = _die_cost_fn()

        sweep = engine.partition_sweep(
            "s", 300.0, node, [1, 2], mcm(), die_cost_fn=fn
        )
        assert sweep.values() == [
            compute_re_cost(soc_reference(300.0, node), die_cost_fn=fn),
            compute_re_cost(
                partition_monolith(300.0, node, 2, mcm()), die_cost_fn=fn
            ),
        ]

        soc = engine.partition_grid(
            "soc", [200.0, 300.0], [1], node, mcm(), soc_for_one=True,
            die_cost_fn=fn,
        )
        for area in (200.0, 300.0):
            assert soc.value(area, 1) == compute_re_cost(
                soc_reference(area, node), die_cost_fn=fn
            )

        grid = engine.partition_grid(
            "g", [300.0], [2, 3], node, mcm(), die_cost_fn=fn
        )
        for count in (2, 3):
            assert grid.value(300.0, count) == compute_re_cost(
                partition_monolith(300.0, node, count, mcm()), die_cost_fn=fn
            )


class TestSearchEquivalence:
    SPACE = DesignSpace(
        module_areas=(200.0, 400.0),
        nodes=("7nm",),
        technologies=("mcm",),
        chiplet_counts=(2, 3),
        d2d_fractions=(0.10,),
    )

    def test_run_search(self):
        fn = _die_cost_fn()
        priced = run_search(self.SPACE, die_cost_fn=fn)
        oracle = run_search_oracle(self.SPACE, die_cost_fn=fn)
        assert priced.frontier == oracle.frontier
        assert priced.top == oracle.top
        assert priced.top != run_search(self.SPACE).top

    def test_names_resolve_through_given_registries(self):
        # A yield model that exists only in the document's scoped
        # registries: the scoped layer resolves it, the global one not.
        registries = build_registries(
            {"yield_models": {"doc-poisson": {"model": "poisson"}}}
        )
        fn = registries.die_cost_fn("doc-poisson", "", context="search")
        with pytest.raises(ConfigError, match="doc-poisson"):
            _die_cost_fn("doc-poisson")
        scoped = run_search(
            self.SPACE, registries=registries, die_cost_fn=fn
        )
        oracle = run_search_oracle(
            self.SPACE, registries=registries, die_cost_fn=fn
        )
        assert scoped.frontier == oracle.frontier
        assert scoped.top == run_search(
            self.SPACE, die_cost_fn=_die_cost_fn("poisson")
        ).top


class TestPortfolioEquivalence:
    def _portfolio(self):
        from repro.reuse import FSMCConfig, build_fsmc

        study = build_fsmc(
            FSMCConfig(n_chiplets=3, k_sockets=3, module_area=150.0),
            mcm(),
        )
        return study.multichip

    def test_volume_solve(self):
        portfolio = self._portfolio()
        fn = _die_cost_fn()
        engine = PortfolioEngine()
        solve = engine.volume_solve(portfolio, [1.0, 2.0], die_cost_fn=fn)
        for index, scale in enumerate((1.0, 2.0)):
            costs = engine.evaluate(portfolio, scale, die_cost_fn=fn)
            assert solve.point_totals(index) == costs.totals()
            assert solve.point_average(index) == costs.average
        default = engine.volume_solve(portfolio, [1.0, 2.0])
        assert default.point_totals(0) != solve.point_totals(0)

    def test_evaluate(self):
        portfolio = self._portfolio()
        fn = _die_cost_fn()
        costs = PortfolioEngine().evaluate(
            portfolio, die_cost_fn=fn
        )
        for member, cost in zip(portfolio.systems, costs.costs):
            assert cost.re == compute_re_cost(member, die_cost_fn=fn)
            assert cost.amortized_nre == portfolio.amortized_nre(member)
