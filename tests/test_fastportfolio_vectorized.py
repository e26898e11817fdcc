"""Vectorized portfolio solves: bit-parity with the scalar path (and
hence the Portfolio oracle) on the paper studies and on synthetic
many-system portfolios, the numpy-free fallback, and
die-cost overrides threaded into decompositions."""

import pytest

from repro.config import ConfigRegistries
from repro.core.module import Module
from repro.core.system import chiplet, multichip
from repro.d2d.overhead import FractionOverhead
from repro.engine.costengine import CostEngine
from repro.engine.fastportfolio import PortfolioEngine
from repro.errors import InvalidParameterError
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node
from repro.reuse.fsmc import FSMCConfig, build_fsmc
from repro.reuse.ocme import OCMEConfig, build_ocme
from repro.reuse.portfolio import Portfolio
from repro.reuse.scms import SCMSConfig, build_scms

SCALES = (0.25, 0.5, 1.0, 2.0, 7.3)


@pytest.fixture
def engine():
    return PortfolioEngine(CostEngine())


def synthetic_portfolio(n_systems: int, n_designs: int = 6) -> Portfolio:
    node = get_node("7nm")
    pool = [
        chiplet(
            f"tile-{index}",
            [Module(f"ip-{index}", 40.0 + 15.0 * index, node)],
            node,
            d2d=FractionOverhead(0.1),
        )
        for index in range(n_designs)
    ]
    return Portfolio(
        multichip(
            f"sys-{index:04d}",
            [pool[(index + j) % n_designs] for j in range(2 + index % 3)],
            mcm(),
            quantity=50_000.0 + 1_000.0 * (index % 7),
        )
        for index in range(n_systems)
    )


def _assert_solve_matches_scalar(engine, portfolio, scales=SCALES):
    decomposition = engine.decompose(portfolio)
    solve = decomposition.solve(scales)
    assert solve.scales == tuple(float(scale) for scale in scales)
    for index, scale in enumerate(scales):
        costs = decomposition.evaluate(scale)
        assert solve.point_totals(index) == costs.totals()
        assert solve.point_average(index) == costs.average
        for position, cost in enumerate(costs.costs):
            nre = cost.amortized_nre
            assert float(solve.nre_modules[index][position]) == nre.modules
            assert float(solve.nre_chips[index][position]) == nre.chips
            assert float(solve.nre_packages[index][position]) == nre.packages
            assert float(solve.nre_d2d[index][position]) == nre.d2d
            assert float(solve.quantities[index][position]) == cost.quantity


class TestPaperStudyParity:
    """solve() == evaluate() element-for-element on Figs. 8-10."""

    def test_scms_fig8(self, engine, study_portfolios):
        study = build_scms(SCMSConfig(), mcm())
        for portfolio in study_portfolios(study):
            _assert_solve_matches_scalar(engine, portfolio)

    def test_ocme_fig9(self, engine, study_portfolios):
        study = build_ocme(OCMEConfig(), mcm())
        for portfolio in study_portfolios(study):
            _assert_solve_matches_scalar(engine, portfolio)

    def test_fsmc_fig10(self, engine, study_portfolios):
        study = build_fsmc(FSMCConfig(n_chiplets=4, k_sockets=3), mcm())
        for portfolio in study_portfolios(study):
            _assert_solve_matches_scalar(engine, portfolio)

    def test_volume_sweep_matches_rebuilt_oracle(self, engine):
        """Every table of a volume solve stays bit-identical to an
        oracle rebuilt at the scaled quantities."""
        base = SCMSConfig()
        study = build_scms(base, mcm())
        solve = engine.volume_solve(study.chiplet, SCALES)
        for index, scale in enumerate(SCALES):
            rebuilt = build_scms(
                SCMSConfig(quantity=base.quantity * scale), mcm()
            ).chiplet
            for position, system in enumerate(rebuilt.systems):
                oracle = rebuilt.amortized_cost(system)
                nre = oracle.amortized_nre
                assert float(solve.totals[index][position]) == oracle.total
                assert float(solve.quantities[index][position]) == (
                    oracle.quantity
                )
                assert float(solve.nre_modules[index][position]) == nre.modules
                assert float(solve.nre_chips[index][position]) == nre.chips
                assert float(solve.nre_packages[index][position]) == (
                    nre.packages
                )
                assert float(solve.nre_d2d[index][position]) == nre.d2d
            assert float(solve.averages[index]) == rebuilt.average_cost()


class TestManySystemParity:
    def test_synthetic_portfolio(self, engine):
        _assert_solve_matches_scalar(engine, synthetic_portfolio(150))

    def test_volume_solve_front_end(self, engine):
        portfolio = synthetic_portfolio(25)
        solve = engine.volume_solve(portfolio, (0.5, 2.0))
        assert solve.portfolio is portfolio
        assert solve.point_average(0) > solve.point_average(1)


class TestFallbackAndValidation:
    def test_scalar_fallback_without_numpy(self, engine, request):
        portfolio = synthetic_portfolio(30)
        vector = engine.decompose(portfolio).solve(SCALES)
        request.getfixturevalue("no_numpy")
        scalar = PortfolioEngine(CostEngine()).volume_solve(portfolio, SCALES)
        for index in range(len(SCALES)):
            assert scalar.point_totals(index) == vector.point_totals(index)
            assert scalar.point_average(index) == vector.point_average(index)

    def test_empty_scales_rejected(self, engine):
        portfolio = synthetic_portfolio(5)
        with pytest.raises(InvalidParameterError):
            engine.volume_solve(portfolio, ())

    def test_non_positive_scale_rejected(self, engine):
        portfolio = synthetic_portfolio(5)
        for bad in (0.0, -1.0):
            with pytest.raises(InvalidParameterError):
                engine.volume_solve(portfolio, (1.0, bad))


class TestDieCostOverride:
    def test_override_reprices_and_caches_separately(self, engine):
        portfolio = synthetic_portfolio(10)
        override = ConfigRegistries().die_cost_fn(yield_model="poisson")
        plain = engine.decompose(portfolio)
        priced = engine.decompose(portfolio, die_cost_fn=override)
        assert priced is not plain
        assert engine.decompose(portfolio, die_cost_fn=override) is priced
        assert engine.decompose(portfolio) is plain
        base = plain.evaluate().totals()
        repriced = priced.evaluate().totals()
        assert base != repriced
        # NRE is design cost: unaffected by the yield model.
        assert plain.evaluate().costs[0].amortized_nre == (
            priced.evaluate().costs[0].amortized_nre
        )

    def test_override_threads_through_volume_solve(self, engine):
        portfolio = synthetic_portfolio(10)
        override = ConfigRegistries().die_cost_fn(
            yield_model="murphy", wafer_geometry="300mm"
        )
        plain = engine.volume_solve(portfolio, (1.0, 2.0))
        priced = engine.volume_solve(portfolio, (1.0, 2.0), die_cost_fn=override)
        assert plain.point_totals(0) != priced.point_totals(0)
