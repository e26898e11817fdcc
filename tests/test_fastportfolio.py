"""PortfolioEngine: bit-parity with the Portfolio oracle, closed-form
volume sweeps, and reuse edge cases (single system, full sharing,
oversized FSMC sockets)."""

import pytest

from repro.engine.fastportfolio import PortfolioEngine
from repro.core.system import multichip
from repro.errors import InvalidParameterError
from repro.packaging.interposer import interposer_25d
from repro.packaging.mcm import mcm
from repro.reuse.fsmc import FSMCConfig, build_fsmc
from repro.reuse.ocme import OCMEConfig, build_ocme
from repro.reuse.portfolio import Portfolio
from repro.reuse.scms import SCMSConfig, build_scms


@pytest.fixture
def engine():
    return PortfolioEngine()


def _assert_bit_identical(engine, portfolio):
    costs = engine.evaluate(portfolio)
    for system, cost in zip(portfolio.systems, costs.costs):
        oracle = portfolio.amortized_cost(system)
        assert cost.re.total == oracle.re.total
        assert cost.re.raw_chips == oracle.re.raw_chips
        assert cost.re.wasted_kgd == oracle.re.wasted_kgd
        assert cost.amortized_nre.modules == oracle.amortized_nre.modules
        assert cost.amortized_nre.chips == oracle.amortized_nre.chips
        assert cost.amortized_nre.packages == oracle.amortized_nre.packages
        assert cost.amortized_nre.d2d == oracle.amortized_nre.d2d
        assert cost.total == oracle.total
        assert cost.quantity == system.quantity
    assert costs.average == portfolio.average_cost()


class TestOracleParity:
    """Engine results must be ``==`` the oracle on the paper studies."""

    def test_scms_fig8(self, engine, study_portfolios):
        for tech in (mcm(), interposer_25d()):
            study = build_scms(SCMSConfig(), tech)
            for portfolio in study_portfolios(study):
                _assert_bit_identical(engine, portfolio)

    def test_ocme_fig9(self, engine, study_portfolios):
        study = build_ocme(OCMEConfig(), mcm())
        for portfolio in study_portfolios(study):
            _assert_bit_identical(engine, portfolio)

    def test_fsmc_fig10(self, engine, study_portfolios):
        study = build_fsmc(FSMCConfig(n_chiplets=4, k_sockets=3), mcm())
        for portfolio in study_portfolios(study):
            _assert_bit_identical(engine, portfolio)

    def test_amortized_cost_drop_in(self, engine):
        study = build_scms(SCMSConfig(), mcm())
        portfolio = study.chiplet_package_reused
        costs = engine.evaluate(portfolio).costs
        for index, system in enumerate(portfolio.systems):
            assert costs[index] == portfolio.amortized_cost(system)


class TestVolumeSweep:
    """Closed-form volume scaling vs a study rebuilt per point."""

    def test_bit_parity_with_rebuilt_oracle(self, engine):
        base = SCMSConfig()
        study = build_scms(base, mcm())
        for scale in (0.25, 1.0, 2.0, 7.3):
            rebuilt = build_scms(
                SCMSConfig(quantity=base.quantity * scale), mcm()
            )
            fast = engine.evaluate(study.chiplet, volume_scale=scale)
            naive = [
                rebuilt.chiplet.amortized_cost(system).total
                for system in rebuilt.chiplet.systems
            ]
            assert list(fast.totals()) == naive
            assert fast.average == rebuilt.chiplet.average_cost()

    def test_sweep_points(self, engine):
        study = build_fsmc(FSMCConfig(n_chiplets=2, k_sockets=2), mcm())
        scales = (0.5, 1.0, 2.0)
        solve = engine.volume_solve(study.multichip, scales)
        assert solve.scales == scales
        # Higher volume amortizes NRE further: average falls.
        averages = [solve.point_average(index) for index in range(3)]
        assert averages[0] > averages[1] > averages[2]
        # RE does not depend on volume.
        re_totals = {
            engine.evaluate(study.multichip, scale).costs[0].re.total
            for scale in scales
        }
        assert len(re_totals) == 1

    def test_invalid_scale_rejected(self, engine):
        study = build_fsmc(FSMCConfig(n_chiplets=2, k_sockets=2), mcm())
        with pytest.raises(InvalidParameterError):
            engine.evaluate(study.multichip, volume_scale=0.0)
        with pytest.raises(InvalidParameterError):
            engine.volume_solve(study.multichip, ())


class TestEdgeCases:
    def test_single_system_portfolio(self, engine, simple_soc):
        portfolio = Portfolio([simple_soc])
        _assert_bit_identical(engine, portfolio)

    def test_chip_shared_across_all_systems(self, engine, simple_chiplet, mcm_tech):
        systems = [
            multichip(
                f"s{i}", [simple_chiplet] * (i + 1), mcm_tech, quantity=1000.0
            )
            for i in range(4)
        ]
        portfolio = Portfolio(systems)
        _assert_bit_identical(engine, portfolio)
        # One shared chip design: every system bears the same chip share.
        shares = {
            cost.amortized_nre.chips
            for cost in engine.evaluate(portfolio).costs
        }
        assert len(shares) == 1

    def test_fsmc_more_sockets_than_chiplets(self, engine, study_portfolios):
        study = build_fsmc(FSMCConfig(n_chiplets=2, k_sockets=4), mcm())
        assert study.system_count == 2 + 3 + 4 + 5
        for portfolio in study_portfolios(study):
            _assert_bit_identical(engine, portfolio)

    def test_non_member_rejected(self, engine, simple_chiplet, mcm_tech):
        member = multichip("m", [simple_chiplet], mcm_tech, quantity=1.0)
        outsider = multichip("o", [simple_chiplet], mcm_tech, quantity=1.0)
        portfolio = Portfolio([member])
        with pytest.raises(InvalidParameterError):
            portfolio.system_design_keys(outsider)


class TestCaching:
    def test_decomposition_memoized(self, engine):
        study = build_scms(SCMSConfig(), mcm())
        first = engine.decompose(study.chiplet)
        assert engine.decompose(study.chiplet) is first
        engine.clear_caches()
        assert engine.decompose(study.chiplet) is not first
