"""Heterogeneity comparison, sensitivity tornado and Monte-Carlo."""

import pytest

from repro.core.chip import Chip
from repro.core.module import Module
from repro.core.re_cost import compute_re_cost
from repro.core.system import multichip
from repro.d2d.overhead import FractionOverhead
from repro.errors import InvalidParameterError
from repro.explore.heterogeneity import compare_center_nodes
from repro.explore.montecarlo import CostDistribution, monte_carlo_cost
from repro.explore.partition import partition_monolith, soc_reference
from repro.explore.sensitivity import SensitivityResult, system_tornado
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node


@pytest.fixture
def ocme_like_system(n7, d2d10, mcm_tech):
    center_module = Module("center", 160.0, n7, scalable_fraction=0.0)
    ext_module = Module("ext", 160.0, n7)
    center = Chip.of("center-chip", (center_module,), n7, d2d=d2d10)
    ext = Chip.of("ext-chip", (ext_module,), n7, d2d=d2d10)
    return center, multichip("sys", [center, ext, ext], mcm_tech)


class TestHeterogeneity:
    def test_mature_center_cheaper(self, ocme_like_system, n7, n14):
        center, system = ocme_like_system
        results = compare_center_nodes(system, center, [n7, n14])
        assert results[0].node.name == "7nm"
        assert results[1].re_per_unit < results[0].re_per_unit
        assert results[1].saving_vs(results[0]) > 0

    def test_original_node_uses_same_chip(self, ocme_like_system, n7):
        center, system = ocme_like_system
        [result] = compare_center_nodes(system, center, [n7])
        assert result.chip_area == pytest.approx(center.area)
        assert result.total_per_unit == pytest.approx(
            compute_re_cost(system).total
            + __import__(
                "repro.core.nre_cost", fromlist=["compute_system_nre"]
            ).compute_system_nre(system).total
            / system.quantity
        )

    def test_unscalable_center_area_constant(self, ocme_like_system, n7, n14):
        center, system = ocme_like_system
        results = compare_center_nodes(system, center, [n7, n14])
        assert results[0].chip_area == pytest.approx(results[1].chip_area)

    def test_foreign_chip_rejected(self, ocme_like_system, n7):
        _center, system = ocme_like_system
        stranger = Chip.of(
            "stranger", (Module("m", 10.0, n7),), n7, d2d=FractionOverhead(0.1)
        )
        with pytest.raises(InvalidParameterError):
            compare_center_nodes(system, stranger, [n7])

    def test_empty_candidates_rejected(self, ocme_like_system):
        center, system = ocme_like_system
        with pytest.raises(InvalidParameterError):
            compare_center_nodes(system, center, [])


class TestSensitivity:
    def test_tornado_sorted_by_swing(self, n5):
        def build(parameter: str, scale: float):
            d2d = 0.10 * scale if parameter == "d2d" else 0.10
            density_scale = scale if parameter == "defect_density" else 1.0
            node = n5.with_defect_density(n5.defect_density * density_scale)
            return partition_monolith(800.0, node, 2, mcm(), d2d_fraction=d2d)

        results = system_tornado(["d2d", "defect_density"], build, step=0.2)
        swings = [result.swing for result in results]
        assert swings == sorted(swings, reverse=True)
        # Defect density moves cost more than D2D fraction at 5nm/800mm^2.
        assert results[0].parameter == "defect_density"

    def test_tornado_relative_swing(self):
        result = SensitivityResult(
            parameter="x", base=100.0, low=80.0, high=120.0, step=0.2
        )
        assert result.swing == pytest.approx(40.0)
        assert result.relative_swing == pytest.approx(0.4)

    def test_invalid_step(self, n5):
        build = lambda p, s: soc_reference(100.0, n5)  # noqa: E731
        with pytest.raises(InvalidParameterError):
            system_tornado(["x"], build, step=0.0)

    def test_empty_parameters(self, n5):
        build = lambda p, s: soc_reference(100.0, n5)  # noqa: E731
        with pytest.raises(InvalidParameterError):
            system_tornado([], build)


class TestMonteCarlo:
    def test_deterministic_given_seed(self, n5):
        system = soc_reference(400.0, n5)
        a = monte_carlo_cost(system, draws=50, seed=1)
        b = monte_carlo_cost(system, draws=50, seed=1)
        assert a.samples == b.samples

    def test_mean_near_nominal(self, n5):
        system = soc_reference(400.0, n5)
        nominal = compute_re_cost(system).total
        distribution = monte_carlo_cost(system, draws=400, sigma=0.10, seed=2)
        assert distribution.mean == pytest.approx(nominal, rel=0.10)

    def test_quantiles_ordered(self, n5):
        system = soc_reference(400.0, n5)
        distribution = monte_carlo_cost(system, draws=200, seed=3)
        q10 = distribution.quantile(0.10)
        q50 = distribution.quantile(0.50)
        q90 = distribution.quantile(0.90)
        assert q10 <= q50 <= q90
        assert distribution.quantile(0.0) == min(distribution.samples)
        assert distribution.quantile(1.0) == max(distribution.samples)

    def test_zero_sigma_degenerate(self, n5):
        system = soc_reference(400.0, n5)
        distribution = monte_carlo_cost(system, draws=20, sigma=0.0, seed=4)
        assert distribution.std == pytest.approx(0.0, abs=1e-9)

    def test_invalid_quantile(self):
        distribution = CostDistribution(samples=(1.0, 2.0))
        with pytest.raises(InvalidParameterError):
            distribution.quantile(1.5)

    def test_invalid_draws(self, n5):
        with pytest.raises(InvalidParameterError):
            monte_carlo_cost(soc_reference(400.0, n5), draws=0)
