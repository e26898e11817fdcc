"""DieSpec and die-cost arithmetic."""

import pytest

from repro.errors import InvalidParameterError
from repro.process.catalog import get_node
from repro.wafer.die import DieCost, DieSpec, die_cost
from repro.yieldmodel.alternatives import PoissonYield


class TestDieSpec:
    def test_of_resolves_node_by_name(self):
        spec = DieSpec.of(100.0, "7nm")
        assert spec.node.name == "7nm"

    def test_nonpositive_area_rejected(self):
        with pytest.raises(InvalidParameterError):
            DieSpec.of(0.0, "7nm")

    def test_die_yield_matches_eq1(self):
        spec = DieSpec.of(800.0, "7nm")
        assert spec.die_yield == pytest.approx((1 + 0.09 * 8 / 10) ** -10)

    def test_dies_per_wafer(self):
        assert DieSpec.of(800.0, "7nm").dies_per_wafer == 64


class TestDieCost:
    def test_raw_is_wafer_share(self):
        spec = DieSpec.of(800.0, "5nm")
        cost = die_cost(spec)
        assert cost.raw == pytest.approx(16988.0 / 64)

    def test_total_is_raw_over_yield(self):
        spec = DieSpec.of(800.0, "5nm")
        cost = die_cost(spec)
        assert cost.total == pytest.approx(cost.raw / cost.die_yield)

    def test_defect_plus_raw_is_total(self):
        cost = die_cost(DieSpec.of(500.0, "7nm"))
        assert cost.raw + cost.defect == pytest.approx(cost.total)

    def test_defect_grows_with_area(self):
        small = die_cost(DieSpec.of(100.0, "5nm"))
        large = die_cost(DieSpec.of(800.0, "5nm"))
        assert large.defect / large.total > small.defect / small.total

    def test_per_mm2(self):
        cost = die_cost(DieSpec.of(200.0, "7nm"))
        assert cost.per_mm2 == pytest.approx(cost.total / 200.0)

    def test_normalized_per_mm2_above_one(self):
        # A good die always costs more per mm^2 than raw wafer area
        # (yield < 1 and edge loss), so the Fig. 2 metric is > 1.
        for area in (100, 400, 800):
            cost = die_cost(DieSpec.of(area, "5nm"))
            assert cost.normalized_per_mm2 > 1.0

    def test_normalized_grows_with_area(self):
        values = [
            die_cost(DieSpec.of(a, "3nm")).normalized_per_mm2
            for a in (100, 300, 600, 800)
        ]
        assert values == sorted(values)

    def test_custom_yield_model_override(self):
        spec = DieSpec.of(400.0, "7nm")
        default = die_cost(spec)
        poisson = die_cost(spec, yield_model=PoissonYield(0.09))
        # Poisson yield is lower, so cost is higher.
        assert poisson.total > default.total

    def test_impossible_die_rejected(self):
        with pytest.raises(InvalidParameterError):
            die_cost(DieSpec.of(60000.0, "7nm"))

    def test_mature_node_cheaper_than_advanced(self):
        advanced = die_cost(DieSpec.of(400.0, "5nm"))
        mature = die_cost(DieSpec.of(400.0, "14nm"))
        assert mature.total < advanced.total

    def test_diecost_is_dataclass_with_spec(self):
        spec = DieSpec.of(100.0, "7nm")
        cost = die_cost(spec)
        assert isinstance(cost, DieCost)
        assert cost.spec is spec
        assert cost.dies_per_wafer == spec.dies_per_wafer
