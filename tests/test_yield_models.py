"""Yield models: Eq. (1) values, limits, and cross-model relations."""

import math

import pytest

from repro.errors import InvalidParameterError
from repro.process.catalog import get_node
from repro.yieldmodel.alternatives import (
    BoseEinsteinYield,
    ExponentialYield,
    GrossYield,
    MurphyYield,
    PoissonYield,
)
from repro.yieldmodel.models import (
    NegativeBinomialYield,
    SeedsYield,
    yield_model_for_node,
)


class TestNegativeBinomial:
    def test_eq1_hand_value(self):
        # 7nm at 800 mm^2: (1 + 0.09*8/10)^-10
        model = NegativeBinomialYield(0.09, 10.0)
        expected = (1.0 + 0.09 * 8.0 / 10.0) ** -10.0
        assert model.die_yield(800.0) == pytest.approx(expected)

    def test_zero_area_yields_one(self):
        assert NegativeBinomialYield(0.09, 10.0).die_yield(0.0) == 1.0

    def test_zero_defects_yields_one(self):
        assert NegativeBinomialYield(0.0, 10.0).die_yield(800.0) == 1.0

    def test_monotone_decreasing_in_area(self):
        model = NegativeBinomialYield(0.11, 10.0)
        samples = [model.die_yield(a) for a in (50, 100, 200, 400, 800)]
        assert samples == sorted(samples, reverse=True)

    def test_monotone_decreasing_in_density(self):
        yields = [
            NegativeBinomialYield(d, 10.0).die_yield(500.0)
            for d in (0.05, 0.08, 0.11, 0.20)
        ]
        assert yields == sorted(yields, reverse=True)

    def test_seeds_alias(self):
        assert SeedsYield is NegativeBinomialYield

    def test_dice_yield_is_power(self):
        model = NegativeBinomialYield(0.09, 10.0)
        single = model.die_yield(100.0)
        assert model.dice_yield(100.0, 3) == pytest.approx(single**3)

    def test_dice_yield_zero_count_is_one(self):
        assert NegativeBinomialYield(0.09, 10.0).dice_yield(100.0, 0) == 1.0

    def test_dice_yield_negative_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            NegativeBinomialYield(0.09, 10.0).dice_yield(100.0, -1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            NegativeBinomialYield(-0.1, 10.0)
        with pytest.raises(InvalidParameterError):
            NegativeBinomialYield(0.1, 0.0)

    def test_negative_area_rejected(self):
        with pytest.raises(InvalidParameterError):
            NegativeBinomialYield(0.09, 10.0).die_yield(-1.0)


class TestPoisson:
    def test_hand_value(self):
        model = PoissonYield(0.1)
        assert model.die_yield(100.0) == pytest.approx(math.exp(-0.1))

    def test_is_large_c_limit_of_negative_binomial(self):
        poisson = PoissonYield(0.09).die_yield(500.0)
        nb = NegativeBinomialYield(0.09, 1e7).die_yield(500.0)
        assert nb == pytest.approx(poisson, rel=1e-5)

    def test_poisson_is_lower_bound_on_nb(self):
        # Clustering always helps yield, so NB >= Poisson.
        for cluster in (1.0, 3.0, 10.0):
            nb = NegativeBinomialYield(0.11, cluster).die_yield(600.0)
            assert nb >= PoissonYield(0.11).die_yield(600.0)


class TestMurphy:
    def test_zero_defects(self):
        assert MurphyYield(0.0).die_yield(500.0) == 1.0

    def test_hand_value(self):
        defects = 0.1 * 500.0 / 100.0
        expected = ((1 - math.exp(-defects)) / defects) ** 2
        assert MurphyYield(0.1).die_yield(500.0) == pytest.approx(expected)

    def test_between_poisson_and_exponential(self):
        density, area = 0.11, 700.0
        poisson = PoissonYield(density).die_yield(area)
        murphy = MurphyYield(density).die_yield(area)
        exponential = ExponentialYield(density).die_yield(area)
        assert poisson < murphy < exponential


class TestExponential:
    def test_is_c_equals_one_nb(self):
        exponential = ExponentialYield(0.09).die_yield(400.0)
        nb = NegativeBinomialYield(0.09, 1.0).die_yield(400.0)
        assert exponential == pytest.approx(nb)


class TestBoseEinstein:
    def test_one_layer_matches_exponential(self):
        be = BoseEinsteinYield(0.09, critical_layers=1).die_yield(400.0)
        assert be == pytest.approx(ExponentialYield(0.09).die_yield(400.0))

    def test_more_layers_lower_yield(self):
        one = BoseEinsteinYield(0.09, 1).die_yield(400.0)
        five = BoseEinsteinYield(0.09, 5).die_yield(400.0)
        assert five < one

    def test_invalid_layers_rejected(self):
        with pytest.raises(InvalidParameterError):
            BoseEinsteinYield(0.09, 0)


class TestGrossYield:
    def test_scales_base_model(self):
        base = NegativeBinomialYield(0.09, 10.0)
        wrapped = GrossYield(base, gross_factor=0.95)
        assert wrapped.die_yield(500.0) == pytest.approx(
            0.95 * base.die_yield(500.0)
        )

    def test_exposes_defect_density(self):
        base = NegativeBinomialYield(0.09, 10.0)
        assert GrossYield(base, 0.9).defect_density == 0.09

    def test_invalid_factor_rejected(self):
        base = NegativeBinomialYield(0.09, 10.0)
        with pytest.raises(InvalidParameterError):
            GrossYield(base, 0.0)
        with pytest.raises(InvalidParameterError):
            GrossYield(base, 1.1)


class TestNodeFactory:
    def test_factory_uses_node_parameters(self):
        node = get_node("5nm")
        model = yield_model_for_node(node)
        assert model.defect_density == node.defect_density
        assert model.cluster_param == node.cluster_param

    @pytest.mark.parametrize(
        "name,area,expected",
        [
            # Paper Fig. 2 anchor points (computed from Eq. 1).
            ("3nm", 800.0, (1 + 0.20 * 8 / 10) ** -10),
            ("5nm", 800.0, (1 + 0.11 * 8 / 10) ** -10),
            ("14nm", 800.0, (1 + 0.08 * 8 / 10) ** -10),
            ("rdl", 800.0, (1 + 0.05 * 8 / 3) ** -3),
            ("si", 800.0, (1 + 0.06 * 8 / 6) ** -6),
        ],
    )
    def test_fig2_anchor_yields(self, name, area, expected):
        model = yield_model_for_node(get_node(name))
        assert model.die_yield(area) == pytest.approx(expected)
