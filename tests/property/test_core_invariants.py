"""Core model invariants (migrated from ``tests/test_properties.py``).

The original ad-hoc inline strategies now come from the shared
``strategies`` module; the invariant families (yield bounds and
monotonicity, wafer geometry, area scaling, cost-breakdown algebra,
assembly-flow ordering, FSMC combinatorics, model-level conservation
laws) are unchanged — no lost coverage.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.breakdown import NRECost, RECost
from repro.core.module import Module
from repro.core.re_cost import compute_re_cost
from repro.core.system import multichip
from repro.core.system import chiplet as make_chiplet
from repro.d2d.overhead import FractionOverhead
from repro.explore.partition import partition_monolith
from repro.packaging.assembly import (
    carrier_chip_first_cost,
    carrier_chip_last_cost,
    direct_attach_cost,
)
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node
from repro.process.scaling import area_scale_factor
from repro.reuse.fsmc import collocation_count, enumerate_collocations
from repro.reuse.portfolio import Portfolio
from repro.wafer.geometry import WaferGeometry
from repro.yieldmodel.models import NegativeBinomialYield
from strategies import areas, catalog_node_names, clusters, densities


class TestYieldProperties:
    @given(density=densities, cluster=clusters, area=areas)
    def test_yield_in_unit_interval(self, density, cluster, area):
        y = NegativeBinomialYield(density, cluster).die_yield(area)
        assert 0.0 < y <= 1.0

    @given(density=densities, cluster=clusters,
           a=areas, b=areas)
    def test_yield_monotone_in_area(self, density, cluster, a, b):
        model = NegativeBinomialYield(density, cluster)
        low, high = sorted((a, b))
        assert model.die_yield(high) <= model.die_yield(low) + 1e-12

    @given(cluster=clusters, area=areas, d1=densities, d2=densities)
    def test_yield_monotone_in_density(self, cluster, area, d1, d2):
        low, high = sorted((d1, d2))
        assert NegativeBinomialYield(high, cluster).die_yield(
            area
        ) <= NegativeBinomialYield(low, cluster).die_yield(area) + 1e-12

    @given(density=st.floats(min_value=0.01, max_value=0.5),
           area=areas,
           c1=st.floats(min_value=0.5, max_value=50.0),
           c2=st.floats(min_value=0.5, max_value=50.0))
    def test_clustering_helps_yield(self, density, area, c1, c2):
        """Smaller c (more clustering) never hurts yield."""
        low, high = sorted((c1, c2))
        y_low_c = NegativeBinomialYield(density, low).die_yield(area)
        y_high_c = NegativeBinomialYield(density, high).die_yield(area)
        assert y_low_c >= y_high_c - 1e-12


class TestGeometryProperties:
    @given(area=st.floats(min_value=1.0, max_value=5000.0))
    def test_dpw_bounded_by_area_ratio(self, area):
        geometry = WaferGeometry()
        count = geometry.dies_per_wafer(area)
        assert 0 <= count <= geometry.wafer_area / area

    @given(a=st.floats(min_value=1.0, max_value=5000.0),
           b=st.floats(min_value=1.0, max_value=5000.0))
    def test_dpw_monotone(self, a, b):
        geometry = WaferGeometry()
        low, high = sorted((a, b))
        assert geometry.dies_per_wafer(high) <= geometry.dies_per_wafer(low)

    @given(area=st.floats(min_value=1.0, max_value=2000.0),
           scribe=st.floats(min_value=0.0, max_value=1.0))
    def test_scribe_never_increases_count(self, area, scribe):
        plain = WaferGeometry().dies_per_wafer(area)
        scribed = WaferGeometry(scribe_width=scribe).dies_per_wafer(area)
        assert scribed <= plain


class TestScalingProperties:
    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_scale_factor_round_trip(self, fraction):
        n14, n7 = get_node("14nm"), get_node("7nm")
        forward = area_scale_factor(n14, n7, fraction)
        assert forward > 0
        if fraction == 1.0:
            assert forward * area_scale_factor(n7, n14, 1.0) == pytest.approx(
                1.0
            )

    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_factor_between_extremes(self, fraction):
        n14, n7 = get_node("14nm"), get_node("7nm")
        full = area_scale_factor(n14, n7, 1.0)
        factor = area_scale_factor(n14, n7, fraction)
        low, high = sorted((full, 1.0))
        assert low - 1e-12 <= factor <= high + 1e-12


class TestBreakdownProperties:
    re_values = st.tuples(*[st.floats(min_value=0.0, max_value=1e6)] * 5)

    @given(values=re_values, factor=st.floats(min_value=0.001, max_value=1e3))
    def test_scaling_linear(self, values, factor):
        re = RECost(*values)
        assert re.scaled(factor).total == pytest.approx(re.total * factor)

    @given(a=re_values, b=re_values)
    def test_addition_componentwise(self, a, b):
        total = RECost(*a) + RECost(*b)
        assert total.total == pytest.approx(RECost(*a).total + RECost(*b).total)

    @given(values=re_values)
    def test_groups_partition_total(self, values):
        re = RECost(*values)
        assert re.chips_total + re.packaging_total == pytest.approx(re.total)

    @given(values=st.tuples(*[st.floats(min_value=0.0, max_value=1e6)] * 4))
    def test_nre_total(self, values):
        nre = NRECost(*values)
        assert nre.total == pytest.approx(sum(values))


class TestAssemblyProperties:
    yields = st.floats(min_value=0.5, max_value=1.0)

    @given(y1=yields, y2=yields, y3=yields,
           n=st.integers(min_value=1, max_value=8),
           kgd=st.floats(min_value=0.0, max_value=1e4))
    def test_chip_first_never_cheaper(self, y1, y2, y3, n, kgd):
        kwargs = dict(
            carrier_cost=100.0,
            carrier_yield=y1,
            substrate_cost=40.0,
            assembly_fee=10.0,
            n_chips=n,
            chip_attach_yield=y2,
            carrier_attach_yield=y3,
        )
        first = carrier_chip_first_cost(**kwargs).packaging_cost(kgd)
        last = carrier_chip_last_cost(**kwargs).packaging_cost(kgd)
        assert first.total >= last.total - 1e-9

    @given(y2=yields, y3=yields,
           n=st.integers(min_value=1, max_value=8),
           kgd=st.floats(min_value=0.0, max_value=1e4))
    def test_direct_attach_components_nonnegative(self, y2, y3, n, kgd):
        cost = direct_attach_cost(50.0, 10.0, n, y2, y3).packaging_cost(kgd)
        assert cost.raw_package >= 0
        assert cost.package_defects >= 0
        assert cost.wasted_kgd >= 0

    @given(kgd=st.floats(min_value=0.0, max_value=1e4),
           n1=st.integers(min_value=1, max_value=4),
           n2=st.integers(min_value=1, max_value=4))
    def test_waste_monotone_in_chip_count(self, kgd, n1, n2):
        low, high = sorted((n1, n2))
        a = direct_attach_cost(50.0, 10.0, low, 0.99, 0.99).packaging_cost(kgd)
        b = direct_attach_cost(50.0, 10.0, high, 0.99, 0.99).packaging_cost(kgd)
        assert b.wasted_kgd >= a.wasted_kgd - 1e-12


class TestFSMCProperties:
    @given(n=st.integers(min_value=1, max_value=7),
           k=st.integers(min_value=1, max_value=5))
    def test_closed_form_matches_enumeration(self, n, k):
        assert len(enumerate_collocations(n, k)) == collocation_count(n, k)

    @given(n=st.integers(min_value=1, max_value=7),
           k=st.integers(min_value=1, max_value=5))
    def test_count_is_sum_of_multiset_coefficients(self, n, k):
        expected = sum(math.comb(n + i - 1, i) for i in range(1, k + 1))
        assert collocation_count(n, k) == expected

    @given(n=st.integers(min_value=1, max_value=6),
           k=st.integers(min_value=1, max_value=4))
    def test_collocations_canonical(self, n, k):
        for collocation in enumerate_collocations(n, k):
            assert tuple(sorted(collocation)) == collocation
            assert all(0 <= index < n for index in collocation)


class TestModelProperties:
    @settings(max_examples=25)
    @given(area=st.floats(min_value=50.0, max_value=900.0),
           node=catalog_node_names)
    def test_re_breakdown_sums(self, area, node):
        system = partition_monolith(area, get_node(node), 2, mcm())
        re = compute_re_cost(system)
        assert re.total == pytest.approx(sum(re.as_dict().values()))

    @settings(max_examples=25)
    @given(area=st.floats(min_value=50.0, max_value=900.0),
           node=catalog_node_names,
           count=st.integers(min_value=2, max_value=6))
    def test_partition_conserves_module_area(self, area, node, count):
        system = partition_monolith(area, get_node(node), count, mcm())
        assert system.module_area == pytest.approx(area)

    @settings(max_examples=25)
    @given(area=st.floats(min_value=50.0, max_value=500.0),
           quantity=st.floats(min_value=1e3, max_value=1e8))
    def test_portfolio_conserves_nre(self, area, quantity):
        """Summing amortized shares over production recovers total NRE."""
        node = get_node("7nm")
        module = Module("m", area, node)
        chip = make_chiplet("c", [module], node, FractionOverhead(0.1))
        one = multichip("one", [chip], mcm(), quantity=quantity)
        two = multichip("two", [chip, chip], mcm(), quantity=quantity * 2)
        portfolio = Portfolio([one, two])
        recovered = sum(
            portfolio.amortized_nre(system).total * system.quantity
            for system in portfolio.systems
        )
        assert recovered == pytest.approx(
            portfolio.total_nre().total, rel=1e-9
        )

    @settings(max_examples=20)
    @given(area=st.floats(min_value=100.0, max_value=900.0),
           fraction=st.floats(min_value=0.0, max_value=0.4))
    def test_d2d_overhead_never_reduces_cost(self, area, fraction):
        node = get_node("5nm")
        base = compute_re_cost(
            partition_monolith(area, node, 2, mcm(), d2d_fraction=0.0)
        ).total
        with_d2d = compute_re_cost(
            partition_monolith(area, node, 2, mcm(), d2d_fraction=fraction)
        ).total
        assert with_d2d >= base - 1e-9
