"""Assembly-flow arithmetic: Eqs. (4) and (5)."""

import pytest

from repro.errors import InvalidParameterError
from repro.packaging.assembly import (
    AssemblyFlow,
    carrier_chip_first_cost,
    carrier_chip_last_cost,
    direct_attach_cost,
)


class TestDirectAttach:
    def test_perfect_yields_no_waste(self):
        cost = direct_attach_cost(
            substrate_cost=50.0,
            assembly_fee=10.0,
            n_chips=2,
            chip_attach_yield=1.0,
            final_yield=1.0,
        ).packaging_cost(400.0)
        assert cost.raw_package == 60.0
        assert cost.package_defects == 0.0
        assert cost.wasted_kgd == 0.0

    def test_hand_value(self):
        cost = direct_attach_cost(50.0, 10.0, 2, 0.99, 0.99).packaging_cost(400.0)
        retries = 1.0 / (0.99**2 * 0.99) - 1.0
        assert cost.package_defects == pytest.approx(60.0 * retries)
        assert cost.wasted_kgd == pytest.approx(400.0 * retries)

    def test_waste_grows_with_chip_count(self):
        waste = [
            direct_attach_cost(50.0, 10.0, n, 0.99, 0.99)
            .packaging_cost(400.0)
            .wasted_kgd
            for n in (1, 2, 4, 8)
        ]
        assert waste == sorted(waste)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(InvalidParameterError):
            direct_attach_cost(-1.0, 10.0, 1, 0.99, 0.99).packaging_cost(0.0)
        with pytest.raises(InvalidParameterError):
            direct_attach_cost(50.0, 10.0, 0, 0.99, 0.99).packaging_cost(0.0)
        with pytest.raises(InvalidParameterError):
            direct_attach_cost(50.0, 10.0, 1, 0.0, 0.99).packaging_cost(0.0)
        with pytest.raises(InvalidParameterError):
            direct_attach_cost(50.0, 10.0, 1, 0.99, 1.2).packaging_cost(0.0)


class TestChipLast:
    def test_eq4_structure(self):
        """The three Eq. (4) defect terms, checked piecewise."""
        carrier, y1 = 80.0, 0.6
        substrate, fee = 40.0, 20.0
        y2, y3 = 0.99, 0.98
        n, kgd = 2, 260.0
        cost = carrier_chip_last_cost(
            carrier_cost=carrier,
            carrier_yield=y1,
            substrate_cost=substrate,
            assembly_fee=fee,
            n_chips=n,
            chip_attach_yield=y2,
            carrier_attach_yield=y3,
        ).packaging_cost(kgd)
        y2n = y2**n
        expected_defects = (
            carrier * (1.0 / (y1 * y2n * y3) - 1.0)
            + substrate * (1.0 / y3 - 1.0)
            + fee * (1.0 / (y2n * y3) - 1.0)
        )
        assert cost.raw_package == pytest.approx(carrier + substrate + fee)
        assert cost.package_defects == pytest.approx(expected_defects)
        assert cost.wasted_kgd == pytest.approx(kgd * (1.0 / (y2n * y3) - 1.0))

    def test_kgd_waste_independent_of_carrier_yield(self):
        """Chip-last: carrier is known-good before chips commit."""
        kwargs = dict(
            carrier_cost=80.0,
            substrate_cost=40.0,
            assembly_fee=20.0,
            n_chips=2,
            chip_attach_yield=0.99,
            carrier_attach_yield=0.98,
        )
        low = carrier_chip_last_cost(carrier_yield=0.4, **kwargs).packaging_cost(260.0)
        high = carrier_chip_last_cost(carrier_yield=0.9, **kwargs).packaging_cost(260.0)
        assert low.wasted_kgd == pytest.approx(high.wasted_kgd)
        assert low.package_defects > high.package_defects


class TestChipFirst:
    def test_kgd_waste_includes_carrier_losses(self):
        kwargs = dict(
            carrier_cost=80.0,
            carrier_yield=0.6,
            substrate_cost=40.0,
            assembly_fee=20.0,
            n_chips=2,
            chip_attach_yield=0.99,
            carrier_attach_yield=0.98,
        )
        first = carrier_chip_first_cost(**kwargs).packaging_cost(260.0)
        last = carrier_chip_last_cost(**kwargs).packaging_cost(260.0)
        # The paper: chip-first "would result in a huge waste on KGDs".
        assert first.wasted_kgd > last.wasted_kgd

    def test_flows_equal_with_perfect_carrier(self):
        kwargs = dict(
            carrier_cost=80.0,
            carrier_yield=1.0,
            substrate_cost=40.0,
            assembly_fee=20.0,
            n_chips=3,
            chip_attach_yield=0.99,
            carrier_attach_yield=0.98,
        )
        first = carrier_chip_first_cost(**kwargs).packaging_cost(260.0)
        last = carrier_chip_last_cost(**kwargs).packaging_cost(260.0)
        assert first.wasted_kgd == pytest.approx(last.wasted_kgd)
        assert first.total == pytest.approx(last.total)

    def test_chip_first_total_at_least_chip_last(self):
        """With any imperfect carrier, chip-last is never worse."""
        for y1 in (0.5, 0.7, 0.9, 0.99):
            kwargs = dict(
                carrier_cost=80.0,
                carrier_yield=y1,
                substrate_cost=40.0,
                assembly_fee=20.0,
                n_chips=2,
                chip_attach_yield=0.99,
                carrier_attach_yield=0.98,
            )
            first = carrier_chip_first_cost(**kwargs).packaging_cost(260.0)
            last = carrier_chip_last_cost(**kwargs).packaging_cost(260.0)
            assert first.total >= last.total - 1e-9


def test_assembly_flow_enum_values():
    assert AssemblyFlow.CHIP_LAST.value == "chip-last"
    assert AssemblyFlow.CHIP_FIRST.value == "chip-first"
