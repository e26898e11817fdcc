"""System construction and invariants."""

import pytest

from repro.core.chip import Chip
from repro.core.module import Module
from repro.core.package_design import PackageDesign
from repro.core.system import System, chiplet, multichip, soc
from repro.d2d.overhead import FractionOverhead
from repro.errors import EmptySystemError, InvalidParameterError


class TestConstruction:
    def test_soc_constructor(self, simple_module, n7, soc_pkg):
        system = soc("s", [simple_module], n7, soc_pkg, quantity=1000)
        assert len(system.chips) == 1
        assert not system.is_multichip
        assert not system.chips[0].is_chiplet
        assert system.quantity == 1000

    def test_multichip_constructor(self, simple_chiplet, mcm_tech):
        system = multichip("m", [simple_chiplet] * 3, mcm_tech)
        assert system.is_multichip
        assert len(system.chips) == 3

    def test_chiplet_constructor(self, simple_module, n7, d2d10):
        chip = chiplet("c", [simple_module], n7, d2d10)
        assert chip.is_chiplet

    def test_empty_system_rejected(self, mcm_tech):
        with pytest.raises(EmptySystemError):
            System(name="x", chips=(), integration=mcm_tech)

    def test_nonpositive_quantity_rejected(self, simple_chiplet, mcm_tech):
        with pytest.raises(InvalidParameterError):
            System(
                name="x",
                chips=(simple_chiplet,),
                integration=mcm_tech,
                quantity=0,
            )

    def test_nan_quantity_rejected(self, simple_chiplet, mcm_tech):
        with pytest.raises(InvalidParameterError, match="quantity must be > 0"):
            System(
                name="x",
                chips=(simple_chiplet,),
                integration=mcm_tech,
                quantity=float("nan"),
            )

    def test_soc_package_rejects_two_chips(self, simple_chiplet, soc_pkg):
        with pytest.raises(InvalidParameterError):
            System(
                name="x",
                chips=(simple_chiplet, simple_chiplet),
                integration=soc_pkg,
            )


class TestAreas:
    def test_silicon_area_sums_chips(self, simple_mcm):
        assert simple_mcm.silicon_area == pytest.approx(2 * 200.0 / 0.9)

    def test_module_area_excludes_d2d(self, simple_mcm):
        assert simple_mcm.module_area == pytest.approx(400.0)

    def test_chip_areas_tuple(self, simple_mcm):
        assert len(simple_mcm.chip_areas) == 2


class TestUniqueness:
    def test_unique_chips_counts_instances(self, simple_chiplet, mcm_tech):
        system = multichip("m", [simple_chiplet] * 4, mcm_tech)
        [(chip, count)] = system.unique_chips()
        assert chip is simple_chiplet
        assert count == 4

    def test_unique_chips_preserves_order(self, n7, d2d10, mcm_tech):
        a = chiplet("a", [Module("ma", 100.0, n7)], n7, d2d10)
        b = chiplet("b", [Module("mb", 100.0, n7)], n7, d2d10)
        system = multichip("m", [a, b, a], mcm_tech)
        chips = system.unique_chips()
        assert [c.name for c, _n in chips] == ["a", "b"]
        assert [n for _c, n in chips] == [2, 1]

    def test_unique_modules_across_chips(self, n7, d2d10, mcm_tech):
        shared = Module("shared", 100.0, n7)
        a = chiplet("a", [shared], n7, d2d10)
        b = chiplet("b", [shared], n7, d2d10)
        system = multichip("m", [a, b], mcm_tech)
        assert system.unique_modules() == [shared]

    def test_chiplet_nodes_deduplicated(self, n7, d2d10, mcm_tech):
        a = chiplet("a", [Module("ma", 100.0, n7)], n7, d2d10)
        b = chiplet("b", [Module("mb", 100.0, n7)], n7, d2d10)
        system = multichip("m", [a, b], mcm_tech)
        assert [node.name for node in system.chiplet_nodes()] == ["7nm"]

    def test_soc_has_no_chiplet_nodes(self, simple_soc):
        assert simple_soc.chiplet_nodes() == []


class TestPackageDesignBinding:
    def test_package_must_match_integration(
        self, simple_chiplet, mcm_tech, interposer_tech
    ):
        design = PackageDesign.for_chips(
            "p", interposer_tech, [simple_chiplet.area]
        )
        with pytest.raises(InvalidParameterError):
            System(
                name="x",
                chips=(simple_chiplet,),
                integration=mcm_tech,
                package=design,
            )

    def test_package_must_fit_chips(self, simple_chiplet, mcm_tech):
        design = PackageDesign.for_chips(
            "p", mcm_tech, [simple_chiplet.area / 2]
        )
        with pytest.raises(InvalidParameterError):
            System(
                name="x",
                chips=(simple_chiplet,),
                integration=mcm_tech,
                package=design,
            )

    def test_fitting_package_accepted(self, simple_chiplet, mcm_tech):
        design = PackageDesign.for_chips(
            "p", mcm_tech, [simple_chiplet.area] * 4
        )
        system = System(
            name="x",
            chips=(simple_chiplet,),
            integration=mcm_tech,
            package=design,
        )
        assert system.package is design
