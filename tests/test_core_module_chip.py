"""Module and Chip abstractions (Eq. 3)."""

import pytest

from repro.core.chip import Chip
from repro.core.module import D2D_MODULE_NAME, Module
from repro.d2d.overhead import FractionOverhead
from repro.errors import EmptySystemError, InvalidParameterError
from repro.process.catalog import get_node


class TestModule:
    def test_area_at_same_node(self, n7):
        module = Module("m", 100.0, n7)
        assert module.area_at(n7) == 100.0

    def test_area_at_other_node_scales(self, n7, n14):
        module = Module("m", 100.0, n14)
        expected = 100.0 * n14.transistor_density / n7.transistor_density
        assert module.area_at(n7) == pytest.approx(expected)

    def test_unscalable_module_keeps_area(self, n7, n14):
        module = Module("io", 100.0, n14, scalable_fraction=0.0)
        assert module.area_at(n7) == 100.0

    def test_invalid_area_rejected(self, n7):
        with pytest.raises(InvalidParameterError):
            Module("m", 0.0, n7)

    def test_nan_area_rejected(self, n7):
        with pytest.raises(InvalidParameterError, match="area must be > 0"):
            Module("m", float("nan"), n7)

    def test_invalid_fraction_rejected(self, n7):
        with pytest.raises(InvalidParameterError):
            Module("m", 100.0, n7, scalable_fraction=2.0)

    def test_reserved_name_rejected(self, n7):
        with pytest.raises(InvalidParameterError):
            Module(D2D_MODULE_NAME, 100.0, n7)

    def test_identity_equality(self, n7):
        a = Module("m", 100.0, n7)
        b = Module("m", 100.0, n7)
        assert a != b
        assert a == a
        assert len({id(a), id(b)}) == 2


class TestChip:
    def test_soc_die_has_no_d2d(self, simple_module, n7):
        die = Chip.of("die", (simple_module,), n7)
        assert die.d2d_area == 0.0
        assert die.area == die.module_area
        assert not die.is_chiplet

    def test_chiplet_area_includes_d2d(self, simple_module, n7):
        chip = Chip.of("c", (simple_module,), n7, d2d=FractionOverhead(0.10))
        assert chip.module_area == pytest.approx(200.0)
        assert chip.area == pytest.approx(200.0 / 0.9)
        assert chip.is_chiplet

    def test_module_area_sums_instances(self, simple_module, n7):
        chip = Chip.of("c", (simple_module, simple_module), n7)
        assert chip.module_area == pytest.approx(400.0)

    def test_module_area_retargets_to_chip_node(self, n7, n14):
        module = Module("m", 100.0, n14)
        chip = Chip.of("c", (module,), n7)
        assert chip.module_area == pytest.approx(module.area_at(n7))

    def test_unique_modules_identity_based(self, n7):
        a = Module("a", 50.0, n7)
        b = Module("b", 50.0, n7)
        chip = Chip.of("c", (a, a, b), n7)
        assert chip.unique_modules() == [a, b]

    def test_empty_chip_rejected(self, n7):
        with pytest.raises(EmptySystemError):
            Chip.of("c", (), n7)

    def test_heterogeneous_mature_center_keeps_area(self):
        """The OCME heterogeneity setting: an unscalable module costs no
        area when moved to the mature node."""
        n7, n14 = get_node("7nm"), get_node("14nm")
        module = Module("center", 160.0, n7, scalable_fraction=0.0)
        advanced = Chip.of("c7", (module,), n7, d2d=FractionOverhead(0.10))
        mature = Chip.of("c14", (module,), n14, d2d=FractionOverhead(0.10))
        assert mature.area == pytest.approx(advanced.area)
