"""Packaging area sums, ``sized_for`` validation and the column form.

The hex-pinned arithmetic lives in ``test_packaging_techs.py`` and the
generated column-versus-row parity in
``tests/property/test_packaging_column_parity.py``.
"""

import pytest

from repro.canon import fold_sum
from repro.engine.packaging_affine import linearize_packaging
from repro.errors import EmptySystemError, InvalidParameterError
from repro.packaging import (
    AssemblyFlow,
    IntegrationTech,
    PackagingAffine,
    PackagingColumns,
    info,
    interposer_25d,
    mcm,
    soc_package,
    stacked_3d,
)
from repro.wafer import diecolumns

TECHNOLOGIES = {
    "soc": soc_package,
    "mcm": mcm,
    "info-last": info,
    "info-first": lambda: info(flow=AssemblyFlow.CHIP_FIRST),
    "2.5d-last": interposer_25d,
    "2.5d-first": lambda: interposer_25d(flow=AssemblyFlow.CHIP_FIRST),
    "2.5d-active": lambda: interposer_25d(active=True),
    "3d": stacked_3d,
}

#: Six chips of 10.1 mm^2: the left fold gives 60.6, while the
#: compensated builtin ``sum()`` of Python 3.12+ gives
#: 60.599999999999994.
SIX_CHIPS = (10.1,) * 6
SIX_FOLDED = ((((10.1 + 10.1) + 10.1) + 10.1) + 10.1) + 10.1


# ----------------------------------------------------------------------
# one fold for every packaging area sum
# ----------------------------------------------------------------------


def test_fold_sum_is_the_left_fold():
    assert fold_sum(SIX_CHIPS) == SIX_FOLDED == 60.6
    assert fold_sum(()) == 0.0


@pytest.mark.parametrize("name", ["mcm", "info-last", "2.5d-last"])
def test_six_chip_package_area_is_six_additions(name):
    tech = TECHNOLOGIES[name]()
    assert tech.package_area(SIX_CHIPS) == (
        SIX_FOLDED * tech.substrate_area_factor
    )


def test_six_chip_carrier_areas_are_six_additions():
    assert info().rdl_area(SIX_CHIPS) == (
        SIX_FOLDED * info().rdl_area_factor
    )
    tech = interposer_25d()
    assert tech.interposer_area(SIX_CHIPS) == (
        SIX_FOLDED * tech.interposer_area_factor
    )


def test_six_chip_mcm_substrate_is_sized_by_the_fold():
    tech = mcm()
    affine = tech.packaging_affine((100.0,) * 6, sized_for=SIX_CHIPS)
    substrate = tech.substrate.cost(SIX_FOLDED * tech.substrate_area_factor)
    assert affine.raw_package == substrate + tech.fixed_assembly_cost


# ----------------------------------------------------------------------
# sized_for is validated like the chips themselves
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TECHNOLOGIES))
def test_empty_sized_for_rejected(name):
    with pytest.raises(EmptySystemError):
        TECHNOLOGIES[name]().packaging_affine((100.0,), sized_for=[])


@pytest.mark.parametrize("name", sorted(TECHNOLOGIES))
def test_nonpositive_sized_for_rejected(name):
    with pytest.raises(InvalidParameterError, match="chip areas must be > 0"):
        TECHNOLOGIES[name]().packaging_affine(
            (100.0,), sized_for=[-5.0, 10.0]
        )


# ----------------------------------------------------------------------
# the column form
# ----------------------------------------------------------------------


def test_linearize_packaging_column_form():
    tech = mcm()
    areas = [101.3, 57.7, 230.9]
    columns = linearize_packaging(tech, areas, 3)
    assert isinstance(columns, PackagingColumns)
    for index, area in enumerate(areas):
        affine = linearize_packaging(tech, (area,) * 3)
        assert columns.raw_package[index] == affine.raw_package
        assert columns.package_defects[index] == affine.package_defects
        assert columns.wasted_slope[index] == affine.wasted_slope
        assert columns.footprint[index] == tech.package_area((area,) * 3)
        assert columns.nre[index] == tech.package_nre((area,) * 3)


def test_soc_column_holds_one_die():
    with pytest.raises(InvalidParameterError, match="exactly one die"):
        soc_package().packaging_columns([100.0], 2)


class _FlatTech(IntegrationTech):
    """A technology written for floats only."""

    name = "flat"
    label = "Flat"

    def package_area(self, chip_areas):
        self._check_chip_areas(chip_areas)
        return 2.0 * max(chip_areas)

    def packaging_affine(self, chip_areas, sized_for=None):
        area = self.package_area(sized_for or chip_areas)
        return PackagingAffine(area, 0.5, 0.25 * len(chip_areas))

    def package_nre(self, chip_areas):
        return 10.0 * self.package_area(chip_areas)


@pytest.mark.skipif(diecolumns._np is None, reason="needs numpy")
def test_float_only_technology_is_priced_row_by_row():
    columns = _FlatTech().packaging_columns(
        diecolumns._np.asarray([10.5, 20.25]), 2
    )
    assert list(columns.raw_package) == [21.0, 40.5]
    assert list(columns.package_defects) == [0.5, 0.5]
    assert list(columns.wasted_slope) == [0.5, 0.5]
    assert list(columns.footprint) == [21.0, 40.5]
    assert list(columns.nre) == [210.0, 405.0]
