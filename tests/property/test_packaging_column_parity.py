"""Packaging columns equal the one-system packaging arithmetic.

``IntegrationTech.packaging_columns`` prices a column of chip areas at
one chip count; it is the design-space search's packaging layer.  Row
``i`` must carry exactly the bits of ``packaging_affine`` /
``package_area`` / ``package_nre`` on ``(areas[i],) * n_chips``, on the
numpy path and on the per-area loop taken without numpy, and both
paths must refuse a bad input with the same error.
"""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from checks import assert_sequences_equal
from repro.errors import ChipletActuaryError, InvalidParameterError
from repro.wafer import diecolumns
from strategies import BUILTIN_TECHNOLOGIES, inexact_areas

_FIELDS = (
    "raw_package", "package_defects", "wasted_slope", "footprint", "nre",
)

TECHNOLOGY_KEYS = tuple(sorted(BUILTIN_TECHNOLOGIES))
#: The technologies whose carrier (RDL or interposer) is priced as a die.
CARRIER_TECHNOLOGIES = tuple(
    key for key in TECHNOLOGY_KEYS if key.startswith(("info", "2.5d"))
)

needs_numpy = pytest.mark.skipif(diecolumns._np is None, reason="needs numpy")


@st.composite
def pairings(draw, keys=TECHNOLOGY_KEYS):
    """A built-in technology, a chip count it holds and an area column."""
    key = draw(st.sampled_from(keys))
    technology = BUILTIN_TECHNOLOGIES[key]()
    n_chips = draw(
        st.integers(min_value=1, max_value=technology.max_chips or 6)
    )
    areas = draw(st.lists(inexact_areas, min_size=1, max_size=12))
    return key, technology, n_chips, areas


def _assert_rows(key, technology, n_chips, areas, columns):
    expected = {name: [] for name in _FIELDS}
    for area in areas:
        chips = (area,) * n_chips
        affine = technology.packaging_affine(chips)
        expected["raw_package"].append(affine.raw_package)
        expected["package_defects"].append(affine.package_defects)
        expected["wasted_slope"].append(affine.wasted_slope)
        expected["footprint"].append(technology.package_area(chips))
        expected["nre"].append(technology.package_nre(chips))
    for name in _FIELDS:
        assert_sequences_equal(
            f"{key}.packaging_columns(n_chips={n_chips})", name,
            getattr(columns, name), expected[name],
        )


def _error(call):
    try:
        call()
    except ChipletActuaryError as error:
        return type(error), str(error)
    return None


def _column_errors(technology, areas, n_chips):
    """The error of each column path: numpy (when installed) and the
    per-area loop taken with ``_np = None``."""
    errors = []
    if diecolumns._np is not None:
        column = diecolumns._np.asarray(areas)
        errors.append(
            _error(lambda: technology.packaging_columns(column, n_chips))
        )
    with mock.patch.object(diecolumns, "_np", None):
        errors.append(
            _error(lambda: technology.packaging_columns(areas, n_chips))
        )
    return errors


@needs_numpy
@given(pairing=pairings())
def test_numpy_columns_equal_scalar_rows(pairing):
    key, technology, n_chips, areas = pairing
    columns = technology.packaging_columns(
        diecolumns._np.asarray(areas), n_chips
    )
    for name in _FIELDS:
        assert isinstance(getattr(columns, name), diecolumns._np.ndarray)
    _assert_rows(key, technology, n_chips, areas, columns)


@given(pairing=pairings())
def test_no_numpy_columns_equal_scalar_rows(pairing):
    key, technology, n_chips, areas = pairing
    with mock.patch.object(diecolumns, "_np", None):
        columns = technology.packaging_columns(list(areas), n_chips)
    for name in _FIELDS:
        assert isinstance(getattr(columns, name), list)
    _assert_rows(key, technology, n_chips, areas, columns)


@given(
    pairing=pairings(),
    bad=st.sampled_from((0.0, -0.0, -1e-9, -5.0)),
    where=st.integers(min_value=0, max_value=12),
)
def test_nonpositive_area_refused_alike(pairing, bad, where):
    _key, technology, n_chips, areas = pairing
    areas.insert(where % (len(areas) + 1), bad)
    scalar = _error(lambda: technology.packaging_affine((bad,) * n_chips))
    assert scalar is not None and scalar[0] is InvalidParameterError
    errors = _column_errors(technology, areas, n_chips)
    assert errors == [scalar] * len(errors)


@given(
    pairing=pairings(keys=CARRIER_TECHNOLOGIES),
    where=st.integers(min_value=0, max_value=12),
)
def test_oversized_carrier_refused_alike(pairing, where):
    _key, technology, n_chips, areas = pairing
    # At least 80,000 mm^2 of carrier: more than a 300 mm wafer holds.
    huge = 80_000.0 / n_chips
    areas.insert(where % (len(areas) + 1), huge)
    scalar = _error(lambda: technology.packaging_affine((huge,) * n_chips))
    assert scalar is not None and scalar[0] is InvalidParameterError
    assert "does not fit" in scalar[1]
    errors = _column_errors(technology, areas, n_chips)
    assert errors == [scalar] * len(errors)
