"""Die cost over an area column.

:func:`die_cost_columns` is the closed form of
:func:`repro.wafer.die.die_cost` under the node-default wafer geometry
and negative-binomial yield: the expressions of
``WaferGeometry.dies_per_wafer`` and ``NegativeBinomialYield.die_yield``
in their order.  numpy's ``+ - * /``, ``sqrt`` and ``floor`` round
exactly like the scalar ops; the one transcendental (the yield's
``**``) runs through libm ``pow`` per element, never numpy's SIMD
``power``, which can differ in the last ulp.  The design-space search
prices its dies with it, and the InFO RDL and 2.5D interposer their
carriers inside ``IntegrationTech.packaging_columns``.

A numpy array takes the vector path (:func:`is_vector`); any other
sequence takes the per-area loop.  The model core imports this module
only inside its column methods, so a cold ``repro cost`` never loads
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import InvalidParameterError
from repro.libm import libm_map
from repro.process.node import ProcessNode

try:  # columns vectorize with numpy; fall back to per-area loops
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None


@dataclass(frozen=True, eq=False)
class DieColumns:
    """Itemized die cost per area (the :class:`~repro.wafer.die.DieCost`
    fields, as columns)."""

    raw: Sequence[float]
    defect: Sequence[float]
    total: Sequence[float]
    die_yield: Sequence[float]


def is_vector(column) -> bool:
    """True when ``column`` is a numpy array and numpy is in use."""
    return _np is not None and isinstance(column, _np.ndarray)


def full(value, like):
    """``value`` as a column shaped like ``like``: a per-column
    constant repeated per row (a column passes through unchanged)."""
    if is_vector(value):
        return value
    return _np.full(len(like), value)


def die_cost_columns(node: ProcessNode, areas) -> DieColumns:
    """``die_cost(DieSpec(area, node))`` for every area of the column."""
    usable = node.wafer_diameter - 2.0 * 0.0
    gross_factor = math.pi * (usable / 2.0) ** 2
    edge_factor = math.pi * usable
    exponent = -node.cluster_param
    if is_vector(areas):
        dies = _np.floor(
            gross_factor / areas - edge_factor / _np.sqrt(2.0 * areas)
        )
        small = dies <= 0
        if small.any():
            _die_too_large(float(areas[small][0]), node)
        defects = (node.defect_density * areas) / 100.0
        bases = 1.0 + defects / node.cluster_param
        # libm pow per element, never numpy's SIMD power (last-ulp parity)
        die_yield = libm_map(pow, bases, exponent)
        raw = node.wafer_price / dies
        total = raw / die_yield
        return DieColumns(raw, total - raw, total, die_yield)
    raws, defects_out, totals, yields = [], [], [], []
    for area in areas:
        dies = max(
            0,
            math.floor(
                gross_factor / area - edge_factor / math.sqrt(2.0 * area)
            ),
        )
        if dies <= 0:
            _die_too_large(area, node)
        defects = node.defect_density * area / 100.0
        die_yield = (1.0 + defects / node.cluster_param) ** exponent
        raw = node.wafer_price / dies
        total = raw / die_yield
        raws.append(raw)
        defects_out.append(total - raw)
        totals.append(total)
        yields.append(die_yield)
    return DieColumns(raws, defects_out, totals, yields)


def _die_too_large(area: float, node: ProcessNode) -> None:
    raise InvalidParameterError(
        f"die of {area:.0f} mm^2 does not fit on a "
        f"{node.wafer_diameter:.0f} mm wafer"
    )
