"""Equal partitions as columns: the one fast kernel of equal splits.

An equal partition is ``n`` identical chiplets (each the share
``area / n`` plus its fractional D2D overhead), or the monolithic SoC
reference, on one node.  Over a column of module areas at one chip
count, everything but packaging is a few column expressions that
replicate ``compute_re_cost(partition_monolith(...))`` and
``compute_re_cost(soc_reference(...))`` bit for bit:

* **Chip area** — ``share = area / n``; ``chip = share + share * f /
  (1 - f)``, the expressions of ``partition_monolith`` and
  ``FractionOverhead``.  The SoC die is the module area itself
  (``NO_OVERHEAD`` adds ``0.0``).
* **Die cost** — the closed form of ``repro.wafer.die.die_cost`` under
  the node-default geometry and yield
  (:func:`repro.wafer.diecolumns.die_cost_columns`), or a registry
  override (named yield model / wafer geometry) called once per area,
  as the oracle calls it once per unique die.
* **Accumulation** — ``n`` repeated additions from zero, the
  per-unique-chip loops of ``compute_re_cost`` / ``compute_system_nre``
  (count 1 per distinct chiplet, and ``x * 1 == x``).

Callers price packaging themselves, one
``linearize_packaging(packager, chip_areas, n)`` call per chip count,
so a tracer sees the packaging layer where each caller looks it up.
Two callers share the kernel: the design-space evaluator
(``repro.search.evaluate``) and ``CostEngine.partition_grid`` /
``partition_sweep``, whose rows :func:`re_costs` itemizes.  Both import
it lazily, since it loads numpy; without numpy every column is a list
of floats priced one area at a time.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.canon import fold_sum
from repro.core.breakdown import ChipREDetail, RECost
from repro.packaging.base import PackagingColumns
from repro.process.node import ProcessNode
from repro.wafer.die import DieCost
from repro.wafer.diecolumns import DieColumns, die_cost_columns

try:  # columns vectorize with numpy; fall back to pure Python
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: (node, area) -> DieCost pricing override (registry-resolved).
DieCostFn = Callable[[ProcessNode, float], DieCost]


def split_areas(module_areas: list, count: int, fraction: float):
    """``(share, chip)`` area columns of an equal ``count``-way split
    with fractional D2D overhead."""
    if _np is not None:
        table = _np.asarray(module_areas, dtype=float)
        share = table / count
        return share, share + (share * fraction) / (1.0 - fraction)
    share = [area / count for area in module_areas]
    return share, [
        part + (part * fraction) / (1.0 - fraction) for part in share
    ]


def soc_areas(module_areas: list):
    """SoC die areas: the module areas themselves."""
    if _np is not None:
        return _np.asarray(module_areas, dtype=float)
    return list(module_areas)


def die_columns(
    node: ProcessNode, chip_areas, die_cost_fn: DieCostFn | None = None
) -> DieColumns:
    """Die cost of every chip area: the closed form, or ``die_cost_fn``
    called per area."""
    if die_cost_fn is None:
        return die_cost_columns(node, chip_areas)
    costs = [die_cost_fn(node, float(area)) for area in chip_areas]
    columns = (
        [cost.raw for cost in costs],
        [cost.defect for cost in costs],
        [cost.total for cost in costs],
        [cost.die_yield for cost in costs],
    )
    if _np is None:
        return DieColumns(*columns)
    return DieColumns(*(_np.asarray(column, dtype=float) for column in columns))


def accumulate(count: int, *columns) -> list:
    """``count`` repeated additions of each column from zero."""
    if _np is not None:
        return [fold_sum((column,) * count) for column in columns]
    return [
        [fold_sum((item,) * count) for item in column] for column in columns
    ]


def re_costs(
    count: int,
    die: DieColumns,
    pack: PackagingColumns,
    chip_names: Sequence[Sequence[str]],
) -> list[RECost]:
    """One :class:`RECost` per row: ``count`` chips priced by ``die``,
    packaged as ``pack``, detailed under ``chip_names[row]``.

    The KGD waste is the ``kgd * retries`` multiply of
    ``PackagingAffine.packaging_cost``; every field is a Python float.
    """
    raw_chips, chip_defects, kgd = accumulate(
        count, die.raw, die.defect, die.total
    )
    columns = (
        die.raw, die.defect, die.die_yield, raw_chips, chip_defects, kgd,
        pack.raw_package, pack.package_defects, pack.wasted_slope,
    )
    return [
        RECost(
            raw_chips=raw,
            chip_defects=defects,
            raw_package=raw_package,
            package_defects=package_defects,
            wasted_kgd=kgd_cost * retries,
            chip_details=tuple(
                ChipREDetail(name, 1, unit_raw, unit_defect, die_yield)
                for name in names
            ),
        )
        for (names, unit_raw, unit_defect, die_yield, raw, defects, kgd_cost,
             raw_package, package_defects, retries)
        in zip(chip_names, *map(_floats, columns))
    ]


def _floats(column) -> list:
    """A column as a list of Python floats (numpy scalars would change
    how a row prints)."""
    return column.tolist() if hasattr(column, "tolist") else list(column)
