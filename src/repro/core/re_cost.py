"""Recurring-engineering cost engine.

Produces the paper's five-way RE itemization for a system (Fig. 4):

1. cost of raw chips        — wafer share of every die candidate,
2. cost of chip defects     — extra wafer spend from die yield loss,
3. cost of raw package      — carrier(s) + substrate + assembly fee,
4. cost of package defects  — packaging spend lost to assembly yield,
5. cost of wasted KGDs      — good dies destroyed by packaging failures.

Bumping, wafer sort and package test are included in the raw chip and
raw package buckets (the paper keeps them un-itemized because they are
small).
"""

from __future__ import annotations

from typing import Callable

from repro.core.breakdown import ChipREDetail, RECost
from repro.core.chip import Chip
from repro.core.system import System
from repro.wafer.diecache import cached_die_cost
from repro.process.node import ProcessNode
from repro.wafer.die import DieCost, DieSpec


def _default_die_cost(node: ProcessNode, area: float) -> DieCost:
    return cached_die_cost(DieSpec(area=area, node=node))


def chip_kgd_cost(chip: Chip) -> float:
    """Cost of one known good die of this chip (USD)."""
    return _default_die_cost(chip.node, chip.area).total


def compute_re_cost(
    system: System,
    die_cost_fn: Callable[[ProcessNode, float], DieCost] | None = None,
) -> RECost:
    """RE cost of one unit of ``system``, itemized the paper's way.

    Die costs come from the memoized layer (``repro.wafer.diecache``),
    so a chip priced here and again by a sweep or a sibling system is
    derived once.

    Args:
        system: The system to price.
        die_cost_fn: Optional ``(node, area) -> DieCost`` override
            (registry-named yield models / wafer geometries, resolved
            by :meth:`repro.config.ConfigRegistries.die_cost_fn`).
    """
    price_die = die_cost_fn if die_cost_fn is not None else _default_die_cost
    details: list[ChipREDetail] = []
    raw_chips = 0.0
    chip_defects = 0.0
    kgd_total = 0.0
    for chip, count in system.unique_chips():
        cost = price_die(chip.node, chip.area)
        details.append(
            ChipREDetail(
                chip_name=chip.name,
                count=count,
                unit_raw=cost.raw,
                unit_defect=cost.defect,
                die_yield=cost.die_yield,
            )
        )
        raw_chips += cost.raw * count
        chip_defects += cost.defect * count
        kgd_total += cost.total * count

    if system.package is not None:
        packaging = system.package.packaging_cost(system.chip_areas, kgd_total)
    else:
        packaging = system.integration.packaging_cost(system.chip_areas, kgd_total)

    return RECost(
        raw_chips=raw_chips,
        chip_defects=chip_defects,
        raw_package=packaging.raw_package,
        package_defects=packaging.package_defects,
        wasted_kgd=packaging.wasted_kgd,
        chip_details=tuple(details),
    )
