"""Packaging coefficients for the batch evaluators.

Every assembly flow in the model (direct attach, carrier chip-last,
carrier chip-first, 3D stacking) prices one assembly attempt as fixed
spend plus the KGD value multiplied by an expected retry count, so each
technology computes

    packaging_cost(areas, kgd) = PackagingCost(A, B, kgd * k)

from its own :class:`~repro.packaging.base.PackagingAffine` coefficients
``A`` (raw package), ``B`` (package defects) and ``k`` (retries), which
depend only on the chip areas and the technology.  The batch paths ask
for the coefficients once per (packager, areas) and re-price the KGD
term themselves, bit-identically to the itemized cost, since both run
the same multiply:

* the :class:`~repro.engine.costengine.CostEngine` caches one
  :class:`PackagingAffine` per (package, areas) and re-evaluates it per
  system for the cost of four float operations;
* the closed-form Monte-Carlo path re-prices packaging per draw without
  touching the packaging object at all;
* the design-space evaluator asks once per (technology, chip count)
  and search block for whole columns over the chip-area axis
  (:meth:`~repro.packaging.base.IntegrationTech.packaging_columns`).
  The built-in technologies run their scalar arithmetic once on
  column-valued chips, so every row carries the bits of the one-system
  call; the carrier dies (InFO RDL, 2.5D interposer) are priced by
  the closed-form die-cost column of ``repro.wafer.diecolumns``.
  Without numpy the columns are priced one area at a time.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.package_design import PackageDesign
from repro.packaging.base import (
    IntegrationTech,
    PackagingAffine,
    PackagingColumns,
)


def linearize_packaging(
    packager: IntegrationTech | PackageDesign,
    chip_areas: Sequence[float],
    n_chips: int | None = None,
) -> PackagingAffine | PackagingColumns:
    """The packaging coefficients of ``chip_areas`` in ``packager``.

    With ``n_chips``, ``chip_areas`` is a column of areas and the
    answer is the technology's :class:`PackagingColumns`, one row per
    area, each row a package of ``n_chips`` chips of that area.

    The lookup keeps its own module-level name, imported by every batch
    evaluator, so a tracer can wrap it where each caller looks it up and
    report the packaging layer separately
    (``perfbench/wl_study.py --trace 1`` does exactly that).
    """
    if n_chips is None:
        return packager.packaging_affine(chip_areas)
    return packager.packaging_columns(chip_areas, n_chips)
