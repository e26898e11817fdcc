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
* the design-space evaluator turns the coefficients into columns over
  the module-area axis.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.package_design import PackageDesign
from repro.packaging.base import IntegrationTech, PackagingAffine


def linearize_packaging(
    packager: IntegrationTech | PackageDesign, chip_areas: Sequence[float]
) -> PackagingAffine:
    """The packaging coefficients of ``chip_areas`` in ``packager``.

    The lookup keeps its own module-level name, imported by every batch
    evaluator, so a tracer can wrap it where each caller looks it up and
    report the packaging layer separately
    (``perfbench/wl_study.py --trace 1`` does exactly that).
    """
    return packager.packaging_affine(chip_areas)
