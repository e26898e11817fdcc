"""3D die stacking (extension beyond the paper).

The paper's summary notes that interposer-based advanced packaging
"still suffer[s] from poor yield and area limit" and treats 3D as the
next step.  This module adds a simple face-to-face / hybrid-bonding 3D
stack as a fourth integration technology so exploration studies can
place it on the same axes:

* the *first* chip is the base die (it carries the TSVs and the
  external interface); every other chip stacks on top and must fit
  within the base footprint,
* the base die pays a TSV/bonding-interface processing premium per
  mm^2,
* each stacked die bonds with a (relatively aggressive) stack-bond
  yield; a failed bond kills the whole stack — base, previously
  stacked dies and all,
* the finished stack attaches to a conventional substrate sized by the
  *base* footprint only (the headline benefit of 3D).

This is intentionally the simplest credible 3D cost model; it is an
extension beyond the paper, exercised by
``benchmarks/bench_ablation_3d.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.data.packaging_costs import STACK3D_DEFAULTS
from repro.errors import InvalidParameterError
from repro.packaging.base import IntegrationTech, PackagingAffine, bounds
from repro.packaging.substrate import OrganicSubstrate


@dataclass(frozen=True)
class Stacked3D(IntegrationTech):
    """Face-to-face 3D stack on a conventional substrate.

    Attributes:
        substrate: Organic substrate under the stack.
        substrate_area_factor: Package footprint over the *base* die area.
        fixed_assembly_cost: Assembly + test fee per attempt.
        tsv_cost_per_mm2: TSV/bond-interface premium on the base die.
        stack_bond_yield: Bond yield per stacked die.
        final_yield: Stack-to-substrate attach + final test yield.
        nre_per_mm2: Package design cost per mm^2 of footprint.
        nre_fixed: Fixed package design cost (TSV co-design).
    """

    substrate: OrganicSubstrate
    substrate_area_factor: float
    fixed_assembly_cost: float
    tsv_cost_per_mm2: float
    stack_bond_yield: float
    final_yield: float
    nre_per_mm2: float
    nre_fixed: float
    column_arithmetic = True

    name: str = field(default="3d", init=False)
    label: str = field(default="3D", init=False)

    def __post_init__(self) -> None:
        if self.substrate_area_factor < 1.0:
            raise InvalidParameterError("substrate area factor must be >= 1")
        if not 0.0 < self.stack_bond_yield <= 1.0:
            raise InvalidParameterError("stack bond yield must be in (0, 1]")
        if not 0.0 < self.final_yield <= 1.0:
            raise InvalidParameterError("final yield must be in (0, 1]")
        if self.tsv_cost_per_mm2 < 0:
            raise InvalidParameterError("TSV cost must be >= 0")

    @staticmethod
    def _split_base(chip_areas: Sequence[float]) -> tuple[float, list[float]]:
        return chip_areas[0], list(chip_areas[1:])

    def check_stackable(self, chip_areas: Sequence[float]) -> None:
        """Every stacked die must fit on the (first-listed) base die."""
        self._check_chip_areas(chip_areas)
        base, stacked = self._split_base(chip_areas)
        for area in stacked:
            _all_overhang, any_overhang = bounds(area > base + 1e-9)
            if any_overhang:
                raise InvalidParameterError(
                    f"stacked die of {bounds(area)[1]:.0f} mm^2 exceeds "
                    f"the {bounds(base)[0]:.0f} mm^2 base die"
                )

    def package_area(self, chip_areas: Sequence[float]) -> float:
        """Footprint follows the base die only — the 3D area win."""
        self.check_stackable(chip_areas)
        base, _stacked = self._split_base(chip_areas)
        return base * self.substrate_area_factor

    def packaging_affine(
        self,
        chip_areas: Sequence[float],
        sized_for: Sequence[float] | None = None,
    ) -> PackagingAffine:
        self.check_stackable(chip_areas)
        sizing = sized_for if sized_for is not None else chip_areas
        self._check_chip_areas(sizing)
        base, _ = self._split_base(sizing)
        n_stacked = len(chip_areas) - 1

        substrate_cost = self.substrate.cost(base * self.substrate_area_factor)
        tsv_cost = self.tsv_cost_per_mm2 * base
        raw = substrate_cost + tsv_cost + self.fixed_assembly_cost

        # One attempt commits every KGD plus the TSV premium; it
        # succeeds when all stack bonds and the final attach succeed.
        chain = self.stack_bond_yield**n_stacked * self.final_yield
        retries = 1.0 / chain - 1.0
        return PackagingAffine(
            raw_package=raw,
            package_defects=(tsv_cost + self.fixed_assembly_cost) * retries
            + substrate_cost * (1.0 / self.final_yield - 1.0),
            wasted_slope=retries,
        )

    def package_nre(self, chip_areas: Sequence[float]) -> float:
        return self.nre_per_mm2 * self.package_area(chip_areas) + self.nre_fixed


def stacked_3d(**overrides: float) -> Stacked3D:
    """3D stack with the default parameters (overridable per keyword)."""
    params = dict(STACK3D_DEFAULTS)
    params.update(overrides)
    return Stacked3D(
        substrate=OrganicSubstrate(layers=int(params["substrate_layers"])),
        substrate_area_factor=params["substrate_area_factor"],
        fixed_assembly_cost=params["fixed_assembly_cost"],
        tsv_cost_per_mm2=params["tsv_cost_per_mm2"],
        stack_bond_yield=params["stack_bond_yield"],
        final_yield=params["final_yield"],
        nre_per_mm2=params["nre_per_mm2"],
        nre_fixed=params["nre_fixed"],
    )
