"""Single-die flip-chip package for a monolithic SoC."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.canon import fold_sum
from repro.data.packaging_costs import PACKAGING_DEFAULTS
from repro.errors import InvalidParameterError
from repro.packaging.assembly import direct_attach_cost
from repro.packaging.base import IntegrationTech, PackagingAffine
from repro.packaging.substrate import OrganicSubstrate


@dataclass(frozen=True)
class SoCPackage(IntegrationTech):
    """Conventional flip-chip package holding exactly one die.

    Attributes:
        substrate: Organic substrate technology.
        substrate_area_factor: Package footprint over die area.
        fixed_assembly_cost: Per-package assembly + test fee, USD.
        chip_attach_yield: Die-attach yield (y2 with n=1).
        final_yield: Final assembly + package-test yield.
        nre_per_mm2: Package design cost per mm^2 of footprint (Kp).
        nre_fixed: Fixed package design cost (Cp).
    """

    substrate: OrganicSubstrate
    substrate_area_factor: float
    fixed_assembly_cost: float
    chip_attach_yield: float
    final_yield: float
    nre_per_mm2: float
    nre_fixed: float

    name: str = field(default="soc", init=False)
    label: str = field(default="SoC", init=False)
    column_arithmetic = True

    def __post_init__(self) -> None:
        if self.substrate_area_factor < 1.0:
            raise InvalidParameterError(
                "substrate area factor must be >= 1 (package >= die)"
            )

    @property
    def max_chips(self) -> int | None:
        return 1

    def _check_one_die(self, chip_areas: Sequence[float]) -> None:
        self._check_chip_areas(chip_areas)
        if len(chip_areas) != 1:
            raise InvalidParameterError(
                f"an SoC package holds exactly one die, got {len(chip_areas)}"
            )

    def package_area(self, chip_areas: Sequence[float]) -> float:
        self._check_one_die(chip_areas)
        return chip_areas[0] * self.substrate_area_factor

    def packaging_affine(
        self,
        chip_areas: Sequence[float],
        sized_for: Sequence[float] | None = None,
    ) -> PackagingAffine:
        self._check_one_die(chip_areas)
        sizing = sized_for if sized_for is not None else chip_areas
        self._check_chip_areas(sizing)
        area = fold_sum(sizing) * self.substrate_area_factor
        return direct_attach_cost(
            substrate_cost=self.substrate.cost(area),
            assembly_fee=self.fixed_assembly_cost,
            n_chips=1,
            chip_attach_yield=self.chip_attach_yield,
            final_yield=self.final_yield,
        )

    def package_nre(self, chip_areas: Sequence[float]) -> float:
        return self.nre_per_mm2 * self.package_area(chip_areas) + self.nre_fixed


def soc_package(**overrides: float) -> SoCPackage:
    """SoC package with the catalog defaults (overridable per keyword)."""
    params = dict(PACKAGING_DEFAULTS["soc"])
    params.update(overrides)
    return SoCPackage(
        substrate=OrganicSubstrate(layers=int(params["substrate_layers"])),
        substrate_area_factor=params["substrate_area_factor"],
        fixed_assembly_cost=params["fixed_assembly_cost"],
        chip_attach_yield=params["chip_attach_yield"],
        final_yield=params["final_yield"],
        nre_per_mm2=params["nre_per_mm2"],
        nre_fixed=params["nre_fixed"],
    )
