"""Multi-chip module on an organic substrate.

The classic SiP: chips flipped directly onto a unifying substrate.  The
substrate needs extra routing layers compared with a single-die package
(the paper's substrate growth factor), expressed here through the layer
count in :data:`repro.data.packaging_costs.PACKAGING_DEFAULTS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.data.packaging_costs import PACKAGING_DEFAULTS
from repro.errors import InvalidParameterError
from repro.packaging.assembly import direct_attach_cost
from repro.packaging.base import IntegrationTech, PackagingAffine
from repro.packaging.substrate import OrganicSubstrate


@dataclass(frozen=True)
class MCM(IntegrationTech):
    """Multi-chip module: dies attach directly to an organic substrate.

    Attributes mirror :class:`repro.packaging.soc.SoCPackage`; the
    chip-attach yield applies once per chip.
    """

    substrate: OrganicSubstrate
    substrate_area_factor: float
    fixed_assembly_cost: float
    chip_attach_yield: float
    final_yield: float
    nre_per_mm2: float
    nre_fixed: float

    name: str = field(default="mcm", init=False)
    label: str = field(default="MCM", init=False)

    def __post_init__(self) -> None:
        if self.substrate_area_factor < 1.0:
            raise InvalidParameterError(
                "substrate area factor must be >= 1 (package >= dies)"
            )

    def package_area(self, chip_areas: Sequence[float]) -> float:
        self._check_chip_areas(chip_areas)
        return sum(chip_areas) * self.substrate_area_factor

    def packaging_affine(
        self,
        chip_areas: Sequence[float],
        sized_for: Sequence[float] | None = None,
    ) -> PackagingAffine:
        self._check_chip_areas(chip_areas)
        sizing = sized_for if sized_for is not None else chip_areas
        area = sum(sizing) * self.substrate_area_factor
        return direct_attach_cost(
            substrate_cost=self.substrate.cost(area),
            assembly_fee=self.fixed_assembly_cost,
            n_chips=len(chip_areas),
            chip_attach_yield=self.chip_attach_yield,
            final_yield=self.final_yield,
        )

    def package_nre(self, chip_areas: Sequence[float]) -> float:
        return self.nre_per_mm2 * self.package_area(chip_areas) + self.nre_fixed


def mcm(**overrides: float) -> MCM:
    """MCM with the catalog defaults (overridable per keyword)."""
    params = dict(PACKAGING_DEFAULTS["mcm"])
    params.update(overrides)
    return MCM(
        substrate=OrganicSubstrate(layers=int(params["substrate_layers"])),
        substrate_area_factor=params["substrate_area_factor"],
        fixed_assembly_cost=params["fixed_assembly_cost"],
        chip_attach_yield=params["chip_attach_yield"],
        final_yield=params["final_yield"],
        nre_per_mm2=params["nre_per_mm2"],
        nre_fixed=params["nre_fixed"],
    )
