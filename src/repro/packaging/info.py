"""Integrated fan-out (InFO) packaging.

Chips sit on a redistribution layer (RDL) that is costed like a die on
the ``rdl`` packaging node (the RDL has its own defect density and
clustering parameter — Fig. 2 legend); the populated RDL then mounts on
an organic substrate.  Both chip-last (RDL-first) and chip-first process
sequences are supported; chip-last is the paper's default (Eq. 5 and the
surrounding discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.canon import fold_sum
from repro.data.packaging_costs import PACKAGING_DEFAULTS
from repro.errors import InvalidParameterError
from repro.packaging.assembly import (
    AssemblyFlow,
    carrier_chip_first_cost,
    carrier_chip_last_cost,
)
from repro.packaging.base import (
    IntegrationTech,
    PackagingAffine,
    carrier_cost_and_yield,
)
from repro.packaging.substrate import OrganicSubstrate
from repro.process.catalog import get_node
from repro.process.node import ProcessNode


@dataclass(frozen=True)
class InFO(IntegrationTech):
    """Fan-out integration on an RDL carrier.

    Attributes:
        rdl_node: Packaging node describing RDL wafer cost and yield.
        rdl_area_factor: RDL area over total die area.
        substrate: Organic substrate under the fan-out package.
        substrate_area_factor: Substrate footprint over total die area.
        fixed_assembly_cost: Assembly + final-test fee per attempt.
        chip_attach_yield: y2 — chip-to-RDL bonding yield, per chip.
        carrier_attach_yield: y3 — RDL-to-substrate bonding yield.
        flow: Chip-last (default, as in the paper) or chip-first.
        nre_per_mm2: Package design cost per mm^2 of footprint (Kp).
        nre_fixed: Fixed package design cost incl. RDL masks (Cp).
    """

    rdl_node: ProcessNode
    rdl_area_factor: float
    substrate: OrganicSubstrate
    substrate_area_factor: float
    fixed_assembly_cost: float
    chip_attach_yield: float
    carrier_attach_yield: float
    nre_per_mm2: float
    nre_fixed: float
    flow: AssemblyFlow = AssemblyFlow.CHIP_LAST
    column_arithmetic = True

    name: str = field(default="info", init=False)
    label: str = field(default="InFO", init=False)

    def __post_init__(self) -> None:
        if self.rdl_area_factor < 1.0:
            raise InvalidParameterError("RDL area factor must be >= 1")
        if self.substrate_area_factor < 1.0:
            raise InvalidParameterError("substrate area factor must be >= 1")

    def rdl_area(self, chip_areas: Sequence[float]) -> float:
        """RDL carrier area in mm^2."""
        self._check_chip_areas(chip_areas)
        return fold_sum(chip_areas) * self.rdl_area_factor

    def package_area(self, chip_areas: Sequence[float]) -> float:
        self._check_chip_areas(chip_areas)
        return fold_sum(chip_areas) * self.substrate_area_factor

    def packaging_affine(
        self,
        chip_areas: Sequence[float],
        sized_for: Sequence[float] | None = None,
    ) -> PackagingAffine:
        self._check_chip_areas(chip_areas)
        sizing = sized_for if sized_for is not None else chip_areas
        rdl_raw, rdl_yield = carrier_cost_and_yield(
            self.rdl_node, self.rdl_area(sizing)
        )
        substrate_cost = self.substrate.cost(self.package_area(sizing))
        flow_fn = (
            carrier_chip_last_cost
            if self.flow is AssemblyFlow.CHIP_LAST
            else carrier_chip_first_cost
        )
        return flow_fn(
            carrier_cost=rdl_raw,
            carrier_yield=rdl_yield,
            substrate_cost=substrate_cost,
            assembly_fee=self.fixed_assembly_cost,
            n_chips=len(chip_areas),
            chip_attach_yield=self.chip_attach_yield,
            carrier_attach_yield=self.carrier_attach_yield,
        )

    def package_nre(self, chip_areas: Sequence[float]) -> float:
        return self.nre_per_mm2 * self.package_area(chip_areas) + self.nre_fixed

    def with_flow(self, flow: AssemblyFlow) -> "InFO":
        """Copy of this technology using the given assembly flow."""
        import dataclasses

        return dataclasses.replace(self, flow=flow)


def info(flow: AssemblyFlow = AssemblyFlow.CHIP_LAST, **overrides: float) -> InFO:
    """InFO with the catalog defaults (overridable per keyword)."""
    params = dict(PACKAGING_DEFAULTS["info"])
    params.update(overrides)
    return InFO(
        rdl_node=get_node("rdl"),
        rdl_area_factor=params["rdl_area_factor"],
        substrate=OrganicSubstrate(layers=int(params["substrate_layers"])),
        substrate_area_factor=params["substrate_area_factor"],
        fixed_assembly_cost=params["fixed_assembly_cost"],
        chip_attach_yield=params["chip_attach_yield"],
        carrier_attach_yield=params["carrier_attach_yield"],
        nre_per_mm2=params["nre_per_mm2"],
        nre_fixed=params["nre_fixed"],
        flow=flow,
    )
