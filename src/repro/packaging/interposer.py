"""2.5D integration on a passive silicon interposer (CoWoS-class).

The interposer is costed like a die on the ``si`` packaging node
(Fig. 2 legend: D=0.06, c=6) and carries its own fabrication yield y1.
Chips bond to the interposer chip-last (y2 per chip), and the populated
interposer bonds to an organic substrate (y3) — exactly Eq. (4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.data.packaging_costs import PACKAGING_DEFAULTS
from repro.errors import InvalidParameterError
from repro.packaging.assembly import (
    AssemblyFlow,
    carrier_chip_first_cost,
    carrier_chip_last_cost,
)
from repro.packaging.base import IntegrationTech, PackagingAffine
from repro.packaging.substrate import OrganicSubstrate
from repro.process.catalog import get_node
from repro.process.node import ProcessNode
from repro.wafer.die import DieSpec, die_cost


@dataclass(frozen=True)
class Interposer25D(IntegrationTech):
    """2.5D: chips on a silicon interposer on a substrate.

    Attributes:
        interposer_node: Packaging node for the interposer wafer.
        interposer_area_factor: Interposer area over total die area.
        substrate: Organic substrate under the interposer.
        substrate_area_factor: Substrate footprint over total die area.
        fixed_assembly_cost: Assembly + final-test fee per attempt.
        chip_attach_yield: y2 — microbump chip-on-wafer bonding yield.
        carrier_attach_yield: y3 — interposer-to-substrate yield.
        flow: Chip-last (paper default) or chip-first.
        nre_per_mm2: Package design cost per mm^2 of footprint (Kp).
        nre_fixed: Fixed package design cost incl. interposer masks (Cp).
    """

    interposer_node: ProcessNode
    interposer_area_factor: float
    substrate: OrganicSubstrate
    substrate_area_factor: float
    fixed_assembly_cost: float
    chip_attach_yield: float
    carrier_attach_yield: float
    nre_per_mm2: float
    nre_fixed: float
    flow: AssemblyFlow = AssemblyFlow.CHIP_LAST

    name: str = field(default="2.5d", init=False)
    label: str = field(default="2.5D", init=False)

    def __post_init__(self) -> None:
        if self.interposer_area_factor < 1.0:
            raise InvalidParameterError("interposer area factor must be >= 1")
        if self.substrate_area_factor < 1.0:
            raise InvalidParameterError("substrate area factor must be >= 1")

    def interposer_area(self, chip_areas: Sequence[float]) -> float:
        """Interposer area in mm^2 (may exceed one reticle; foundries
        stitch large interposers, which the cost model prices purely by
        area and yield)."""
        self._check_chip_areas(chip_areas)
        return sum(chip_areas) * self.interposer_area_factor

    def package_area(self, chip_areas: Sequence[float]) -> float:
        self._check_chip_areas(chip_areas)
        return sum(chip_areas) * self.substrate_area_factor

    def _interposer_cost_and_yield(
        self, chip_areas: Sequence[float]
    ) -> tuple[float, float]:
        spec = DieSpec(area=self.interposer_area(chip_areas), node=self.interposer_node)
        cost = die_cost(spec)
        return cost.raw, cost.die_yield

    def packaging_affine(
        self,
        chip_areas: Sequence[float],
        sized_for: Sequence[float] | None = None,
    ) -> PackagingAffine:
        self._check_chip_areas(chip_areas)
        sizing = sized_for if sized_for is not None else chip_areas
        interposer_raw, interposer_yield = self._interposer_cost_and_yield(sizing)
        substrate_cost = self.substrate.cost(self.package_area(sizing))
        flow_fn = (
            carrier_chip_last_cost
            if self.flow is AssemblyFlow.CHIP_LAST
            else carrier_chip_first_cost
        )
        return flow_fn(
            carrier_cost=interposer_raw,
            carrier_yield=interposer_yield,
            substrate_cost=substrate_cost,
            assembly_fee=self.fixed_assembly_cost,
            n_chips=len(chip_areas),
            chip_attach_yield=self.chip_attach_yield,
            carrier_attach_yield=self.carrier_attach_yield,
        )

    def package_nre(self, chip_areas: Sequence[float]) -> float:
        return self.nre_per_mm2 * self.package_area(chip_areas) + self.nre_fixed

    def with_flow(self, flow: AssemblyFlow) -> "Interposer25D":
        """Copy of this technology using the given assembly flow."""
        import dataclasses

        return dataclasses.replace(self, flow=flow)


#: Extra wafer cost for TSV + active-logic processing on an active
#: interposer, and the design-cost premium for putting logic in it
#: (after Stow et al., ICCAD 2017 — the paper's reference [12]).
ACTIVE_INTERPOSER_WAFER_PREMIUM = 2500.0
ACTIVE_INTERPOSER_NRE_FACTOR = 4.0


def interposer_25d(
    flow: AssemblyFlow = AssemblyFlow.CHIP_LAST,
    active: bool = False,
    **overrides: float,
) -> Interposer25D:
    """2.5D with the catalog defaults (overridable per keyword).

    Args:
        flow: Chip-last (paper default) or chip-first assembly.
        active: Use an *active* interposer — a mature logic wafer
            (65 nm) with TSVs carrying real circuits — instead of the
            passive ``si`` carrier.  Costs more to fabricate and much
            more to design, but lets the carrier absorb routing/logic.
        **overrides: Keyword overrides for any catalog parameter.
    """
    params = dict(PACKAGING_DEFAULTS["interposer"])
    params.update(overrides)
    if active:
        base = get_node("65nm")
        carrier_node = base.evolve(
            wafer_price=base.wafer_price + ACTIVE_INTERPOSER_WAFER_PREMIUM
        )
        params["nre_fixed"] = params["nre_fixed"] * ACTIVE_INTERPOSER_NRE_FACTOR
    else:
        carrier_node = get_node("si")
    return Interposer25D(
        interposer_node=carrier_node,
        interposer_area_factor=params["interposer_area_factor"],
        substrate=OrganicSubstrate(layers=int(params["substrate_layers"])),
        substrate_area_factor=params["substrate_area_factor"],
        fixed_assembly_cost=params["fixed_assembly_cost"],
        chip_attach_yield=params["chip_attach_yield"],
        carrier_attach_yield=params["carrier_attach_yield"],
        nre_per_mm2=params["nre_per_mm2"],
        nre_fixed=params["nre_fixed"],
        flow=flow,
    )
