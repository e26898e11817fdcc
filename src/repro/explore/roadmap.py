"""Time-phased cost roadmaps (extension beyond the paper).

The paper prices a design at one instant; real programs live on a
timeline where defect densities learn downward (the paper's own AMD
discussion: "as the yield of 7nm technology improves in recent years,
the advantage is further smaller"), wafer prices erode, and volume
ramps.  This module combines those three curves into a per-period and
cumulative program cost so the SoC-vs-chiplet decision can be made over
a program's life instead of at a point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.canon import fold_sum
from repro.core.chip import Chip
from repro.core.nre_cost import compute_system_nre
from repro.core.re_cost import compute_re_cost
from repro.core.system import System
from repro.errors import InvalidParameterError
from repro.process.defects import DefectLearningCurve
from repro.process.node import ProcessNode


@dataclass(frozen=True)
class RoadmapAssumptions:
    """Per-period evolution of the manufacturing environment.

    Attributes:
        periods: Number of periods (conventionally quarters).
        volumes: Units produced in each period (len == periods).
        learning: Optional per-node defect learning curves, keyed by
            node name; nodes without a curve keep their catalog density.
        wafer_price_erosion: Per-period multiplicative wafer price decay
            (0.97 = 3% cheaper per period), applied to every node.
    """

    periods: int
    volumes: tuple[float, ...]
    learning: dict[str, DefectLearningCurve] = field(default_factory=dict)
    wafer_price_erosion: float = 1.0

    def __post_init__(self) -> None:
        if self.periods < 1:
            raise InvalidParameterError("periods must be >= 1")
        if len(self.volumes) != self.periods:
            raise InvalidParameterError(
                f"volumes has {len(self.volumes)} entries, expected "
                f"{self.periods}"
            )
        if any(volume < 0 for volume in self.volumes):
            raise InvalidParameterError("volumes must be >= 0")
        if not 0.0 < self.wafer_price_erosion <= 1.0:
            raise InvalidParameterError(
                "wafer price erosion must be in (0, 1]"
            )

    @property
    def total_volume(self) -> float:
        return fold_sum(self.volumes)


@dataclass(frozen=True)
class RoadmapPeriod:
    """Cost of one period."""

    period: int
    volume: float
    re_per_unit: float
    spend: float


@dataclass(frozen=True)
class RoadmapResult:
    """Per-period and program-level cost of one system on a roadmap."""

    system_name: str
    periods: tuple[RoadmapPeriod, ...]
    nre_total: float

    @property
    def re_spend(self) -> float:
        return fold_sum(period.spend for period in self.periods)

    @property
    def program_cost(self) -> float:
        """Total program spend: all RE plus the one-time NRE."""
        return self.re_spend + self.nre_total

    @property
    def total_volume(self) -> float:
        return fold_sum(period.volume for period in self.periods)

    @property
    def average_unit_cost(self) -> float:
        if self.total_volume == 0:
            return 0.0
        return self.program_cost / self.total_volume


def _node_at_period(
    node: ProcessNode,
    period: int,
    assumptions: RoadmapAssumptions,
) -> ProcessNode:
    evolved = node
    curve = assumptions.learning.get(node.name)
    if curve is not None:
        evolved = evolved.with_defect_density(curve.density_at(float(period)))
    if assumptions.wafer_price_erosion < 1.0:
        factor = assumptions.wafer_price_erosion**period
        evolved = evolved.evolve(wafer_price=node.wafer_price * factor)
    return evolved


def _system_at_period(
    system: System, period: int, assumptions: RoadmapAssumptions
) -> System:
    cache: dict[int, Chip] = {}
    chips = []
    for chip in system.chips:
        if id(chip) not in cache:
            cache[id(chip)] = Chip(
                name=chip.name,
                modules=chip.modules,
                node=_node_at_period(chip.node, period, assumptions),
                d2d=chip.d2d,
            )
        chips.append(cache[id(chip)])
    return System(
        name=system.name,
        chips=tuple(chips),
        integration=system.integration,
        quantity=system.quantity,
        package=system.package,
    )


def roadmap_cost(
    system: System,
    assumptions: RoadmapAssumptions,
    nre_override: float | None = None,
) -> RoadmapResult:
    """Price a system across every period of a roadmap.

    Args:
        system: The system (its ``quantity`` is ignored; volumes come
            from the roadmap).
        assumptions: The roadmap.
        nre_override: Replace the standalone-system NRE (e.g. with a
            portfolio share).
    """
    periods = []
    for period, volume in enumerate(assumptions.volumes):
        evolved = _system_at_period(system, period, assumptions)
        re = compute_re_cost(evolved).total
        periods.append(
            RoadmapPeriod(
                period=period,
                volume=volume,
                re_per_unit=re,
                spend=re * volume,
            )
        )
    nre = (
        nre_override
        if nre_override is not None
        else compute_system_nre(system).total
    )
    return RoadmapResult(
        system_name=system.name, periods=tuple(periods), nre_total=nre
    )


def compare_on_roadmap(
    systems: Sequence[System],
    assumptions: RoadmapAssumptions,
) -> list[RoadmapResult]:
    """Roadmap results for several alternatives, cheapest program first."""
    if not systems:
        raise InvalidParameterError("need at least one system")
    results = [roadmap_cost(system, assumptions) for system in systems]
    return sorted(results, key=lambda result: result.program_cost)


def ramp_volumes(
    total: float, periods: int, shape: Callable[[float], float] | None = None
) -> tuple[float, ...]:
    """Split a program volume over periods with a ramp shape.

    The default shape is a triangular ramp-up/plateau: weight
    ``min(t+1, periods/2)`` — early periods ship less.
    """
    if total < 0:
        raise InvalidParameterError("total volume must be >= 0")
    if periods < 1:
        raise InvalidParameterError("periods must be >= 1")
    shape_fn = shape or (lambda t: min(t + 1.0, periods / 2.0))
    weights = [shape_fn(float(t)) for t in range(periods)]
    weight_sum = fold_sum(weights)
    if weight_sum <= 0:
        raise InvalidParameterError("ramp shape produced no volume")
    return tuple(total * w / weight_sum for w in weights)
