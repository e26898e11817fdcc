"""Uneven partitioning: assigning real module lists to chiplets.

Figure 4 partitions a featureless area into equal chiplets; real designs
partition a *list of modules* whose areas cannot be split.  This module
solves that assignment with the classic longest-processing-time (LPT)
greedy plus a pairwise-swap refinement, producing balanced chiplets that
minimize the worst-die area (the dominant yield term).

This addresses the "partitioning problem" architecture challenge the
paper's introduction cites (Loh et al., DATE 2021).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.canon import fold_sum
from repro.core.chip import Chip
from repro.core.module import Module
from repro.core.system import System
from repro.d2d.overhead import FractionOverhead
from repro.errors import InvalidParameterError
from repro.packaging.base import IntegrationTech
from repro.process.node import ProcessNode


@dataclass(frozen=True)
class PartitionAssignment:
    """Modules assigned to each chiplet (indices into the input list)."""

    bins: tuple[tuple[int, ...], ...]
    bin_areas: tuple[float, ...]

    @property
    def max_area(self) -> float:
        return max(self.bin_areas)

    @property
    def imbalance(self) -> float:
        """max/mean bin area; 1.0 is perfectly balanced."""
        mean = fold_sum(self.bin_areas) / len(self.bin_areas)
        if mean == 0:
            return 1.0
        return self.max_area / mean


def balance_modules(areas: Sequence[float], k: int) -> PartitionAssignment:
    """Assign module areas to ``k`` bins, minimizing the largest bin.

    LPT greedy (largest module to the emptiest bin) followed by a
    single-move/swap local search.  Exact for most practical inputs and
    never worse than 4/3 of optimal (Graham's bound).
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if not areas:
        raise InvalidParameterError("need at least one module")
    for area in areas:
        if area <= 0:
            raise InvalidParameterError("module areas must be > 0")
    if k > len(areas):
        raise InvalidParameterError(
            f"cannot split {len(areas)} modules into {k} chiplets"
        )

    order = sorted(range(len(areas)), key=lambda i: -areas[i])
    bins: list[list[int]] = [[] for _ in range(k)]
    loads = [0.0] * k
    for index in order:
        target = loads.index(min(loads))
        bins[target].append(index)
        loads[target] += areas[index]

    # Local search: move or swap modules while the worst bin improves.
    improved = True
    while improved:
        improved = False
        worst = loads.index(max(loads))
        for other in range(k):
            if other == worst:
                continue
            # Try moving one module from the worst bin.
            for index in list(bins[worst]):
                new_worst = loads[worst] - areas[index]
                new_other = loads[other] + areas[index]
                if max(new_worst, new_other) < max(loads[worst], loads[other]) - 1e-12:
                    bins[worst].remove(index)
                    bins[other].append(index)
                    loads[worst] = new_worst
                    loads[other] = new_other
                    improved = True
                    break
            if improved:
                break
            # Try swapping a pair.
            for index in list(bins[worst]):
                for jndex in list(bins[other]):
                    delta = areas[index] - areas[jndex]
                    if delta <= 0:
                        continue
                    new_worst = loads[worst] - delta
                    new_other = loads[other] + delta
                    if max(new_worst, new_other) < max(
                        loads[worst], loads[other]
                    ) - 1e-12:
                        bins[worst].remove(index)
                        bins[other].remove(jndex)
                        bins[worst].append(jndex)
                        bins[other].append(index)
                        loads[worst] = new_worst
                        loads[other] = new_other
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break

    populated = [tuple(sorted(b)) for b in bins if b]
    areas_out = [fold_sum(areas[i] for i in b) for b in populated]
    return PartitionAssignment(
        bins=tuple(populated), bin_areas=tuple(areas_out)
    )


def partition_modules(
    name: str,
    modules: Sequence[Module],
    node: ProcessNode,
    k: int,
    integration: IntegrationTech,
    d2d_fraction: float = 0.10,
    quantity: float = 1.0,
) -> System:
    """Build a multi-chip system by balancing real modules over ``k``
    chiplets (each chiplet is a distinct design)."""
    areas = [module.area_at(node) for module in modules]
    assignment = balance_modules(areas, k)
    d2d = FractionOverhead(d2d_fraction)
    chips = []
    for index, bin_indices in enumerate(assignment.bins):
        chips.append(
            Chip.of(
                f"{name}-chiplet{index}",
                tuple(modules[i] for i in bin_indices),
                node,
                d2d=d2d,
            )
        )
    return System(
        name=name, chips=tuple(chips), integration=integration,
        quantity=quantity,
    )
