"""Figure 4: RE cost of SoC vs MCM/InFO/2.5D across nodes and granularity.

Nine panels — {2, 3, 5 chiplets} x {14 nm, 7 nm, 5 nm} — each sweeping
total module area 100-900 mm^2.  Every bar is the five-way RE breakdown
normalized to the total RE cost of a 100 mm^2 SoC at the same node.
The workload follows the paper: 10% D2D overhead, no reuse, chip-last
assembly.

Evaluation routes through :meth:`CostEngine.partition_grid` — one
closed-form areas x counts grid per (node, technology) instead of
building and pricing a ``System`` per bar — which is bit-identical to
the naive path (``tests/test_scenario.py`` holds the refactor to exact
parity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.breakdown import RECost
from repro.engine.costengine import CostEngine
from repro.experiments.common import (
    PAPER_D2D_FRACTION,
    multichip_integrations,
    reference_soc_re,
)
from repro.process.catalog import get_node

DEFAULT_NODES = ("14nm", "7nm", "5nm")
DEFAULT_CHIPLET_COUNTS = (2, 3, 5)
DEFAULT_AREAS = tuple(range(100, 1000, 100))


@dataclass(frozen=True)
class Fig4Cell:
    """One bar: a (module area, scheme) pair with its normalized RE."""

    area: float
    scheme: str
    re: RECost

    @property
    def total(self) -> float:
        return self.re.total


@dataclass(frozen=True)
class Fig4Panel:
    """One of the nine sub-plots."""

    node: str
    n_chiplets: int
    cells: tuple[Fig4Cell, ...]

    def cell(self, area: float, scheme: str) -> Fig4Cell:
        for entry in self.cells:
            if entry.area == area and entry.scheme == scheme:
                return entry
        raise KeyError((area, scheme))

    def areas(self) -> list[float]:
        seen: list[float] = []
        for entry in self.cells:
            if entry.area not in seen:
                seen.append(entry.area)
        return seen


def run_fig4(
    nodes: Sequence[str] = DEFAULT_NODES,
    chiplet_counts: Sequence[int] = DEFAULT_CHIPLET_COUNTS,
    areas: Sequence[float] = DEFAULT_AREAS,
    d2d_fraction: float = PAPER_D2D_FRACTION,
) -> list[Fig4Panel]:
    """Regenerate the Figure 4 grid (one engine grid per node/scheme)."""
    engine = CostEngine()
    integrations = multichip_integrations()
    panels = []
    for node_ref in nodes:
        node = get_node(node_ref)
        node_name = node.name
        reference = reference_soc_re(node)
        soc_grid = engine.partition_grid(
            f"fig4-SoC-{node_name}",
            list(areas),
            [1],
            node,
            next(iter(integrations.values())),  # unused for the SoC column
            d2d_fraction=d2d_fraction,
            soc_for_one=True,
        )
        scheme_grids = {
            label: engine.partition_grid(
                f"fig4-{label}-{node_name}",
                list(areas),
                list(chiplet_counts),
                node,
                integration,
                d2d_fraction=d2d_fraction,
                soc_for_one=False,
            )
            for label, integration in integrations.items()
        }
        for count in chiplet_counts:
            cells: list[Fig4Cell] = []
            for area in areas:
                cells.append(
                    Fig4Cell(
                        area=area,
                        scheme="SoC",
                        re=soc_grid.value(area, 1).normalized_to(reference),
                    )
                )
                for label, grid in scheme_grids.items():
                    cells.append(
                        Fig4Cell(
                            area=area,
                            scheme=label,
                            re=grid.value(area, count).normalized_to(reference),
                        )
                    )
            panels.append(
                Fig4Panel(
                    node=node_name, n_chiplets=count, cells=tuple(cells)
                )
            )
    return panels
