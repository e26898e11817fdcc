"""Figure 6: total (RE + amortized NRE) cost of a single system.

An 800 mm^2-module system built as a monolithic SoC and as a 2-chiplet
multi-chip design (MCM / InFO / 2.5D), at 14 nm and 5 nm, for production
quantities 500k / 2M / 10M.  NRE is amortized within each system alone
(no reuse).  Costs are normalized to the RE cost of the SoC at the same
node.

The RE part of every bar comes from one closed-form
:meth:`CostEngine.partition_grid` evaluation per (node, scheme) —
priced once and shared across the three quantities — instead of
re-pricing per (system, quantity); bit-identical to the naive path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.breakdown import TotalCost
from repro.core.total import compute_total_cost
from repro.engine.costengine import CostEngine
from repro.experiments.common import PAPER_D2D_FRACTION, multichip_integrations
from repro.explore.partition import partition_monolith, soc_reference
from repro.process.catalog import get_node

DEFAULT_NODES = ("14nm", "5nm")
DEFAULT_QUANTITIES = (500_000.0, 2_000_000.0, 10_000_000.0)
DEFAULT_MODULE_AREA = 800.0
DEFAULT_CHIPLETS = 2


@dataclass(frozen=True)
class Fig6Entry:
    """One bar: (node, quantity, scheme) with normalized cost pieces."""

    node: str
    quantity: float
    scheme: str
    cost: TotalCost

    @property
    def total(self) -> float:
        return self.cost.total

    @property
    def re_share(self) -> float:
        return self.cost.re_share


@dataclass(frozen=True)
class Fig6Result:
    """All bars of both panels."""

    entries: tuple[Fig6Entry, ...]
    module_area: float
    n_chiplets: int

    def entry(self, node: str, quantity: float, scheme: str) -> Fig6Entry:
        for item in self.entries:
            if (
                item.node == node
                and item.quantity == quantity
                and item.scheme == scheme
            ):
                return item
        raise KeyError((node, quantity, scheme))

    def schemes(self) -> list[str]:
        seen: list[str] = []
        for item in self.entries:
            if item.scheme not in seen:
                seen.append(item.scheme)
        return seen


def run_fig6(
    nodes: Sequence[str] = DEFAULT_NODES,
    quantities: Sequence[float] = DEFAULT_QUANTITIES,
    module_area: float = DEFAULT_MODULE_AREA,
    n_chiplets: int = DEFAULT_CHIPLETS,
    d2d_fraction: float = PAPER_D2D_FRACTION,
) -> Fig6Result:
    """Regenerate the Figure 6 bars."""
    engine = CostEngine()
    entries = []
    for node_ref in nodes:
        node = get_node(node_ref)
        node_name = node.name
        integrations = multichip_integrations()
        systems = {"SoC": soc_reference(module_area, node)}
        for label, integration in integrations.items():
            systems[label] = partition_monolith(
                module_area,
                node,
                n_chiplets,
                integration,
                d2d_fraction=d2d_fraction,
            )
        # One closed-form grid point per scheme; the RE cost is shared
        # across quantities (only the amortized NRE moves).
        re_costs = {
            "SoC": engine.partition_grid(
                f"fig6-SoC-{node_name}",
                [module_area],
                [1],
                node,
                next(iter(integrations.values())),  # unused for SoC
                d2d_fraction=d2d_fraction,
                soc_for_one=True,
            ).value(module_area, 1)
        }
        for label, integration in integrations.items():
            re_costs[label] = engine.partition_grid(
                f"fig6-{label}-{node_name}",
                [module_area],
                [n_chiplets],
                node,
                integration,
                d2d_fraction=d2d_fraction,
                soc_for_one=False,
            ).value(module_area, n_chiplets)
        reference = re_costs["SoC"].total
        for quantity in quantities:
            for label, system in systems.items():
                cost = compute_total_cost(
                    system, quantity, re_cost=re_costs[label]
                )
                entries.append(
                    Fig6Entry(
                        node=node_name,
                        quantity=quantity,
                        scheme=label,
                        cost=cost.normalized_to(reference),
                    )
                )
    return Fig6Result(
        entries=tuple(entries),
        module_area=module_area,
        n_chiplets=n_chiplets,
    )
