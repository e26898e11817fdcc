"""Partitioning a monolithic design into chiplets (Fig. 4 workload).

``partition_monolith`` splits a module area into ``n`` equal chiplets,
each carrying its own D2D interface; no reuse is assumed (every chiplet
is a distinct design), matching the paper's Figure 4 setting.
Ranges of areas and granularities are priced as columns, without
building these systems, by ``CostEngine.partition_sweep`` /
``partition_grid`` on the equal-partition kernel
(``repro.engine.partition_columns``) that the design-space search
shares; the built systems here are their bit-parity oracle.
"""

from __future__ import annotations

from repro.core.chip import Chip
from repro.core.module import Module
from repro.core.system import System
from repro.d2d.overhead import FractionOverhead
from repro.errors import InvalidParameterError
from repro.packaging.base import IntegrationTech
from repro.process.node import ProcessNode


def soc_label(module_area: float, node: ProcessNode) -> str:
    """Default system name of the monolithic SoC reference (shared with
    ``CostEngine.partition_grid``, whose bit-parity contract includes
    the chip names)."""
    return f"soc-{module_area:.0f}mm2-{node.name}"


def partition_label(
    module_area: float,
    node: ProcessNode,
    n_chiplets: int,
    integration: IntegrationTech,
) -> str:
    """Default system name of an equal ``n_chiplets``-way partition
    (shared with ``CostEngine.partition_grid`` — see :func:`soc_label`)."""
    return (
        f"{integration.name}-{n_chiplets}x{module_area / n_chiplets:.0f}mm2-"
        f"{node.name}"
    )


def soc_reference(
    module_area: float,
    node: ProcessNode,
    quantity: float = 1.0,
    name: str | None = None,
) -> System:
    """Monolithic SoC holding the whole module area on one die."""
    from repro.packaging.soc import soc_package

    label = name or soc_label(module_area, node)
    module = Module(f"{label}-module", module_area, node)
    die = Chip.of(f"{label}-die", (module,), node)
    return System(
        name=label, chips=(die,), integration=soc_package(), quantity=quantity
    )


def partition_monolith(
    module_area: float,
    node: ProcessNode,
    n_chiplets: int,
    integration: IntegrationTech,
    d2d_fraction: float = 0.10,
    quantity: float = 1.0,
    name: str | None = None,
) -> System:
    """Split ``module_area`` into ``n_chiplets`` equal, distinct chiplets.

    Args:
        module_area: Total functional area to partition, mm^2.
        node: Process node of every chiplet.
        n_chiplets: Number of equal parts (>= 1).
        integration: Multi-chip integration technology.
        d2d_fraction: D2D share of each chiplet's area (the paper uses
            10% after EPYC).
        quantity: Production quantity for NRE amortization.
        name: Optional system name.
    """
    if n_chiplets < 1:
        raise InvalidParameterError(f"n_chiplets must be >= 1, got {n_chiplets}")
    if module_area <= 0:
        raise InvalidParameterError(f"module_area must be > 0, got {module_area}")

    label = name or partition_label(module_area, node, n_chiplets, integration)
    share = module_area / n_chiplets
    d2d = FractionOverhead(d2d_fraction)
    chips = tuple(
        Chip.of(
            f"{label}-chiplet{index}",
            (Module(f"{label}-part{index}", share, node),),
            node,
            d2d=d2d,
        )
        for index in range(n_chiplets)
    )
    return System(
        name=label, chips=chips, integration=integration, quantity=quantity
    )
