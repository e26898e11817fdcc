"""Shared experiment plumbing."""

from __future__ import annotations

from typing import Callable

from repro.core.re_cost import compute_re_cost
from repro.core.system import System
from repro.data.packaging_costs import MULTICHIP_TECH_NAMES
from repro.explore.partition import soc_reference
from repro.packaging.base import IntegrationTech
from repro.process.catalog import get_node
from repro.process.node import ProcessNode
from repro.registry.technologies import technology_registry

#: The paper's experiments assume 10% D2D area overhead (after EPYC).
PAPER_D2D_FRACTION = 0.10

#: Scheme order used throughout the paper's figures.
SCHEME_ORDER = ("SoC", "MCM", "InFO", "2.5D")


def multichip_integrations() -> dict[str, IntegrationTech]:
    """Fresh instances of the three multi-chip technologies, paper order."""
    registry = technology_registry()
    return {
        registry.get(name).label: registry.create(name)
        for name in MULTICHIP_TECH_NAMES
    }


def reference_soc_re(node: ProcessNode | str, area: float = 100.0) -> float:
    """RE cost of the reference SoC used as a normalizer (Fig. 4: the
    100 mm^2 SoC of the same node)."""
    resolved = get_node(node)
    return compute_re_cost(soc_reference(area, resolved)).total


def normalizer_from(system: System) -> float:
    """Total RE cost of a system, used as a normalization reference."""
    return compute_re_cost(system).total


def named_builder(
    label: str, builder: Callable[[], System]
) -> tuple[str, Callable[[], System]]:
    """Tiny helper keeping (label, builder) pairs readable."""
    return label, builder
