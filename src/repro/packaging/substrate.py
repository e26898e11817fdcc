"""Organic build-up substrate cost model.

Substrate cost scales with area and metal layer count; the MCM growth
factor of the paper ("additional substrate layers for interconnection")
is expressed by giving the MCM technology more layers than the SoC
package.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.packaging_costs import SUBSTRATE_COST_PER_MM2_PER_LAYER
from repro.errors import InvalidParameterError
from repro.packaging.base import bounds


@dataclass(frozen=True)
class OrganicSubstrate:
    """A substrate technology: layer count and unit cost.

    Attributes:
        layers: Number of build-up metal layers.
        cost_per_mm2_per_layer: USD per mm^2 per layer.
    """

    layers: int
    cost_per_mm2_per_layer: float = SUBSTRATE_COST_PER_MM2_PER_LAYER

    def __post_init__(self) -> None:
        if self.layers <= 0:
            raise InvalidParameterError(f"layers must be > 0, got {self.layers}")
        if self.cost_per_mm2_per_layer < 0:
            raise InvalidParameterError("substrate unit cost must be >= 0")

    def cost(self, area: float) -> float:
        """Cost of one substrate of ``area`` mm^2 (or per area of a
        numpy column)."""
        smallest, _largest = bounds(area)
        if smallest < 0:
            raise InvalidParameterError(
                f"substrate area must be >= 0, got {smallest}"
            )
        return area * self.layers * self.cost_per_mm2_per_layer

    def with_layers(self, layers: int) -> "OrganicSubstrate":
        return OrganicSubstrate(layers, self.cost_per_mm2_per_layer)
