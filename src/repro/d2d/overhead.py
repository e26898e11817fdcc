"""D2D area-overhead policies.

The paper's experiments assume the D2D interface takes a fixed
percentage (10%, after EPYC) of each chiplet's area.  The alternative
policy derives the area from a required cross-sectional bandwidth and a
PHY profile.  Both implement :class:`D2DOverhead`.

Convention: the overhead fraction f means the D2D interface occupies
``f`` of the finished chip, so ``chip_area = module_area / (1 - f)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.d2d.interface import D2DInterface


class D2DOverhead(ABC):
    """Maps a chiplet's module area to its D2D interface area."""

    @abstractmethod
    def d2d_area(self, module_area: float) -> float:
        """D2D area in mm^2 added to a chiplet of ``module_area`` mm^2."""

    def chip_area(self, module_area: float) -> float:
        """Finished chip area: modules plus D2D."""
        return module_area + self.d2d_area(module_area)


@dataclass(frozen=True)
class FractionOverhead(D2DOverhead):
    """The paper's policy: D2D takes ``fraction`` of the chip area.

    chip_area = module_area / (1 - fraction), hence
    d2d_area = module_area * fraction / (1 - fraction).
    """

    fraction: float = 0.10

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise InvalidParameterError(
                f"D2D fraction must be in [0, 1), got {self.fraction}"
            )

    def d2d_area(self, module_area: float) -> float:
        if module_area < 0:
            raise InvalidParameterError("module area must be >= 0")
        return module_area * self.fraction / (1.0 - self.fraction)


@dataclass(frozen=True)
class BandwidthOverhead(D2DOverhead):
    """Bandwidth-derived policy: area = bandwidth / PHY density.

    Attributes:
        bandwidth_gbps: Required off-chiplet bandwidth in GB/s.
        interface: PHY profile supplying the bandwidth density.
    """

    bandwidth_gbps: float
    interface: D2DInterface

    def __post_init__(self) -> None:
        if self.bandwidth_gbps < 0:
            raise InvalidParameterError("bandwidth must be >= 0")

    def d2d_area(self, module_area: float) -> float:
        if module_area < 0:
            raise InvalidParameterError("module area must be >= 0")
        return self.interface.phy_area(self.bandwidth_gbps)

    def equivalent_fraction(self, module_area: float) -> float:
        """The chip-area fraction this bandwidth requirement implies."""
        if module_area <= 0:
            raise InvalidParameterError("module area must be > 0")
        d2d = self.d2d_area(module_area)
        return d2d / (module_area + d2d)


NO_OVERHEAD = FractionOverhead(0.0)
