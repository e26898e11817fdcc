"""The classical industry yield models besides Eq. (1): Poisson,
Murphy, exponential and Bose-Einstein, and a gross-yield wrapper.

They share the :class:`~repro.yieldmodel.models.YieldModel` interface
and its units (area in mm^2, defect density in defects/cm^2), so
results can be cross-checked against the paper's negative-binomial
model.  The yield-model registry (:mod:`repro.registry.yieldmodels`)
builds them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import InvalidParameterError
from repro.yieldmodel.models import YieldModel, _check_area, _defects_per_die


@dataclass(frozen=True)
class PoissonYield(YieldModel):
    """Poisson model: Y = exp(-D*S); the c -> inf limit of Eq. (1)."""

    defect_density: float

    def __post_init__(self) -> None:
        if self.defect_density < 0:
            raise InvalidParameterError("defect density must be >= 0")

    def die_yield(self, area: float) -> float:
        _check_area(area)
        return math.exp(-_defects_per_die(self.defect_density, area))


@dataclass(frozen=True)
class MurphyYield(YieldModel):
    """Murphy's model: Y = ((1 - exp(-D*S)) / (D*S))^2."""

    defect_density: float

    def __post_init__(self) -> None:
        if self.defect_density < 0:
            raise InvalidParameterError("defect density must be >= 0")

    def die_yield(self, area: float) -> float:
        _check_area(area)
        defects = _defects_per_die(self.defect_density, area)
        if defects == 0.0:
            return 1.0
        return ((1.0 - math.exp(-defects)) / defects) ** 2


@dataclass(frozen=True)
class ExponentialYield(YieldModel):
    """Seeds' exponential model: Y = 1 / (1 + D*S); the c = 1 case of Eq. (1)."""

    defect_density: float

    def __post_init__(self) -> None:
        if self.defect_density < 0:
            raise InvalidParameterError("defect density must be >= 0")

    def die_yield(self, area: float) -> float:
        _check_area(area)
        return 1.0 / (1.0 + _defects_per_die(self.defect_density, area))


@dataclass(frozen=True)
class BoseEinsteinYield(YieldModel):
    """Bose-Einstein model: Y = (1 + D*S)^-n for n critical layers."""

    defect_density: float
    critical_layers: int = 1

    def __post_init__(self) -> None:
        if self.defect_density < 0:
            raise InvalidParameterError("defect density must be >= 0")
        if self.critical_layers < 1:
            raise InvalidParameterError("critical_layers must be >= 1")

    def die_yield(self, area: float) -> float:
        _check_area(area)
        defects = _defects_per_die(self.defect_density, area)
        return (1.0 + defects) ** (-self.critical_layers)


@dataclass(frozen=True)
class GrossYield(YieldModel):
    """Wrap a defect-limited model with a systematic (gross) yield factor.

    Y = Y0 * Y_defect(S), with Y0 in (0, 1] covering parametric and
    systematic losses that do not depend on area.
    """

    base: YieldModel
    gross_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.gross_factor <= 1.0:
            raise InvalidParameterError(
                f"gross factor must be in (0, 1], got {self.gross_factor}"
            )

    @property
    def defect_density(self) -> float:  # type: ignore[override]
        return self.base.defect_density

    def die_yield(self, area: float) -> float:
        return self.gross_factor * self.base.die_yield(area)
