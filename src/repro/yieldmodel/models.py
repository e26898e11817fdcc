"""Die yield models.

The paper (Eq. 1) uses the negative-binomial / Seed's form

    Y(S) = (1 + D*S / c) ** -c

with defect density ``D`` in defects/cm^2, die area ``S`` in mm^2 and
clustering parameter ``c``.  This module implements that model and the
:class:`YieldModel` interface; the other classical industry models
(Poisson, Murphy, exponential, Bose-Einstein, and the gross-yield
wrapper) live in :mod:`repro.yieldmodel.alternatives`, so pricing with
the paper's model does not load them.

Units: every model takes area in mm^2 and defect density in defects/cm^2
and converts internally (1 cm^2 = 100 mm^2).
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import InvalidParameterError
from repro.process.node import ProcessNode

MM2_PER_CM2 = 100.0


def _check_area(area: float) -> None:
    if area < 0:
        raise InvalidParameterError(f"die area must be >= 0 mm^2, got {area}")


def _defects_per_die(defect_density: float, area_mm2: float) -> float:
    """Expected defect count on a die (density in /cm^2, area in mm^2)."""
    return defect_density * area_mm2 / MM2_PER_CM2


class YieldModel(ABC):
    """Interface shared by all die-yield models."""

    defect_density: float

    @abstractmethod
    def die_yield(self, area: float) -> float:
        """Probability that a die of ``area`` mm^2 is defect-free."""

    def dice_yield(self, area: float, count: int) -> float:
        """Yield of ``count`` independent dies of the same area."""
        if count < 0:
            raise InvalidParameterError(f"count must be >= 0, got {count}")
        return self.die_yield(area) ** count


@dataclass(frozen=True)
class NegativeBinomialYield(YieldModel):
    """Eq. (1): negative-binomial (equivalently Seed's) yield model.

    Attributes:
        defect_density: D in defects/cm^2.
        cluster_param: c — clustering parameter (negative binomial) or
            number of critical levels (Seed's model).
    """

    defect_density: float
    cluster_param: float

    def __post_init__(self) -> None:
        if self.defect_density < 0:
            raise InvalidParameterError("defect density must be >= 0")
        if self.cluster_param <= 0:
            raise InvalidParameterError("cluster parameter must be > 0")

    def die_yield(self, area: float) -> float:
        _check_area(area)
        defects = _defects_per_die(self.defect_density, area)
        return (1.0 + defects / self.cluster_param) ** (-self.cluster_param)


# The paper treats Seed's model and the negative binomial as the same
# functional form; provide the alias for readability.
SeedsYield = NegativeBinomialYield


@functools.lru_cache(maxsize=4096)
def yield_model_for_node(node: ProcessNode) -> NegativeBinomialYield:
    """The paper's yield model configured from a catalog node.

    Memoized on the (hashable, value-compared) node so hot paths — die
    costing, sweeps, Monte-Carlo draws — do not rebuild the model per
    call; a node perturbed via ``with_defect_density`` hashes to a new
    key and gets a fresh model.
    """
    return NegativeBinomialYield(
        defect_density=node.defect_density,
        cluster_param=node.cluster_param,
    )
