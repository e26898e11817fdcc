"""Monte-Carlo sampling of yield parameters.

Defect densities are reported as point estimates but are really moving
targets (ramp maturity, foundry variation).  This module provides a
small prior abstraction used by ``repro.explore.montecarlo`` to
propagate that uncertainty into cost distributions without requiring
numpy at the core-model layer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import InvalidParameterError
from repro.yieldmodel.models import NegativeBinomialYield


@dataclass(frozen=True)
class DefectDensityPrior:
    """Log-normal-ish prior over defect density.

    Sampling draws ``D = mode * exp(sigma * Z)`` with Z ~ N(0, 1),
    truncated to ``[lower, upper]`` when bounds are given.  The mode is
    the catalog value, so the distribution is centred on the paper's
    parameters.
    """

    mode: float
    sigma: float = 0.15
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self) -> None:
        for name in ("mode", "sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameterError(
                    f"{name} must be a finite number, got {value}"
                )
            if not value >= 0:
                raise InvalidParameterError(f"{name} must be >= 0")
        if (
            self.lower is not None
            and self.upper is not None
            and self.lower > self.upper
        ):
            raise InvalidParameterError("lower bound exceeds upper bound")

    def sample(self, rng: random.Random) -> float:
        """One draw from the prior."""
        value = self.mode * math.exp(self.sigma * rng.gauss(0.0, 1.0))
        if self.lower is not None:
            value = max(value, self.lower)
        if self.upper is not None:
            value = min(value, self.upper)
        return value


def sample_yields(
    prior: DefectDensityPrior,
    cluster_param: float,
    area: float,
    draws: int,
    seed: int = 0,
) -> list[float]:
    """Sample die yields for a fixed area under defect-density uncertainty.

    Args:
        prior: Defect density prior.
        cluster_param: Negative-binomial c.
        area: Die area in mm^2.
        draws: Number of Monte-Carlo draws (must be > 0).
        seed: RNG seed (sampling is deterministic given the seed).
    """
    if draws <= 0:
        raise InvalidParameterError(f"draws must be > 0, got {draws}")
    rng = random.Random(seed)
    results = []
    for _ in range(draws):
        density = prior.sample(rng)
        model = NegativeBinomialYield(density, cluster_param)
        results.append(model.die_yield(area))
    return results
