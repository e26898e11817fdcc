"""Parameter-sweep results.

A sweep is an ordered sequence of :class:`SweepPoint` rows (parameter
value, evaluation) that the reporting layer can print or export.
:meth:`repro.engine.costengine.CostEngine.sweep` and
:meth:`~repro.engine.costengine.CostEngine.partition_sweep` produce
them, memoizing die costs and packaging coefficients across points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

from repro.errors import InvalidParameterError

X = TypeVar("X")
Y = TypeVar("Y")


@dataclass(frozen=True)
class SweepPoint(Generic[X, Y]):
    """One sweep sample: the parameter value and its evaluation."""

    x: X
    value: Y


@dataclass(frozen=True)
class Sweep(Generic[X, Y]):
    """An ordered collection of sweep samples."""

    name: str
    points: tuple[SweepPoint[X, Y], ...]

    def xs(self) -> list[X]:
        return [point.x for point in self.points]

    def values(self) -> list[Y]:
        return [point.value for point in self.points]

    def map_values(self, fn: Callable[[Y], float]) -> "Sweep[X, float]":
        """Project each value through ``fn`` (e.g. extract a total)."""
        return Sweep(
            name=self.name,
            points=tuple(SweepPoint(p.x, fn(p.value)) for p in self.points),
        )

    def argmin(self, key: Callable[[Y], float]) -> SweepPoint[X, Y]:
        """The sample minimizing ``key`` (errors on empty sweeps)."""
        if not self.points:
            raise InvalidParameterError(f"sweep {self.name!r} is empty")
        return min(self.points, key=lambda point: key(point.value))
