"""Parameter-sweep results.

A sweep is an ordered sequence of :class:`SweepPoint` rows (parameter
value, evaluation) that the reporting layer can print or export.
:meth:`repro.engine.costengine.CostEngine.partition_sweep` produces
them in closed form over the chiplet-count axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

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
