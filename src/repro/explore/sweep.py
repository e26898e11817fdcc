"""Generic parameter-sweep engine.

A sweep maps a sequence of parameter values through a builder (value ->
system) and an evaluator (system -> cost), collecting
:class:`SweepPoint` rows that the reporting layer can print or export.

Execution routes through :class:`repro.engine.costengine.CostEngine`,
which memoizes die costs and packaging decompositions across points and
can fan evaluations out to a worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generic, Sequence, TypeVar

from repro.core.system import System
from repro.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.costengine import CostEngine

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


def run_sweep(
    name: str,
    values: Sequence[X],
    builder: Callable[[X], System],
    evaluator: Callable[[System], Y],
    engine: "CostEngine | None" = None,
) -> Sweep[X, Y]:
    """Evaluate ``builder(value)`` with ``evaluator`` for every value.

    Args:
        name: Sweep label.
        values: Parameter values.
        builder: Maps a value to the system to price.
        evaluator: Maps a system to the recorded result.
        engine: :class:`~repro.engine.costengine.CostEngine` to run on;
            defaults to the process-wide shared engine.
    """
    from repro.engine.costengine import default_engine

    eng = engine if engine is not None else default_engine()
    return eng.sweep(name, values, builder, evaluator=evaluator)
