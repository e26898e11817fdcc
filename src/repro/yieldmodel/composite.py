"""Composite yield of a serial production flow (Eq. 2).

The monolithic SoC flow is a straight line: wafer -> die -> packaging ->
test, and the overall yield is the product of stage yields.  Multi-chip
flows are *not* a simple product (KGDs are committed at specific points);
those are handled by ``repro.packaging.assembly``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.canon import fold_sum
from repro.errors import InvalidParameterError


def _check_yield(value: float, label: str) -> None:
    if not 0.0 < value <= 1.0:
        raise InvalidParameterError(f"{label} must be in (0, 1], got {value}")


@dataclass(frozen=True)
class SerialYield:
    """Named stages of a serial flow and their product (Eq. 2).

    Example::

        flow = SerialYield({"wafer": 0.99, "die": 0.72, "packaging": 0.99,
                            "test": 0.995})
        flow.overall  # ~0.70
    """

    stages: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label, value in self.stages.items():
            _check_yield(value, f"stage {label!r} yield")

    @property
    def overall(self) -> float:
        """Product of all stage yields (1.0 for an empty flow)."""
        product = 1.0
        for value in self.stages.values():
            product *= value
        return product

    def with_stage(self, label: str, value: float) -> "SerialYield":
        """A new flow with one stage added or replaced."""
        _check_yield(value, f"stage {label!r} yield")
        stages = dict(self.stages)
        stages[label] = value
        return SerialYield(stages)

    def loss_share(self, label: str) -> float:
        """Fraction of total loss attributable to one stage.

        Defined as (1 - y_stage) / sum over stages of (1 - y_i); returns
        0.0 when every stage is perfect.
        """
        if label not in self.stages:
            raise KeyError(label)
        total_loss = fold_sum(1.0 - value for value in self.stages.values())
        if total_loss == 0.0:
            return 0.0
        return (1.0 - self.stages[label]) / total_loss


def overall_yield(
    wafer: float = 1.0,
    die: float = 1.0,
    packaging: float = 1.0,
    test: float = 1.0,
) -> float:
    """Eq. (2) convenience form: Y = Yw * Yd * Yp * Yt."""
    flow = SerialYield(
        {"wafer": wafer, "die": die, "packaging": packaging, "test": test}
    )
    return flow.overall
