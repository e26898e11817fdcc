"""One-at-a-time parameter sensitivity (tornado analysis).

Perturbs a named model parameter by +/- a relative step, re-evaluates a
user-supplied cost function, and reports the swing.  Used by the
ablation benchmarks to show which assumptions the paper's conclusions
actually hinge on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import System
    from repro.engine.costengine import CostEngine


@dataclass(frozen=True)
class SensitivityResult:
    """Cost swing for one parameter.

    ``low``/``high`` are the evaluated costs at -step/+step; ``base`` at
    the nominal value.
    """

    parameter: str
    base: float
    low: float
    high: float
    step: float

    @property
    def swing(self) -> float:
        """Total width of the cost interval."""
        return abs(self.high - self.low)

    @property
    def relative_swing(self) -> float:
        """Swing relative to the base cost."""
        if self.base == 0:
            return 0.0
        return self.swing / abs(self.base)


def tornado(
    parameters: Sequence[str],
    evaluate: Callable[[str, float], float],
    step: float = 0.2,
) -> list[SensitivityResult]:
    """Evaluate a tornado study.

    Args:
        parameters: Parameter names to perturb.
        evaluate: Callback ``(parameter, scale) -> cost`` where ``scale``
            multiplies the nominal parameter value (1.0 = nominal).
        step: Relative perturbation (0.2 = +/-20%).

    Returns:
        Results sorted by swing, largest first.
    """
    if not parameters:
        raise InvalidParameterError("need at least one parameter")
    if not 0.0 < step < 1.0:
        raise InvalidParameterError(f"step must be in (0, 1), got {step}")
    results = []
    for parameter in parameters:
        base = evaluate(parameter, 1.0)
        low = evaluate(parameter, 1.0 - step)
        high = evaluate(parameter, 1.0 + step)
        results.append(
            SensitivityResult(
                parameter=parameter, base=base, low=low, high=high, step=step
            )
        )
    return sorted(results, key=lambda result: result.swing, reverse=True)


def system_tornado(
    parameters: Sequence[str],
    builder: Callable[[str, float], "System"],
    step: float = 0.2,
    engine: "CostEngine | None" = None,
    die_cost_fn: Callable | None = None,
) -> list[SensitivityResult]:
    """Tornado study over systems, evaluated on the batch engine.

    Like :func:`tornado`, but the callback builds the perturbed
    :class:`~repro.core.system.System` instead of computing the cost
    itself; all ``3 * len(parameters)`` evaluations run as one
    ``evaluate_many`` batch (shared caches) with the per-unit RE total
    as the metric.  ``die_cost_fn`` optionally
    reprices every evaluation (registry-named yield models / wafer
    geometries).
    """
    from repro.engine.costengine import default_engine

    if not parameters:
        raise InvalidParameterError("need at least one parameter")
    if not 0.0 < step < 1.0:
        raise InvalidParameterError(f"step must be in (0, 1), got {step}")
    eng = engine if engine is not None else default_engine()
    scales = (1.0, 1.0 - step, 1.0 + step)
    systems = [
        builder(parameter, scale) for parameter in parameters for scale in scales
    ]
    costs = eng.evaluate_many(systems, die_cost_fn=die_cost_fn)
    results = []
    for index, parameter in enumerate(parameters):
        base, low, high = (
            costs[3 * index].total,
            costs[3 * index + 1].total,
            costs[3 * index + 2].total,
        )
        results.append(
            SensitivityResult(
                parameter=parameter, base=base, low=low, high=high, step=step
            )
        )
    return sorted(results, key=lambda result: result.swing, reverse=True)
