"""One-at-a-time parameter sensitivity (tornado analysis).

Perturbs each named model parameter by +/- a relative step, prices the
perturbed systems, and reports the swing.  The scenario ``sensitivity``
study uses it to show which assumptions the paper's conclusions hinge
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import System


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


def system_tornado(
    parameters: Sequence[str],
    builder: Callable[[str, float], "System"],
    step: float = 0.2,
    die_cost_fn: Callable | None = None,
) -> list[SensitivityResult]:
    """Tornado study over systems.

    Args:
        parameters: Parameter names to perturb.
        builder: Callback ``(parameter, scale) -> System`` where
            ``scale`` multiplies the nominal parameter value (1.0 =
            nominal).
        step: Relative perturbation (0.2 = +/-20%).
        die_cost_fn: Optional die-pricing override applied to every
            evaluation (registry-named yield models / wafer geometries).

    All ``3 * len(parameters)`` systems are priced by
    :func:`~repro.core.re_cost.compute_re_cost`, with the per-unit RE
    total as the metric.

    Returns:
        Results sorted by swing, largest first.
    """
    from repro.core.re_cost import compute_re_cost

    if not parameters:
        raise InvalidParameterError("need at least one parameter")
    if not 0.0 < step < 1.0:
        raise InvalidParameterError(f"step must be in (0, 1), got {step}")
    scales = (1.0, 1.0 - step, 1.0 + step)
    systems = [
        builder(parameter, scale) for parameter in parameters for scale in scales
    ]
    costs = [
        compute_re_cost(system, die_cost_fn=die_cost_fn) for system in systems
    ]
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
