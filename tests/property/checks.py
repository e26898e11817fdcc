"""Structured comparison helpers for engine parity assertions.

Hypothesis reports the minimal counterexample, but a bare
``assert a == b`` leaves *what* diverged to archaeology.  These helpers
name the component (which engine path), the metric, the index and the
observed relative error in every failure message, so a shrunk
counterexample is directly actionable.
"""

import math


def rel_err(fast: float, exact: float) -> float:
    """|fast - exact| / max(|exact|, 1) — stable near zero."""
    return abs(fast - exact) / max(abs(exact), 1.0)


def max_rel_err(fast_values, exact_values) -> float:
    """Largest elementwise :func:`rel_err` across two sequences."""
    return max(
        (rel_err(f, e) for f, e in zip(fast_values, exact_values)),
        default=0.0,
    )


def _diff_message(
    component: str,
    metric: str,
    fast: float,
    exact: float,
    index: "int | None" = None,
    tol: "float | None" = None,
) -> str:
    where = f" at index {index}" if index is not None else ""
    bound = f" (tol {tol:.1e})" if tol is not None else " (expected exact)"
    return (
        f"{component}: metric {metric!r} diverges{where}: "
        f"fast={fast!r} exact={exact!r} rel_err={rel_err(fast, exact):.3e}"
        f"{bound}"
    )


def assert_bit_equal(component: str, metric: str, fast, exact) -> None:
    """Bit-parity assertion on one scalar metric."""
    assert fast == exact, _diff_message(component, metric, fast, exact)


def assert_sequences_equal(component: str, metric: str, fast, exact) -> None:
    """Bit-parity assertion over aligned sequences."""
    fast, exact = list(fast), list(exact)
    assert len(fast) == len(exact), (
        f"{component}: metric {metric!r} length mismatch: "
        f"fast has {len(fast)} entries, exact has {len(exact)}"
    )
    for index, (f, e) in enumerate(zip(fast, exact)):
        assert f == e, _diff_message(component, metric, f, e, index=index)


def assert_close(
    component: str, metric: str, fast: float, exact: float, tol: float
) -> None:
    """Bounded-relative-error assertion on one scalar metric."""
    assert math.isfinite(fast), (
        f"{component}: metric {metric!r} is not finite: fast={fast!r}"
    )
    assert rel_err(fast, exact) <= tol, _diff_message(
        component, metric, fast, exact, tol=tol
    )


def assert_sequences_close(
    component: str, metric: str, fast, exact, tol: float
) -> None:
    """Bounded-relative-error assertion over aligned sequences."""
    fast, exact = list(fast), list(exact)
    assert len(fast) == len(exact), (
        f"{component}: metric {metric!r} length mismatch: "
        f"fast has {len(fast)} entries, exact has {len(exact)}"
    )
    for index, (f, e) in enumerate(zip(fast, exact)):
        assert math.isfinite(f), (
            f"{component}: metric {metric!r} not finite at index {index}: "
            f"fast={f!r}"
        )
        assert rel_err(f, e) <= tol, _diff_message(
            component, metric, f, e, index=index, tol=tol
        )

