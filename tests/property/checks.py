"""Structured comparison helpers for engine parity assertions.

Hypothesis reports the minimal counterexample, but a bare
``assert a == b`` leaves *what* diverged to archaeology.  These helpers
name the component (which engine path), the metric, the index and the
observed relative error in every failure message, so a shrunk
counterexample is directly actionable.
"""


def rel_err(fast: float, exact: float) -> float:
    """|fast - exact| / max(|exact|, 1) — stable near zero."""
    return abs(fast - exact) / max(abs(exact), 1.0)


def _diff_message(
    component: str,
    metric: str,
    fast: float,
    exact: float,
    index: "int | None" = None,
) -> str:
    where = f" at index {index}" if index is not None else ""
    return (
        f"{component}: metric {metric!r} diverges{where}: "
        f"fast={fast!r} exact={exact!r} rel_err={rel_err(fast, exact):.3e}"
        f" (expected exact)"
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
