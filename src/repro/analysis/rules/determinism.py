"""Parity determinism: the engine/search fast paths must stay bit-exact.

The bit-parity contract (PERFORMANCE.md) pins the fast paths to the
oracle's exact float operation order: transcendentals stay on libm,
vector folds are strictly sequential (``add.accumulate``, ``cumsum``),
and every random stream is a seeded, transplanted MT19937.  Inside the
parity-critical ``repro/engine/``, ``repro/search/`` and
``repro/packaging/`` trees, the die-cost column module
``repro/wafer/diecolumns.py`` (the packaging arithmetic runs on the
search's columns) and the Monte-Carlo statistics
``repro/explore/montecarlo.py`` this rule flags the constructs that
silently break that contract:

* float accumulation over unordered iterables — ``sum()``/``math.fsum``
  over a ``set``/``frozenset`` or ``dict.values()/keys()/items()``
  (iteration order depends on insertion/hashing history, so the fold
  reassociates between runs);
* module-level ``random`` usage — anything but constructing a seeded
  ``random.Random`` (the module-global stream is shared, unseeded
  process state), including ``from random import gauss``-style imports;
* wall-clock reads (``time.time``/``monotonic``/``perf_counter``/...,
  ``datetime.now``) — results must be pure functions of the inputs;
* numpy transcendental ufuncs — ``np.exp``/``log``/``sin``/``cos``/
  ``power`` and their relatives (numpy's own vector kernels round
  differently from the libm call the oracle makes; ``sqrt`` is exact
  and allowed);
* reassociating numpy reductions — ``np.sum``/``prod``/``dot``/
  ``matmul``/``einsum``/``nansum``, the statistics ``np.mean``/``std``/
  ``var``/``average``/``median``/``quantile``/``percentile`` (and
  their ``nan*`` forms), and the ndarray-method spellings
  (pairwise/blocked summation reorders the fold; use the sequential
  ``add.accumulate`` idiom the engine standardized on).

``cumsum`` and ``ufunc.accumulate`` are deliberately *not* flagged:
they are the blessed strictly-sequential folds.

No module is exempt: the engine has one arithmetic contract
(PERFORMANCE.md "One arithmetic contract"), so every module in scope
is held to bit parity.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.context import FileContext, Finding
from repro.analysis.registry import Rule, register

_SCOPES = (
    "repro/engine/", "repro/search/", "repro/packaging/",
    "repro/wafer/diecolumns.py", "repro/explore/montecarlo.py",
)
_UNORDERED_METHODS = {"values", "keys", "items"}
_ACCUMULATORS = {"sum", "fsum"}
_RANDOM_ALLOWED = {"Random"}
_CLOCK_FUNCS = {
    "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
}
_NUMPY_ALIASES = {"np", "_np", "numpy"}
_REASSOC_REDUCTIONS = {
    "sum", "prod", "dot", "matmul", "einsum", "nansum", "inner", "vdot",
    # Statistics reduce through the same pairwise sum (or interpolate
    # differently from the oracle).
    "mean", "nanmean", "std", "nanstd", "var", "nanvar", "average",
    "median", "nanmedian", "quantile", "nanquantile",
    "percentile", "nanpercentile",
}
#: The reductions an ndarray also spells as a method (``arr.mean()``).
_METHOD_REDUCTIONS = {"sum", "prod", "dot", "matmul", "mean", "std", "var"}
#: numpy's transcendental ufuncs (SIMD kernels of their own, not libm),
#: with numpy 2's array-API aliases.  ``sqrt`` is IEEE correctly
#: rounded everywhere, so it stays allowed.
_TRANSCENDENTALS = {
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
    "sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh",
    "asin", "acos", "atan", "atan2", "asinh", "acosh", "atanh",
    "power", "float_power", "pow", "cbrt",
}


def _is_unordered_iterable(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _UNORDERED_METHODS:
            # ``sum(d.values())`` — dict order is insertion history, not
            # a property of the value set; the parity contract wants an
            # explicit, stable ordering.
            return True
    if isinstance(node, ast.GeneratorExp):
        return any(
            _is_unordered_iterable(comp.iter) for comp in node.generators
        )
    return False


@register
class ParityDeterminismRule(Rule):
    rule_id = "parity-determinism"
    summary = (
        "engine/search/packaging code must be order-stable, seeded and "
        "clock-free"
    )
    description = (
        "Inside the parity-critical engine/, search/ and packaging/ trees "
        "and wafer/diecolumns.py: no float "
        "accumulation over unordered iterables, no unseeded module-level "
        "random, no wall-clock reads, no numpy transcendentals, no "
        "reassociating numpy reductions."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not any(scope in ctx.canonical for scope in _SCOPES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                banned = [
                    alias.name for alias in node.names
                    if alias.name not in _RANDOM_ALLOWED
                ]
                if banned:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "module-level random functions imported "
                        f"({', '.join(banned)}); parity-critical code "
                        "must draw from a seeded random.Random instance",
                    )
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_call(ctx, node)

    def _check_call(
        self, ctx: FileContext, call: ast.Call
    ) -> Iterable[Finding]:
        func = call.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ACCUMULATORS
            and call.args
            and _is_unordered_iterable(call.args[0])
        ):
            yield ctx.finding(
                self.rule_id,
                call,
                f"{func.id}() over an unordered iterable reassociates "
                "the float fold between runs; iterate a sorted or "
                "insertion-stable sequence instead",
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _ACCUMULATORS
            and isinstance(func.value, ast.Name)
            and func.value.id == "math"
            and call.args
            and _is_unordered_iterable(call.args[0])
        ):
            yield ctx.finding(
                self.rule_id,
                call,
                "math.fsum() over an unordered iterable has "
                "order-dependent intermediate state; iterate a stable "
                "sequence instead",
            )
        if not isinstance(func, ast.Attribute):
            return
        owner = func.value
        if isinstance(owner, ast.Name) and owner.id == "random":
            if func.attr not in _RANDOM_ALLOWED:
                yield ctx.finding(
                    self.rule_id,
                    call,
                    f"random.{func.attr}() uses the shared unseeded "
                    "module stream; construct a seeded random.Random "
                    "and thread it through (engine.rng idiom)",
                )
            return
        if isinstance(owner, ast.Name) and owner.id == "time":
            if func.attr in _CLOCK_FUNCS:
                yield ctx.finding(
                    self.rule_id,
                    call,
                    f"wall-clock read time.{func.attr}() in "
                    "parity-critical code; results must be pure "
                    "functions of their inputs",
                )
            return
        if func.attr in {"now", "utcnow"} and isinstance(
            owner, (ast.Name, ast.Attribute)
        ):
            owner_name = owner.attr if isinstance(owner, ast.Attribute) else owner.id
            if owner_name in {"datetime", "date"}:
                yield ctx.finding(
                    self.rule_id,
                    call,
                    f"wall-clock read {owner_name}.{func.attr}() in "
                    "parity-critical code; results must be pure "
                    "functions of their inputs",
                )
            return
        if (
            func.attr in _TRANSCENDENTALS
            and isinstance(owner, ast.Name)
            and owner.id in _NUMPY_ALIASES
        ):
            yield ctx.finding(
                self.rule_id,
                call,
                f"numpy transcendental {owner.id}.{func.attr}() is not "
                "libm and may round differently from the oracle's math "
                "call; map the libm function over the column instead",
            )
            return
        if func.attr in _REASSOC_REDUCTIONS:
            if isinstance(owner, ast.Name) and owner.id in _NUMPY_ALIASES:
                yield ctx.finding(
                    self.rule_id,
                    call,
                    f"numpy reduction {owner.id}.{func.attr}() may "
                    "reassociate the float fold (pairwise summation); "
                    "use the sequential add.accumulate idiom to keep "
                    "bit parity with the oracle",
                )
            elif func.attr in _METHOD_REDUCTIONS and not (
                isinstance(owner, ast.Attribute)
            ):
                # Method spelling (``arr.sum()``): same hazard.  The
                # owner's type is unknowable statically, so this is a
                # heuristic — suppress with
                # ``# repro-lint: ignore[parity-determinism]`` when the
                # receiver is provably not an ndarray.
                yield ctx.finding(
                    self.rule_id,
                    call,
                    f".{func.attr}() reduction in parity-critical code "
                    "may reassociate the float fold; use the "
                    "sequential add.accumulate idiom (suppress if the "
                    "receiver is not an array)",
                )
