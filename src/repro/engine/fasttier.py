"""Relaxed-parity kernels for the ``precision="fast"`` engine tier.

Every other module under ``repro/engine/`` and ``repro/search/`` lives
under the bit-parity contract (PERFORMANCE.md): transcendentals pinned
to libm, strictly sequential folds, no reassociation — enforced by the
``parity-determinism`` contract rule.  That contract caps the next
order of magnitude: SIMD ``power`` and pairwise-summed reductions
both reorder or round the float work.

This module is the one place those kernels are allowed to live.  The
module-level ``PRECISION = "fast"`` marker below is read by the
``parity-determinism`` rule: reassociating reductions are permitted
here (and only in modules carrying the marker), while the rest of the
rule — seeded randomness, no wall-clock reads, no unordered folds —
still applies.  Correctness of the fast tier is defined by *bounded
relative error* against the exact tier, not bit equality; the bound is
enforced on arbitrary generated inputs by the Hypothesis properties in
``tests/property/test_fast_tier.py`` and documented in PERFORMANCE.md
("Precision tiers").

Callers thread a ``precision`` argument (``"exact"`` | ``"fast"``)
down to these kernels:

* ``"exact"`` — the default everywhere; bit-parity paths, these
  kernels are never called;
* ``"fast"``  — float64 columns with reassociated numpy reductions
  and SIMD transcendentals (typically agrees to ~1e-12 relative).

Without numpy the fast tier has nothing to accelerate, so callers
degrade gracefully to the exact scalar path instead of erroring — the
``no-numpy`` CI job proves it.
"""

from __future__ import annotations

try:  # the fast tier is numpy-only; callers fall back to exact scalar
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from repro.errors import InvalidParameterError

#: Contract marker read by the ``parity-determinism`` rule: this module
#: (and any other carrying the same assignment) may reassociate float
#: reductions.  The marker is the *opt-in*; modules without it stay
#: under the bit-parity contract.
PRECISION = "fast"

#: Every accepted value of a ``precision`` parameter.
PRECISIONS = ("exact", "fast")


def validate_precision(precision: str) -> str:
    """Validate (and return) a ``precision`` parameter value."""
    if precision not in PRECISIONS:
        raise InvalidParameterError(
            f"precision must be one of {PRECISIONS}, got {precision!r}"
        )
    return precision


def power_column(bases, exponent: float):
    """``bases ** exponent`` through numpy's SIMD ``power``.

    The exact tier computes this per element through Python's libm
    ``pow`` binding (numpy's vectorized ``power`` can differ in the
    last ulp); the fast tier takes the SIMD version.
    """
    return _np.power(_np.asarray(bases, dtype=float), exponent)


def scaled_accumulate(count: int, *columns):
    """``count`` instances of each column as one multiply.

    The exact tier replicates the per-unique-chip accumulation loops
    (``count`` sequential additions from zero); multiplying by the
    count reassociates that fold into a single scaled term.
    """
    return [_np.asarray(column, dtype=float) * float(count) for column in columns]


def fold_rows(matrix):
    """Reassociated (pairwise-summed) fold along the last axis.

    Replaces the exact tier's strictly sequential ``add.accumulate``
    row folds with numpy's pairwise summation.
    """
    return matrix.sum(axis=-1)


def share_sums(nre, quantities, indices, scales_column):
    """Fast-tier form of ``_CategoryMatrices.share_sums``.

    The exact tier folds the amortization denominators column by column
    and gathers each system's shares one key column at a time, both
    strictly sequentially.  Here the denominators collapse to one
    ``sum``-then-scale and the gather to a single fancy-indexed
    reduction over the key axis.
    """
    denominators = quantities.sum(axis=1)[None, :] * scales_column
    shares = _np.empty((denominators.shape[0], len(nre) + 1))
    shares[:, :-1] = nre[None, :] / denominators
    shares[:, -1] = 0.0
    return shares[:, indices].sum(axis=2)
