"""Vectorized Gaussian draws via exact MT19937 state transplant.

Every Monte-Carlo workload in this reproduction is pinned to the
``random.Random`` stream: the bit-parity contract between the naive
(object-rebuilding) sampler and the closed-form fast path holds *per
draw*, so the fast path cannot switch RNGs — it has to produce exactly
the floats ``random.Random.gauss`` would.  This module makes that
stream vectorizable anyway, by transplanting the generator state
instead of re-seeding:

* **State layout.**  ``random.Random.getstate()`` returns ``(version,
  internalstate, gauss_next)`` where ``internalstate`` is the 624-word
  MT19937 key followed by the generator index (625 ints total), and
  ``gauss_next`` is the cached spare of the last Box-Muller pair.
  numpy's legacy ``RandomState`` wraps the *same* MT19937 core and
  accepts the same ``(key, pos)`` pair via ``set_state``; both runtimes
  derive a 53-bit double from two 32-bit words as
  ``(a >> 5) * 2**26 + (b >> 6)`` scaled by ``2**-53``, so a
  transplanted ``random_sample(n)`` reproduces ``rng.random()``
  bit-for-bit.  After the batch, the advanced ``(key, pos)`` is
  transplanted back (plus the new spare), so the ``random.Random``
  instance continues exactly as if it had made every call itself.

* **Draw cadence.**  CPython's ``gauss`` is the trigonometric
  Box-Muller variant with the Marsaglia-style cached spare: a *fresh*
  call consumes two uniforms and produces the pair ``cos(2*pi*u1) * g``
  and ``sin(2*pi*u1) * g`` with ``g = sqrt(-2 * log(1 - u2))``,
  returns the cosine half and caches the sine half in ``gauss_next``;
  the next call returns the cached spare without touching the
  generator.  The vectorized path replicates that cadence exactly: an
  odd request leaves the trailing sine half as the new spare, and a
  pre-existing spare is emitted first without consuming uniforms.

* **Transcendentals stay on libm.**  ``sqrt`` is IEEE-exact and the
  elementwise multiplies/subtractions vectorize losslessly, but
  numpy's SIMD ``log``/``sin``/``cos``/``exp`` may differ from the
  platform libm in the last ulp (and the dispatch varies by CPU), so
  those four run per element through the same ``math`` bindings the
  oracle uses.  The win is stripping the per-call Python machinery —
  method dispatch, state bookkeeping, prior wrappers — not the libm
  time.

Without numpy (or for tiny batches, or for ``random.Random``
subclasses whose stream may be overridden) every entry point falls
back to the per-call stdlib loop, which is the *same* stream by
construction — there is one scalar code path, the oracle's.
"""

from __future__ import annotations

import math
import random

try:  # numpy enables the transplant; the model never requires it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from repro.libm import libm_map
from repro.yieldmodel.sampling import DefectDensityPrior

TWOPI = 2.0 * math.pi

#: ``random.Random`` state version this module knows how to transplant.
MT_STATE_VERSION = 3

#: 624 MT19937 key words plus the generator index.
MT_STATE_WORDS = 625

#: Below this many draws the fixed transplant cost (state marshalling
#: in and out of numpy) exceeds the per-call saving; the stdlib loop is
#: used instead.  Both sides of the cutoff produce the identical stream.
VECTOR_CUTOFF = 256


def _transplantable(rng: random.Random) -> bool:
    """True when ``rng``'s stream can be reproduced by the transplant.

    Only exact ``random.Random`` instances qualify: a subclass may
    override ``random``/``gauss`` (e.g. ``SystemRandom``), in which
    case the MT19937 core no longer defines the stream.
    """
    if _np is None or type(rng) is not random.Random:
        return False
    state = rng.getstate()
    return (
        state[0] == MT_STATE_VERSION and len(state[1]) == MT_STATE_WORDS
    )


def _use_per_call(rng: random.Random, count: int) -> bool:
    """The single eligibility predicate for every entry point: below
    the cutoff (transplant overhead loses) or for non-transplantable
    generators, the per-call stdlib loop is the path."""
    return count < VECTOR_CUTOFF or not _transplantable(rng)


def _gauss_vector(rng, count, mu, sigma):
    """Transplanted vectorized ``gauss`` draws (numpy array).

    Caller guarantees ``count > 0``, numpy present and
    :func:`_transplantable`.  Advances ``rng`` exactly as ``count``
    calls of ``rng.gauss(mu, sigma)`` would, cached spare included.
    """
    version, internal, gauss_next = rng.getstate()
    state = _np.random.RandomState()
    state.set_state(
        ("MT19937", _np.array(internal[:-1], dtype=_np.uint32), internal[-1])
    )
    cached = 1 if gauss_next is not None else 0
    fresh = (count - cached + 1) // 2  # Box-Muller pairs to generate
    uniforms = state.random_sample(2 * fresh)
    # The transcendentals run per element on libm (repro.libm).
    angles = uniforms[0::2] * TWOPI
    # g = sqrt(-2 * log(1 - u2)): log per element on libm, the rest
    # (subtract, multiply, sqrt) is IEEE-exact and vectorizes.
    logs = libm_map(math.log, 1.0 - uniforms[1::2])
    g2rad = _np.sqrt(-2.0 * logs)
    cos_half = libm_map(math.cos, angles)
    sin_half = libm_map(math.sin, angles)
    draws = _np.empty(cached + 2 * fresh)
    if cached:
        draws[0] = gauss_next
    draws[cached::2] = cos_half * g2rad
    draws[cached + 1 :: 2] = sin_half * g2rad
    # Odd number of fresh values used: the trailing sine half was
    # generated but not returned — it becomes the new cached spare.
    spare = None
    if (count - cached) & 1:
        spare = float(draws[count])
    key, position = state.get_state()[1:3]
    rng.setstate((version, tuple(key.tolist()) + (int(position),), spare))
    # The oracle returns ``mu + z * sigma`` even for the cached spare.
    return mu + draws[:count] * sigma


def gauss_fill(
    rng: random.Random, count: int, mu: float = 0.0, sigma: float = 1.0
) -> list[float]:
    """Exactly ``[rng.gauss(mu, sigma) for _ in range(count)]``.

    Bit-identical to the per-call oracle, element for element, and
    leaves ``rng`` in the identical end state (MT19937 words, index and
    the cached Box-Muller spare), so interleaving batched and per-call
    draws cannot diverge.  Vectorizes through the MT19937 transplant
    when numpy is installed and the batch is large enough; otherwise
    runs the stdlib per-call loop — the same stream by construction.
    """
    if count <= 0:
        return []
    if _use_per_call(rng, count):
        gauss = rng.gauss
        return [gauss(mu, sigma) for _ in range(count)]
    return _gauss_vector(rng, count, mu, sigma).tolist()


def _prior_vector(prior, rng, count):
    """Vectorized prior draws as an array (caller checked eligibility).

    Replicates ``DefectDensityPrior.sample`` operation for operation on
    top of the transplanted standard-normal stream: ``sigma * z``
    vectorizes exactly, the ``exp`` runs per element on libm, and the
    ``mode`` scale / truncation bounds vectorize exactly (``1.0 * x``
    is skipped — it is the identity on ``exp``'s positive range).
    """
    scaled = _gauss_vector(rng, count, 0.0, 1.0) * prior.sigma
    values = libm_map(math.exp, scaled)
    if prior.mode != 1.0:
        values = prior.mode * values
    if prior.lower is not None:
        values = _np.maximum(values, prior.lower)
    if prior.upper is not None:
        values = _np.minimum(values, prior.upper)
    return values


def sample_prior(
    prior: DefectDensityPrior, rng: random.Random, count: int
) -> list[float]:
    """Exactly ``[prior.sample(rng) for _ in range(count)]``, vectorized.

    This is the single prior-stream code path for every Monte-Carlo
    sampler: the fast and naive paths alike reduce to it or to the
    per-call loop it falls back to, so numpy presence can never change
    a stream.  ``rng`` advances exactly as the per-call loop would.
    """
    values = sample_prior_array(prior, rng, count)
    return values if isinstance(values, list) else values.tolist()


def sample_prior_array(
    prior: DefectDensityPrior, rng: random.Random, count: int
):
    """:func:`sample_prior` without the final array-to-list copy.

    Returns a float64 array on the vectorized path (what
    ``MonteCarloPlan.evaluate_batch`` consumes directly) and a plain
    list from the scalar fallback; elements are bit-identical to
    :func:`sample_prior` either way.
    """
    if count <= 0:
        return []
    if _use_per_call(rng, count):
        sample = prior.sample
        return [sample(rng) for _ in range(count)]
    return _prior_vector(prior, rng, count)
