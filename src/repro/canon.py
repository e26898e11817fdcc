"""Canonical forms shared across layers: JSON serialization (the repo's
one value-keying primitive) and the float summation fold.

:func:`stable_json` started life in ``repro.reuse.keys`` as the
serialization behind value-based portfolio design keys, was borrowed by
the corpus result store for its content addresses
(``repro.corpus.hashing``), and now also keys the service layer's
response cache (``repro.service.cache``).  Three consumers across three
layers means it belongs in a neutral leaf module: this one ranks with
the model core in the layering map (``repro.analysis.rules.layering``),
so any layer may import it without bending the import-direction rule.

The contract: two value-equal JSON-ready payloads always produce the
same string — sorted keys, compact separators, non-ASCII preserved —
so hashes of the output are stable content addresses across processes
and platforms.

``repro.reuse.keys`` re-exports :func:`stable_json` for existing
callers.

:func:`fold_sum` is the one summation order of the model's float
sums: a strictly sequential left fold, whatever the Python version.
"""

from __future__ import annotations

import json


def stable_json(value: object) -> str:
    """Canonical JSON of a JSON-ready value: sorted keys, compact
    separators, non-ASCII preserved.

    The value-keying serialization shared by portfolio design keys
    (``repro.reuse.keys``), the corpus result store
    (``repro.corpus.hashing``) and the service response cache
    (``repro.service.cache``): two value-equal payloads always produce
    the same string, so hashes of it are stable content addresses.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def fold_sum(values):
    """Left-to-right float sum ``((0.0 + v0) + v1) + ...``.

    Builtin ``sum()`` over floats is this fold up to Python 3.11; since
    3.12 it is Neumaier-compensated, so its last bit depends on the
    interpreter.  The fold equals the repeated ``+`` of the engine's
    numpy columns, and folds numpy columns elementwise too.
    """
    total = 0.0
    for value in values:
        total = total + value
    return total


__all__ = ["fold_sum", "stable_json"]
