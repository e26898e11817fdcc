"""The libm bridge: a float64 column mapped through a scalar ``math``
function, one element at a time.

The engine's bit-parity contract keeps transcendentals on libm, the
calls the scalar oracles make, instead of numpy's SIMD ufuncs, which
may round differently (the ``parity-determinism`` lint rule flags
those).  :func:`libm_map` is the one spelling of that bridge:
``memoryview`` hands each element to the function as a plain Python
float with no intermediate list, and ``numpy.fromiter`` collects the
results straight into a column.

A dependency-free leaf that ranks with the model core in the layering
map, so every layer may call it.  Callers check for numpy first.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable

try:  # the bridge builds numpy columns; callers hold the scalar fallback
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None


def libm_map(fn: Callable[..., float], column, *constants: float):
    """``[fn(x, *constants) for x in column]`` as a float64 column:
    ``fn`` runs on every element exactly as the scalar oracle calls it
    (``libm_map(pow, bases, -c)`` is ``pow(base, -c)`` per element)."""
    return _np.fromiter(
        map(fn, memoryview(column), *map(repeat, constants)),
        _np.float64,
        len(column),
    )
