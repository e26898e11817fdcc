"""Pareto-frontier filtering: the naive reference for the search.

Cost is not the only objective: package footprint (board area), total
silicon, and NRE exposure matter too.  :func:`pareto_frontier` keeps
the non-dominated items of any list under any objective vector; the
search oracle (``repro.search.oracle``) filters its per-candidate
results through it.  Design-space studies themselves, the scenario
``pareto`` study included, run on ``repro.search.engine.run_search``.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.errors import InvalidParameterError

T = TypeVar("T")


def pareto_frontier(
    items: Sequence[T],
    objectives: Sequence[Callable[[T], float]],
) -> list[T]:
    """Non-dominated subset under *minimization* of every objective.

    An item is dominated when another item is no worse on every
    objective and strictly better on at least one; items with equal
    objective vectors never dominate each other, so ties all survive.

    Filtering runs on the block-wise sorted sweep of
    :mod:`repro.search.frontier` (numpy-vectorized when available,
    same survivors either way) instead of the pairwise O(n^2) loop;
    the returned items keep their input order.
    """
    from repro.search.frontier import non_dominated_mask

    if not objectives:
        raise InvalidParameterError("need at least one objective")
    scores = [
        tuple(objective(item) for objective in objectives) for item in items
    ]
    mask = non_dominated_mask(scores)
    return [item for item, kept in zip(items, mask) if kept]
