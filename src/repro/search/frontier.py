"""Block-wise non-dominated filtering (dominance pruning).

The paper's exploration promise is a *frontier*, and the filter that
extracts it must keep up with the engine's candidate throughput.  The
classic pairwise test is O(n^2) in Python — fine for the dozen
hand-picked points of ``repro.explore.pareto``, hopeless for the
million-candidate spaces ``repro.search`` generates.

This module implements the standard sort-based sweep:

* Sort candidates lexicographically (first objective primary).  If
  ``a`` dominates ``b`` then ``a <= b`` component-wise with a strict
  inequality somewhere, so ``a`` sorts *strictly before* ``b`` — every
  candidate's potential dominators live earlier in the sorted order,
  and (by the same argument) a candidate can never dominate anything
  sorted before it.
* Sweep the sorted order in blocks, holding a running frontier.  Each
  block is first culled against the frontier with one vectorized
  broadcast comparison, then internally with one pairwise block
  comparison; survivors are final frontier members (transitivity keeps
  the running frontier sufficient: a dropped dominator always has a
  surviving dominator standing in for it).

The block size bounds peak memory: the dominance test compares the
frontier ``block_size`` members at a time, so it materializes at most
``block x block_size`` booleans per objective, never ``n x n``, and
million-candidate spaces stream through in bounded slices.  Ties are
preserved exactly like the pairwise oracle: duplicate objective
vectors do not dominate each other, so *all* copies survive.

:class:`FrontierAccumulator` streams blocks in any order.  It culls
each block against its running frontier with the same dominance test,
without sorting, and runs the mask only on the rows that survive,
merged with the frontier.

Without numpy the same sweep runs on sorted Python lists (identical
survivors — the filter is pure comparisons, so there is no float-parity
concern, only set equality, which ``tests/test_search_frontier.py``
asserts against the brute-force oracle).
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

from repro.errors import InvalidParameterError

try:  # numpy vectorizes the sweep; the filter never requires it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: Default number of candidates per sweep block.  Small on purpose: the
#: frontier-broadcast work is block-size invariant (every candidate is
#: compared against the running frontier exactly once), while the
#: intra-block pairwise cull costs ``block_size`` compares per
#: candidate — so a small block keeps the sweep near O(n * frontier)
#: instead of O(n * block).
DEFAULT_BLOCK_SIZE = 128


def _check(scores: Sequence[Sequence[float]]) -> int:
    if len(scores) == 0:
        return 0
    width = len(scores[0])
    if width == 0:
        raise InvalidParameterError("need at least one objective")
    return width


def non_dominated_mask(
    scores: Sequence[Sequence[float]],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> list[bool]:
    """Keep-mask of the non-dominated subset under minimization.

    ``scores[i]`` is candidate *i*'s objective vector; the returned list
    has ``mask[i]`` True when no other candidate is no-worse on every
    objective and strictly better on at least one.  Duplicated vectors
    never dominate each other, so every copy is kept.
    """
    if block_size < 1:
        raise InvalidParameterError(
            f"block_size must be >= 1, got {block_size}"
        )
    count = len(scores)
    width = _check(scores)
    if width == 0:
        return []
    if _np is not None:
        if width == 2:
            return _mask_numpy_2d(scores, count)
        return _mask_numpy(scores, count, block_size)
    return _mask_scalar(scores, count, block_size)


def _mask_numpy_2d(scores, count: int) -> list[bool]:
    """Two-objective fast path: one lexsort plus a prefix-min sweep.

    After sorting lexicographically, any dominator of a point sorts
    strictly earlier, and with two objectives "some strictly-earlier
    point has second objective <= mine" is exactly the dominance test
    (first objectives are <= by sort order, and lex-strictness makes
    the pair strict somewhere).  Equal vectors share a sort group and
    never dominate each other, so the prefix minimum is taken over
    *preceding groups* only — duplicates all survive, matching the
    pairwise oracle.
    """
    table = _np.asarray(scores, dtype=float)
    order = _np.lexsort((table[:, 1], table[:, 0]))
    ranked = table[order]
    # Group identical vectors (they are adjacent after the sort).
    fresh = _np.empty(count, dtype=bool)
    fresh[0] = True
    _np.any(ranked[1:] != ranked[:-1], axis=1, out=fresh[1:])
    group = _np.cumsum(fresh) - 1
    # Second objective is constant within a group, so the group minimum
    # is just its first member's value; prefix-min over earlier groups.
    group_b = ranked[fresh, 1]
    prior = _np.empty(len(group_b))
    prior[0] = _np.inf
    if len(group_b) > 1:
        _np.minimum.accumulate(group_b[:-1], out=prior[1:])
    keep = _np.empty(count, dtype=bool)
    keep[order] = prior[group] > ranked[:, 1]
    return keep.tolist()


def _mask_numpy(
    scores: Sequence[Sequence[float]], count: int, block_size: int
) -> list[bool]:
    table = _np.asarray(scores, dtype=float)
    # Lexicographic order, first objective primary (lexsort's last key
    # is the primary one).  Stable, so duplicates stay adjacent.
    order = _np.lexsort(table.T[::-1])
    ranked = table[order]
    keep = _np.zeros(count, dtype=bool)
    frontier = None
    for start in range(0, count, block_size):
        block = ranked[start:start + block_size]
        alive = _np.ones(len(block), dtype=bool)
        if frontier is not None:
            alive &= ~_dominated_by(frontier, block, block_size)
        survivors = block[alive]
        if len(survivors) > 1:
            # Intra-block pairwise cull among the survivors.
            alive[_np.flatnonzero(alive)[
                _dominated_by(survivors, survivors, block_size)
            ]] = False
            survivors = block[alive]
        keep[order[start:start + block_size][alive]] = True
        if len(survivors):
            frontier = (
                survivors
                if frontier is None
                else _np.concatenate([frontier, survivors])
            )
    return keep.tolist()


def _dominated_by(members, rows, chunk: int):
    """Boolean mask of the ``rows`` that some row of ``members``
    dominates (both ``(n, objectives)`` float arrays; ``members`` not
    empty).

    Compares one objective column at a time over slices of ``chunk``
    members, so it holds at most a few ``chunk x len(rows)`` boolean
    tables however many members there are.
    """
    hit = None
    columns = rows.T
    for start in range(0, len(members), chunk):
        part = members[start:start + chunk].T[:, :, None]
        no_worse = part[0] <= columns[0]
        better = part[0] < columns[0]
        for objective in range(1, len(columns)):
            no_worse &= part[objective] <= columns[objective]
            better |= part[objective] < columns[objective]
        found = (no_worse & better).any(axis=0)
        hit = found if hit is None else hit | found
    return hit


def _mask_scalar(
    scores: Sequence[Sequence[float]], count: int, block_size: int
) -> list[bool]:
    order = sorted(range(count), key=lambda index: tuple(scores[index]))
    keep = [False] * count
    frontier: list[tuple[float, ...]] = []
    for start in range(0, count, block_size):
        fresh: list[tuple[float, ...]] = []
        for index in order[start:start + block_size]:
            row = tuple(scores[index])
            if any(_dominates(other, row) for other in frontier) or any(
                _dominates(other, row) for other in fresh
            ):
                continue
            keep[index] = True
            fresh.append(row)
        frontier.extend(fresh)
    return keep


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def non_dominated(
    scores: Sequence[Sequence[float]],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> list[int]:
    """Indices of the non-dominated candidates, in input order."""
    return [
        index
        for index, kept in enumerate(non_dominated_mask(scores, block_size))
        if kept
    ]


class FrontierAccumulator:
    """Streaming frontier over blocks arriving in *any* order.

    ``add`` folds one block of (objective vector, payload) pairs into
    the running frontier.  The block is first checked against what the
    accumulator already holds: a row that some member dominates can
    never be on the final frontier, so one vectorized dominance test
    (no sort; frontier members compared ``block_size`` at a time, so
    the test holds at most ``block_size x rows`` comparisons) drops
    it.  Only the rows that survive, merged with the frontier, go
    through :func:`non_dominated_mask`; a block the frontier covers
    costs one broadcast and nothing else.

    Blocks need not be globally sorted (unlike the one-shot mask
    above), so evaluation can stream candidates in whatever order the
    generator produces them at bounded memory — only the current
    frontier is retained.  ``payloads`` is read only at the rows that
    survive the cull, so it may be any indexable sequence, including a
    view that builds each payload on demand.  ``members`` returns the
    surviving payloads in insertion order.
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE):
        self._block_size = block_size
        # An (n, objectives) float array with numpy, tuples otherwise.
        self._scores: Sequence[Sequence[float]] = []
        self._payloads: list[object] = []

    def add(
        self, scores: Sequence[Sequence[float]], payloads: Sequence[object]
    ) -> None:
        if len(scores) != len(payloads):
            raise InvalidParameterError(
                "scores and payloads must have equal length"
            )
        if len(scores) == 0:
            return
        held = self._scores
        if _np is not None:
            table = _np.asarray(scores, dtype=float)
            if len(held):
                dominated = _dominated_by(held, table, self._block_size)
                if dominated.all():
                    return
                rows = _np.flatnonzero(~dominated).tolist()
                merged = _np.concatenate([held, table[rows]])
            else:
                rows, merged = range(len(table)), table
        else:
            rows = [
                offset
                for offset, row in enumerate(scores)
                if not any(_dominates(member, row) for member in held)
            ]
            if not rows:
                return
            merged = [*held, *(tuple(scores[offset]) for offset in rows)]
        mask = non_dominated_mask(merged, self._block_size)
        kept = list(compress(range(len(mask)), mask))
        self._scores = (
            merged[kept]
            if _np is not None
            else [merged[index] for index in kept]
        )
        count = len(self._payloads)
        self._payloads = [
            self._payloads[index] if index < count
            else payloads[rows[index - count]]
            for index in kept
        ]

    def __len__(self) -> int:
        return len(self._payloads)

    def members(self) -> list[object]:
        return list(self._payloads)
