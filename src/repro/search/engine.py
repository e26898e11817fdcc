"""run_search: the design-space optimizer.

Streams every candidate of a :class:`~repro.search.space.DesignSpace`
through the vectorized evaluator, pruning as it goes:

* each block is first culled locally (a candidate dominated inside its
  own block is dominated globally), then the survivors fold into a
  streaming :class:`~repro.search.frontier.FrontierAccumulator`;
* a running top-k list (by the ``total`` objective, ties broken by
  candidate index) keeps the cost-optimal designs.

Peak memory is one block plus the current frontier — candidate objects
are materialized only for block survivors and top-k members, so
million-candidate spaces stream at bounded memory.  The frontier is
set-identical to filtering the full candidate list through
``repro.explore.pareto.pareto_frontier`` (the naive oracle in
:mod:`repro.search.oracle` does exactly that; parity is asserted in
``tests/test_search_engine.py`` and ``benchmarks/bench_perf_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import ConfigRegistries
from repro.search.evaluate import DieCostFn, EvalBlock, SpaceEvaluator
from repro.search.frontier import FrontierAccumulator, non_dominated_mask
from repro.search.space import DesignSpace

try:  # numpy speeds up score stacking / top-k; never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None


@dataclass(frozen=True)
class SearchCandidate:
    """One evaluated design alternative with its metric vector.

    ``index`` is the candidate's position in the space's canonical
    enumeration; ``scheme`` is ``"soc"`` or the integration technology
    name.  ``test_cost`` is ``None`` when the space has no tester model.
    """

    index: int
    scheme: str
    technology: str
    node: str
    chiplets: int
    d2d_fraction: float
    module_area: float
    re: float
    nre: float
    total: float
    silicon_area: float
    footprint: float
    test_cost: float | None = None

    @property
    def label(self) -> str:
        """``"SoC"``-style design label matching the pareto study."""
        if self.scheme == "soc":
            return f"soc x1 {self.module_area:.0f}mm2 @{self.node}"
        return (
            f"{self.scheme} x{self.chiplets} {self.module_area:.0f}mm2 "
            f"@{self.node}"
        )

    def objective(self, name: str) -> float:
        value = getattr(self, name)
        if value is None:
            raise ValueError(f"candidate has no {name!r} metric")
        return value

    def objective_vector(self, objectives: Sequence[str]) -> tuple:
        return tuple(self.objective(name) for name in objectives)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one design-space search.

    ``frontier`` holds the non-dominated set under the space's
    objectives, in canonical index order; ``top`` the ``top_k``
    cost-optimal candidates ordered by (total, index).
    """

    space: DesignSpace
    n_candidates: int
    objectives: tuple[str, ...]
    frontier: tuple[SearchCandidate, ...]
    top: tuple[SearchCandidate, ...]

    def frontier_indices(self) -> tuple[int, ...]:
        return tuple(candidate.index for candidate in self.frontier)


def _materialize(
    block: EvalBlock, offset: int, test_enabled: bool
) -> SearchCandidate:
    group = block.group
    metrics = block.metrics
    return SearchCandidate(
        index=block.start + offset,
        scheme=group.scheme,
        technology=group.technology,
        node=group.node,
        chiplets=group.chiplets,
        d2d_fraction=group.d2d_fraction,
        module_area=float(block.areas[offset]),
        re=float(metrics["re"][offset]),
        nre=float(metrics["nre"][offset]),
        total=float(metrics["total"][offset]),
        silicon_area=float(metrics["silicon_area"][offset]),
        footprint=float(metrics["footprint"][offset]),
        test_cost=(
            float(metrics["test_cost"][offset]) if test_enabled else None
        ),
    )


def run_search(
    space: DesignSpace,
    registries: ConfigRegistries | None = None,
    die_cost_fn: DieCostFn | None = None,
    context: str = "search",
) -> SearchResult:
    """Explore ``space`` and return its Pareto frontier plus top-k.

    Args:
        space: The design space to sweep.
        registries: Scoped registries resolving the space's node /
            technology names (default: the global catalogs).
        die_cost_fn: Optional die-pricing override (a registry-named
            yield model / wafer geometry resolved via
            :meth:`repro.config.ConfigRegistries.die_cost_fn`).
        context: Prefix for name-resolution errors (the study name when
            run from a scenario).
    """
    evaluator = SpaceEvaluator(
        space,
        registries=registries,
        die_cost_fn=die_cost_fn,
        context=context,
    )
    test_enabled = evaluator.test_model is not None
    accumulator = FrontierAccumulator()
    best: list[tuple[float, int, SearchCandidate]] = []
    seen = 0
    for block in evaluator.blocks():
        seen += len(block)
        columns = [block.metrics[name] for name in space.objectives]
        if _np is not None:
            scores = _np.stack(
                [_np.asarray(column, dtype=float) for column in columns],
                axis=1,
            )
        else:
            scores = list(zip(*columns))
        # Chunk-local cull: a candidate dominated inside its own block is
        # dominated globally, so only local survivors are materialized
        # (the accumulator re-checks them against the running frontier).
        mask = non_dominated_mask(scores)
        survivors = [offset for offset, kept in enumerate(mask) if kept]
        accumulator.add(
            [tuple(scores[offset]) for offset in survivors],
            [
                _materialize(block, offset, test_enabled)
                for offset in survivors
            ],
        )
        if space.top_k > 0:
            totals = block.metrics["total"]
            if _np is not None:
                order = _np.argsort(
                    _np.asarray(totals, dtype=float), kind="stable"
                )[: space.top_k].tolist()
            else:
                order = sorted(
                    range(len(block)),
                    key=lambda offset: (totals[offset], offset),
                )[: space.top_k]
            best.extend(
                (totals[offset], block.start + offset,
                 _materialize(block, offset, test_enabled))
                for offset in order
            )
            best.sort(key=lambda entry: (entry[0], entry[1]))
            del best[space.top_k:]
    frontier = tuple(
        sorted(accumulator.members(), key=lambda candidate: candidate.index)
    )
    return SearchResult(
        space=space,
        n_candidates=seen,
        objectives=tuple(space.objectives),
        frontier=frontier,
        top=tuple(candidate for _total, _index, candidate in best),
    )


def candidate_rows(
    result: SearchResult,
) -> list[dict[str, object]]:
    """Sink-ready rows: frontier members plus top-k, tagged by set.

    One row per (candidate, set) membership — a design on the frontier
    *and* in the top-k appears once per set, so downstream grouping by
    ``set`` stays trivial.
    """
    rows: list[dict[str, object]] = []
    for set_name, members in (
        ("frontier", result.frontier), ("top", result.top)
    ):
        for rank, candidate in enumerate(members):
            row: dict[str, object] = {
                "set": set_name,
                "rank": rank,
                "index": candidate.index,
                "scheme": candidate.scheme,
                "node": candidate.node,
                "chiplets": candidate.chiplets,
                "d2d_fraction": candidate.d2d_fraction,
                "module_area": candidate.module_area,
                "re": candidate.re,
                "nre": candidate.nre,
                "total": candidate.total,
                "silicon_area": candidate.silicon_area,
                "footprint": candidate.footprint,
            }
            if candidate.test_cost is not None:
                row["test_cost"] = candidate.test_cost
            rows.append(row)
    return rows


__all__ = [
    "SearchCandidate",
    "SearchResult",
    "candidate_rows",
    "run_search",
]
