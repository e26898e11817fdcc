"""Design-space search: vectorized candidate generation + dominance pruning.

The subsystem turns the cost engine into an optimizer.  A
:class:`~repro.search.space.DesignSpace` names the axes to sweep;
:func:`~repro.search.engine.run_search` streams dense candidate blocks
through the vectorized evaluator and prunes them block-wise to a Pareto
frontier plus a top-k cost ranking — never building one ``System``
object per candidate on the hot path.  ``repro.search.oracle`` holds
the naive per-candidate reference the fast path is parity-tested
against.
"""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.search.frontier": (
        "DEFAULT_BLOCK_SIZE", "FrontierAccumulator", "non_dominated",
        "non_dominated_mask",
    ),
    "repro.search.space": (
        "CandidateAxes", "CandidateGroup", "DesignSpace", "OBJECTIVES",
        "OBJECTIVE_DESCRIPTIONS",
    ),
    "repro.search.evaluate": ("EvalBlock", "SpaceEvaluator"),
    "repro.search.engine": (
        "SearchCandidate", "SearchResult", "candidate_rows", "run_search",
    ),
    "repro.search.oracle": ("oracle_candidate", "run_search_oracle"),
})
