"""Process-wide service state: one warm engine behind one lock.

The service's whole reason to exist is cache warmth — a cold ``repro
cost`` process pays interpreter start-up, imports and empty caches on
every invocation, while a resident :class:`~repro.engine.costengine.
CostEngine` answers from its identity-keyed die/packaging caches.
:class:`ServiceState` owns that engine plus the registry snapshot and
fronts them with an explicit lock discipline:

* **Cost requests never take the state lock.**  They flow through the
  :class:`~repro.service.batching.CostBatcher`, whose single worker
  thread is the only cost-path toucher of the engine — serialization
  by construction, and the reason batched results are bit-identical to
  sequential evaluation.
* **Scenario and search requests take ``state.lock``** for their whole
  run: they share the same engine (scenario studies route through it),
  so they serialize against each other and against the batcher's
  engine use (the batcher worker also takes the lock around each
  engine call).
* **Registry reads** (``registry_payload`` / ``current_registry_hash``)
  recompute from the live global registries; the response cache
  compares hashes to invalidate itself when a registry mutates.

:func:`evaluate_cost` is deliberately a module-level function usable
without any state: the CLI's ``repro cost`` calls it engine-less (the
plain :func:`repro.core.re_cost.compute_re_cost` path), the service
calls it with the warm engine — and the engine's bit-parity contract
(``tests/test_engine.py``) makes both spellings return identical
numbers.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Sequence

from repro.service.schemas import (
    CostRequest,
    CostResult,
    ScenarioRequest,
    ScenarioRunResult,
    SearchRequest,
    SearchRunResult,
    StudySummary,
)


def build_system(request: CostRequest) -> Any:
    """The :class:`repro.core.system.System` a cost request describes —
    the same construction path as the ``repro cost`` CLI."""
    from repro.explore.partition import partition_monolith, soc_reference
    from repro.process.catalog import get_node
    from repro.registry.technologies import technology_registry

    node = get_node(request.node)
    if request.integration == "soc":
        return soc_reference(
            request.area, node, quantity=request.quantity
        )
    return partition_monolith(
        request.area,
        node,
        request.chiplets,
        technology_registry().create(request.integration),
        d2d_fraction=request.d2d_fraction,
        quantity=request.quantity,
    )


def resolve_die_cost_fn(
    request: CostRequest | SearchRequest, context: str
) -> Any:
    """The die pricing a request's ``yield_model`` / ``wafer_geometry``
    names select, resolved through the global registries by
    :meth:`repro.config.ConfigRegistries.die_cost_fn` (``None``: the
    engine's default pricing).  Unknown names raise
    :class:`~repro.errors.ConfigError`."""
    from repro.config import ConfigRegistries

    return ConfigRegistries().die_cost_fn(
        request.yield_model, request.wafer_geometry, context=context
    )


def _result_from_costs(system: Any, re: Any, total: Any) -> CostResult:
    return CostResult(
        system=system.name,
        re=re.as_dict(),
        re_total=re.total,
        nre=total.amortized_nre.as_dict(),
        nre_total=total.nre_total,
        total=total.total,
    )


def evaluate_cost(request: CostRequest, engine: Any = None) -> CostResult:
    """Price one request; with ``engine`` the warm cached path, without
    it the plain core-function path (what the CLI runs).  Both are
    bit-identical by the engine's parity contract."""
    from repro.core.total import compute_total_cost

    system = build_system(request)
    price_die = resolve_die_cost_fn(request, "cost")
    if engine is None:
        from repro.core.re_cost import compute_re_cost

        re = compute_re_cost(system, die_cost_fn=price_die)
    else:
        re = engine.evaluate_re(system, die_cost_fn=price_die)
    total = compute_total_cost(system, re_cost=re)
    return _result_from_costs(system, re, total)


def evaluate_cost_batch(
    requests: Sequence[CostRequest], engine: Any
) -> list[CostResult]:
    """Price a batch on one engine via ``evaluate_many``.

    Requests are grouped by :meth:`CostRequest.override_key` (one
    resolved die-pricing closure per group) and each group evaluates in
    a single serial ``evaluate_many`` call — which the engine defines
    as per-item ``evaluate_re``, so batched results are bit-identical
    to evaluating each request alone.
    """
    from repro.core.total import compute_total_cost

    results: list[CostResult | None] = [None] * len(requests)
    groups: dict[tuple[str, str], list[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(request.override_key(), []).append(index)
    for indices in groups.values():
        systems = [build_system(requests[index]) for index in indices]
        price_die = resolve_die_cost_fn(requests[indices[0]], "cost")
        res = engine.evaluate_many(systems, die_cost_fn=price_die)
        for position, index in enumerate(indices):
            system = systems[position]
            total = compute_total_cost(system, re_cost=res[position])
            results[index] = _result_from_costs(
                system, res[position], total
            )
    return [result for result in results if result is not None]


class ServiceState:
    """Warm engine + registry snapshot behind a thread-safe façade."""

    def __init__(self, engine: Any = None):
        #: Serializes scenario/search runs and the batcher's engine
        #: calls.  An RLock: a scenario run may re-enter via nested
        #: state helpers.
        self.lock = threading.RLock()
        if engine is None:
            from repro.engine.costengine import CostEngine

            engine = CostEngine()
        self.engine = engine
        self.started_at = time.time()
        self.requests_served = 0

    # ------------------------------------------------------------------

    def evaluate_cost(self, request: CostRequest) -> CostResult:
        with self.lock:
            self.requests_served += 1
            return evaluate_cost(request, engine=self.engine)

    def evaluate_cost_batch(
        self, requests: Sequence[CostRequest]
    ) -> list[CostResult]:
        with self.lock:
            self.requests_served += len(requests)
            return evaluate_cost_batch(requests, self.engine)

    def run_scenario(self, request: ScenarioRequest) -> ScenarioRunResult:
        from repro.scenario.runner import ScenarioRunner

        spec = request.selected_spec()
        with self.lock:
            self.requests_served += 1
            result = ScenarioRunner(engine=self.engine).run(spec)
        return ScenarioRunResult(
            scenario=result.scenario,
            description=spec.description,
            studies=tuple(
                StudySummary(
                    name=study.name,
                    kind=study.kind,
                    text=study.text,
                    rows=tuple(dict(row) for row in study.rows),
                )
                for study in result.results
            ),
        )

    def iter_scenario(self, request: ScenarioRequest):
        """Yield ``(spec, study summaries...)`` incrementally: first the
        selected spec (for stream headers), then one
        :class:`~repro.service.schemas.StudySummary` per completed
        study.  The lock is held for the whole iteration — the same
        serialization :meth:`run_scenario` provides — and released when
        the generator closes, even on early disconnect."""
        from repro.scenario.runner import ScenarioRunner

        spec = request.selected_spec()
        yield spec
        with self.lock:
            self.requests_served += 1
            runner = ScenarioRunner(engine=self.engine)
            for study in runner.iter_run(spec):
                yield StudySummary(
                    name=study.name,
                    kind=study.kind,
                    text=study.text,
                    rows=tuple(dict(row) for row in study.rows),
                )

    def run_search(self, request: SearchRequest) -> SearchRunResult:
        from repro.search.engine import candidate_rows, run_search

        with self.lock:
            self.requests_served += 1
            result = run_search(
                request.space,
                die_cost_fn=resolve_die_cost_fn(request, "search"),
                context="search",
            )
        return SearchRunResult(
            n_candidates=result.n_candidates,
            objectives=result.objectives,
            rows=tuple(candidate_rows(result)),
        )

    # ------------------------------------------------------------------

    def current_registry_hash(self) -> str:
        """Content address of the live global registry state (the
        response cache's invalidation token)."""
        from repro.corpus.hashing import registry_hash

        return registry_hash()

    def registry_payload(self) -> dict[str, Any]:
        from repro.corpus.hashing import registry_hash, registry_snapshot

        snapshot = registry_snapshot()
        return {"registry_hash": registry_hash(), "registries": snapshot}

    def health_payload(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "registry_hash": self.current_registry_hash(),
            "uptime_seconds": time.time() - self.started_at,
            "requests_served": self.requests_served,
        }


__all__ = [
    "ServiceState",
    "build_system",
    "evaluate_cost",
    "evaluate_cost_batch",
    "resolve_die_cost_fn",
]
