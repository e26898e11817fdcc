"""Process-wide service state: a registry view, counters and one lock.

The service's reason to exist is warmth — a cold ``repro cost``
process pays interpreter start-up, imports and empty caches on every
invocation, while a resident process answers from the module-level
memos it has already filled (the die-cost LRU of
``repro.wafer.diecache`` above all).  No evaluation state lives on
:class:`ServiceState` or on its :class:`~repro.engine.costengine.
CostEngine`, which keeps none; docs/SERVICE.md lists the module-level
caches a request writes and why each is safe under concurrent writers.

* **Cost batches take ``state.lock``.**  Cost requests flow through
  the :class:`~repro.service.batching.CostBatcher`, whose single
  worker thread hands each batch to :class:`ServiceState`, which takes
  the lock once per batch and prices each request with the CLI's own
  :func:`evaluate_cost` — the reason batched results are bit-identical
  to sequential evaluation.
* **Scenario requests take the lock only to count themselves.**  A
  study shares nothing with a cost batch but those thread-safe memos,
  so a long study (or a slow reader of its NDJSON stream) never stalls
  cost requests.  A design-space search is a scenario with one
  ``search`` study.
* **Registry reads** (``registry_payload`` / ``current_registry_hash``)
  recompute from the live global registries; the response cache
  compares hashes to invalidate itself when a registry mutates.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Sequence

from repro.explore.costquery import CostRequest, CostResult, evaluate_cost
from repro.service.schemas import (
    ScenarioRequest,
    ScenarioRunResult,
    StudySummary,
)


class ServiceState:
    """Registry view, request counter and the cost-batch lock."""

    def __init__(self, engine: Any = None):
        #: Serializes cost batches and guards ``requests_served``.
        self.lock = threading.Lock()
        if engine is None:
            from repro.engine.costengine import CostEngine

            engine = CostEngine()
        self.engine = engine
        self.started_at = time.time()
        self.requests_served = 0

    # ------------------------------------------------------------------

    def evaluate_cost_batch(
        self, requests: Sequence[CostRequest]
    ) -> list[CostResult | Exception]:
        """One outcome per request, in order: its result, or the
        exception pricing it raised (so one bad design point fails
        only its own request)."""
        outcomes: list[CostResult | Exception] = []
        with self.lock:
            self.requests_served += len(requests)
            for request in requests:
                try:
                    outcomes.append(evaluate_cost(request))
                except Exception as error:  # noqa: BLE001
                    outcomes.append(error)
        return outcomes

    def run_scenario(self, request: ScenarioRequest) -> ScenarioRunResult:
        """The whole run of :meth:`iter_scenario`, as one result."""
        events = self.iter_scenario(request)
        spec = next(events)
        return ScenarioRunResult(
            scenario=spec.name,
            description=spec.description,
            studies=tuple(events),
        )

    def iter_scenario(self, request: ScenarioRequest):
        """Yield ``(spec, study summaries...)`` incrementally: first the
        selected spec (for stream headers), then one
        :class:`~repro.service.schemas.StudySummary` per completed
        study.  No lock is held while a study runs or while the caller
        consumes an event, so cost batches proceed alongside."""
        from repro.scenario.runner import ScenarioRunner

        spec = request.selected_spec()
        yield spec
        with self.lock:
            self.requests_served += 1
        for study in ScenarioRunner(engine=self.engine).iter_run(spec):
            yield StudySummary(
                name=study.name,
                kind=study.kind,
                text=study.text,
                rows=tuple(dict(row) for row in study.rows),
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


__all__ = ["ServiceState", "evaluate_cost"]
