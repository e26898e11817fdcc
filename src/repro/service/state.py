"""Process-wide service state: one warm engine behind one lock.

The service's whole reason to exist is cache warmth — a cold ``repro
cost`` process pays interpreter start-up, imports and empty caches on
every invocation, while a resident :class:`~repro.engine.costengine.
CostEngine` answers from its identity-keyed die/packaging caches.
:class:`ServiceState` owns that engine plus the registry snapshot and
fronts them with an explicit lock discipline:

* **Every engine user takes ``state.lock``.**  Cost requests flow
  through the :class:`~repro.service.batching.CostBatcher`, whose
  single worker thread hands each batch to :class:`ServiceState`,
  which takes the lock once per batch and prices each request with the
  CLI's own :func:`evaluate_cost` — the reason batched results are
  bit-identical to sequential evaluation.
* **Scenario requests take ``state.lock``** for their whole run: they
  share the same engine (scenario studies route through it), so they
  serialize against each other and against cost batches.  A design-space
  search is a scenario with one ``search`` study.
* **Registry reads** (``registry_payload`` / ``current_registry_hash``)
  recompute from the live global registries; the response cache
  compares hashes to invalidate itself when a registry mutates.

:func:`~repro.explore.costquery.evaluate_cost` (re-exported here) is
deliberately a function usable without any state: the CLI's ``repro
cost`` calls it engine-less (the plain
:func:`repro.core.re_cost.compute_re_cost` path), the service calls it
with the warm engine — and the engine's bit-parity contract
(``tests/test_engine.py``) makes both spellings return identical
numbers.
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
    """Warm engine + registry snapshot behind a thread-safe façade."""

    def __init__(self, engine: Any = None):
        #: Serializes scenario runs and cost batches.  An RLock: a
        #: scenario run may re-enter via nested state helpers.
        self.lock = threading.RLock()
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
                    outcomes.append(evaluate_cost(request, engine=self.engine))
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
        study.  The lock is held for the whole iteration and released
        when the generator closes, even on early disconnect."""
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
