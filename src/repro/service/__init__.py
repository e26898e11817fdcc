"""Cost-model-as-a-service: a warm HTTP engine over the cost model.

The CLI pays interpreter start-up, imports and cold caches on every
``repro cost`` invocation; this package keeps one process resident
instead.  Five pieces (docs/SERVICE.md walks through them):

* :mod:`repro.service.schemas` — the typed request/response contract;
  its cost part is :mod:`repro.explore.costquery`, which ``repro
  cost`` runs without loading this package, so the CLI's table and the
  one the service's JSON re-renders to agree byte-for-byte;
* :mod:`repro.service.state` — the registry view, the request counter
  and the lock that serializes cost batches (a scenario run takes it
  only to count itself);
* :mod:`repro.service.batching` — one worker prices queued cost
  queries: a lone request is dispatched at once, and whatever queued
  while the worker was busy becomes one batch, bit-identical to
  sequential evaluation;
* :mod:`repro.service.cache` — an LRU response cache keyed by
  canonical request value, invalidated when the registry hash changes;
* :mod:`repro.service.app` — the stdlib ``ThreadingHTTPServer``
  endpoints (``POST /v1/cost`` / ``/v1/scenario``, ``GET
  /v1/registries`` / ``/healthz``), wired to ``repro serve``.  A
  design-space search is a scenario with one ``search`` study.
"""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.explore.costquery": (
        "CostRequest", "CostResult", "build_system", "cost_table",
        "evaluate_cost",
    ),
    "repro.service.schemas": (
        "ScenarioRequest", "ScenarioRunResult", "StudySummary",
    ),
    "repro.service.state": ("ServiceState",),
    "repro.service.batching": ("CostBatcher",),
    "repro.service.cache": ("ResponseCache",),
    "repro.service.app": (
        "CostServiceServer", "ServerThread", "make_server", "serve",
    ),
    "repro.service.client": ("ServiceClient",),
})
