"""Cost-model-as-a-service: a warm HTTP engine over the cost model.

The CLI pays interpreter start-up, imports and cold caches on every
``repro cost`` invocation; this package keeps one process resident
instead.  Five pieces (docs/SERVICE.md walks through them):

* :mod:`repro.service.schemas` — the typed request/response contract
  shared by HTTP and CLI (``repro cost`` prints the same
  :func:`~repro.service.schemas.cost_table` the service's JSON
  re-renders to, so the two interfaces agree byte-for-byte);
* :mod:`repro.service.state` — the process-wide warm
  :class:`~repro.engine.costengine.CostEngine` behind an explicit lock
  discipline;
* :mod:`repro.service.batching` — one worker prices queued cost
  queries: a lone request is dispatched at once, and whatever queued
  while the worker was busy becomes one batch, bit-identical to
  sequential evaluation;
* :mod:`repro.service.cache` — an LRU response cache keyed by
  canonical request value, invalidated when the registry hash changes;
* :mod:`repro.service.app` — the stdlib ``ThreadingHTTPServer``
  endpoints (``POST /v1/cost`` / ``/v1/scenario`` / ``/v1/search``,
  ``GET /v1/registries`` / ``/healthz``), wired to ``repro serve``.

Attributes resolve lazily (PEP 562) so importing :mod:`repro` never
pulls in ``http.server``.
"""

from __future__ import annotations

_EXPORTS = {
    "CostRequest": "repro.service.schemas",
    "CostResult": "repro.service.schemas",
    "ScenarioRequest": "repro.service.schemas",
    "ScenarioRunResult": "repro.service.schemas",
    "SearchRequest": "repro.service.schemas",
    "SearchRunResult": "repro.service.schemas",
    "StudySummary": "repro.service.schemas",
    "cost_table": "repro.service.schemas",
    "ServiceState": "repro.service.state",
    "build_system": "repro.service.state",
    "evaluate_cost": "repro.service.state",
    "CostBatcher": "repro.service.batching",
    "ResponseCache": "repro.service.cache",
    "CostServiceServer": "repro.service.app",
    "ServerThread": "repro.service.app",
    "make_server": "repro.service.app",
    "serve": "repro.service.app",
    "ServiceClient": "repro.service.client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
