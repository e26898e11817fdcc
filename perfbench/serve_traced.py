"""Traced ``repro serve``: install span wrappers, then run the service.

    python perfbench/serve_traced.py <spans.json>

Runs ``repro.service.app.serve`` with its default flags on a free
port.  Spans stay in memory; on SIGINT (the service's shutdown) they
are written to ``<spans.json>`` together with the warm engine's
``cache_info()``.  A request's spans carry the ``X-Request-Id`` header
the benchmark client sent, so client and server timelines join.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def install(tracer: Tracer) -> list:
    """Wrap the service layers; returns the list that will hold the
    server object once ``serve`` builds it."""
    from repro.service import app, batching, schemas, state

    handler = app._Handler
    post, get = handler.do_POST, handler.do_GET

    def do_POST(self):  # noqa: N802 - http.server API
        frame = tracer.begin("service.app.request",
                             rid=self.headers.get("X-Request-Id"))
        try:
            post(self)
        finally:
            tracer.end(frame)

    def do_GET(self):  # noqa: N802 - http.server API
        frame = tracer.begin("service.app.health")
        try:
            get(self)
        finally:
            tracer.end(frame)

    handler.do_POST, handler.do_GET = do_POST, do_GET

    tracer.wrap(schemas.CostRequest, "from_dict", "service.schemas.parse")
    tracer.wrap(schemas.CostRequest, "canonical", "service.schemas.parse")
    tracer.wrap(state.ServiceState, "current_registry_hash",
                "service.state.registry_hash")

    # A batch runs on the batcher's worker thread: link it to the
    # requests it served through the request objects it receives.
    pending: dict[int, str] = {}
    evaluate = batching.CostBatcher.evaluate
    evaluate_batch = state.ServiceState.evaluate_cost_batch

    def traced_evaluate(self, request, timeout=60.0):
        frame = tracer.begin("service.batching.evaluate")
        pending[id(request)] = frame[4]
        try:
            return evaluate(self, request, timeout)
        finally:
            tracer.end(frame)

    def traced_batch(self, requests):
        rids = [pending.pop(id(request), None) for request in requests]
        frame = tracer.begin("service.state.evaluate", args={"rids": rids})
        try:
            return evaluate_batch(self, requests)
        finally:
            tracer.end(frame)

    batching.CostBatcher.evaluate = traced_evaluate
    state.ServiceState.evaluate_cost_batch = traced_batch

    servers: list = []
    make_server = app.make_server

    def capturing_make_server(*args, **kwargs):
        server = make_server(*args, **kwargs)
        servers.append(server)
        return server

    app.make_server = capturing_make_server
    return servers


def main(path: str) -> None:
    from repro.service import app

    tracer = Tracer()
    servers = install(tracer)
    try:
        app.serve(port=0)
    finally:
        engine = servers[0].state.engine.cache_info() if servers else {}
        with open(path, "w") as handle:
            json.dump({"spans": tracer.spans, "dropped": tracer.dropped,
                       "engine": engine}, handle)


if __name__ == "__main__":
    main(sys.argv[1])
