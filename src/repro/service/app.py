"""The HTTP face of the cost model: stdlib server, typed endpoints.

Endpoints (all JSON; errors are ``{"error": {"type", "message"}}``):

* ``POST /v1/cost`` — price one design point
  (:class:`~repro.service.schemas.CostRequest`).  Requests queue on
  the :class:`~repro.service.batching.CostBatcher`, which dispatches at
  once when idle; responses are cached by canonical request value until
  the registry hash changes.
* ``POST /v1/scenario`` — execute a declarative scenario document
  (the ``repro run`` payload).  With ``"stream": true`` the response is
  NDJSON (``application/x-ndjson``), one event object per line:
  ``scenario`` header, one ``study`` event per completed study, one
  ``row`` event per sink row, then ``end`` — chunked transfer, so a
  long corpus of studies arrives incrementally.  A design-space search
  is a scenario with one ``search`` study.
* ``GET /v1/registries`` — the live registry snapshot plus its
  content hash (``repro.corpus.hashing``).
* ``GET /healthz`` — liveness: uptime, requests served, registry
  hash, cache and batcher statistics.

Status mapping: model/schema errors
(:class:`~repro.errors.ChipletActuaryError`) are 400, a body over
:data:`MAX_BODY_BYTES` is 413 (:class:`BodyTooLargeError`; the body
is left unread and the connection closed), a body that stalls past
the handler's socket timeout is 408 (:class:`RequestTimeoutError`; the
connection is closed), capacity (queue full / shutting down) is 503,
unknown paths 404, everything else 500.  The server is a plain
``ThreadingHTTPServer`` — no new dependencies — constructed by
:func:`make_server` (port 0 picks a free port; the chosen one is on
``server.server_address``).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.errors import ChipletActuaryError, InvalidParameterError
from repro.service.batching import BatcherClosed, CostBatcher, QueueFullError
from repro.service.cache import ResponseCache
from repro.service.schemas import CostRequest, ScenarioRequest
from repro.service.state import ServiceState

#: Largest accepted request body (a scenario document is a few KB; a
#: megabyte of JSON is a mistake, not a design).
MAX_BODY_BYTES = 4 * 1024 * 1024


class BodyTooLargeError(InvalidParameterError):
    """Raised when a request declares a body over :data:`MAX_BODY_BYTES`
    (the HTTP layer maps this to 413 and closes the connection)."""


class RequestTimeoutError(InvalidParameterError):
    """Raised when a request body stalls past :attr:`_Handler.timeout`
    (the HTTP layer maps this to 408 and closes the connection)."""


class CostServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service singletons."""

    daemon_threads = True
    #: Listen backlog.  socketserver's default of 5 overflows under a
    #: few dozen concurrent clients: connection attempts are dropped,
    #: retransmitted after ~1 s and sometimes reset.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        state: ServiceState,
        batcher: CostBatcher,
        cache: ResponseCache,
    ):
        super().__init__(address, _Handler)
        self.state = state
        self.batcher = batcher
        self.cache = cache

    def shutdown(self) -> None:  # pragma: no cover - exercised via tests
        super().shutdown()
        self.batcher.close()


def make_server(
    host: str = "127.0.0.1",
    port: int = 8321,
    engine: Any = None,
    cache_size: int = 1024,
) -> CostServiceServer:
    """Build a ready-to-serve server (``port`` 0 binds a free port)."""
    state = ServiceState(engine=engine)
    batcher = CostBatcher(state)
    cache = ResponseCache(maxsize=cache_size)
    return CostServiceServer((host, port), state, batcher, cache)


def serve(
    host: str = "127.0.0.1",
    port: int = 8321,
    **kwargs: Any,
) -> None:  # pragma: no cover - blocking entry point, exercised by smoke
    """Run the service until interrupted (the ``repro serve`` body)."""
    server = make_server(host, port, **kwargs)
    bound_host, bound_port = server.server_address[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: CostServiceServer  # narrowed for attribute access
    #: Socket timeout in seconds.  The stdlib default (``None``) lets a
    #: client that connects and stalls hold its handler thread forever;
    #: an idle keep-alive connection is closed after this long too.
    timeout = 30.0

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Quiet by default; HTTP access logs are noise in tests."""

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, status: int, error: BaseException
    ) -> None:
        self._send_json(
            status,
            {
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                }
            },
        )

    def _read_json_body(self) -> Any:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            # The body's extent is unknown, so the stream cannot be
            # resynchronized for a keep-alive follow-up request.
            self.close_connection = True
            raise InvalidParameterError(
                f"Content-Length must be an integer, got {header!r}"
            ) from None
        if length <= 0:
            raise InvalidParameterError("request needs a JSON body")
        if length > MAX_BODY_BYTES:
            # The body stays unread, so its bytes must not be parsed as
            # a keep-alive follow-up request.
            self.close_connection = True
            raise BodyTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            # Part of the body may be consumed: the stream cannot be
            # resynchronized either.
            self.close_connection = True
            raise RequestTimeoutError(
                f"request body not received within {self.timeout} s"
            ) from None
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise InvalidParameterError(
                f"request body is not valid JSON: {error}"
            ) from None

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/healthz":
                payload = self.server.state.health_payload()
                payload["cache"] = self.server.cache.stats()
                payload["batcher"] = self.server.batcher.stats()
                self._send_json(200, payload)
            elif self.path == "/v1/registries":
                self._send_json(200, self.server.state.registry_payload())
            else:
                self._send_json(
                    404,
                    {"error": {"type": "NotFound",
                               "message": f"no route {self.path!r}"}},
                )
        except Exception as error:  # noqa: BLE001
            self._send_error_json(500, error)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        handlers = {
            "/v1/cost": self._post_cost,
            "/v1/scenario": self._post_scenario,
        }
        handler = handlers.get(self.path)
        if handler is None:
            self._send_json(
                404,
                {"error": {"type": "NotFound",
                           "message": f"no route {self.path!r}"}},
            )
            return
        try:
            handler()
        except BodyTooLargeError as error:
            self._send_error_json(413, error)
        except RequestTimeoutError as error:
            self._send_error_json(408, error)
        except (QueueFullError, BatcherClosed) as error:
            self._send_error_json(503, error)
        except ChipletActuaryError as error:
            self._send_error_json(400, error)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as error:  # noqa: BLE001
            self._send_error_json(500, error)

    # -- endpoints -----------------------------------------------------

    def _respond_cached(self, kind: str, request: Any, compute) -> None:
        """Answer from the response cache, or ``compute(request)`` and
        cache the result under the request's canonical value and the
        live registry hash."""
        canonical = request.canonical()
        registry_hash = self.server.state.current_registry_hash()
        payload = self.server.cache.get(kind, canonical, registry_hash)
        cached = payload is not None
        if not cached:
            payload = compute(request).to_dict()
            self.server.cache.put(kind, canonical, registry_hash, payload)
        self._send_json(
            200,
            {"result": payload, "registry_hash": registry_hash,
             "cached": cached},
        )

    def _post_cost(self) -> None:
        request = CostRequest.from_dict(self._read_json_body())
        self._respond_cached("cost", request, self.server.batcher.evaluate)

    def _post_scenario(self) -> None:
        body = self._read_json_body()
        stream = False
        if isinstance(body, dict):
            stream = bool(body.pop("stream", False))
        request = ScenarioRequest.from_dict(body)
        if stream:
            self._stream_scenario(request)
        else:
            self._respond_cached(
                "scenario", request, self.server.state.run_scenario
            )

    def _stream_scenario(self, request: ScenarioRequest) -> None:
        """NDJSON event stream, chunked so studies arrive as they run."""
        registry_hash = self.server.state.current_registry_hash()
        events = self.server.state.iter_scenario(request)
        spec = next(events)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def emit(event: dict[str, Any]) -> None:
            line = json.dumps(event).encode("utf-8") + b"\n"
            self.wfile.write(f"{len(line):x}\r\n".encode("ascii"))
            self.wfile.write(line)
            self.wfile.write(b"\r\n")
            self.wfile.flush()

        emit(
            {"event": "scenario", "scenario": spec.name,
             "description": spec.description}
        )
        studies = 0
        try:
            for study in events:
                studies += 1
                emit(
                    {"event": "study", "name": study.name,
                     "kind": study.kind, "text": study.text}
                )
                for row in study.rows:
                    emit({"event": "row", "study": study.name,
                          "row": dict(row)})
        except ChipletActuaryError as error:
            # Headers are gone; a mid-stream failure becomes a typed
            # terminal event instead of a status code.
            emit(
                {"event": "error", "type": type(error).__name__,
                 "message": str(error)}
            )
        else:
            emit(
                {"event": "end", "studies": studies,
                 "registry_hash": registry_hash}
            )
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()


class ServerThread:
    """An in-process server on a background thread (tests, benches).

    ::

        with ServerThread() as url:
            urllib.request.urlopen(url + "/healthz")
    """

    def __init__(self, **kwargs: Any):
        kwargs.setdefault("port", 0)
        self.server = make_server(**kwargs)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="cost-service", daemon=True
        )

    def __enter__(self) -> str:
        self._thread.start()
        return self.url

    def __exit__(self, *exc_info: Any) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5.0)


__all__ = [
    "BodyTooLargeError",
    "CostServiceServer",
    "MAX_BODY_BYTES",
    "RequestTimeoutError",
    "ServerThread",
    "make_server",
    "serve",
]
