"""``serve_miss`` and ``serve_hit``: HTTP load on a ``repro serve``
process from closed-loop clients in this process.

Phase A is one client, phase B is ``LOADED_CLIENTS``; each client sends
its next request only after the reply to the last one arrived.

* ``serve_miss`` — every request is a new design point, sent on a new
  connection with ``Connection: close`` (the shipped ``ServiceClient``'s
  wire pattern), so the response cache never hits and every request
  crosses the batcher and the engine.
* ``serve_hit`` — one persistent HTTP/1.1 connection per client over a
  small pool of design points POSTed once before timing, so every timed
  request is a cache hit and the batcher and engine stay idle.

Every response must equal the engine-less ``evaluate_cost`` of its
request; the cache and batcher counters of ``/healthz`` guard that each
workload exercises the path it claims to.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import sys
import threading
import time

import benchlib
from benchlib import Result, Server
from tracer import Tracer, chrome_events, totals_from_spans, write_chrome

SETUPS = 3
WARMUP_REQUESTS = 20
HIT_POOL = 16
#: Share of the timed seconds given to phase A (one client).
PHASE_A_SHARE = 0.2


class _Client:
    """One closed-loop HTTP client (keep-alive or one connection per
    request)."""

    def __init__(self, server: Server, keep_alive: bool):
        self.server = server
        self.keep_alive = keep_alive
        self.conn: http.client.HTTPConnection | None = None

    def post(self, body: bytes, rid: str | None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"}
        if not self.keep_alive:
            headers["Connection"] = "close"
        if rid is not None:
            headers["X-Request-Id"] = rid
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                self.server.host, self.server.port, timeout=30
            )
        try:
            self.conn.request("POST", "/v1/cost", body, headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""
        if not self.keep_alive or response.will_close:
            self.close()
        return response.status, data

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class _Load:
    """Request source plus everything the clients recorded."""

    def __init__(self, workload: str, seed: int, server: Server,
                 tracer: Tracer | None):
        self.workload = workload
        self.seed = seed
        self.server = server
        self.tracer = tracer
        self.keep_alive = workload == "serve_hit"
        self.points: list[dict] = []
        #: (point index, start ns, end ns, status, body, phase, request
        #: id, round); untimed requests (warm-up, pool fill) carry only
        #: the first six fields.
        self.records: list[tuple] = []
        self._lock = threading.Lock()
        self._rids = itertools.count()
        rng = benchlib.rng_for(workload, seed)
        self._fresh = benchlib.DistinctPoints(rng)
        if self.keep_alive:
            self.points = [self._fresh.next() for _ in range(HIT_POOL)]
            self.bodies = [json.dumps(p).encode() for p in self.points]

    def _next(self, rng) -> tuple[int, bytes]:
        if self.keep_alive:
            index = rng.randrange(len(self.points))
            return index, self.bodies[index]
        with self._lock:
            point = self._fresh.next()
            self.points.append(point)
            return len(self.points) - 1, json.dumps(point).encode()

    def serial(self, count: int, phase: str, indices=None) -> None:
        """Untimed requests: miss warm-up, or filling the hit pool."""
        client = _Client(self.server, keep_alive=False)
        for step in range(count):
            if indices is None:
                index, body = self._next(None)
            else:
                index, body = indices[step], self.bodies[indices[step]]
            start = time.perf_counter_ns()
            status, data = client.post(body, None)
            self.records.append(
                (index, start, time.perf_counter_ns(), status, data, phase)
            )

    def phase(self, clients: int, seconds: float, phase: str,
              round_: int) -> float:
        """Closed loop with ``clients`` threads; returns the wall time."""
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(target=self._loop,
                             args=(n, deadline, phase, round_))
            for n in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start

    def _loop(self, n: int, deadline: float, phase: str, round_: int) -> None:
        rng = benchlib.rng_for(
            f"{self.workload}:{phase}{round_}:client{n}", self.seed
        )
        client = _Client(self.server, self.keep_alive)
        mine = []
        try:
            while time.perf_counter() < deadline:
                index, body = self._next(rng)
                rid = f"r{next(self._rids)}" if self.tracer else None
                start = time.perf_counter_ns()
                status, data = client.post(body, rid)
                end = time.perf_counter_ns()
                if self.tracer is not None:
                    self.tracer.record("client.request", start, end, rid=rid)
                mine.append(
                    (index, start, end, status, data, phase, rid, round_)
                )
        finally:
            client.close()
            with self._lock:
                self.records.extend(mine)

    def rounds(self, phase: str) -> list[list[float]]:
        """Per-round latencies (ms) of a timed phase."""
        rounds: dict[int, list[float]] = {}
        for record in self.records:
            if record[5] == phase:
                rounds.setdefault(record[7], []).append(
                    (record[2] - record[1]) / 1e6
                )
        return [rounds[key] for key in sorted(rounds)]


def _drive(workload: str, seed: int, server: Server, seconds: float,
           tracer: Tracer | None) -> tuple[_Load, dict]:
    load = _Load(workload, seed, server, tracer)
    if load.keep_alive:
        load.serial(HIT_POOL, "fill", indices=list(range(HIT_POOL)))
    else:
        load.serial(WARMUP_REQUESTS, "warmup")
    before = server.health()
    cpu = (server.cpu_seconds(), benchlib.self_cpu_seconds())
    window_start = time.perf_counter_ns()
    count = benchlib.round_count(seconds)
    walls_b = []
    for round_ in range(count):
        load.phase(1, seconds / count * PHASE_A_SHARE, "A", round_)
        walls_b.append(load.phase(benchlib.LOADED_CLIENTS,
                                  seconds / count * (1 - PHASE_A_SHARE),
                                  "B", round_))
    window_end = time.perf_counter_ns()
    after = server.health()
    wall = (window_end - window_start) / 1e9
    stats = {
        "before": before,
        "after": after,
        "walls_b": walls_b,
        "window": (window_start, window_end),
        "srv_cpu_share": (server.cpu_seconds() - cpu[0]) / wall,
        "client_cpu_share": (benchlib.self_cpu_seconds() - cpu[1]) / wall,
    }
    return load, stats


def _check(result: Result, load: _Load, stats: dict) -> None:
    """Correctness of every response, then the workload guards."""
    from repro.service.schemas import CostRequest
    from repro.service.state import evaluate_cost

    expected = [
        evaluate_cost(CostRequest.from_dict(point)).to_dict()
        for point in load.points
    ]
    result.attempted += len(load.records)
    bad = 0
    for index, _start, _end, status, data, phase, *_rid in load.records:
        try:
            payload = json.loads(data) if status == 200 else None
        except ValueError:
            payload = None
        cached_ok = (
            payload is not None
            and payload.get("cached") is (load.keep_alive and phase != "fill")
        )
        if not cached_ok or payload.get("result") != expected[index]:
            bad += 1
    result.failed += bad
    if bad:
        result.fail(f"{bad} responses failed or differ from evaluate_cost")

    cache = {k: stats["after"]["cache"][k] - stats["before"]["cache"][k]
             for k in ("hits", "misses")}
    batches = (stats["after"]["batcher"]["batches"]
               - stats["before"]["batcher"]["batches"])
    lookups = cache["hits"] + cache["misses"]
    stats["hit_share"] = cache["hits"] / lookups if lookups else 0.0
    stats["batches"] = batches
    if load.keep_alive:
        if stats["hit_share"] < 0.99 or batches:
            result.fail(f"serve_hit guard: hit share {stats['hit_share']:.4f}"
                        f" (needs >= 0.99), {batches} new batches (needs 0)")
    elif cache["hits"]:
        result.fail(f"serve_miss guard: {cache['hits']} cache hits (needs 0)")


def _setup_server() -> tuple[Server, list[float]]:
    """Start ``SETUPS`` servers in turn; keep the last one running.
    Start-up is CPU-bound (imports), so each time is taken at the
    reference host speed."""
    setups = []
    for attempt in range(SETUPS):
        factor = benchlib.host_factor_now()
        server = Server(benchlib.serve_argv())
        setups.append(server.setup_s * factor)
        if attempt < SETUPS - 1:
            server.stop()
    return server, setups


def run(workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[Result, Tracer | None]:
    result = Result(workload)
    if not trace:
        server, setups = _setup_server()
        try:
            load, stats = _drive(workload, seed, server, seconds, None)
        finally:
            server.stop()
        _check(result, load, stats)
        serial, loaded = load.rounds("A"), load.rounds("B")
        n_a, n_b = sum(map(len, serial)), sum(map(len, loaded))
        rounds = f"median of {len(loaded)} rounds"
        result.metric("p50_ms", benchlib.median_of_rounds(loaded), "ms",
                      f"phase B, {benchlib.LOADED_CLIENTS} clients, "
                      f"n={n_b}, {rounds}")
        result.metric("serial_p50_ms", benchlib.median_of_rounds(serial),
                      "ms", f"phase A, 1 client, n={n_a}, {rounds}")
        tail, how = benchlib.tail(loaded)
        result.metric("tail_ms", tail, "ms", f"phase B, {how}")
        result.metric("rps", benchlib.median(
            [len(r) / w for r, w in zip(loaded, stats["walls_b"])]
        ), "1/s", f"phase B completed requests per second, {rounds}")
        pooled = [x for r in loaded for x in r]
        result.notes.append(
            f"  (not gated) phase B pooled p99 "
            f"{benchlib.percentile(pooled, 0.99):.3f} ms, n={n_b}"
        )
        result.metric("setup_s", benchlib.median(setups), "s",
                      f"spawn to healthy /healthz, median of {SETUPS}, "
                      "at the reference host speed")
        result.notes.append(
            f"  guard: cache hit share {stats['hit_share']:.4f}, "
            f"{stats['batches']} batches while timed"
        )
        return result, None

    # Traced run: an untraced half for the overhead baseline, then the
    # traced launcher with client-side spans.
    server = Server(benchlib.serve_argv())
    try:
        plain, plain_stats = _drive(workload, seed, server, seconds / 2, None)
    finally:
        server.stop()
    _check(result, plain, plain_stats)

    spans_path = benchlib.trace_path(workload, seed) + ".server.json"
    tracer = Tracer()
    server = Server([sys.executable,
                     os.path.join(benchlib.BENCH_DIR, "serve_traced.py"),
                     spans_path])
    try:
        load, stats = _drive(workload, seed, server, seconds / 2, tracer)
    finally:
        server.stop()
    _check(result, load, stats)
    with open(spans_path) as handle:
        dump = json.load(handle)
    os.remove(spans_path)
    _layers(result, load, stats, tracer, dump)
    traced_p50 = benchlib.median_of_rounds(load.rounds("B"))
    plain_p50 = benchlib.median_of_rounds(plain.rounds("B"))
    result.metric("trace.overhead_ms", traced_p50 - plain_p50, "ms",
                  f"phase B p50 traced {traced_p50:.3f} - untraced "
                  f"{plain_p50:.3f}")
    return result, tracer


def _layers(result: Result, load: _Load, stats: dict, tracer: Tracer,
            dump: dict) -> None:
    """Per-layer metrics from the timed window of the traced half."""
    low, high = stats["window"]
    server_spans = [tuple(span) for span in dump["spans"]
                    if low <= span[1] and span[2] <= high]
    timed = [r for r in load.records if r[5] in ("A", "B")]
    rids = {r[6] for r in timed}
    n = max(len(timed), 1)

    def per_request(name: str) -> float:
        return sum(s[2] - s[1] for s in server_spans
                   if s[0] == name and s[5] in rids) / 1e6 / n

    request_ns = {s[5]: s[2] - s[1] for s in server_spans
                  if s[0] == "service.app.request"}
    transport = [(r[2] - r[1]) - request_ns[r[6]]
                 for r in timed if r[6] in request_ns]
    batches = [s for s in server_spans if s[0] == "service.state.evaluate"]
    batch_ns = {rid: s[2] - s[1] for s in batches
                for rid in s[7]["rids"] if rid is not None}
    waits = [s[2] - s[1] - batch_ns[s[5]] for s in server_spans
             if s[0] == "service.batching.evaluate" and s[5] in batch_ns]
    before, after = stats["before"]["batcher"], stats["after"]["batcher"]
    batched = after["batched_requests"] - before["batched_requests"]
    engine = dump["engine"]
    die_lookups = engine["die_cost_hits"] + engine["die_cost_misses"]

    result.metric("service.transport_ms",
                  sum(transport) / 1e6 / max(len(transport), 1), "ms",
                  f"client latency - server request span, n={len(transport)}")
    result.metric("service.app.request_ms",
                  sum(request_ns.get(rid, 0) for rid in rids) / 1e6 / n, "ms",
                  "do_POST span per request")
    result.metric("service.schemas.parse_ms",
                  per_request("service.schemas.parse"), "ms",
                  "CostRequest.from_dict + canonical per request")
    result.metric("service.state.registry_hash_ms",
                  per_request("service.state.registry_hash"), "ms",
                  "per request")
    result.metric("service.cache.hit_share", stats["hit_share"], "share",
                  "/healthz deltas while timed")
    result.metric("service.batching.wait_ms",
                  sum(waits) / 1e6 / max(len(waits), 1), "ms",
                  f"CostBatcher.evaluate - its batch, n={len(waits)}")
    result.metric("service.batching.batch_size",
                  batched / stats["batches"] if stats["batches"] else 0.0,
                  "count", "mean, /healthz deltas while timed")
    result.metric("service.batching.largest_batch", after["largest_batch"],
                  "count", "since server start")
    result.metric("service.state.evaluate_ms",
                  sum(s[2] - s[1] for s in batches) / 1e6
                  / max(len(batches), 1), "ms",
                  f"evaluate_cost_batch per batch, n={len(batches)}")
    result.metric("engine.die_cost_hit_share",
                  engine["die_cost_hits"] / die_lookups if die_lookups else 0.0,
                  "share", "server engine cache_info() at exit")
    result.metric("srv.cpu_share", stats["srv_cpu_share"], "cpu_s/s",
                  "server process, /proc")
    result.metric("client.cpu_share", stats["client_cpu_share"], "cpu_s/s",
                  "load generator, /proc")

    client_spans = [s for s in tracer.spans if s[5] in rids]
    path = benchlib.trace_path(load.workload, load.seed)
    write_chrome(path, chrome_events(client_spans, 1, "load generator")
                 + chrome_events(server_spans, 2, "repro serve (traced)"))
    result.notes.append(f"  trace: {path}")
    if dump["dropped"]:
        result.notes.append(f"  note: the server counted {dump['dropped']} "
                            "spans it did not keep; per-request layer "
                            "figures above are low")
    tracer.spans = client_spans
    tracer.totals = totals_from_spans(client_spans + server_spans)
    result.per, result.per_label = n, "request"
