#!/usr/bin/env python
"""End-to-end smoke proof for the HTTP cost service (CI-executed).

The service contract under test (docs/SERVICE.md):

1. ``python -m repro serve`` boots a real server process and reports
   its bound address;
2. ``GET /healthz`` answers with the live registry hash;
3. a ``POST /v1/cost`` response, re-rendered through the shared cost
   table, is **byte-identical** to ``python -m repro cost`` stdout for
   the same design point — with and without registry-named die-pricing
   overrides;
4. an identical repeat request is served from the response cache;
5. ``POST /v1/scenario`` matches ``python -m repro run`` for the same
   document, and the streaming variant delivers the same studies;
6. a ``POST /v1/cost`` is answered while a streamed multi-million
   candidate search is still running (a study never stalls cost
   requests);
7. the server shuts down cleanly on SIGINT.

Run from the repo root: ``PYTHONPATH=src python tools/service_smoke.py``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

COST_ARGS = [
    "cost", "--area", "640", "--node", "5nm", "--integration", "2.5d",
    "--chiplets", "4", "--quantity", "1000000",
]
COST_BODY = {
    "area": 640.0, "node": "5nm", "integration": "2.5d",
    "chiplets": 4, "quantity": 1_000_000.0,
}
OVERRIDE_ARGS = COST_ARGS + [
    "--yield-model", "poisson", "--wafer-geometry", "450mm",
]
OVERRIDE_BODY = dict(COST_BODY, yield_model="poisson",
                     wafer_geometry="450mm")

SCENARIO = {
    "name": "service-smoke",
    "description": "granularity sweep for the HTTP parity proof",
    "studies": [
        {
            "kind": "partition_sweep",
            "name": "granularity",
            "module_area": 400,
            "node": "7nm",
            "technology": "mcm",
            "chiplet_counts": [1, 2, 3],
        }
    ],
}

#: A one-study search of 2 M candidates: long enough (about a second)
#: that a cost request sent once its stream opens lands mid-search.
LONG_SEARCH = {
    "name": "service-smoke-long-search",
    "studies": [{
        "kind": "search", "name": "space",
        "module_areas": [100.0 + 0.01 * i for i in range(100_000)],
        "nodes": ["5nm", "7nm"], "technologies": ["mcm", "info"],
        "chiplet_counts": [2, 3, 4, 5, 6], "d2d_fractions": [0.1],
        "top_k": 3,
    }],
}

CHECKS: list[str] = []


def check(condition: bool, label: str) -> None:
    CHECKS.append(("ok  " if condition else "FAIL") + " " + label)
    print(CHECKS[-1], flush=True)
    if not condition:
        print("\n".join(CHECKS))
        sys.exit(1)


def run_cli(arguments: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return completed.stdout


def start_server() -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 60
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline().strip()
        if line:
            break
        if process.poll() is not None:
            raise RuntimeError("server exited before binding")
    if not line.startswith("serving on "):
        process.kill()
        raise RuntimeError(f"unexpected server banner: {line!r}")
    return process, line.removeprefix("serving on ")


def check_cost_during_search(client) -> None:
    """Stream :data:`LONG_SEARCH` from one thread; once its header
    arrives, price three new design points from this one, 50 ms apart.
    Every reply must come before the search's study event."""
    from repro.explore.costquery import CostRequest, evaluate_cost

    arrivals: list[tuple[float, str]] = []
    opened = threading.Event()

    def stream() -> None:
        for event in client.scenario_events(LONG_SEARCH):
            arrivals.append((time.perf_counter(), event["event"]))
            opened.set()

    reader = threading.Thread(target=stream, daemon=True)
    reader.start()
    check(opened.wait(timeout=60), "long search stream opens")
    replies = []
    for index in range(3):
        time.sleep(0.05 * bool(index))
        request = CostRequest(area=777.25 + index, node="5nm")
        sent = time.perf_counter()
        result = client.cost(request)
        replies.append((result == evaluate_cost(request),
                        time.perf_counter(), time.perf_counter() - sent))
    reader.join(timeout=300)
    check(not reader.is_alive() and arrivals[-1][1] == "end",
          "long search stream ends")
    study_at = next(at for at, kind in arrivals if kind == "study")
    waits = ", ".join(f"{wait * 1e3:.1f}" for _, _, wait in replies)
    check(all(equal and replied < study_at for equal, replied, _ in replies),
          f"/v1/cost answered mid-search ({waits} ms; search ran "
          f"{(study_at - arrivals[0][0]) * 1e3:.0f} ms)")


def main() -> int:
    from repro.service.client import ServiceClient
    from repro.explore.costquery import CostResult, cost_table

    server, url = start_server()
    print(f"server up at {url}", flush=True)
    try:
        client = ServiceClient(url)

        health = client.health()
        check(health["status"] == "ok", "healthz answers ok")
        check(bool(health["registry_hash"]), "healthz reports a registry hash")

        for label, args, body in (
            ("default pricing", COST_ARGS, COST_BODY),
            ("poisson/450mm overrides", OVERRIDE_ARGS, OVERRIDE_BODY),
        ):
            envelope = client._json("POST", "/v1/cost", body)
            rendered = cost_table(
                CostResult.from_dict(envelope["result"])
            ).render()
            cli_stdout = run_cli(args).strip()
            check(rendered == cli_stdout,
                  f"/v1/cost byte-identical to `repro cost` ({label})")
            check(envelope["registry_hash"] == health["registry_hash"],
                  f"/v1/cost stamps the registry generation ({label})")

        repeat = client._json("POST", "/v1/cost", COST_BODY)
        check(repeat["cached"] is True, "identical repeat is a cache hit")

        result = client.scenario(SCENARIO)
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "scenario.json")
            with open(path, "w") as handle:
                json.dump(SCENARIO, handle)
            cli_out = run_cli(["run", path])
        _, _, cli_body = cli_out.partition("\n\n")
        check(cli_body.strip() == result.render().strip(),
              "/v1/scenario matches `repro run` study-for-study")

        events = list(client.scenario_events(SCENARIO))
        check(events[0]["event"] == "scenario"
              and events[-1]["event"] == "end",
              "scenario stream is framed scenario..end")
        streamed = [e["text"] for e in events if e["event"] == "study"]
        check(streamed == [s.text for s in result.studies],
              "streamed studies identical to the buffered response")

        check_cost_during_search(client)

        server.send_signal(signal.SIGINT)
        check(server.wait(timeout=30) == 0, "SIGINT shuts the server down")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)

    print(f"\nservice smoke OK: {len(CHECKS)} checks passed")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    sys.exit(main())
