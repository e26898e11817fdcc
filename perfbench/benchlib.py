"""Shared pieces of the end-to-end benchmark: paths, seeded inputs,
statistics, process helpers and the result record.

Nothing here imports ``repro``: the load generator stays light until a
workload's correctness check needs the reference implementation.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Any

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Closed-loop clients in the loaded phase: callers wait for each reply,
#: and a 2-core machine caps one generator process at 2 busy threads.
LOADED_CLIENTS = 2

NODES = ("5nm", "7nm", "14nm")
INTEGRATIONS = ("mcm", "info", "2.5d")


def require_source_tree() -> None:
    """Exit with an error (and no result line) when ``src/repro`` is
    absent: the benchmark measures the program, it cannot invent it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------


def rng_for(workload: str, seed: int) -> random.Random:
    """A generator private to (workload, seed); string seeding is
    stable across interpreter runs."""
    return random.Random(f"{workload}:{seed}")


def cost_point(rng: random.Random) -> dict[str, Any]:
    """One ``/v1/cost`` payload (and ``repro cost`` flag set)."""
    return {
        "area": rng.uniform(200.0, 800.0),
        "node": rng.choice(NODES),
        "integration": rng.choice(INTEGRATIONS),
        "chiplets": rng.randint(2, 5),
    }


class DistinctPoints:
    """Endless stream of design points, none repeated (a continuous
    area makes a repeat improbable; the set makes it impossible)."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._seen: set[float] = set()

    def next(self) -> dict[str, Any]:
        while True:
            point = cost_point(self._rng)
            if point["area"] not in self._seen:
                self._seen.add(point["area"])
                return point


def cli_args(point: dict[str, Any]) -> list[str]:
    return [
        "cost",
        "--area", repr(point["area"]),
        "--node", point["node"],
        "--integration", point["integration"],
        "--chiplets", str(point["chiplets"]),
    ]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(n: int) -> float:
    """p99 when at least ten samples lie beyond it, else the highest
    whole percentile that still leaves ten beyond it."""
    if n >= 1000:
        return 0.99
    return max(0.5, math.floor(100.0 * (1.0 - 10.0 / max(n, 20))) / 100.0)


def median(samples: list[float]) -> float:
    return statistics.median(samples)


#: A run is measured in rounds of about this many seconds.  Metrics are
#: medians over rounds, so a burst of host contention that spans a
#: minority of the rounds does not move them.
ROUND_SECONDS = 4.0

#: Per-round tail percentile, used when every round holds at least
#: ``ROUND_TAIL_MIN`` samples (ten or more beyond p90).
ROUND_TAIL = 0.90
ROUND_TAIL_MIN = 100


def round_count(seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


#: Host-speed reference: a fixed pure-Python loop.  The host's CPU speed
#: drifts by up to ~1.5x over minutes (see NOTES.md), and CPU-bound
#: timings drift with it.  Those timings are reported at the reference
#: speed: multiplied by ``host_factor`` of kernel samples taken beside
#: them, so a code change moves them and a host slowdown mostly does not.
REFERENCE_LOOPS = 300_000
#: The kernel's time at the typical speed of the 2-core VM (Python
#: 3.11.7) the benchmark was written on.
REFERENCE_NOMINAL_MS = 15.0


def reference_ms() -> float:
    """One timed run of the reference kernel, in ms."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i
    return (time.perf_counter() - start) * 1e3


def host_factor(reference_samples: list[float]) -> float:
    """Scale from this host's current speed to the reference speed."""
    return REFERENCE_NOMINAL_MS / median(reference_samples)


def host_factor_now() -> float:
    """``host_factor`` of three kernel samples taken now (for a single
    CPU-bound timing such as one set-up)."""
    return host_factor([reference_ms() for _ in range(3)])


def median_of_rounds(rounds: list[list[float]]) -> float:
    """Median over rounds of each round's median."""
    return median([median(samples) for samples in rounds if samples])


def tail(rounds: list[list[float]]) -> tuple[float, str]:
    """The tail latency and how it was taken: p90 per round, median
    over rounds, when rounds are large enough; else the pooled highest
    percentile with ten samples beyond it."""
    if all(len(samples) >= ROUND_TAIL_MIN for samples in rounds):
        value = median([percentile(s, ROUND_TAIL) for s in rounds])
        return value, (f"p{round(ROUND_TAIL * 100)} per round, median of "
                       f"{len(rounds)} rounds")
    pooled = [x for samples in rounds for x in samples]
    q = tail_quantile(len(pooled))
    return percentile(pooled, q), f"p{round(q * 100)} of n={len(pooled)}"


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class Result:
    """What one workload run reports."""

    workload: str
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Divisor and label of the traced per-layer table.
    per: int = 1
    per_label: str = "run"

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.notes.append(
            f"  {name:34s} {value:14.4f} {unit:8s} {note}".rstrip()
        )

    def fail(self, reason: str) -> None:
        """A correctness mismatch or validity-guard breach."""
        self.correct = False
        self.notes.append(f"  FAILED: {reason}")

    def record(self) -> dict[str, Any]:
        return {
            "correct": self.correct and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def print_report(result: Result) -> None:
    print(f"[{result.workload}] attempted {result.attempted}, "
          f"failed {result.failed}")
    for line in result.notes:
        print(line)


def print_record(record: dict[str, Any]) -> None:
    print(json.dumps(record), flush=True)


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid``, read from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def self_cpu_seconds() -> float:
    return proc_cpu_seconds(os.getpid())


class Server:
    """A ``repro serve`` process (or the traced launcher) on a free
    port; ``setup_s`` runs from spawn to the first healthy
    ``/healthz``."""

    def __init__(self, argv: list[str]):
        start = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.process.stdout.readline()
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"server did not start: {line!r}")
            self.url = line.split()[-1]
            host_port = self.url.split("//", 1)[1]
            self.host, port = host_port.rsplit(":", 1)
            self.port = int(port)
            self.health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def health(self) -> dict[str, Any]:
        with urllib.request.urlopen(self.url + "/healthz", timeout=30) as r:
            return json.loads(r.read())

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.process.pid)

    def stop(self) -> None:
        """SIGINT (the documented shutdown), then wait; kill on a hang."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdout, self.process.stderr):
            if stream is not None:
                stream.close()


def serve_argv() -> list[str]:
    """``repro serve`` with default flags; only the port is chosen by
    the OS so runs never collide on a fixed port."""
    return [sys.executable, "-m", "repro", "serve", "--port", "0"]


def trace_path(workload: str, seed: int) -> str:
    """Where a traced run writes its Chrome trace-event JSON."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, f"{workload}-seed{seed}.trace.json")
