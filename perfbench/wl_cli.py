"""``cli_cold``: sequential cold ``python -m repro cost`` processes.

Each process prices a distinct seeded design point; its stdout must
equal ``cost_table`` of the same evaluation done in this process after
timing.  The traced half runs the same command under ``-X importtime``
through ``cli_probe.py``, which also times ``repro.cli.main`` after
the imports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import benchlib
from benchlib import Result
from tracer import Tracer, chrome_events, write_chrome

WARMUPS = 3
INTERP_SAMPLES = 5


def _spawn(argv: list[str]) -> tuple[float, int, int, subprocess.CompletedProcess]:
    start = time.perf_counter_ns()
    done = subprocess.run(
        argv, cwd=benchlib.ROOT, env=benchlib.child_env(),
        capture_output=True, text=True, timeout=120,
    )
    end = time.perf_counter_ns()
    return (end - start) / 1e6, start, end, done


def _cold_argv(point: dict) -> list[str]:
    return [sys.executable, "-m", "repro", *benchlib.cli_args(point)]


def _probe_argv(point: dict) -> list[str]:
    return [sys.executable, "-X", "importtime",
            os.path.join(benchlib.BENCH_DIR, "cli_probe.py"),
            *benchlib.cli_args(point)]


def _cumulative_us(stderr: str, package: str) -> float:
    """Cumulative ``-X importtime`` microseconds of a top-level package."""
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == package:
            return float(parts[1])
    return 0.0


def _sequential(argv_for, stream, seconds: float) -> tuple[list, list]:
    """Run processes one after another for ``seconds``, each preceded
    by a reference-kernel sample; returns (runs, kernel samples)."""
    runs, references = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        references.append(benchlib.reference_ms())
        point = stream.next()
        runs.append((point, *_spawn(argv_for(point))))
    return runs, references


def _rounds(argv_for, stream, seconds: float) -> tuple[list, list, list]:
    """``_sequential`` in rounds; returns (runs, per-round ms at the
    reference host speed, per-round measured ms)."""
    runs, rounds, raw = [], [], []
    count = benchlib.round_count(seconds)
    for _ in range(count):
        batch, references = _sequential(argv_for, stream, seconds / count)
        factor = benchlib.host_factor(references)
        runs += batch
        raw.append([ms for _point, ms, *_rest in batch])
        rounds.append([ms * factor for ms in raw[-1]])
    return runs, rounds, raw


def _warmup(stream) -> float:
    """One untimed cold process at the reference host speed, in s."""
    factor = benchlib.host_factor_now()
    return _spawn(_cold_argv(stream.next()))[0] * factor / 1e3


def _check(result: Result, runs: list) -> None:
    from repro.service.schemas import CostRequest, cost_table
    from repro.service.state import evaluate_cost

    for point, _ms, _start, _end, done in runs:
        expected = cost_table(evaluate_cost(CostRequest(**point))).render()
        if done.returncode != 0 or done.stdout != expected + "\n":
            result.failed += 1
    if result.failed:
        result.fail(f"{result.failed} CLI outputs differ from cost_table")


def run(seed: int, seconds: float, trace: bool) -> tuple[Result, Tracer | None]:
    result = Result("cli_cold")
    stream = benchlib.DistinctPoints(benchlib.rng_for("cli_cold", seed))
    warm = [_warmup(stream) for _ in range(WARMUPS)]

    timed = seconds / 2 if trace else seconds
    runs, rounds, raw = _rounds(_cold_argv, stream, timed)
    result.attempted = len(runs)
    p50 = benchlib.median_of_rounds(rounds)

    if not trace:
        _check(result, runs)
        n = f"n={len(runs)} processes in {len(rounds)} rounds"
        result.metric("p50_ms", p50, "ms",
                      f"{n}; measured {benchlib.median_of_rounds(raw):.2f}")
        result.metric("serial_p50_ms", p50, "ms",
                      "one caller: same samples as p50_ms")
        tail, how = benchlib.tail(rounds)
        result.metric("tail_ms", tail, "ms", how)
        result.metric("rps", benchlib.median(
            [1e3 * len(r) / sum(r) for r in rounds]
        ), "1/s", "processes per second")
        result.metric("setup_s", benchlib.median(warm), "s",
                      f"median of {WARMUPS} warm-up processes")
        result.notes.append("  (timings at the reference host speed, "
                            "see NOTES.md)")
        return result, None

    tracer = Tracer()
    interp = []
    for _ in range(INTERP_SAMPLES):
        ms, start, end, _done = _spawn([sys.executable, "-c", "pass"])
        tracer.record("cli.interp", start, end)
        interp.append(ms)
    cpu0, children0 = benchlib.self_cpu_seconds(), os.times()
    probe_start = time.perf_counter()
    probes, probe_rounds, _raw = _rounds(_probe_argv, stream, timed)
    probe_wall = time.perf_counter() - probe_start
    children1 = os.times()
    client_cpu = benchlib.self_cpu_seconds() - cpu0
    child_cpu = (children1.children_user + children1.children_system
                 - children0.children_user - children0.children_system)

    imports, numpy_share, mains = [], [], []
    for _point, _ms, start, end, done in probes:
        *_importtime, last = done.stderr.rstrip().splitlines() or [""]
        timing = json.loads(last) if last.startswith("{") else {}
        process = tracer.begin("cli.process", rid=len(mains))
        process[1] = start
        if timing:
            tracer.record("cli.import", timing["import_start"],
                          timing["import_end"])
            tracer.record("cli.main", timing["import_end"],
                          timing["main_end"])
        tracer.end(process, end)
        imports.append(_cumulative_us(done.stderr, "repro") / 1e3)
        numpy_share.append(_cumulative_us(done.stderr, "numpy") / 1e3)
        mains.append(
            (timing.get("main_end", 0) - timing.get("import_end", 0)) / 1e6
        )
    result.attempted += len(probes)
    _check(result, runs + probes)

    result.metric("cli.interp_ms", benchlib.median(interp), "ms",
                  f"python -c pass, n={INTERP_SAMPLES}")
    result.metric("cli.import_ms", benchlib.median(imports), "ms",
                  f"-X importtime cumulative for repro, n={len(probes)}")
    result.metric("cli.import_numpy_ms", benchlib.median(numpy_share), "ms",
                  "numpy's cumulative share of the repro import")
    result.metric("cli.main_ms", benchlib.median(mains), "ms",
                  "repro.cli.main(['cost', ...]) after imports")
    result.metric("srv.cpu_share", child_cpu / probe_wall, "cpu_s/s",
                  "CLI processes")
    result.metric("client.cpu_share", client_cpu / probe_wall, "cpu_s/s",
                  "benchmark process")
    traced_p50 = benchlib.median_of_rounds(probe_rounds)
    result.metric("trace.overhead_ms", traced_p50 - p50, "ms",
                  f"traced p50 {traced_p50:.2f} - untraced p50 {p50:.2f} "
                  f"(n={len(probes)}/{len(runs)})")
    path = benchlib.trace_path("cli_cold", seed)
    write_chrome(path, chrome_events(tracer.spans, 1, "benchmark (cli_cold)"))
    result.notes.append(f"  trace: {path}")
    result.per, result.per_label = len(probes), "process"
    return result, tracer
