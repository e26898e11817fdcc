"""End-to-end benchmark of the chiplet cost model, with a traced mode.

    python3 perfbench/run.py --workload <name|all> --seed N \\
        --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists, NOTES.md for the
metric definitions):

* ``cli_cold``   sequential cold ``python -m repro cost`` processes;
* ``serve_miss`` ``repro serve``, every request a new design point,
                 one ``Connection: close`` connection per request;
* ``serve_hit``  ``repro serve``, keep-alive connections over a small
                 pool of design points cached before timing;
* ``study``      ``ScenarioRunner.iter_run`` on a seeded three-study
                 scenario (search, Monte-Carlo, reuse).

Outputs are checked against the program's reference paths after the
timed region; a mismatch or a workload-validity breach makes
``correct`` false and the exit code 1.  The last stdout line is the
JSON record: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1`` (which also writes a Chrome trace to
``perfbench/out/``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import benchlib

WORKLOADS = ("cli_cold", "serve_miss", "serve_hit", "study")


def _metric_names(trace: bool) -> list[tuple[str, str]]:
    with open(os.path.join(benchlib.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    entries = spec["per_layer" if trace else "end_to_end"]
    return [(entry["name"], entry["unit"]) for entry in entries]


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "cli_cold":
        import wl_cli

        return wl_cli.run(seed, seconds, trace)
    if name == "study":
        import wl_study

        return wl_study.run(seed, seconds, trace)
    import wl_serve

    return wl_serve.run(name, seed, seconds, trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    benchlib.require_source_tree()
    trace = bool(args.trace)
    names = _metric_names(trace)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    for workload in workloads:
        result, tracer = run_workload(workload, args.seed, args.seconds, trace)
        for name, unit in names:
            if name not in result.metrics:
                result.metric(name, 0.0, unit, "(layer not on this workload)")
        result.metrics = {
            name: result.metrics[name] for name, _unit in names
        }
        benchlib.print_report(result)
        if tracer is not None:
            print("  per-layer self times:")
            for line in tracer.table(result.per, result.per_label):
                print("  " + line)
        records[workload] = result.record()

    if len(records) == 1:
        record = next(iter(records.values()))
    else:
        record = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {
                f"{workload}/{name}": value
                for workload, r in records.items()
                for name, value in r["metrics"].items()
            },
        }
    benchlib.print_record(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
