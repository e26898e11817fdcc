"""``study``: a seeded three-study scenario through
``ScenarioRunner(engine=CostEngine()).iter_run``, in this process.

* ``search``     105,600 candidates: 800 seeded areas in [100, 700] mm^2
                 x 12 nodes x {mcm, 2.5d} x 2-6 chiplets, plus SoC
                 references;
* ``montecarlo`` exact tier, 100k draws;
* ``reuse``      FSMC portfolio, 5-point volume sweep.

Only continuous parameters are seeded, so every seed does the same
amount of work.  Engine caches are cleared before each repetition, as
a fresh ``repro run`` process has them.  After timing, the search's
frontier and top-k must equal the per-candidate oracle bit for bit,
and a seeded sample sub-space must match the oracle on every candidate
with a frontier set-identical to ``pareto_frontier``.

``python perfbench/wl_study.py --setup-probe SEED`` times the set-up
alone in a fresh process and prints the seconds.
"""

from __future__ import annotations

import sys
import time

import benchlib
from benchlib import Result
from tracer import Tracer, chrome_events, write_chrome

SEARCH_NODES = (
    "3nm", "5nm", "7nm", "10nm", "12nm", "14nm", "16nm",
    "22nm", "28nm", "40nm", "65nm", "90nm",
)
SEARCH_AREAS = 800
EXPECTED_CANDIDATES = 105_600
SAMPLE_AREAS = 6
SETUP_PROBES = 2
STUDIES = ("search", "montecarlo", "reuse")
LINEARIZE = "packaging_affine.linearize"


def document(seed: int) -> dict:
    """The scenario document for ``seed``."""
    rng = benchlib.rng_for("study", seed)
    areas: set[float] = set()
    while len(areas) < SEARCH_AREAS:
        areas.add(rng.uniform(100.0, 700.0))
    return {
        "scenario": f"perfbench-study-{seed}",
        "studies": [
            {
                "kind": "search",
                "name": "search",
                "module_areas": sorted(areas),
                "nodes": list(SEARCH_NODES),
                "technologies": ["mcm", "2.5d"],
                "chiplet_counts": [2, 3, 4, 5, 6],
                "d2d_fractions": [0.1],
                "quantity": 500000.0,
                "objectives": ["total", "footprint"],
                "top_k": 10,
            },
            {
                "kind": "montecarlo",
                "name": "montecarlo",
                "module_area": rng.uniform(300.0, 800.0),
                "node": "7nm",
                "technology": "2.5d",
                "n_chiplets": 4,
                "draws": 100_000,
                "sigma": rng.uniform(0.10, 0.20),
                "seed": rng.randrange(2**31),
                "precision": "exact",
            },
            {
                "kind": "reuse",
                "name": "reuse",
                "scheme": "fsmc",
                "technology": "mcm",
                "params": {
                    "n_chiplets": 4,
                    "k_sockets": 3,
                    "module_area": rng.uniform(100.0, 200.0),
                    "quantity": rng.uniform(2e5, 1e6),
                },
                "volume_sweep": [0.25, 0.5, 1.0, 2.0, 4.0],
            },
        ],
    }


def setup(seed: int):
    """Imports plus document generation: what the workload pays before
    its first run.  Returns (seconds at the reference host speed,
    runner, engine, document)."""
    factor = benchlib.host_factor_now()
    start = time.perf_counter()
    from repro.engine.costengine import CostEngine
    from repro.scenario.runner import ScenarioRunner

    doc = document(seed)
    engine = CostEngine()
    runner = ScenarioRunner(engine=engine)
    return (time.perf_counter() - start) * factor, runner, engine, doc


def _probe_setup(seed: int) -> list[float]:
    import subprocess

    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", str(seed)],
            cwd=benchlib.ROOT, env=benchlib.child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _one_run(runner, engine, doc, tracer: Tracer | None):
    """One repetition; returns (ms, per-study ms, results, die hit share,
    linearize calls)."""
    engine.clear_caches()
    calls = tracer.count(LINEARIZE) if tracer else 0
    per_study: dict[str, float] = {}
    results = []
    start = time.perf_counter_ns()
    run_frame = tracer.begin("study.run") if tracer else None
    iterator = runner.iter_run(doc)
    previous = start
    for kind in STUDIES:
        frame = tracer.begin(f"study.{kind}") if tracer else None
        results.append(next(iterator))
        if tracer:
            tracer.end(frame)
        now = time.perf_counter_ns()
        per_study[kind] = (now - previous) / 1e6
        previous = now
    for extra in iterator:  # the document has exactly three studies
        results.append(extra)
    if tracer:
        tracer.end(run_frame)
    ms = (time.perf_counter_ns() - start) / 1e6
    info = engine.cache_info()
    lookups = info["die_cost_hits"] + info["die_cost_misses"]
    share = info["die_cost_hits"] / lookups if lookups else 0.0
    if tracer:
        calls = tracer.count(LINEARIZE) - calls
    return ms, per_study, results, share, calls


def _repeat(runner, engine, doc, seconds: float, tracer=None):
    """Repetitions for ``seconds`` in rounds, each preceded by a
    reference-kernel sample.  Returns (runs, per-round ms at the
    reference host speed, per-round measured ms)."""
    runs, rounds, raw = [], [], []
    count = benchlib.round_count(seconds)
    for _ in range(count):
        batch, references = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / count:
            references.append(benchlib.reference_ms())
            batch.append(_one_run(runner, engine, doc, tracer))
        factor = benchlib.host_factor(references)
        runs += batch
        raw.append([run[0] for run in batch])
        rounds.append([ms * factor for ms in raw[-1]])
    return runs, rounds, raw


def _check(result: Result, runs: list, seed: int) -> None:
    """Determinism across repetitions, the candidate-count guard, and
    oracle parity of the search."""
    from repro.explore.pareto import pareto_frontier
    from repro.search.engine import run_search
    from repro.search.evaluate import SpaceEvaluator
    from repro.search.oracle import oracle_candidate
    from repro.search.space import DesignSpace

    result.attempted += len(runs)
    reference = [(study.kind, study.text) for study in runs[0][2]]
    mismatched = sum(
        [(study.kind, study.text) for study in run[2]] != reference
        for run in runs
    )
    result.failed += mismatched
    if mismatched:
        result.fail(f"{mismatched} repetitions rendered different results")

    search = runs[-1][2][0].data["result"]
    if search.n_candidates != EXPECTED_CANDIDATES:
        result.fail(f"study guard: {search.n_candidates} search candidates "
                    f"(needs {EXPECTED_CANDIDATES})")
    space = search.space
    reported = {c.index: c for c in search.frontier + search.top}
    wrong = [i for i, c in reported.items() if oracle_candidate(space, i) != c]
    parity = not wrong
    if wrong:
        result.fail(f"{len(wrong)} frontier/top candidates differ from "
                    "oracle_candidate")

    rng = benchlib.rng_for("study-sample", seed)
    sample = DesignSpace(
        module_areas=tuple(sorted(rng.sample(space.module_areas,
                                             SAMPLE_AREAS))),
        nodes=space.nodes,
        technologies=space.technologies,
        chiplet_counts=space.chiplet_counts,
        d2d_fractions=space.d2d_fractions,
        quantity=space.quantity,
        objectives=space.objectives,
        top_k=space.top_k,
    )
    oracle = [oracle_candidate(sample, i) for i in range(sample.n_candidates)]
    differ = 0
    for block in SpaceEvaluator(sample).blocks():
        for offset in range(len(block)):
            candidate = oracle[block.start + offset]
            differ += any(
                float(block.metrics[name][offset]) != candidate.objective(name)
                for name in sample.metrics
            )
    if differ:
        parity = False
        result.fail(f"{differ} sampled candidates differ from the oracle")
    frontier = pareto_frontier(
        oracle,
        [(lambda c, name=name: c.objective(name)) for name in sample.objectives],
    )
    if run_search(sample).frontier_indices() != tuple(
        sorted(c.index for c in frontier)
    ):
        parity = False
        result.fail("sampled frontier differs from pareto_frontier")
    if not parity:
        # The search path is wrong, so every repetition ran it wrongly.
        result.failed = len(runs)
    result.notes.append(
        f"  checked: {len(reported)} frontier/top candidates and "
        f"{sample.n_candidates} sampled candidates against the oracle"
    )


def _install(tracer: Tracer) -> None:
    """Wrap each layer where its caller looks the name up."""
    from repro.engine import costengine, fastmc, fastportfolio
    from repro.scenario import runner
    from repro.search import engine, evaluate, frontier

    tracer.wrap(runner, "scenario_from_dict", "scenario.parse")
    tracer.wrap(evaluate.SpaceEvaluator, "blocks", "search.evaluate",
                generator=True)
    for module in (evaluate, costengine, fastmc):
        tracer.wrap(module, "linearize_packaging", LINEARIZE)
    tracer.wrap(engine, "non_dominated_mask", "search.frontier")
    tracer.wrap(frontier.FrontierAccumulator, "add", "search.frontier")
    tracer.wrap(engine, "candidate_rows", "search.rows")
    tracer.wrap(fastmc, "sample_re_costs", "fastmc")
    tracer.wrap(fastportfolio.PortfolioEngine, "decompose",
                "fastportfolio.decompose")
    tracer.wrap(fastportfolio.PortfolioEngine, "volume_solve",
                "fastportfolio.volume_solve")


def run(seed: int, seconds: float, trace: bool) -> tuple[Result, Tracer | None]:
    result = Result("study")
    setup_s, runner, engine, doc = setup(seed)
    _one_run(runner, engine, doc, None)  # lazy imports inside the layers

    timed = seconds / 2 if trace else seconds
    cpu0 = benchlib.self_cpu_seconds()
    wall0 = time.perf_counter()
    runs, rounds, raw = _repeat(runner, engine, doc, timed)
    wall = time.perf_counter() - wall0
    cpu_share = (benchlib.self_cpu_seconds() - cpu0) / wall
    p50 = benchlib.median_of_rounds(rounds)

    if not trace:
        _check(result, runs, seed)
        setups = [setup_s, *_probe_setup(seed)]
        n = f"n={len(runs)} scenario runs in {len(rounds)} rounds"
        result.metric("p50_ms", p50, "ms",
                      f"{n}; measured {benchlib.median_of_rounds(raw):.2f}")
        result.metric("serial_p50_ms", p50, "ms",
                      "one caller: same samples as p50_ms")
        tail, how = benchlib.tail(rounds)
        result.metric("tail_ms", tail, "ms", how)
        result.metric("rps", benchlib.median(
            [1e3 * len(r) / sum(r) for r in rounds]
        ), "1/s", "scenario runs per second")
        result.metric("setup_s", benchlib.median(setups), "s",
                      f"imports + document, median of {len(setups)} processes")
        result.notes.append("  (timings at the reference host speed, "
                            "see NOTES.md)")
        return result, None

    tracer = Tracer(keep=50_000)
    _install(tracer)
    traced, traced_rounds, _raw = _repeat(runner, engine, doc, timed, tracer)
    _check(result, runs + traced, seed)
    n = len(traced)

    def mean_self(name: str) -> float:
        return tracer.self_ms(name) / n

    for kind in STUDIES:
        result.metric(f"study.{kind}_ms",
                      sum(run[1][kind] for run in traced) / n, "ms",
                      "time between iter_run yields")
    result.metric("scenario.parse_ms", mean_self("scenario.parse"), "ms",
                  "scenario_from_dict")
    result.metric("search.evaluate_ms", mean_self("search.evaluate"), "ms",
                  "SpaceEvaluator.blocks, self time")
    result.metric("packaging_affine.linearize_ms",
                  mean_self(LINEARIZE), "ms", "linearize_packaging")
    result.metric("packaging_affine.linearize_calls",
                  benchlib.median([run[4] for run in traced]), "count",
                  f"per run: {sorted({run[4] for run in traced})}")
    result.metric("search.frontier_ms", mean_self("search.frontier"), "ms",
                  "non_dominated_mask + FrontierAccumulator.add")
    result.metric("search.rows_ms", mean_self("search.rows"), "ms",
                  "candidate_rows")
    result.metric("fastmc.ms", mean_self("fastmc"), "ms", "sample_re_costs")
    result.metric("fastportfolio.decompose_ms",
                  mean_self("fastportfolio.decompose"), "ms", "")
    result.metric("fastportfolio.volume_solve_ms",
                  mean_self("fastportfolio.volume_solve"), "ms", "self time")
    result.metric("engine.die_cost_hit_share",
                  sum(run[3] for run in traced) / n, "share",
                  "CostEngine.cache_info() after each run")
    result.metric("srv.cpu_share", cpu_share, "cpu_s/s",
                  "this process: the program runs in-process")
    result.metric("client.cpu_share", 0.0, "cpu_s/s", "no separate generator")
    traced_p50 = benchlib.median_of_rounds(traced_rounds)
    result.metric("trace.overhead_ms", traced_p50 - p50, "ms",
                  f"traced p50 {traced_p50:.2f} - untraced {p50:.2f} "
                  f"(n={n}/{len(runs)})")
    path = benchlib.trace_path("study", seed)
    write_chrome(path, chrome_events(tracer.spans, 1, "study"))
    result.notes.append(f"  trace: {path}")
    result.per, result.per_label = n, "run"
    return result, tracer


if __name__ == "__main__" and sys.argv[1:2] == ["--setup-probe"]:
    benchlib.require_source_tree()
    print(setup(int(sys.argv[2]))[0])
