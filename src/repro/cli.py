"""Command-line interface: ``chiplet-actuary`` (or ``python -m repro``).

Subcommands::

    nodes                     list the process-node registry
    techs                     list integration technologies and D2D PHYs
    cost                      price one system (SoC or partitioned)
    compare                   rank integration schemes for a design point
    payback                   multi-chip payback quantity
    sweep                     RE cost vs area for every scheme (CSV-able)
    montecarlo                cost distribution under defect uncertainty
    figure {2,4,5,6,8,9,10}   regenerate a paper figure
    run FILE                  execute a declarative scenario JSON
    portfolio FILE            report an externally-defined portfolio
    corpus run FILE           run a scenario corpus against a result store
    corpus status FILE        per-study state of a corpus run's manifest
    lint [PATH ...]           run the contract linter (docs/ANALYSIS.md)
    serve                     run the cost model as a warm HTTP service

``corpus run`` exit codes: 0 = every unit completed, 3 = partial
failure (failed units recorded in the manifest), 4 = store corruption
was detected (entries quarantined and recomputed), 2 = usage/model
error before the run started.

``lint`` exit codes: 0 = clean (every finding baselined or
suppressed), 1 = active findings reported, 2 = usage/model error
before analysis ran (unknown path, unparseable file, bad baseline).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Sequence

from repro.errors import ChipletActuaryError, InvalidParameterError
from repro.experiments.common import (
    MULTICHIP_TECH_NAMES,
    multichip_integrations,
)
from repro.explore.partition import partition_monolith, soc_reference
from repro.process.catalog import get_node
from repro.registry.technologies import technology_registry
from repro.reporting.table import Table


def _integration(name: str):
    """Fresh instance of a registered integration technology."""
    return technology_registry().create(name)


def _add_design_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--area", type=float, required=True,
                        help="total module area in mm^2")
    parser.add_argument("--node", default="7nm",
                        help="process node (default: 7nm)")
    parser.add_argument("--chiplets", type=int, default=2,
                        help="number of equal chiplets (default: 2)")
    parser.add_argument("--d2d", type=float, default=0.10,
                        help="D2D fraction of chip area (default: 0.10)")
    parser.add_argument("--quantity", type=float, default=500_000,
                        help="production quantity (default: 500k)")


def _add_yield_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--yield-model",
        default="",
        metavar="NAME",
        help="price dies with a registered yield-model family "
        "(see 'techs' for the registry)",
    )
    parser.add_argument(
        "--wafer-geometry",
        default="",
        metavar="NAME",
        help="price dies on a registered wafer geometry "
        "(see 'techs' for the registry)",
    )


def _cmd_nodes(_args: argparse.Namespace) -> int:
    from repro.process.catalog import NODES
    from repro.registry.nodes import node_registry

    table = Table(
        ["node", "D0 (/cm^2)", "c", "wafer ($)", "density (MTr/mm^2)",
         "mask set ($M)", "kind"],
        title="Process-node catalog",
        precision=2,
    )
    registry = node_registry()
    entries = list(NODES.values()) + [
        registry.get(name) for name in registry.names() if name not in NODES
    ]
    for node in entries:
        table.add_row(
            [
                node.name,
                node.defect_density,
                node.cluster_param,
                node.wafer_price,
                node.transistor_density,
                node.mask_set_cost / 1e6,
                "packaging" if node.is_packaging_node else "logic",
            ]
        )
    print(table.render())
    return 0


def _cmd_techs(_args: argparse.Namespace) -> int:
    from repro.registry.d2d import d2d_registry
    from repro.registry.geometries import wafer_geometry_registry
    from repro.registry.yieldmodels import yield_model_registry

    techs = Table(
        ["name", "label", "base", "description"],
        title="Integration-technology registry",
    )
    registry = technology_registry()
    for name, entry in registry.items():
        techs.add_row(
            [name, entry.label, entry.base or name, entry.description]
        )
    print(techs.render())
    print()
    phys = Table(
        ["name", "carrier", "GB/s per mm^2", "pJ/bit", "reach (mm)"],
        title="D2D interface registry",
    )
    for name, profile in d2d_registry().items():
        phys.add_row(
            [name, profile.carrier, profile.bandwidth_density,
             profile.energy_pj_per_bit, profile.reach_mm]
        )
    print(phys.render())
    print()
    models = Table(
        ["name", "family", "params", "gross", "description"],
        title="Yield-model registry",
    )
    for name, entry in yield_model_registry().items():
        models.add_row(
            [name, entry.model,
             ", ".join(f"{k}={v:g}" for k, v in entry.params.items()) or "(node)",
             entry.gross_factor, entry.description]
        )
    print(models.render())
    print()
    geometries = Table(
        ["name", "diameter (mm)", "edge excl (mm)", "scribe (mm)"],
        title="Wafer-geometry registry",
        precision=1,
    )
    for name, geometry in wafer_geometry_registry().items():
        geometries.add_row(
            [name, geometry.diameter, geometry.edge_exclusion,
             geometry.scribe_width]
        )
    print(geometries.render())
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    # The query POST /v1/cost also runs, so `repro cost` and the
    # service are the same evaluation and the same table — parity by
    # construction (tools/service_smoke.py holds the line).
    from repro.explore.costquery import CostRequest, cost_table, evaluate_cost

    request = CostRequest(
        area=args.area,
        node=args.node,
        integration=args.integration,
        chiplets=args.chiplets,
        d2d_fraction=args.d2d,
        quantity=args.quantity,
        yield_model=args.yield_model or "",
        wafer_geometry=args.wafer_geometry or "",
    )
    print(cost_table(evaluate_cost(request)).render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import serve

    serve(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.explore.decide import choose_integration

    node = get_node(args.node)
    choices = choose_integration(
        args.area,
        node,
        args.chiplets,
        args.quantity,
        list(multichip_integrations().values()),
        d2d_fraction=args.d2d,
    )
    table = Table(
        ["rank", "scheme", "RE/unit", "NRE/unit", "total/unit"],
        title=(
            f"Integration ranking: {args.area:.0f} mm^2 @ {node.name}, "
            f"{args.chiplets} chiplets, {args.quantity:.0f} units"
        ),
    )
    for rank, choice in enumerate(choices, start=1):
        table.add_row(
            [rank, choice.label, choice.re_per_unit, choice.nre_per_unit,
             choice.total_per_unit]
        )
    print(table.render())
    return 0


def _cmd_payback(args: argparse.Namespace) -> int:
    from repro.explore.decide import multichip_payback_quantity

    node = get_node(args.node)
    soc_system = soc_reference(args.area, node)
    multi = partition_monolith(
        args.area,
        node,
        args.chiplets,
        _integration(args.integration),
        d2d_fraction=args.d2d,
    )
    quantity = multichip_payback_quantity(soc_system, multi)
    if quantity is None:
        print(
            f"{args.integration.upper()} with {args.chiplets} chiplets never "
            f"pays back against the monolithic SoC for this design point."
        )
    else:
        print(
            f"{args.integration.upper()} with {args.chiplets} chiplets pays "
            f"back at a production quantity of ~{quantity:,.0f} units."
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.config import ConfigRegistries
    from repro.engine import default_engine
    from repro.packaging.soc import soc_package
    from repro.reporting.series import FigureData, Series

    die_cost_fn = ConfigRegistries().die_cost_fn(
        args.yield_model, args.wafer_geometry, context="sweep"
    )
    engine = default_engine()
    node = get_node(args.node)
    step = int(args.step)
    if step == 0:
        raise InvalidParameterError(
            f"--step must be a whole number of mm^2 other than 0, "
            f"got {args.step:g}"
        )
    areas = list(range(int(args.start), int(args.stop) + 1, step))

    def column(label, integration, count, soc_for_one=False) -> list[float]:
        grid = engine.partition_grid(
            label, areas, [count], node, integration,
            d2d_fraction=args.d2d, soc_for_one=soc_for_one,
            die_cost_fn=die_cost_fn,
        )
        return [point.value.total for point in grid.points]

    columns = {"SoC": column("SoC", soc_package(), 1, soc_for_one=True)}
    for label, tech in multichip_integrations().items():
        columns[label] = column(label, tech, args.chiplets)
    figure = FigureData(
        title=f"RE cost vs area @ {node.name}",
        x_label="area_mm2",
        xs=tuple(areas),
        series=tuple(Series.of(name, ys) for name, ys in columns.items()),
    )
    if args.csv:
        print(figure.to_csv(), end="")
    else:
        table = Table(["area_mm2"] + list(columns), title=figure.title)
        for index, area in enumerate(areas):
            table.add_row([area] + [columns[name][index] for name in columns])
        print(table.render())
    return 0


def _print_study(study) -> int:
    """Run one scenario study against the global registries and print
    its text: the executor and table ``repro run`` gives that study."""
    from repro.scenario import ScenarioRunner

    print(ScenarioRunner().run_study(study).text)
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from repro.scenario import MonteCarloStudy

    return _print_study(
        MonteCarloStudy(
            name="montecarlo",
            module_area=args.area,
            node=args.node,
            technology=args.integration,
            n_chiplets=args.chiplets,
            d2d_fraction=args.d2d,
            draws=args.draws,
            sigma=args.sigma,
            seed=args.seed,
            yield_model=args.yield_model,
            wafer_geometry=args.wafer_geometry,
        )
    )


def _parse_areas(spec: str) -> tuple[float, ...]:
    """``start:stop:step`` range or comma list of module areas."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ChipletActuaryError(
                    f"--areas range must be start:stop:step, got {spec!r}"
                )
            start, stop, step = (float(part) for part in parts)
            if step <= 0:
                raise ChipletActuaryError(
                    f"--areas step must be > 0, got {step:g}"
                )
            # start + index * step, not repeated addition, so long
            # ranges do not drift (100:101:0.1 ends at 101.0).
            return tuple(
                itertools.takewhile(
                    lambda area: area <= stop + 1e-9,
                    (start + index * step for index in itertools.count()),
                )
            )
        return tuple(float(part) for part in spec.split(",") if part)
    except ValueError:
        raise ChipletActuaryError(
            f"--areas entries must be numbers, got {spec!r}"
        ) from None


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.scenario import SearchStudy

    return _print_study(
        SearchStudy(
            name="search",
            module_areas=_parse_areas(args.areas),
            nodes=tuple(part for part in args.nodes.split(",") if part),
            technologies=tuple(
                part for part in args.technologies.split(",") if part
            ),
            chiplet_counts=tuple(
                int(part) for part in args.chiplets.split(",") if part
            ),
            d2d_fractions=tuple(
                float(part) for part in args.d2d.split(",") if part
            ),
            quantity=args.quantity,
            objectives=tuple(
                part for part in args.objectives.split(",") if part
            ),
            top_k=args.top_k,
            include_soc=not args.no_soc,
            test_cost={} if args.test_cost else None,
            yield_model=args.yield_model,
            wafer_geometry=args.wafer_geometry,
        )
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.scenario import FigureStudy

    return _print_study(FigureStudy(figure=args.id))


def _cmd_run(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.scenario import ScenarioRunner, load_scenario
    from repro.scenario.sinks import sink_from_mapping, write_sinks

    spec = load_scenario(args.file)
    if args.study:
        studies = tuple(s for s in spec.studies if s.name in args.study)
        missing = set(args.study) - {s.name for s in studies}
        if missing:
            raise ChipletActuaryError(
                f"scenario {spec.name!r} has no studies {sorted(missing)} "
                f"(available: {[s.name for s in spec.studies]})"
            )
        spec = dataclasses.replace(spec, studies=studies)
    # CLI flags override the scenario's 'sinks' section field-by-field
    # *before* validation, so --sink-dir can complete a section that
    # only names formats; SinkSpec rejects an unknown --sink-format
    # before any study runs.
    sink_payload = dict(spec.sinks)
    if args.sink_dir:
        sink_payload["directory"] = args.sink_dir
    if args.sink_format:
        sink_payload["formats"] = list(args.sink_format)
    sink = sink_from_mapping(sink_payload) if sink_payload else None

    result = ScenarioRunner().run(spec)
    header = f"Scenario: {spec.name}"
    if spec.description:
        header += f" — {spec.description}"
    print(header)
    print()
    print(result.render())
    if sink is not None:
        written = write_sinks(result, sink)
        print()
        for path in written:
            print(f"wrote {path}")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.corpus_command == "run":
        return _corpus_run(args)
    return _corpus_status(args)


def _corpus_run(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusOptions, load_corpus, run_corpus

    corpus = load_corpus(args.file)
    options = CorpusOptions(
        workers=args.workers,
        timeout=args.timeout,
        max_retries=args.max_retries,
        backoff=args.backoff,
        keep_going=not args.fail_fast,
        inline=args.inline,
    )
    print(
        f"Corpus: {corpus.name} — {len(corpus.scenarios)} scenarios, "
        f"{len(corpus.units)} units, store {args.store}"
    )
    report = run_corpus(corpus, args.store, options=options)
    counts = report.counts()
    if report.interrupted_previous_run:
        print("note: previous run was interrupted; resuming from the store")
    print(
        f"completed {counts['completed']}/{len(corpus.units)} "
        f"(from store: {counts['from_store']}, computed: {counts['computed']}), "
        f"failed {counts['failed']}"
    )
    for outcome in report.outcomes:
        if outcome.status == "failed":
            print(
                f"  FAILED {outcome.unit.unit_id} "
                f"[{outcome.error_type}] after {outcome.attempts} attempt(s): "
                f"{outcome.error}"
            )
    if report.corrupt_entries:
        print(
            f"store corruption: {len(report.corrupt_entries)} entries "
            "quarantined and recomputed:"
        )
        for path in report.corrupt_entries:
            print(f"  {path}")
    if report.aborted:
        print("aborted: --fail-fast stopped the run at the first failure")
    print(f"manifest: {report.manifest_path}")
    return report.exit_code


def _corpus_status(args: argparse.Namespace) -> int:
    from repro.corpus import Manifest, ResultStore, load_corpus, manifest_path

    corpus = load_corpus(args.file)
    store = ResultStore(args.store)
    manifest = Manifest.load(manifest_path(store.manifests_dir, corpus.name))
    table = Table(
        ["unit", "status", "attempts", "source", "error"],
        title=f"Corpus status: {corpus.name} ({args.store})",
    )
    records = manifest.units if manifest else {}
    for unit in corpus.units:
        record = records.get(unit.unit_id)
        if record is None:
            table.add_row([unit.unit_id, "unscheduled", "", "", ""])
            continue
        error = f"{record.error_type}: {record.error}" if record.error_type else ""
        table.add_row(
            [unit.unit_id, record.status, record.attempts or "",
             record.source, error[:60]]
        )
    print(table.render())
    if manifest is None:
        print("no manifest yet: this corpus has not been run against the store")
        return 0
    counts = manifest.counts()
    state = "finished" if manifest.finished else (
        "INTERRUPTED" if manifest.was_interrupted() else "in progress"
    )
    print(
        f"last run: {state} — "
        + ", ".join(f"{key} {value}" for key, value in counts.items() if value)
    )
    if manifest.interrupted_previous_run:
        print("last run resumed from an interrupted one")
    if manifest.corrupt_entries:
        print(f"quarantined corrupt entries: {len(manifest.corrupt_entries)}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_paths, write_baseline

    report = analyze_paths(
        args.paths,
        baseline_path=None if args.write_baseline else args.baseline,
    )
    if args.write_baseline:
        if not args.baseline:
            raise ChipletActuaryError(
                "--write-baseline needs --baseline FILE to write to"
            )
        write_baseline(args.baseline, report.findings)
        print(
            f"baseline written: {args.baseline} "
            f"({len(report.findings)} finding(s) grandfathered)"
        )
        return 0
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        print(report.render_text())
    return report.exit_code


def _cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.config import load_portfolio

    portfolio = load_portfolio(args.file)
    table = Table(
        ["system", "quantity", "RE/unit", "NRE/unit", "total/unit"],
        title=f"Portfolio report: {args.file}",
    )
    for system in portfolio.systems:
        cost = portfolio.amortized_cost(system)
        table.add_row(
            [system.name, f"{system.quantity:.0f}", cost.re_total,
             cost.nre_total, cost.total]
        )
    table.add_row(
        ["(average)", f"{portfolio.total_quantity:.0f}", "", "",
         portfolio.average_cost()]
    )
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiplet-actuary",
        description="Chiplet Actuary cost model (DAC 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("nodes", help="list the process-node registry")

    sub.add_parser(
        "techs", help="list integration technologies and D2D interfaces"
    )

    cost = sub.add_parser("cost", help="price one system")
    _add_design_arguments(cost)
    cost.add_argument(
        "--integration",
        choices=["soc", *MULTICHIP_TECH_NAMES],
        default="soc",
        help="integration scheme (default: soc)",
    )
    _add_yield_arguments(cost)

    compare = sub.add_parser("compare", help="rank integration schemes")
    _add_design_arguments(compare)

    payback = sub.add_parser("payback", help="multi-chip payback quantity")
    _add_design_arguments(payback)
    payback.add_argument(
        "--integration",
        choices=list(MULTICHIP_TECH_NAMES),
        default="mcm",
        help="multi-chip scheme (default: mcm)",
    )

    sweep = sub.add_parser("sweep", help="RE cost vs area for every scheme")
    sweep.add_argument("--node", default="7nm")
    sweep.add_argument("--chiplets", type=int, default=2)
    sweep.add_argument("--d2d", type=float, default=0.10)
    sweep.add_argument("--start", type=float, default=100)
    sweep.add_argument("--stop", type=float, default=900)
    sweep.add_argument("--step", type=float, default=100)
    sweep.add_argument("--csv", action="store_true",
                       help="emit CSV instead of a table")
    _add_yield_arguments(sweep)

    montecarlo = sub.add_parser(
        "montecarlo", help="cost distribution under defect uncertainty"
    )
    _add_design_arguments(montecarlo)
    montecarlo.add_argument(
        "--integration",
        choices=["soc", *MULTICHIP_TECH_NAMES],
        default="soc",
    )
    montecarlo.add_argument("--draws", type=int, default=500)
    montecarlo.add_argument("--sigma", type=float, default=0.15)
    montecarlo.add_argument("--seed", type=int, default=0)
    _add_yield_arguments(montecarlo)

    search = sub.add_parser(
        "search",
        help="sweep a design space, report its frontier and top-k designs",
    )
    search.add_argument(
        "--areas", default="100:900:100", metavar="SPEC",
        help="module areas: start:stop:step range or comma list "
        "(default: 100:900:100)",
    )
    search.add_argument(
        "--nodes", default="7nm",
        help="comma-separated process nodes (default: 7nm)",
    )
    search.add_argument(
        "--technologies", default="mcm,info,2.5d",
        help="comma-separated integration technologies "
        "(default: mcm,info,2.5d)",
    )
    search.add_argument(
        "--chiplets", default="2,3,4,5",
        help="comma-separated chiplet counts (default: 2,3,4,5)",
    )
    search.add_argument(
        "--d2d", default="0.10",
        help="comma-separated D2D fractions (default: 0.10)",
    )
    search.add_argument("--quantity", type=float, default=500_000,
                        help="production quantity (default: 500k)")
    search.add_argument(
        "--objectives", default="total,footprint",
        help="comma-separated objective metrics spanning the dominance "
        "check (default: total,footprint)",
    )
    search.add_argument("--top-k", type=int, default=10,
                        help="cost-optimal designs to report (default: 10)")
    search.add_argument("--no-soc", action="store_true",
                        help="skip the monolithic SoC reference candidates")
    search.add_argument(
        "--test-cost", action="store_true",
        help="include tester economics (default test-cost model)",
    )
    _add_yield_arguments(search)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("id", type=int, choices=[2, 4, 5, 6, 8, 9, 10])

    run = sub.add_parser("run", help="execute a declarative scenario JSON")
    run.add_argument("file", help="path to a scenario JSON document")
    run.add_argument(
        "--study",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named study (repeatable; default: all)",
    )
    run.add_argument(
        "--sink-dir",
        default=None,
        metavar="DIR",
        help="export per-study results into DIR (overrides the "
        "scenario's 'sinks' section)",
    )
    run.add_argument(
        "--sink-format",
        action="append",
        default=None,
        metavar="FORMAT",
        help="sink format (repeatable; default: the scenario's formats, "
        "else all of them)",
    )

    portfolio = sub.add_parser("portfolio", help="report a portfolio JSON")
    portfolio.add_argument("file", help="path to a portfolio JSON document")

    lint = sub.add_parser(
        "lint",
        help="run the contract linter over source trees "
        "(rules in docs/ANALYSIS.md)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to analyze (default: src)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline JSON of grandfathered findings "
        "(filtered from the report; see docs/ANALYSIS.md)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="record the current findings into --baseline FILE and "
        "exit 0 (grandfathering workflow)",
    )

    corpus = sub.add_parser(
        "corpus",
        help="run or inspect a scenario corpus against a result store",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    corpus_run = corpus_sub.add_parser(
        "run",
        help="run every (scenario, study) unit, resuming from the store",
    )
    corpus_run.add_argument("file", help="path to a corpus JSON document")
    corpus_run.add_argument(
        "--store", required=True, metavar="DIR",
        help="content-addressed result store directory (created on demand)",
    )
    corpus_run.add_argument(
        "--workers", type=int, default=2,
        help="worker processes (default: 2)",
    )
    corpus_run.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-study wall-clock timeout in seconds (default: 120)",
    )
    corpus_run.add_argument(
        "--max-retries", type=int, default=2,
        help="retries after a worker crash or timeout (default: 2)",
    )
    corpus_run.add_argument(
        "--backoff", type=float, default=0.5,
        help="retry backoff base in seconds, doubled per attempt "
        "(default: 0.5)",
    )
    corpus_run.add_argument(
        "--fail-fast", action="store_true",
        help="abort at the first failed unit (default: keep going and "
        "record failures in the manifest)",
    )
    corpus_run.add_argument(
        "--inline", action="store_true",
        help="run units in-process (no worker pool, no timeout "
        "enforcement; debugging aid)",
    )

    corpus_status = corpus_sub.add_parser(
        "status", help="per-study state from the corpus manifest"
    )
    corpus_status.add_argument("file", help="path to a corpus JSON document")
    corpus_status.add_argument(
        "--store", required=True, metavar="DIR",
        help="result store directory the corpus was run against",
    )

    serve = sub.add_parser(
        "serve",
        help="run the cost model as a warm HTTP service (docs/SERVICE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8321,
                       help="TCP port; 0 picks a free one (default: 8321)")
    serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="response-cache entries; 0 disables caching (default: 1024)",
    )

    return parser


_COMMANDS = {
    "nodes": _cmd_nodes,
    "techs": _cmd_techs,
    "cost": _cmd_cost,
    "compare": _cmd_compare,
    "payback": _cmd_payback,
    "sweep": _cmd_sweep,
    "montecarlo": _cmd_montecarlo,
    "search": _cmd_search,
    "figure": _cmd_figure,
    "run": _cmd_run,
    "portfolio": _cmd_portfolio,
    "corpus": _cmd_corpus,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except ChipletActuaryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (``repro figure 4 | head``).
        # Point stdout at devnull so the interpreter's exit-time flush
        # does not raise again, and exit without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
