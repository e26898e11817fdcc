"""Operations commands: ``corpus``, ``lint`` and ``serve``.

They drive the corpus runner, the contract linter and the HTTP
service, each imported inside the command that runs.
"""

from __future__ import annotations

import argparse

from repro.errors import ChipletActuaryError
from repro.reporting.table import Table


def _corpus_arguments(parser: argparse.ArgumentParser) -> None:
    corpus_sub = parser.add_subparsers(dest="corpus_command", required=True)

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


def _corpus(args: argparse.Namespace) -> int:
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


def _lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline JSON of grandfathered findings "
        "(filtered from the report; see docs/ANALYSIS.md)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record the current findings into --baseline FILE and "
        "exit 0 (grandfathering workflow)",
    )


def _lint(args: argparse.Namespace) -> int:
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


def _serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8321,
                        help="TCP port; 0 picks a free one (default: 8321)")
    parser.add_argument(
        "--cache-size", type=int, default=1024,
        help="response-cache entries; 0 disables caching (default: 1024)",
    )


def _serve(args: argparse.Namespace) -> int:
    from repro.service.app import serve

    serve(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
    )
    return 0


COMMANDS = {
    "lint": (_lint_arguments, _lint),
    "corpus": (_corpus_arguments, _corpus),
    "serve": (_serve_arguments, _serve),
}
