"""Study commands: ``montecarlo``, ``search``, ``figure`` and ``run``.

Each one runs scenario studies through the scenario layer's executors,
so ``repro search`` prints the text ``repro run`` gives the matching
one-study document.  The scenario layer is imported inside the command
that runs.
"""

from __future__ import annotations

import argparse
import itertools

from repro.cli.cost import add_design_arguments, add_yield_arguments
from repro.data.packaging_costs import MULTICHIP_TECH_NAMES
from repro.errors import ChipletActuaryError


def _print_study(study) -> int:
    """Run one scenario study against the global registries and print
    its text: the executor and table ``repro run`` gives that study."""
    from repro.scenario import ScenarioRunner

    print(ScenarioRunner().run_study(study).text)
    return 0


def _montecarlo_arguments(parser: argparse.ArgumentParser) -> None:
    add_design_arguments(parser)
    parser.add_argument(
        "--integration",
        choices=["soc", *MULTICHIP_TECH_NAMES],
        default="soc",
    )
    parser.add_argument("--draws", type=int, default=500)
    parser.add_argument("--sigma", type=float, default=0.15)
    parser.add_argument("--seed", type=int, default=0)
    add_yield_arguments(parser)


def _montecarlo(args: argparse.Namespace) -> int:
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


def _search_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--areas", default="100:900:100", metavar="SPEC",
        help="module areas: start:stop:step range or comma list "
        "(default: 100:900:100)",
    )
    parser.add_argument(
        "--nodes", default="7nm",
        help="comma-separated process nodes (default: 7nm)",
    )
    parser.add_argument(
        "--technologies", default="mcm,info,2.5d",
        help="comma-separated integration technologies "
        "(default: mcm,info,2.5d)",
    )
    parser.add_argument(
        "--chiplets", default="2,3,4,5",
        help="comma-separated chiplet counts (default: 2,3,4,5)",
    )
    parser.add_argument(
        "--d2d", default="0.10",
        help="comma-separated D2D fractions (default: 0.10)",
    )
    parser.add_argument("--quantity", type=float, default=500_000,
                        help="production quantity (default: 500k)")
    parser.add_argument(
        "--objectives", default="total,footprint",
        help="comma-separated objective metrics spanning the dominance "
        "check (default: total,footprint)",
    )
    parser.add_argument("--top-k", type=int, default=10,
                        help="cost-optimal designs to report (default: 10)")
    parser.add_argument("--no-soc", action="store_true",
                        help="skip the monolithic SoC reference candidates")
    parser.add_argument(
        "--test-cost", action="store_true",
        help="include tester economics (default test-cost model)",
    )
    add_yield_arguments(parser)


def _search(args: argparse.Namespace) -> int:
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


def _figure_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("id", type=int, choices=[2, 4, 5, 6, 8, 9, 10])


def _figure(args: argparse.Namespace) -> int:
    from repro.scenario import FigureStudy

    return _print_study(FigureStudy(figure=args.id))


def _run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="path to a scenario JSON document")
    parser.add_argument(
        "--study",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named study (repeatable; default: all)",
    )
    parser.add_argument(
        "--sink-dir",
        default=None,
        metavar="DIR",
        help="export per-study results into DIR (overrides the "
        "scenario's 'sinks' section)",
    )
    parser.add_argument(
        "--sink-format",
        action="append",
        default=None,
        metavar="FORMAT",
        help="sink format (repeatable; default: the scenario's formats, "
        "else all of them)",
    )


def _run(args: argparse.Namespace) -> int:
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


COMMANDS = {
    "montecarlo": (_montecarlo_arguments, _montecarlo),
    "search": (_search_arguments, _search),
    "figure": (_figure_arguments, _figure),
    "run": (_run_arguments, _run),
}
