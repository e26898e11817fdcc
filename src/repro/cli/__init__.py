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

This package is a dispatcher.  The top-level parser names every
subcommand with its help line; only the invoked command's module
(``cost``, ``model``, ``study`` or ``ops``) is imported, adds its
arguments and runs.  Each of those modules maps its command names to
``(add_arguments, run)`` in a ``COMMANDS`` table, and imports the
model inside ``run``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Sequence

from repro.errors import ChipletActuaryError

#: Subcommand -> (module under ``repro.cli``, help line), in listing order.
SUBCOMMANDS: dict[str, tuple[str, str]] = {
    "nodes": ("model", "list the process-node registry"),
    "techs": ("model", "list integration technologies and D2D interfaces"),
    "cost": ("cost", "price one system"),
    "compare": ("model", "rank integration schemes"),
    "payback": ("model", "multi-chip payback quantity"),
    "sweep": ("model", "RE cost vs area for every scheme"),
    "montecarlo": ("study", "cost distribution under defect uncertainty"),
    "search": (
        "study", "sweep a design space, report its frontier and top-k designs"
    ),
    "figure": ("study", "regenerate a paper figure"),
    "run": ("study", "execute a declarative scenario JSON"),
    "portfolio": ("model", "report a portfolio JSON"),
    "lint": (
        "ops",
        "run the contract linter over source trees (rules in docs/ANALYSIS.md)",
    ),
    "corpus": (
        "ops", "run or inspect a scenario corpus against a result store"
    ),
    "serve": (
        "ops", "run the cost model as a warm HTTP service (docs/SERVICE.md)"
    ),
}


def command(name: str):
    """``(add_arguments, run)`` of subcommand ``name``, importing only
    the module that implements it."""
    module = importlib.import_module(f"repro.cli.{SUBCOMMANDS[name][0]}")
    return module.COMMANDS[name]


class _Subcommands(argparse._SubParsersAction):
    """The subparsers action that lets the chosen command add its
    arguments just before its own parser runs."""

    def __call__(self, parser, namespace, values, option_string=None):
        chosen = self._name_parser_map.get(values[0])
        if chosen is not None:
            add_arguments, _run = command(values[0])
            add_arguments(chosen)
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; a subcommand's parser is empty until that
    subcommand is parsed."""
    parser = argparse.ArgumentParser(
        prog="chiplet-actuary",
        description="Chiplet Actuary cost model (DAC 2022 reproduction)",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, action=_Subcommands
    )
    for name, (_module, help_line) in SUBCOMMANDS.items():
        sub.add_parser(name, help=help_line)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _add_arguments, run = command(args.command)
    try:
        code = run(args)
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
