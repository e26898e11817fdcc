"""The CLI parser adds a subcommand's arguments only when that
subcommand runs: every help text and usage error must still equal what
a parser with every subcommand's arguments built prints."""

import argparse
import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import SUBCOMMANDS, build_parser, command, main


def _full_parser() -> argparse.ArgumentParser:
    """The top-level parser with every subcommand's arguments added up
    front, parsing through argparse's own subparsers action (which adds
    nothing when a subcommand is chosen)."""
    parser = build_parser()
    (subparsers,) = (
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    subparsers.__class__ = argparse._SubParsersAction
    for name, subparser in subparsers.choices.items():
        add_arguments, _run = command(name)
        add_arguments(subparser)
    return parser


def _outcome(parse, argv):
    """(exit code, stdout, stderr) of a parse that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as excinfo:
            parse(argv)
    return excinfo.value.code, out.getvalue(), err.getvalue()


ARGVS = (
    [[], ["--help"], ["bogus"], ["--area", "400", "cost"]]
    + [[name, "--help"] for name in SUBCOMMANDS]
    + [["corpus", "run", "--help"], ["corpus", "status", "--help"]]
    + [[name, "--no-such-flag"] for name in SUBCOMMANDS]
    + [["corpus", "run"], ["corpus", "nope"], ["figure", "3"],
       ["cost", "--area", "x"], ["cost", "--area", "1", "--integration", "3d"],
       ["payback", "--area", "1", "--integration", "soc"]]
)


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "-")
def test_lazy_parser_prints_what_the_full_parser_prints(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    lazy = _outcome(main, argv)
    assert lazy == _outcome(_full_parser().parse_args, argv)
    assert lazy[0] in (0, 2)
    assert lazy[1] or lazy[2]


def test_top_level_help_lists_every_subcommand_with_its_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _err = _outcome(main, ["--help"])
    assert code == 0
    for name, (_module, help_line) in SUBCOMMANDS.items():
        assert f"    {name}" in out
        assert help_line in out


def test_every_subcommand_lives_in_its_named_module():
    for name, (module, _help) in SUBCOMMANDS.items():
        add_arguments, run = command(name)
        assert callable(add_arguments) and callable(run)
        assert run.__module__ == f"repro.cli.{module}"


def test_cold_help_loads_no_command_module():
    """``repro --help`` builds only the top-level parser; ``repro cost
    --help`` imports ``cost``'s module and no other."""
    probe = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(sys.argv[1:])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(' '.join(m for m in sys.modules if m.startswith('repro')))\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    loaded = {}
    for argv in (["--help"], ["cost", "--help"]):
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        loaded[argv[0]] = set(proc.stdout.split())
    assert loaded["--help"] == {"repro", "repro.lazy", "repro.errors", "repro.cli"}
    assert {m for m in loaded["cost"] if m.startswith("repro.cli")} == {
        "repro.cli", "repro.cli.cost"
    }
