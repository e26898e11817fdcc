"""Import check: every ``repro`` module imports alone in a fresh interpreter.

The layering rule (docs/ANALYSIS.md) sees only the static import graph.
A module that imports cleanly only when some other module was imported
first — because the package ``__init__`` used to load its dependencies
in a lucky order — passes that rule and the test suite, and breaks the
first caller that imports it directly.  This script imports each module
found by :func:`pkgutil.walk_packages` on its own, one subprocess per
module.

Run locally (or in CI — see .github/workflows/ci.yml)::

    PYTHONPATH=src python tools/import_alone.py

Exit status 0 means every module imported alone; otherwise each failing
module is printed with the last line of its traceback and the exit
status is 1.
"""

from __future__ import annotations

import pkgutil
import subprocess
import sys

import repro


def main() -> int:
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    failures = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, "-c", f"import {name}"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["(no output)"]
            failures.append(f"{name}: {lines[-1]}")
    for failure in failures:
        print(failure)
    print(f"{len(names) - len(failures)}/{len(names)} modules import alone")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
