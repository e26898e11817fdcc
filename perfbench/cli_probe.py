"""``python -m repro`` with two timestamps: run as
``python -X importtime perfbench/cli_probe.py cost ...``.

Stdout is exactly the CLI's.  The last stderr line is a JSON object of
``time.perf_counter_ns`` stamps (the system monotonic clock, so the
parent can place them on its own timeline): before ``import
repro.cli``, after it, and after ``main`` returns.
"""

import json
import sys
import time

import_start = time.perf_counter_ns()
from repro.cli import main  # noqa: E402

import_end = time.perf_counter_ns()
code = main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps({"import_start": import_start, "import_end": import_end,
                  "main_end": time.perf_counter_ns()}), file=sys.stderr)
sys.exit(code)
