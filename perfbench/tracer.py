"""In-memory spans for the traced benchmark run.

A span is (name, start, end, id, parent, request id, thread, args).
Spans nest per thread; a span without an explicit request id inherits
its parent's.  Totals (count, inclusive and self time per name) are
kept for every span; raw spans are kept up to ``keep`` so a long
traced run stays small in memory.  At exit the raw spans are written
as Chrome trace-event JSON, which Perfetto and ``chrome://tracing``
open directly.

Layers are observed from outside: :meth:`Tracer.wrap` replaces a name
in the module or class whose code calls it (callers bind functions
with ``from ... import``), so the program itself is unchanged.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self, keep: int = 200_000):
        self.keep = keep
        self.spans: list[tuple] = []
        self.dropped = 0
        #: name -> [count, inclusive ns, self ns]
        self.totals: dict[str, list[int]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span lifecycle ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Any = None, args: Any = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[4]
        frame = [name, _clock(), next(self._ids),
                 parent[2] if parent else 0, rid, 0, args]
        stack.append(frame)
        return frame

    def end(self, frame: list, end: int | None = None) -> None:
        end = _clock() if end is None else end
        stack = self._stack()
        stack.pop()
        name, start, span_id, parent_id, rid, child_ns, args = frame
        duration = end - start
        if stack:
            stack[-1][5] += duration
        with self._lock:
            total = self.totals.setdefault(name, [0, 0, 0])
            total[0] += 1
            total[1] += duration
            total[2] += duration - child_ns
            if len(self.spans) < self.keep:
                self.spans.append(
                    (name, start, end, span_id, parent_id, rid,
                     threading.get_ident(), args)
                )
            else:
                self.dropped += 1

    def record(self, name: str, start: int, end: int, rid: Any = None,
               args: Any = None) -> None:
        """A span measured elsewhere (a child process, a client call),
        timed with the same monotonic clock."""
        frame = self.begin(name, rid, args)
        frame[1] = start
        self.end(frame, end)

    # -- wrapping ------------------------------------------------------

    def traced(self, func: Callable, name: str) -> Callable:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(frame)

        return wrapper

    def traced_generator(self, func: Callable, name: str) -> Callable:
        """One span per resumption of the generator ``func`` returns."""

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = func(*args, **kwargs)
            while True:
                frame = self.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.end(frame)
                yield item

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str,
             generator: bool = False) -> None:
        """Replace ``owner.attr`` (module function, method or
        classmethod) with a traced version."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.traced(raw.__func__, name)))
            return
        func = raw if raw is not None else getattr(owner, attr)
        factory = self.traced_generator if generator else self.traced
        setattr(owner, attr, factory(func, name))

    # -- output --------------------------------------------------------

    def self_ms(self, name: str) -> float:
        return self.totals.get(name, [0, 0, 0])[2] / 1e6

    def count(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    def table(self, per: int = 1, label: str = "") -> list[str]:
        """Per-layer lines: calls, inclusive and self ms per ``label``."""
        per = max(per, 1)
        lines = [f"  {'span':34s} {'calls':>10s} {'incl ms':>11s} "
                 f"{'self ms':>11s}   (per {label or 'run'})"]
        for name in sorted(self.totals):
            count, inclusive, self_ns = self.totals[name]
            lines.append(
                f"  {name:34s} {count / per:10.1f} {inclusive / 1e6 / per:11.3f}"
                f" {self_ns / 1e6 / per:11.3f}"
            )
        if self.dropped:
            lines.append(f"  ({self.dropped} spans beyond the first "
                         f"{self.keep} counted but not kept)")
        return lines


def chrome_events(spans: list[tuple], pid: int, process: str) -> list[dict]:
    """Trace-event ``X`` records (microseconds) for one process."""
    threads: dict[int, int] = {}
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": process}}
    ]
    for name, start, end, span_id, parent, rid, thread, args in spans:
        tid = threads.setdefault(thread, len(threads) + 1)
        detail = {"id": span_id, "parent": parent}
        if rid is not None:
            detail["rid"] = rid
        if args is not None:
            detail["args"] = args
        events.append(
            {"name": name, "ph": "X", "pid": pid, "tid": tid,
             "ts": start / 1e3, "dur": (end - start) / 1e3, "args": detail}
        )
    return events


def write_chrome(path: str, events: list[dict]) -> None:
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def totals_from_spans(spans: list[tuple]) -> dict[str, list[int]]:
    """Per-name [count, inclusive ns, self ns] of a span subset, self
    time being duration minus the spans directly beneath it."""
    child_ns: dict[int, int] = {}
    for _name, start, end, _id, parent, *_rest in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    totals: dict[str, list[int]] = {}
    for name, start, end, span_id, *_rest in spans:
        total = totals.setdefault(name, [0, 0, 0])
        total[0] += 1
        total[1] += end - start
        total[2] += end - start - child_ns.get(span_id, 0)
    return totals
