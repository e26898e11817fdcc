"""Fault-tolerant corpus runner: shard units across workers, survive
failure at every layer.

Each :class:`~repro.corpus.generator.UnitSpec` — one (scenario, study)
pair — runs in its own worker process with

* a per-study wall-clock **timeout** (the worker is killed, the unit is
  retried);
* **bounded retry with exponential backoff** for transient deaths
  (:class:`~repro.errors.WorkerCrash`,
  :class:`~repro.errors.StudyTimeout`) — deterministic model errors
  (:class:`~repro.errors.StudyError` and friends) fail immediately,
  retrying them would only repeat the failure;
* **keep-going semantics**: failures are recorded in the manifest, the
  corpus completes, and the exit code says "partial" — one bad study
  never loses a million-evaluation run (``--fail-fast`` opts out).

Before anything is dispatched, every unit is looked up in the
content-addressed :class:`~repro.corpus.store.ResultStore` under
``(spec_hash, registry_hash)``: hits are served bit-identically with
zero recomputation (that is what makes a SIGKILLed run resumable),
corrupt entries are quarantined and transparently recomputed.

The run's journal is a crash-safe :class:`~repro.corpus.manifest.Manifest`
(atomically rewritten as units change state), and the whole run reduces
to one of three exit codes: :data:`EXIT_OK`, :data:`EXIT_PARTIAL`,
:data:`EXIT_CORRUPT`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    ChipletActuaryError,
    CorpusError,
    StoreCorruptionError,
    StudyTimeout,
    WorkerCrash,
)
from repro.corpus.faults import FaultPlan, corrupt_file
from repro.corpus.generator import CorpusSpec, UnitSpec
from repro.corpus.hashing import registry_hash as compute_registry_hash
from repro.corpus.manifest import Manifest, UnitRecord, manifest_path
from repro.corpus.store import ResultStore, StoreKey
from repro.corpus.worker import child_main, execute_unit

#: Exit codes ``corpus run`` reduces a whole run to.
EXIT_OK = 0
EXIT_PARTIAL = 3
EXIT_CORRUPT = 4

#: Error taxonomy members that are transient and therefore retried.
RETRYABLE_ERRORS = ("WorkerCrash", "StudyTimeout")


@dataclass
class CorpusOptions:
    """Tuning knobs of one corpus run."""

    workers: int = 2
    timeout: float = 120.0
    max_retries: int = 2
    backoff: float = 0.5
    keep_going: bool = True
    inline: bool = False
    poll_interval: float = 0.02


@dataclass
class UnitOutcome:
    """Final state of one unit after the run."""

    unit: UnitSpec
    status: str  # "completed" | "failed"
    source: str = ""  # "store" | "computed" | "recomputed"
    attempts: int = 0
    error_type: str = ""
    error: str = ""


@dataclass
class CorpusReport:
    """Everything a caller needs to judge (and resume) a corpus run."""

    corpus: str
    outcomes: list[UnitOutcome] = field(default_factory=list)
    corrupt_entries: list[str] = field(default_factory=list)
    interrupted_previous_run: bool = False
    aborted: bool = False
    manifest_path: str = ""

    def counts(self) -> dict[str, int]:
        tally = {"completed": 0, "failed": 0, "from_store": 0, "computed": 0}
        for outcome in self.outcomes:
            if outcome.status == "completed":
                tally["completed"] += 1
                if outcome.source == "store":
                    tally["from_store"] += 1
                else:
                    tally["computed"] += 1
            else:
                tally["failed"] += 1
        return tally

    @property
    def exit_code(self) -> int:
        counts = self.counts()
        if counts["failed"] or self.aborted:
            return EXIT_PARTIAL
        if self.corrupt_entries:
            return EXIT_CORRUPT
        return EXIT_OK


@dataclass
class _Task:
    unit: UnitSpec
    attempts: int = 0
    eligible_at: float = 0.0
    recompute: bool = False  # recomputing after a quarantined corrupt entry


@dataclass
class _Attempt:
    task: _Task
    process: Any
    connection: Any
    started: float


def _fork_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class CorpusRunner:
    """Runs a :class:`~repro.corpus.generator.CorpusSpec` against a store."""

    def __init__(
        self,
        corpus: CorpusSpec,
        store: ResultStore,
        options: "CorpusOptions | None" = None,
    ):
        self.corpus = corpus
        self.store = store
        self.options = options or CorpusOptions()
        self.faults = FaultPlan.from_env()
        self.registry_hash = compute_registry_hash()
        if self.options.workers < 1:
            raise CorpusError("corpus runner needs at least one worker")

    # ------------------------------------------------------------------

    def run(self) -> CorpusReport:
        """Execute every unit; never raises for unit failures."""
        self.store.remove_orphaned_temps()
        path = manifest_path(self.store.manifests_dir, self.corpus.name)
        previous = Manifest.load(path)
        interrupted = previous.was_interrupted() if previous else False

        manifest = Manifest(
            corpus=self.corpus.name,
            path=path,
            registry_hash=self.registry_hash,
            interrupted_previous_run=interrupted,
        )
        for unit in self.corpus.units:
            manifest.units[unit.unit_id] = UnitRecord(
                unit_id=unit.unit_id,
                spec_hash=unit.spec_hash,
                registry_hash=self.registry_hash,
            )
        manifest.save()

        report = CorpusReport(
            corpus=self.corpus.name,
            interrupted_previous_run=interrupted,
            manifest_path=path,
        )

        # Phase A: serve every already-computed unit from the store.
        to_compute: deque[_Task] = deque()
        for unit in self.corpus.units:
            key = self._key(unit)
            record = manifest.units[unit.unit_id]
            try:
                payload = self.store.load(key)
            except StoreCorruptionError as error:
                quarantined = self.store.quarantine(key)
                note = quarantined or error.path
                manifest.corrupt_entries.append(note)
                report.corrupt_entries.append(note)
                to_compute.append(_Task(unit=unit, recompute=True))
                continue
            if payload is None:
                to_compute.append(_Task(unit=unit))
                continue
            record.status = "completed"
            record.source = "store"
            report.outcomes.append(
                UnitOutcome(unit=unit, status="completed", source="store")
            )
        manifest.save()

        # Phase B: compute the rest on the worker pool.
        self._schedule(to_compute, manifest, report)

        manifest.finished = not report.aborted
        manifest.save()
        return report

    # ------------------------------------------------------------------

    def _key(self, unit: UnitSpec) -> StoreKey:
        return StoreKey(spec_hash=unit.spec_hash, registry_hash=self.registry_hash)

    def _schedule(
        self,
        pending: "deque[_Task]",
        manifest: Manifest,
        report: CorpusReport,
    ) -> None:
        running: list[_Attempt] = []
        context = None if self.options.inline else _fork_context()
        dirty = False
        try:
            while pending or running:
                now = time.monotonic()
                # Dispatch every eligible task into free slots.
                for _ in range(len(pending)):
                    if len(running) >= self.options.workers:
                        break
                    task = pending.popleft()
                    if task.eligible_at > now:
                        pending.append(task)
                        continue
                    task.attempts += 1
                    record = manifest.units[task.unit.unit_id]
                    record.status = "running"
                    record.attempts = task.attempts
                    dirty = True
                    if self.options.inline:
                        self._run_inline(task, manifest, report)
                    else:
                        running.append(self._spawn(task, context))
                # Poll running attempts.
                still_running: list[_Attempt] = []
                for attempt in running:
                    finished = self._poll(
                        attempt, pending, manifest, report, now
                    )
                    if not finished:
                        still_running.append(attempt)
                    else:
                        dirty = True
                running = still_running
                if dirty:
                    manifest.save()
                    dirty = False
                if not self.options.keep_going and any(
                    outcome.status == "failed" for outcome in report.outcomes
                ):
                    report.aborted = True
                    break
                if not self.options.inline and (running or pending):
                    time.sleep(self.options.poll_interval)
        finally:
            for attempt in running:
                self._kill(attempt)
                manifest.units[attempt.task.unit.unit_id].status = "pending"
            if running:
                manifest.save()

    # -- attempt lifecycle ---------------------------------------------

    def _spawn(self, task: _Task, context: Any) -> _Attempt:
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=child_main,
            args=(
                child_conn,
                dict(task.unit.document),
                task.unit.study,
                task.unit.unit_id,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Attempt(
            task=task,
            process=process,
            connection=parent_conn,
            started=time.monotonic(),
        )

    def _run_inline(
        self, task: _Task, manifest: Manifest, report: CorpusReport
    ) -> None:
        """Debug/backstop mode: no subprocess, no timeout enforcement."""
        started = time.monotonic()
        try:
            payload = execute_unit(dict(task.unit.document), task.unit.study)
        except ChipletActuaryError as error:
            self._finish_failed(
                task, type(error).__name__, str(error), manifest, report,
                elapsed=time.monotonic() - started,
            )
            return
        self._finish_completed(
            task, payload, manifest, report,
            elapsed=time.monotonic() - started,
        )

    def _poll(
        self,
        attempt: _Attempt,
        pending: "deque[_Task]",
        manifest: Manifest,
        report: CorpusReport,
        now: float,
    ) -> bool:
        """Advance one running attempt; True when it left the pool."""
        task = attempt.task
        elapsed = now - attempt.started
        message = None
        try:
            if attempt.connection.poll():
                message = attempt.connection.recv()
        except (EOFError, OSError):
            message = None

        if message is not None:
            attempt.process.join(timeout=5.0)
            attempt.connection.close()
            status = message[0]
            if status == "ok":
                self._finish_completed(
                    task, message[1], manifest, report, elapsed=elapsed
                )
            else:
                self._finish_failed(
                    task, message[1], message[2], manifest, report,
                    elapsed=elapsed,
                )
            return True

        if not attempt.process.is_alive():
            # Died without a message: a real (or injected) worker crash.
            attempt.process.join()
            attempt.connection.close()
            error = WorkerCrash(
                task.unit.unit_id,
                exitcode=attempt.process.exitcode,
                attempts=task.attempts,
            )
            self._retry_or_fail(task, error, pending, manifest, report, elapsed)
            return True

        if elapsed > self.options.timeout:
            self._kill(attempt)
            error = StudyTimeout(
                task.unit.unit_id, self.options.timeout, attempts=task.attempts
            )
            self._retry_or_fail(task, error, pending, manifest, report, elapsed)
            return True

        return False

    def _kill(self, attempt: _Attempt) -> None:
        process = attempt.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join()
        try:
            attempt.connection.close()
        except OSError:
            pass

    # -- outcome recording ---------------------------------------------

    def _retry_or_fail(
        self,
        task: _Task,
        error: CorpusError,
        pending: "deque[_Task]",
        manifest: Manifest,
        report: CorpusReport,
        elapsed: float,
    ) -> None:
        record = manifest.units[task.unit.unit_id]
        record.elapsed_s += elapsed
        record.error_type = type(error).__name__
        record.error = str(error)
        if task.attempts <= self.options.max_retries:
            # Exponential backoff: base * 2^(attempt-1).
            delay = self.options.backoff * (2.0 ** (task.attempts - 1))
            task.eligible_at = time.monotonic() + delay
            record.status = "pending"
            pending.append(task)
            return
        record.status = "failed"
        report.outcomes.append(
            UnitOutcome(
                unit=task.unit,
                status="failed",
                attempts=task.attempts,
                error_type=type(error).__name__,
                error=str(error),
            )
        )

    def _finish_failed(
        self,
        task: _Task,
        error_type: str,
        message: str,
        manifest: Manifest,
        report: CorpusReport,
        elapsed: float = 0.0,
    ) -> None:
        """A typed (deterministic) study failure: recorded, never retried."""
        record = manifest.units[task.unit.unit_id]
        record.status = "failed"
        record.error_type = error_type
        record.error = message
        record.elapsed_s += elapsed
        report.outcomes.append(
            UnitOutcome(
                unit=task.unit,
                status="failed",
                attempts=task.attempts,
                error_type=error_type,
                error=message,
            )
        )

    def _finish_completed(
        self,
        task: _Task,
        payload: "dict[str, Any]",
        manifest: Manifest,
        report: CorpusReport,
        elapsed: float = 0.0,
    ) -> None:
        path = self.store.put(self._key(task.unit), payload)
        if self.faults.corrupt_after_write(task.unit.unit_id):
            corrupt_file(path)
        source = "recomputed" if task.recompute else "computed"
        record = manifest.units[task.unit.unit_id]
        record.status = "completed"
        record.source = source
        record.elapsed_s += elapsed
        # A unit that eventually succeeded carries no error; the retry
        # count in ``attempts`` still records the transient deaths.
        record.error_type = ""
        record.error = ""
        report.outcomes.append(
            UnitOutcome(
                unit=task.unit,
                status="completed",
                source=source,
                attempts=task.attempts,
            )
        )


def run_corpus(
    corpus: CorpusSpec,
    store_root: str,
    options: "CorpusOptions | None" = None,
) -> CorpusReport:
    """Convenience one-shot: build a store and runner, execute ``corpus``."""
    store = ResultStore(store_root)
    os.makedirs(store.objects_dir, exist_ok=True)
    return CorpusRunner(corpus, store, options=options).run()
