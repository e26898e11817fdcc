"""Request coalescing: concurrent cost queries share one worker.

``ThreadingHTTPServer`` gives every connection its own thread.  Left
alone, N concurrent ``POST /v1/cost`` handlers would contend for the
state lock one evaluation at a time.  :class:`CostBatcher` funnels
them through a bounded queue instead: a single worker thread blocks for
the first request, then takes whatever else is already queued — no
window, no size cap — and prices the batch with one call into
:class:`repro.service.state.ServiceState`, under its lock.  A lone
request is dispatched at once; a batch is what piled up while the
worker was busy.  The bounded queue is the service's admission control:
a full queue raises :class:`QueueFullError`, which the HTTP layer maps
to 503.

Correctness stance: every request in a batch is priced by the same
``evaluate_cost`` the CLI runs, so a request's result is bit-identical
whether it arrived alone or with a hundred others (asserted by
``tests/test_service_concurrency.py``).  Handlers block on a
per-request :class:`concurrent.futures.Future`, and outcomes are per
request: a bad design point fails only its own future.
"""

from __future__ import annotations

import concurrent.futures
import queue
import threading
from typing import TYPE_CHECKING

from repro.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.schemas import CostRequest, CostResult
    from repro.service.state import ServiceState

#: Queue slots; submissions beyond this raise rather than buffer
#: unboundedly (the HTTP layer maps the error to 503).
DEFAULT_QUEUE_SIZE = 1024


class BatcherClosed(InvalidParameterError):
    """Raised by :meth:`CostBatcher.submit` after :meth:`close`."""


class QueueFullError(InvalidParameterError):
    """Raised when the bounded request queue is at capacity (the HTTP
    layer maps this to 503, the retryable status)."""


class CostBatcher:
    """One worker thread pricing queued cost requests batch by batch."""

    def __init__(
        self, state: "ServiceState", queue_size: int = DEFAULT_QUEUE_SIZE
    ):
        self.state = state
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._closed = False
        self.batches = 0
        self.batched_requests = 0
        self.largest_batch = 0
        self._worker = threading.Thread(
            target=self._run, name="cost-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------

    def submit(self, request: "CostRequest") -> "concurrent.futures.Future":
        """Enqueue one request; the future resolves to its
        :class:`~repro.service.schemas.CostResult`."""
        if self._closed:
            raise BatcherClosed("cost batcher is closed")
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            self._queue.put_nowait((request, future))
        except queue.Full:
            raise QueueFullError(
                "cost queue is full; retry later"
            ) from None
        return future

    def evaluate(
        self, request: "CostRequest", timeout: float | None = 60.0
    ) -> "CostResult":
        """Submit and wait — the synchronous face handlers call."""
        return self.submit(request).result(timeout=timeout)

    def close(self) -> None:
        """Stop the worker after draining already-queued requests."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._worker.join(timeout=5.0)

    # ------------------------------------------------------------------

    def _collect(self) -> list | None:
        """Block for the first item, then take what is already queued.
        Returns ``None`` on the shutdown sentinel."""
        first = self._queue.get()
        if first is None:
            return None
        items = [first]
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return items
            if item is None:
                # Re-post the sentinel so the run loop sees it after
                # this (final) batch completes.
                self._queue.put(None)
                return items
            items.append(item)

    def _run(self) -> None:
        while True:
            items = self._collect()
            if items is None:
                return
            self.batches += 1
            self.batched_requests += len(items)
            self.largest_batch = max(self.largest_batch, len(items))
            outcomes = self.state.evaluate_cost_batch(
                [request for request, _future in items]
            )
            for (_request, future), outcome in zip(items, outcomes):
                if isinstance(outcome, Exception):
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)

    def stats(self) -> dict[str, int]:
        return {
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "largest_batch": self.largest_batch,
        }


__all__ = [
    "BatcherClosed",
    "CostBatcher",
    "DEFAULT_QUEUE_SIZE",
    "QueueFullError",
]
