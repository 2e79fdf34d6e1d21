"""Dynamic micro-batching: coalesce small predict requests into big ones.

A real request stream arrives as batch-1 requests, and each predict pays a
fixed per-call cost (validation, neighbour-search setup) on top of its
rows.  :class:`MicroBatcher` shares that cost: incoming requests for the
same (model, type) queue up and are flushed as one coalesced batch when
either

* the queued rows reach ``max_batch_size`` (size trigger — flushed
  immediately, on the submitting thread, for minimum latency), or
* the oldest queued request has waited ``max_delay_seconds`` (deadline
  trigger — flushed by the batcher's timer thread, bounding worst-case
  latency for sparse traffic).

Each submitted request carries a :class:`concurrent.futures.Future`; the
consumer (:class:`repro.runtime.RuntimeServer`) resolves the futures with
per-request slices once the coalesced batch has been predicted.

Backpressure is explicit: the batcher bounds the total queued rows and
rejects further submissions with
:class:`~repro.exceptions.QueueFullError` instead of queueing unboundedly —
callers shed load or retry, and a stalled worker pool cannot take the
submitting process down with it.  A single request larger than the whole
bound can never be admitted, so it is refused with a
:class:`~repro.exceptions.ValidationError` instead of a retryable error.

Shutdown never orphans a request: requests still queued when the batcher
closes (or left behind by a stalled drain) have their futures settled with
a typed :class:`~repro.exceptions.ServerClosedError` so callers can fail
over instead of hanging.

The batcher itself never runs numerics; it only moves requests around under
one lock, so submission stays in the microsecond range.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np

from .._validation import check_positive_float, check_positive_int
from ..exceptions import QueueFullError, ServerClosedError, ValidationError

__all__ = ["QueuedRequest", "MicroBatcher"]


@dataclass
class QueuedRequest:
    """One queued predict request awaiting coalescing.

    ``trace`` is the request's open root :class:`repro.obs.Span` when
    tracing is enabled upstream (``None`` otherwise); the batcher never
    touches it — it rides along so the dispatch path can record the
    queue-wait and compute stages against the right tree.
    """

    queries: np.ndarray
    future: Future
    enqueued_at: float
    trace: object | None = None

    @property
    def n_rows(self) -> int:
        return int(self.queries.shape[0])


class MicroBatcher:
    """Coalesce per-key request streams into size- or deadline-bounded batches.

    Parameters
    ----------
    on_batch:
        Callback invoked with ``(key, requests)`` for every flushed batch.
        Called on the submitting thread for size-triggered flushes and on
        the batcher's timer thread for deadline flushes; it must hand the
        actual work off quickly (e.g. to an executor) or accept serialising
        the flush path.
    max_batch_size:
        Queued-row threshold that triggers an immediate flush of one key.
        A single oversized request still flushes as one batch — the
        downstream predict path micro-batches internally, so the threshold
        controls coalescing, not a hard cap.
    max_delay_seconds:
        Upper bound on how long a request may sit in the queue before its
        key is flushed regardless of size.
    max_pending:
        Upper bound on queued rows across all keys; beyond it ``submit``
        raises :class:`~repro.exceptions.QueueFullError`.
    """

    def __init__(self, on_batch: Callable[[Hashable, list[QueuedRequest]], Any],
                 *, max_batch_size: int = 256,
                 max_delay_seconds: float = 0.002,
                 max_pending: int = 65536) -> None:
        self._on_batch = on_batch
        self.max_batch_size = check_positive_int(max_batch_size,
                                                 name="max_batch_size")
        self.max_delay_seconds = check_positive_float(
            max_delay_seconds, name="max_delay_seconds")
        self.max_pending = check_positive_int(max_pending, name="max_pending")
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queues: dict[Hashable, list[QueuedRequest]] = {}
        self._rows: dict[Hashable, int] = {}
        self._pending_rows = 0
        self._closed = False
        self._flush_counts = {"size": 0, "deadline": 0, "manual": 0,
                              "close": 0, "cancelled": 0}
        self._thread = threading.Thread(target=self._run,
                                        name="repro-microbatcher", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------- submission
    def submit(self, key: Hashable, queries: np.ndarray,
               future: Future | None = None, *,
               trace=None) -> Future:
        """Queue one request and return its future.

        Raises :class:`~repro.exceptions.QueueFullError` when accepting the
        request would exceed ``max_pending`` queued rows,
        :class:`~repro.exceptions.ValidationError` when the request alone
        has more than ``max_pending`` rows (no amount of waiting admits
        it), and :class:`~repro.exceptions.ServerClosedError` after
        :meth:`close`.
        """
        if future is None:
            future = Future()
        n_rows = int(queries.shape[0])
        if n_rows > self.max_pending:
            raise ValidationError(
                f"request has {n_rows} rows, more than the micro-batch "
                f"queue's limit of {self.max_pending}; split it into "
                "smaller requests")
        batch = None
        with self._wakeup:
            if self._closed:
                raise ServerClosedError("MicroBatcher is closed")
            if self._pending_rows + n_rows > self.max_pending:
                raise QueueFullError(
                    f"micro-batch queue is full ({self._pending_rows} rows "
                    f"pending, limit {self.max_pending}); retry later or "
                    "shed load")
            self._queues.setdefault(key, []).append(
                QueuedRequest(queries, future, time.monotonic(), trace))
            self._rows[key] = self._rows.get(key, 0) + n_rows
            self._pending_rows += n_rows
            if self._rows[key] >= self.max_batch_size:
                batch = self._pop_locked(key)
                self._flush_counts["size"] += 1
            else:
                self._wakeup.notify()
        if batch is not None:
            self._dispatch(key, batch)
        return future

    # ---------------------------------------------------------------- flushing
    def _pop_locked(self, key: Hashable) -> list[QueuedRequest]:
        batch = self._queues.pop(key)
        self._pending_rows -= self._rows.pop(key)
        return batch

    def _dispatch(self, key: Hashable, batch: list[QueuedRequest]) -> None:
        try:
            self._on_batch(key, batch)
        except BaseException as exc:  # noqa: BLE001 - routed into the futures
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)

    def flush(self) -> int:
        """Flush every queued key now (manual trigger); returns batch count."""
        with self._wakeup:
            due = [(key, self._pop_locked(key)) for key in list(self._queues)]
            self._flush_counts["manual"] += len(due)
        for key, batch in due:
            self._dispatch(key, batch)
        return len(due)

    def _run(self) -> None:
        while True:
            with self._wakeup:
                if self._closed and not self._queues:
                    return
                now = time.monotonic()
                due = []
                next_deadline = None
                for key in list(self._queues):
                    deadline = (self._queues[key][0].enqueued_at
                                + self.max_delay_seconds)
                    if self._closed or deadline <= now:
                        due.append((key, self._pop_locked(key)))
                        self._flush_counts[
                            "close" if self._closed else "deadline"] += 1
                    elif next_deadline is None or deadline < next_deadline:
                        next_deadline = deadline
                if not due:
                    timeout = (None if next_deadline is None
                               else max(0.0, next_deadline - now))
                    self._wakeup.wait(timeout)
                    continue
            for key, batch in due:
                self._dispatch(key, batch)

    # -------------------------------------------------------------- lifecycle
    def close(self, *, timeout: float = 10.0, drain: bool = True) -> None:
        """Stop accepting requests and stop the timer thread.

        With ``drain=True`` (default) every queued batch is flushed to
        ``on_batch`` first; with ``drain=False`` queued requests are
        **cancelled** instead — their futures settle immediately with
        :class:`~repro.exceptions.ServerClosedError`.

        Either way no request is ever orphaned: if the drain cannot finish
        within ``timeout`` (e.g. the downstream pool is stalled), whatever
        is still queued is settled with
        :class:`~repro.exceptions.ServerClosedError` rather than left
        hanging on a future nobody will resolve.
        """
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            if not drain:
                self._cancel_locked()
            self._wakeup.notify()
        self._thread.join(timeout=timeout)
        # Settle anything the timer thread did not get to (it may be stuck
        # dispatching into a stalled pool, or the join timed out first).
        with self._wakeup:
            self._cancel_locked()

    def _cancel_locked(self) -> None:
        for key in list(self._queues):
            for request in self._pop_locked(key):
                if not request.future.done():
                    request.future.set_exception(ServerClosedError(
                        "request cancelled: the server closed before this "
                        "request was dispatched"))
            self._flush_counts["cancelled"] += 1

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------- inspection
    @property
    def pending_rows(self) -> int:
        """Rows currently queued across every key."""
        with self._lock:
            return self._pending_rows

    @property
    def flush_counts(self) -> dict[str, int]:
        """How many flushes each trigger has fired (size/deadline/manual/close)."""
        with self._lock:
            return dict(self._flush_counts)
