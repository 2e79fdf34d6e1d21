"""The async multi-worker serving runtime (:class:`RuntimeServer`).

Layers the pieces of :mod:`repro.serve` into a front-end a real request
stream can hit:

* every ``submit`` returns a :class:`concurrent.futures.Future` immediately
  (async from the caller's point of view);
* a :class:`~repro.runtime.batching.MicroBatcher` coalesces requests per
  (model, type) so streams of batch-1 requests ride the batched hot path;
* coalesced batches run on a worker pool — ``workers="thread"`` (default;
  the KD-tree query and the BLAS kernels release the GIL) or ``"serial"``
  (no pool, deterministic in-line execution for debugging and tests);
* backpressure is explicit: a bounded queue rejects overload with
  :class:`~repro.exceptions.QueueFullError` rather than queueing
  unboundedly;
* :meth:`RuntimeServer.refresh` warm-start-refits a model on a grown
  dataset and hot-swaps the artifact in the predictor cache without
  dropping in-flight requests (immutable models: running predicts keep
  their reference, later requests see the new one).

The canonical request/response vocabulary is the versioned wire schema of
:mod:`repro.net.schema`: :meth:`RuntimeServer.serve` /
:meth:`RuntimeServer.submit_request` take a
:class:`~repro.net.schema.PredictRequest` and produce a
:class:`~repro.net.schema.PredictResponse` — the same types the HTTP tier
(:class:`repro.net.NetServer`) moves as JSON.  The historical
``(path, type_name, queries)`` entry points remain as thin keyword-only
adapters over the schema types.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .._validation import check_positive_int
from ..core.schedule import DirtySet
from ..exceptions import (QueueFullError, ServerClosedError, ValidationError,
                          error_code)
from ..net.schema import PredictRequest, PredictResponse
from ..obs import Observability, activate_span
from ..serve.artifact import MMAP_LAYOUT, RHCHMEModel, artifact_layout
from ..serve.extension import Prediction
from ..serve.predictor import BatchPredictor
from ..serve.shards import open_model
from .batching import MicroBatcher, QueuedRequest
from .refresh import RefreshOutcome, refresh_model

__all__ = ["RuntimeStats", "RuntimeServer"]

WORKER_MODES = ("thread", "serial")


@dataclass
class RuntimeStats:
    """Cumulative counters of one :class:`RuntimeServer`."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    batches: int = 0
    objects: int = 0
    max_batch_rows: int = 0
    refreshes: int = 0
    flush_counts: dict[str, int] = field(default_factory=dict)
    # Snapshot-only section, filled by ``RuntimeServer.stats``: the drift
    # detector's per-model windows.  Empty when diagnostics are off.
    drift: dict = field(default_factory=dict)
    # Observability snapshot: per-(model, stage) latency histograms and
    # per-code error counters (always collected), plus whether span
    # tracing is enabled on this server.
    tracing: bool = False
    stages: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    # Refresh telemetry: per-model summary of the last refresh (delta
    # scheduling, types touched, iterations, seconds, agreement proxy)
    # under "models", plus the most recent one under "last".
    refresh: dict = field(default_factory=dict)

    @property
    def mean_batch_rows(self) -> float:
        """Mean coalesced rows per dispatched batch (0 before any batch)."""
        return self.objects / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "batches": self.batches,
            "objects": self.objects,
            "max_batch_rows": self.max_batch_rows,
            "mean_batch_rows": round(self.mean_batch_rows, 3),
            "refreshes": self.refreshes,
            "flush_counts": dict(self.flush_counts),
            "drift": dict(self.drift),
            "tracing": self.tracing,
            "stages": dict(self.stages),
            "errors": dict(self.errors),
            "refresh": dict(self.refresh),
        }


class RuntimeServer:
    """Serve predict requests through micro-batching and a worker pool.

    Parameters
    ----------
    workers:
        ``"thread"`` (shared in-process predictor, GIL-releasing kernels)
        or ``"serial"`` (execute flushes in-line, no pool).
    n_workers:
        Pool size for thread workers (default: CPU count capped at 4).
    max_batch_size, max_delay_seconds, max_pending:
        Micro-batching knobs — see
        :class:`~repro.runtime.batching.MicroBatcher`.  ``max_pending``
        bounds queued rows; beyond it ``submit`` raises
        :class:`~repro.exceptions.QueueFullError`, and a single request
        with more rows raises :class:`~repro.exceptions.ValidationError`.
    diagnostics:
        Score every served batch for covariate drift against the model's
        training fingerprints (forwarded to
        :class:`~repro.serve.BatchPredictor`; ``True`` or a detector-option
        dict enables it).  Scores are reported, never acted on: a model is
        refreshed only when a caller invokes :meth:`refresh`.
    tracing:
        Span tracing for the request path (see :mod:`repro.obs`).
        ``False`` (default) keeps only the always-on stage histograms;
        ``True`` (or a flight-recorder option dict such as
        ``{"capacity": 512, "keep_slowest": 16}``) additionally builds a
        span tree per request and per coalesced batch and retains the
        completed trees in a bounded flight recorder
        (``server.obs.dump_traces()``, or ``GET /v1/traces`` behind
        :class:`repro.net.NetServer`).  Tracing only reads clocks —
        predictions are bit-identical with it on or off.

    Every model is served through one :class:`~repro.serve.BatchPredictor`
    at its defaults (four cached models, 256-row compute batches), which
    serves each artifact the way its layout says: a ``per-type-mmap``
    artifact lazily (only the queried types' arrays are mapped), any
    other layout eagerly.
    """

    def __init__(self, *, workers: str = "thread", n_workers: int | None = None,
                 max_batch_size: int = 256, max_delay_seconds: float = 0.002,
                 max_pending: int = 65536,
                 diagnostics: bool | dict = False,
                 tracing: bool | dict = False) -> None:
        if workers not in WORKER_MODES:
            raise ValidationError(
                f"workers must be one of {WORKER_MODES}, got {workers!r}")
        self.workers = workers
        if n_workers is None:
            n_workers = max(1, min(4, os.cpu_count() or 1))
        self.n_workers = check_positive_int(n_workers, name="n_workers")
        self._refresh_meta: dict[str, dict] = {}
        self._last_refresh: dict | None = None
        self.obs = Observability(tracing=tracing)
        self.predictor = BatchPredictor(diagnostics=diagnostics, obs=self.obs)
        self._executor = (ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-runtime")
            if workers == "thread" else None)
        self._batcher = MicroBatcher(self._run_batch,
                                     max_batch_size=max_batch_size,
                                     max_delay_seconds=max_delay_seconds,
                                     max_pending=max_pending)
        self._lock = threading.Lock()
        self._stats = RuntimeStats()
        # Raw-path -> resolved cache key; Path.resolve touches the
        # filesystem, which would otherwise be paid per batch-1 request.
        self._resolved: dict[str, str] = {}
        self._closed = False

    # -------------------------------------------------------------- submission
    def _resolve(self, path) -> str:
        raw = str(path)
        key = self._resolved.get(raw)
        if key is None:
            key = str(RHCHMEModel.resolve_path(path))
            self._resolved[raw] = key
        return key

    def _submit(self, request: PredictRequest, trace=None) -> Future:
        """Queue one schema request; returns a future of its `Prediction`.

        Raises :class:`~repro.exceptions.ServerClosedError` after
        :meth:`close`, :class:`~repro.exceptions.QueueFullError`
        (backpressure) when the bounded queue is at capacity and
        :class:`~repro.exceptions.ValidationError` when the request alone
        exceeds that capacity.  Shape and type-name validation against the
        artifact happens on the coalesced batch, so a model/type mismatch
        surfaces through the future, not the submit call.  ``trace`` is the
        request's open root span when tracing is on — it rides the queue so
        the dispatch path can record queue-wait and compute children
        against the right tree.
        """
        if self._closed:
            self.obs.count_error("server_closed")
            raise ServerClosedError("RuntimeServer is closed")
        key = (self._resolve(request.model), request.type_name)
        if trace is not None:
            # Spans run on perf_counter; the queue runs on monotonic.
            # Stash the perf-counter enqueue time so queue.wait can be
            # recorded as a child with consistent offsets.
            trace.marks["enqueued"] = time.perf_counter()
        try:
            future = self._batcher.submit(key, request.queries, trace=trace)
        except QueueFullError:
            with self._lock:
                self._stats.rejected += 1
            self.obs.count_error("queue_full")
            raise
        except ValidationError:
            self.obs.count_error("invalid_request")
            raise
        with self._lock:
            self._stats.submitted += 1
        return future

    def submit_request(self, request: PredictRequest, *,
                       trace=None) -> Future:
        """Queue a schema request; returns a future of its `PredictResponse`.

        The canonical asynchronous entry point.  The response echoes the
        request's ``model`` and ``request_id`` and stamps the end-to-end
        ``seconds`` (submit → futures settled).  ``request.batch_size`` is
        ignored here — coalesced batches run at the predictor's default
        batch size (use :class:`~repro.serve.BatchPredictor` directly for
        per-request batch sizing).

        When tracing is enabled and no ``trace`` is passed, this call owns
        the request's span tree: it opens the root here, finishes it when
        the future settles, and stamps the response's ``trace_id``.  A
        caller that already opened a root (the HTTP front-end, which also
        times parse/encode stages) passes it via ``trace`` and keeps
        ownership — the runtime only adds children.
        """
        start = time.perf_counter()
        owned = trace is None and self.obs.tracing
        if owned:
            trace = self.obs.start_request(
                model=request.model, type_name=request.type_name,
                trace_id=request.trace_id, request_id=request.request_id,
                start=start)
        trace_id = trace.trace_id if trace is not None else None
        try:
            inner = self._submit(request, trace=trace)
        except BaseException as exc:
            if owned:
                self.obs.finish(trace, error=exc)
            raise
        outer: Future = Future()

        def _convert(done: Future) -> None:
            exc = done.exception()
            if exc is not None:
                if owned:
                    self.obs.finish(trace, error=exc)
                outer.set_exception(exc)
            else:
                if owned:
                    self.obs.finish(trace)
                outer.set_result(PredictResponse.from_prediction(
                    request, done.result(),
                    seconds=time.perf_counter() - start,
                    trace_id=trace_id))

        inner.add_done_callback(_convert)
        return outer

    def serve(self, request: PredictRequest, *,
              timeout: float | None = None) -> PredictResponse:
        """Serve one schema request synchronously (canonical entry point)."""
        return self.submit_request(request).result(timeout=timeout)

    def submit(self, *, path, type_name: str, queries) -> Future:
        """Queue a predict request; returns a future of its `Prediction`.

        Keyword adapter over :meth:`submit_request` — builds a
        :class:`~repro.net.schema.PredictRequest` internally.
        """
        return self._submit(PredictRequest(model=str(path),
                                           type_name=str(type_name),
                                           queries=queries))

    def predict(self, *, path, type_name: str, queries,
                timeout: float | None = None) -> Prediction:
        """Synchronous keyword wrapper: ``submit(...).result(timeout)``.

        The canonical API is :meth:`serve` with a
        :class:`~repro.net.schema.PredictRequest`.
        """
        request = PredictRequest(model=str(path), type_name=str(type_name),
                                 queries=queries)
        return self._submit(request).result(timeout=timeout)

    def flush(self) -> int:
        """Force every queued request out now (returns flushed batch count)."""
        return self._batcher.flush()

    # -------------------------------------------------------------- execution
    def _run_batch(self, key: tuple[str, str], batch: list[QueuedRequest]) -> None:
        path, type_name = key
        assemble_start = time.perf_counter()
        if len(batch) == 1:
            stacked = batch[0].queries
        else:
            stacked = np.concatenate([request.queries for request in batch])
        self.obs.observe_stage(path, "batch.assemble",
                               time.perf_counter() - assemble_start)
        with self._lock:
            self._stats.batches += 1
            self._stats.objects += int(stacked.shape[0])
            self._stats.max_batch_rows = max(self._stats.max_batch_rows,
                                             stacked.shape[0])
        batch_span = None
        if self.obs.tracing:
            traced = [r for r in batch if r.trace is not None]
            if traced:
                batch_span = self.obs.start_batch(
                    model=path, type_name=type_name,
                    member_trace_ids=[r.trace.trace_id for r in traced],
                    start=assemble_start)
                batch_span.record("batch.assemble", assemble_start,
                                  time.perf_counter(),
                                  rows=int(stacked.shape[0]),
                                  n_requests=len(batch))
                for request in traced:
                    request.trace.annotate(batch_span_id=batch_span.span_id)
        if self._executor is None:
            try:
                prediction = self._execute(key, batch, stacked, batch_span)
            except BaseException as exc:  # noqa: BLE001 - routed into futures
                self._fail(batch, exc)
                self.obs.finish(batch_span, error=exc)
            else:
                self._settle(batch, prediction)
                self.obs.finish(batch_span)
            return
        worker_future = self._executor.submit(
            self._execute, key, batch, stacked, batch_span)
        worker_future.add_done_callback(
            lambda done: self._finish(batch, done, batch_span))

    def _execute(self, key: tuple[str, str], batch: list[QueuedRequest],
                 stacked: np.ndarray, batch_span=None) -> Prediction:
        """Record queue/compute stages and run the stacked predict.

        Runs on the compute thread (in-line under ``workers="serial"``, a
        pool thread under ``"thread"``), so queue.wait naturally includes
        the executor's own queueing and compute.predict starts exactly
        when the numerics do.  The batch span is activated around the
        predict so the predictor (and the out-of-sample extension under
        it) can attach children via :func:`repro.obs.current_span`.
        """
        path, type_name = key
        now_monotonic = time.monotonic()
        now = time.perf_counter()
        for request in batch:
            self.obs.observe_stage(path, "queue.wait",
                                   now_monotonic - request.enqueued_at)
            if request.trace is not None:
                request.trace.record(
                    "queue.wait",
                    request.trace.marks.get("enqueued", now), now)
        compute_start = time.perf_counter()
        with activate_span(batch_span):
            prediction = self.predictor.serve(PredictRequest(
                model=path, type_name=type_name,
                queries=stacked)).to_prediction()
        compute_end = time.perf_counter()
        # Copy the batch's compute window onto each member's trace.
        for request in batch:
            if request.trace is not None:
                attributes = {"rows": request.n_rows,
                              "batch_rows": int(stacked.shape[0])}
                if batch_span is not None:
                    attributes["batch_span_id"] = batch_span.span_id
                request.trace.record("compute.predict", compute_start,
                                     compute_end, **attributes)
        return prediction

    def _finish(self, batch: list[QueuedRequest], done: Future,
                batch_span=None) -> None:
        exc = done.exception()
        if exc is not None:
            self._fail(batch, exc)
        else:
            self._settle(batch, done.result())
        self.obs.finish(batch_span, error=exc)

    def _settle(self, batch: list[QueuedRequest],
                prediction: Prediction) -> None:
        start = 0
        for request in batch:
            stop = start + request.n_rows
            # A caller may have cancelled its future while the batch was in
            # flight; settling it would raise InvalidStateError and strand
            # every later request of the batch.
            if not request.future.done():
                mass = (None if prediction.affinity_mass is None
                        else prediction.affinity_mass[start:stop])
                request.future.set_result(Prediction(
                    labels=prediction.labels[start:stop],
                    membership=prediction.membership[start:stop],
                    n_batches=prediction.n_batches,
                    affinity_mass=mass))
            start = stop
        with self._lock:
            self._stats.completed += len(batch)

    def _fail(self, batch: list[QueuedRequest], exc: BaseException) -> None:
        code = error_code(exc)
        for request in batch:
            self.obs.count_error(code)
            if not request.future.done():
                request.future.set_exception(exc)
        with self._lock:
            self._stats.failed += len(batch)

    # --------------------------------------------------------------- refreshing
    def refresh(self, path, data, *, save: bool = True, dirty=None,
                validate: str | None = None, **overrides) -> RefreshOutcome:
        """Incrementally refit the artifact at ``path`` on a grown dataset.

        Warm-starts a refit from the artifact's current G/S/E_R blocks (see
        :func:`repro.runtime.refresh.refresh_model`), optionally saves the
        refreshed artifact back to ``path`` — a monolithic artifact as
        monolithic, any sharded one (legacy ``per-type`` npz included) as
        ``per-type-mmap``, whose save deletes the old shard files — and
        hot-swaps the model in the predictor cache.  In-flight requests are
        not dropped: they hold a reference to the old immutable model and
        complete against it; requests dispatched after the swap see the new
        model.  ``overrides`` are config overrides for the refit (e.g.
        ``max_iter=10``).

        ``dirty`` schedules a delta refit: a
        :class:`~repro.core.schedule.DirtySet`, ``"auto"`` (the types
        that grew in ``data``) or ``None`` (default) for a full warm-start
        refit.  ``validate`` defaults per layout: ``"shapes"`` on a
        ``per-type-mmap`` artifact (whose clean feature arrays must stay
        unpaged — the model is opened lazily by ``open_model``, with the
        types of an explicit ``DirtySet`` promoted), ``"full"`` otherwise.

        With ``save=False`` the refreshed model is published to the
        in-process cache only.
        """
        layout = artifact_layout(RHCHMEModel.read_metadata(path))
        if validate is None:
            validate = "shapes" if layout == MMAP_LAYOUT else "full"
        model = open_model(path)
        if model.reader is not None and isinstance(dirty, DirtySet):
            for name in sorted(dirty.types):
                model.reader.promote(name)
        try:
            outcome = refresh_model(model, data, dirty=dirty,
                                    validate=validate, **overrides)
            if save:
                # A cached lazy model may still serve in-flight requests
                # and lazily open shards while the files are rewritten
                # below; make its remaining shards resident first so it
                # never touches the disk again.  (The refreshed-from model
                # survives the rewrite: promoted arrays are copies, and
                # the atomic renames keep its mapped inodes alive.)
                cached = self.predictor.peek_model(path)
                if cached is not None and cached.reader is not None:
                    cached.reader.preload()
                outcome.model.save(path, shards=(
                    "monolithic" if layout == "monolithic" else MMAP_LAYOUT))
        finally:
            if model.reader is not None:
                model.reader.close()
        self.predictor.put_model(path, outcome.model)
        telemetry = outcome.telemetry()
        with self._lock:
            self._stats.refreshes += 1
            self._refresh_meta[self._resolve(path)] = telemetry
            self._last_refresh = telemetry
        return outcome

    # --------------------------------------------------------------- lifecycle
    def close(self, *, timeout: float = 10.0, drain: bool = True) -> None:
        """Stop the batcher and shut the pool down.

        With ``drain=True`` (default) queued batches are flushed first;
        with ``drain=False`` they are cancelled immediately.  Either way,
        requests still queued when the batcher stops (including those a
        stalled drain could not flush within ``timeout``) settle with a
        typed :class:`~repro.exceptions.ServerClosedError` — no future is
        ever orphaned by shutdown.
        """
        if self._closed:
            return
        self._closed = True
        self._batcher.close(timeout=timeout, drain=drain)
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "RuntimeServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- inspection
    @property
    def stats(self) -> RuntimeStats:
        """Snapshot of the runtime counters.

        Flush counts and the drift detector's per-model windows (when
        diagnostics are on) are folded into the snapshot's
        ``flush_counts`` / ``drift`` sections.
        """
        with self._lock:
            snapshot = RuntimeStats(**{
                name: getattr(self._stats, name)
                for name in ("submitted", "completed", "failed", "rejected",
                             "batches", "objects", "max_batch_rows",
                             "refreshes")})
        snapshot.flush_counts = self._batcher.flush_counts
        if self.predictor.diagnostics:
            snapshot.drift = self.predictor.drift_snapshot()
        snapshot.tracing = self.obs.tracing
        snapshot.stages = self.obs.metrics.snapshot_stages()
        snapshot.errors = self.obs.metrics.snapshot_errors()
        with self._lock:
            snapshot.refresh = {"models": {p: dict(t) for p, t
                                           in self._refresh_meta.items()},
                                "last": (dict(self._last_refresh)
                                         if self._last_refresh else None)}
        return snapshot

    @property
    def pending_rows(self) -> int:
        """Rows currently queued in the micro-batcher."""
        return self._batcher.pending_rows
