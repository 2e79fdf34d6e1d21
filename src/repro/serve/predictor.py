"""The batch-serving front-end: cached models, validation, counters.

:class:`BatchPredictor` is the process-level entry point a serving loop
talks to.  It keeps an LRU cache of loaded model artifacts keyed by their
resolved path (reloading a several-hundred-megabyte npz per request would
dominate latency), validates every request's type name and feature
dimensionality before any numerics run, and maintains simple
latency/throughput counters (requests, objects, wall-clock seconds, cache
hits/evictions/misses) that a scraper can export.

The predictor is thread-safe: the model cache and the counters are guarded
by one lock, so it can sit behind the :mod:`repro.runtime` worker pool —
the numerical predict itself runs outside the lock and the underlying
artifacts are immutable, so concurrent predicts against the same model do
not serialise.  Each artifact is opened by
:func:`repro.serve.shards.open_model` as an :class:`RHCHMEModel`: lazily
for a ``per-type-mmap`` artifact, so a process serving one type only maps
that type's arrays (and S and E_R); eagerly for any other layout.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from .._validation import check_positive_int
from ..diagnostics.drift import DriftDetector
from ..obs import activate_span, current_span
from .artifact import RHCHMEModel
from .extension import Prediction
from .shards import open_model

__all__ = ["ServingStats", "BatchPredictor"]

# Cache sentinel distinguishing "detector not built yet" from "model has no
# featured type" (stored as None so the probe is not repeated per request).
_UNSET = object()


@dataclass
class ServingStats:
    """Cumulative serving counters of one :class:`BatchPredictor`."""

    requests: int = 0
    objects: int = 0
    seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    last_latency_seconds: float = 0.0
    per_type_objects: dict[str, int] = field(default_factory=dict)

    @property
    def objects_per_second(self) -> float:
        """Cumulative predict throughput (0 before the first request)."""
        return self.objects / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict:
        """Plain-dictionary snapshot for logs and metric exporters."""
        return {
            "requests": self.requests,
            "objects": self.objects,
            "seconds": round(self.seconds, 6),
            "objects_per_second": round(self.objects_per_second, 3),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "last_latency_seconds": round(self.last_latency_seconds, 6),
            "per_type_objects": dict(self.per_type_objects),
        }


class BatchPredictor:
    """Serve out-of-sample predictions from persisted model artifacts.

    Parameters
    ----------
    cache_size:
        Maximum number of loaded models kept in memory; the least recently
        used artifact is evicted when a new one would exceed the bound.
    default_batch_size:
        Micro-batch size used when a request does not specify one.
    diagnostics:
        Score every served batch against the model's training fingerprints
        with a :class:`repro.diagnostics.DriftDetector` (one per cached
        model, dropped with it).  ``False`` (default) skips scoring
        entirely; ``True`` enables it with the detector defaults; a dict
        enables it and is forwarded as detector options (e.g.
        ``{"min_rows": 32}``).  The first scored batch of each type builds
        that type's fingerprint from the model's training features (a
        bounded 512-row sample); after that, scoring is O(batch) counting
        against it.  Models with no featured type are skipped.
    obs:
        Optional :class:`repro.obs.Observability` hub to record the
        ``compute.predict`` stage into (the runtime passes its own, so the
        numerics window lands in the same histograms as the queue and
        wire stages).  When the hub has tracing on and a span is active
        (the runtime activates the batch span around the predict), a
        ``compute.predict`` child is attached under it and the
        out-of-sample extension nests its own children below that.
    """

    def __init__(self, *, cache_size: int = 4,
                 default_batch_size: int = 256,
                 diagnostics: bool | dict = False,
                 obs=None) -> None:
        self.cache_size = check_positive_int(cache_size, name="cache_size")
        self.default_batch_size = check_positive_int(default_batch_size,
                                                     name="default_batch_size")
        self.obs = obs
        self.diagnostics = isinstance(diagnostics, dict) or bool(diagnostics)
        self._detector_options: dict = (dict(diagnostics)
                                        if isinstance(diagnostics, dict) else {})
        self._detectors: dict[str, DriftDetector | None] = {}
        self._models: OrderedDict[str, RHCHMEModel] = OrderedDict()
        # RLock: public methods that take the lock may call each other.
        self._lock = threading.RLock()
        # Per-key locks serialising cold loads: a burst of first requests
        # for one model decompresses it once (single-flight) without the
        # load blocking cache hits for *other* models behind the global
        # lock — the global lock only ever guards dictionary operations.
        self._load_locks: dict[str, threading.Lock] = {}
        self.stats = ServingStats()

    # ------------------------------------------------------------ model cache
    def get_model(self, path) -> RHCHMEModel:
        """Return the model at ``path``, opening it on first use (LRU).

        The artifact is opened by :func:`~repro.serve.shards.open_model`:
        lazily for ``per-type-mmap``, eagerly otherwise.  Cache keys are
        canonical resolved paths, so different spellings of the same
        artifact (``model``, ``model.npz``, ``./model.npz``) share one
        cache entry.  Cold loads are single-flight per key and do not hold
        the global cache lock, so a multi-second load of one model never
        stalls cache hits for the models already resident.
        """
        key = str(RHCHMEModel.resolve_path(path))
        with self._lock:
            model = self._models.get(key)
            if model is not None:
                self._models.move_to_end(key)
                self.stats.cache_hits += 1
                return model
            load_lock = self._load_locks.setdefault(key, threading.Lock())
        with load_lock:
            with self._lock:
                model = self._models.get(key)
                if model is not None:  # loaded while we waited on the lock
                    self._models.move_to_end(key)
                    self.stats.cache_hits += 1
                    return model
            model = open_model(path)
            with self._lock:
                self.stats.cache_misses += 1
                self._store_locked(key, model)
                self._load_locks.pop(key, None)
        return model

    def peek_model(self, path) -> RHCHMEModel | None:
        """Return the cached model for ``path`` without loading or counting.

        ``None`` when the artifact is not resident; never touches the disk
        and does not update the LRU order or the hit/miss counters.
        """
        with self._lock:
            return self._models.get(str(RHCHMEModel.resolve_path(path)))

    def put_model(self, path, model) -> None:
        """Insert (or hot-swap) a loaded model under ``path``'s cache key.

        Used by the runtime's ``refresh()`` to publish a refitted artifact
        atomically: requests already executing keep their reference to the
        old immutable model and finish normally; every request that resolves
        the path after this call sees the new one.
        """
        key = str(RHCHMEModel.resolve_path(path))
        with self._lock:
            self._models.pop(key, None)
            # Drop the old detector: post-swap batches are scored against
            # fingerprints built from the new model's features.
            self._detectors.pop(key, None)
            self._store_locked(key, model)

    def _store_locked(self, key: str, model) -> None:
        self._models[key] = model
        while len(self._models) > self.cache_size:
            evicted, _ = self._models.popitem(last=False)
            # A detector holds its model to fingerprint it lazily.
            self._detectors.pop(evicted, None)
            self.stats.cache_evictions += 1

    def evict(self, path=None) -> None:
        """Drop one cached model (or the whole cache with ``path=None``)."""
        with self._lock:
            if path is None:
                self._models.clear()
                self._detectors.clear()
            else:
                key = str(RHCHMEModel.resolve_path(path))
                self._models.pop(key, None)
                self._detectors.pop(key, None)

    @property
    def cached_models(self) -> list[str]:
        """Paths of the currently cached models, least recently used first."""
        with self._lock:
            return list(self._models)

    # -------------------------------------------------------------- prediction
    def serve(self, request) -> "PredictResponse":
        """Serve one :class:`~repro.net.schema.PredictRequest` (canonical).

        ``request.model`` is the artifact path (resolved through the LRU
        cache).  Validates the type name and query feature dimensionality
        against the artifact (raising
        :class:`~repro.exceptions.ValidationError` on mismatch) before
        running the out-of-sample extension, folds the request into the
        cumulative serving counters and returns a
        :class:`~repro.net.schema.PredictResponse` echoing the request's
        ``request_id``.
        """
        from ..net.schema import PredictResponse

        model = self.get_model(request.model)
        batch_size = request.batch_size or self.default_batch_size
        parent = current_span() if (self.obs is not None
                                    and self.obs.tracing) else None
        span = (None if parent is None
                else parent.child("compute.predict", type=request.type_name,
                                  rows=int(request.queries.shape[0]),
                                  batch_size=int(batch_size)))
        start = time.perf_counter()
        try:
            with activate_span(span):
                prediction = model.predict(request.type_name, request.queries,
                                           batch_size=batch_size)
        except BaseException as exc:
            if span is not None:
                span.finish(error=exc)
            raise
        elapsed = time.perf_counter() - start
        if span is not None:
            span.finish()
        if self.obs is not None:
            self.obs.observe_stage(str(request.model), "compute.predict",
                                   elapsed)
        if self.diagnostics:
            self._observe_drift(request, model, prediction)
        with self._lock:
            self.stats.requests += 1
            self.stats.objects += prediction.n_queries
            self.stats.seconds += elapsed
            self.stats.last_latency_seconds = elapsed
            self.stats.per_type_objects[request.type_name] = (
                self.stats.per_type_objects.get(request.type_name, 0)
                + prediction.n_queries)
        return PredictResponse.from_prediction(request, prediction,
                                               seconds=elapsed)

    # -------------------------------------------------------- drift scoring
    def _detector_for(self, key: str, model) -> DriftDetector | None:
        with self._lock:
            detector = self._detectors.get(key, _UNSET)
            if detector is _UNSET:
                detector = DriftDetector.from_model(model,
                                                    **self._detector_options)
                self._detectors[key] = detector
        return detector

    def _observe_drift(self, request, model, prediction) -> None:
        key = str(RHCHMEModel.resolve_path(request.model))
        detector = self._detector_for(key, model)
        if detector is not None:
            detector.observe(request.type_name, request.queries,
                             affinity_mass=prediction.affinity_mass)

    def drift_snapshot(self) -> dict:
        """Per-model drift-score snapshot, keyed by resolved artifact path.

        Values are the per-type :meth:`DriftDetector.snapshot` documents of
        every cached model that has been scored at least once; models with
        no featured type are omitted.
        """
        with self._lock:
            detectors = {key: det for key, det in self._detectors.items()
                         if det is not None and det is not _UNSET}
        return {key: det.snapshot() for key, det in detectors.items()}

    def predict(self, *, path, type_name: str, X_new,
                batch_size: int | None = None) -> Prediction:
        """Predict labels for new objects against the model at ``path``.

        Keyword adapter over :meth:`serve` — builds a
        :class:`~repro.net.schema.PredictRequest` internally and unwraps
        the response to a plain :class:`~repro.serve.Prediction`.
        """
        from ..net.schema import PredictRequest

        request = PredictRequest(model=str(path), type_name=str(type_name),
                                 queries=X_new, batch_size=batch_size)
        return self.serve(request).to_prediction()
