"""Async multi-worker serving runtime with dynamic micro-batching.

``repro.serve`` made a fitted RHCHME model persistable and servable;
``repro.runtime`` makes it servable *under load*:

* :class:`MicroBatcher` — coalesces streams of small per-type predict
  requests and flushes on max-batch-size or max-latency deadline, so
  concurrent batch-1 traffic shares one batched predict;
* :class:`RuntimeServer` — the async front-end: per-request futures, a
  thread worker pool (``workers="thread"``, or ``"serial"`` for in-line
  execution) and explicit backpressure (bounded queue,
  :class:`~repro.exceptions.QueueFullError`);
* :func:`refresh_model` / :meth:`RuntimeServer.refresh` — incremental
  artifact refresh: when new training objects arrive, a refit warm-starts
  from the fitted G/S/E_R blocks and the refreshed model is hot-swapped
  into the predictor cache without dropping in-flight requests.

Pairs with per-type sharded artifacts (``RHCHMEModel.save(path,
shards="per-type-mmap")``): the runtime opens every artifact with
:func:`repro.serve.open_model`, whose model of such an artifact
memory-maps S and E_R and, of the per-type arrays, only those of the
types it serves.  Other layouts are loaded eagerly.
"""

from .batching import MicroBatcher, QueuedRequest
from .refresh import RefreshOutcome, refresh_model, warm_start_blocks
from .server import RuntimeServer, RuntimeStats

__all__ = [
    "MicroBatcher",
    "QueuedRequest",
    "RefreshOutcome",
    "RuntimeServer",
    "RuntimeStats",
    "refresh_model",
    "warm_start_blocks",
]
