"""Refresh a fitted model directly from an append-only object log.

Glue between the two halves of the streaming engine: the durable growth
delta (:class:`~repro.stream.log.ObjectLog`) and the delta-scheduled
warm-start refit (:func:`~repro.runtime.refresh.refresh_model`).  One call
materialises the log's current dataset, derives the dirty set from the
appended segments (object growth *and* edge appends — an edge-only append
grows no type but still dirties both endpoints), and runs the refresh.
"""

from __future__ import annotations

from ..core.schedule import DirtySet
from ..exceptions import ValidationError
from .log import ObjectLog

__all__ = ["refresh_from_log"]


def refresh_from_log(model, log: ObjectLog, *, since: int | None = None,
                     dirty="auto", validate: str = "shapes", **overrides):
    """Warm-start refit ``model`` on the log's current dataset.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.serve.RHCHMEModel` (eager or lazily
        mapped, e.g. a :class:`~repro.stream.view.ModelView`'s ``.model``),
        or a path to load one from.
    log:
        The append-only object log holding base + growth.
    since:
        Log version the model was last fitted at.  When given, the dirty
        set is derived from the log's segments in ``(since, head]`` —
        including edge-only appends, which grow no type but dirty both
        endpoints of their relation.  When ``None``, ``dirty="auto"``
        falls back to the growth the refresh itself observes (model sizes
        vs dataset sizes), which cannot see edge-only appends.
    dirty:
        ``"auto"`` (default) derives the schedule as above; a
        :class:`~repro.core.schedule.DirtySet` is passed through; ``None``
        forces the full warm-start refit.
    validate:
        Defaults to ``"shapes"`` — the log guarantees the append-only
        prefix property by construction, and skipping the element-wise
        prefix check keeps an mmap-opened model's clean types unpaged.
    overrides:
        Config overrides for the refit (e.g. ``max_iter=10``).

    Returns
    -------
    RefreshOutcome
        See :func:`repro.runtime.refresh.refresh_model`.  The outcome's
        telemetry plus ``log.version`` is what a caller should persist to
        pass as ``since`` next time.
    """
    # Imported lazily: repro.runtime pulls in the serving/worker stack,
    # which a log-only writer process never needs.
    from ..runtime.refresh import refresh_model

    if not isinstance(log, ObjectLog):
        raise ValidationError(
            f"log must be an ObjectLog, got {type(log).__name__}")
    data = log.dataset()
    if since is not None and isinstance(dirty, str) and dirty == "auto":
        dirty = log.delta_since(since).dirty_set()
    elif dirty is not None and not isinstance(dirty, (DirtySet, str)):
        raise ValidationError(
            f'dirty must be a DirtySet, "auto" or None, got '
            f"{type(dirty).__name__}")
    return refresh_model(model, data, dirty=dirty, validate=validate,
                         **overrides)
