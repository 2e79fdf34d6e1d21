"""Streaming growth engine: grow a deployed corpus without full refits.

Three coordinated layers let a served model track an append-only corpus at
a fraction of the cold-refit cost:

* :class:`ObjectLog` / :class:`GrowthDelta` — a durable append-only log of
  growth (new objects with features, new relation edges) whose
  :meth:`~GrowthDelta.dirty_set` names exactly the types a refresh must
  re-optimise;
* :func:`refresh_from_log` — materialise the log's current dataset and run
  a delta-scheduled warm-start refit (clean types' factor blocks stay
  frozen, clean pairs skip their kernels — see
  :class:`~repro.core.schedule.DirtySet` and
  :func:`repro.runtime.refresh.refresh_model`);
* :func:`open_model_view` / :class:`ModelView` — open a
  ``per-type-mmap`` artifact as a closable lazily mapped model whose
  clean types are never paged into memory, with promotion of the dirty
  types' arrays as the copy-on-write boundary before the artifact is
  rewritten.
"""

from ..core.schedule import DirtySet
from .log import GrowthDelta, ObjectLog
from .refresh import refresh_from_log
from .view import ModelView, open_model_view

__all__ = [
    "DirtySet",
    "GrowthDelta",
    "ModelView",
    "ObjectLog",
    "open_model_view",
    "refresh_from_log",
]
