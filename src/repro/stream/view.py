"""Lazy model views: a closable ``RHCHMEModel`` over a sharded reader.

A streaming refresh wants the eager-model API (``refresh_model`` takes an
:class:`~repro.serve.artifact.RHCHMEModel`) without the eager-model cost of
loading every array up front.  :func:`open_model_view` opens a
``per-type-mmap`` artifact as the same lazily mapped model
:func:`~repro.serve.shards.open_model` serves, whose
``features``/``membership``/``labels`` mappings fetch arrays through
``model.reader`` on access — a refresh touching one dirty type maps (and
optionally promotes) only that type's arrays, while the clean types'
features never leave the page cache they were never read into.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..serve.artifact import RHCHMEModel
from ..serve.shards import ShardedModelReader, mapped_model

__all__ = ["ModelView", "open_model_view"]


@dataclass
class ModelView:
    """A lazily mapped :class:`RHCHMEModel` that closes like a file.

    ``model`` has the full eager-model API; its array mappings pull from
    ``model.reader``.  Close the view (it is a context manager) when done —
    the model stops being usable once its backing maps are released.
    """

    model: RHCHMEModel

    def cache_info(self) -> dict:
        """Byte-level residency accounting (see ``ShardedModelReader``)."""
        return self.model.reader.cache_info()

    def close(self) -> None:
        """Release the backing reader (memory maps included)."""
        self.model.reader.close()

    def __enter__(self) -> "ModelView":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def open_model_view(path, *, promote=()) -> ModelView:
    """Open a ``per-type-mmap`` artifact as a closable lazy model.

    Parameters
    ----------
    path:
        The artifact handle; any other layout is refused by
        :class:`ShardedModelReader` (load it with :meth:`RHCHMEModel.load`).
    promote:
        Type names whose arrays should be promoted to in-memory copies up
        front (the dirty types of an impending refresh) — promoted arrays
        survive the artifact being rewritten underneath the view.
    """
    reader = ShardedModelReader(path)
    for name in promote:
        reader.promote(name)
    return ModelView(model=mapped_model(reader))
