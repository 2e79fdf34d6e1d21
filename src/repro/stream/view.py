"""Lazy model views: an ``RHCHMEModel`` facade over a sharded reader.

A streaming refresh wants the eager-model API (``refresh_model`` takes an
:class:`~repro.serve.artifact.RHCHMEModel`) without the eager-model cost of
loading every array up front.  :func:`open_model_view` opens a
``per-type-mmap`` artifact through
:class:`~repro.serve.shards.ShardedModelReader` and wraps it in a model
whose ``features``/``membership``/``labels`` mappings fetch arrays from the
reader on first access — a refresh touching one dirty type maps (and
optionally promotes) only that type's arrays, while the clean types'
features never leave the page cache they were never read into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from ..serve.artifact import RHCHMEModel, SCHEMA_VERSION
from ..serve.shards import ShardedModelReader

__all__ = ["ModelView", "open_model_view"]


class _LazyArrays(Mapping):
    """Read-only mapping fetching arrays from a reader on first access."""

    def __init__(self, names: list[str],
                 fetch: Callable[[str], np.ndarray]) -> None:
        self._names = list(names)
        self._fetch = fetch
        self._cache: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._names:
            raise KeyError(name)
        array = self._cache.get(name)
        if array is None:
            array = self._fetch(name)
            self._cache[name] = array
        return array

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


@dataclass
class ModelView:
    """A lazily-backed :class:`RHCHMEModel` plus the reader behind it.

    ``model`` has the full eager-model API; its array mappings pull from
    ``reader`` on first access.  Close the view (it is a context manager)
    when done — the model facade stops being usable once its backing maps
    are released, exactly like a file object.
    """

    model: RHCHMEModel
    reader: ShardedModelReader

    def cache_info(self) -> dict:
        """Byte-level residency accounting (see ``ShardedModelReader``)."""
        return self.reader.cache_info()

    def close(self) -> None:
        """Release the backing reader (memory maps included)."""
        self.reader.close()

    def __enter__(self) -> "ModelView":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def open_model_view(path, *, promote=()) -> ModelView:
    """Open a ``per-type-mmap`` artifact as a lazily-backed model facade.

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
    type_names = reader.type_names
    feature_names = [info.name for info in reader.types
                     if info.n_features is not None]
    sidecar = reader.info()
    model = RHCHMEModel(
        config=reader.config,
        types=reader.types,
        features=_LazyArrays(feature_names, reader.features),
        membership=_LazyArrays(type_names, reader.membership),
        labels=_LazyArrays(type_names, reader.labels),
        association=reader.association,
        error_matrix=reader.error_matrix,
        backend=sidecar.get("backend", "dense"),
        schema_version=int(sidecar.get("schema_version", SCHEMA_VERSION)),
        library_version=str(sidecar.get("library_version", "unknown")),
        diagnostics=reader.diagnostics)
    return ModelView(model=model, reader=reader)
