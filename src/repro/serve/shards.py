"""Lazy, per-type access to ``per-type-mmap`` model artifacts.

A monolithic :class:`~repro.serve.artifact.RHCHMEModel` load decompresses
every array of every type.  For a serving process that only ever answers
queries for one object type that is pure waste: the out-of-sample extension
needs nothing beyond that type's training features and membership block.

:class:`ShardedModelReader` is the array store of an artifact written with
``save(path, shards="per-type-mmap")``: each array is its own raw ``.npy``
file, opened with ``mmap_mode="r"`` on first touch, so the OS pages in only
the bytes a caller reads.  :meth:`~ShardedModelReader.promote` upgrades
chosen shards to in-memory copies (the copy-on-write boundary a
delta-scheduled refresh needs before the artifact is rewritten underneath
the maps), and :meth:`~ShardedModelReader.cache_info` reports every file
open and byte-level residency, so tests and benchmarks can assert
partial-load claims with manifest accounting instead of trusting timings.

:func:`open_model` returns an :class:`RHCHMEModel` for every layout.  A
``per-type-mmap`` artifact's model maps S and E_R at open, and its
``features``/``membership``/``labels`` mappings fetch each type's arrays
through the reader (``model.reader``) on access, so a model serving one
type maps only that type's arrays.  Any other layout (monolithic, legacy
``per-type`` npz) is loaded eagerly and has ``model.reader`` ``None``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, Mapping

import numpy as np

from ..exceptions import ArtifactError, ValidationError
from ..linalg.rowsparse import RowSparseMatrix
from .artifact import (GLOBAL_SHARD, MMAP_LAYOUT, RHCHMEModel, TypeInfo,
                       artifact_layout, error_matrix_npz_keys,
                       read_diagnostics, read_error_matrix)

__all__ = ["ShardedModelReader", "open_model"]


class ShardedModelReader:
    """The array store behind a lazily served ``per-type-mmap`` artifact.

    Parameters
    ----------
    path:
        The artifact handle (the same ``model.npz`` path the monolithic API
        uses); its sidecar must carry a ``per-type-mmap`` shards manifest.
        Any other layout — monolithic, or a legacy ``per-type`` npz
        artifact — is refused with :class:`~repro.exceptions.ArtifactError`
        (load it eagerly with :meth:`RHCHMEModel.load` instead).  Arrays
        are opened as read-only memory maps until they are promoted.

    The reader is thread-safe (array loads are single-flight under a lock)
    and a context manager (``close()`` releases every open memory map).
    """

    def __init__(self, path) -> None:
        self._sidecar = RHCHMEModel.read_metadata(path)
        layout = artifact_layout(self._sidecar)
        if layout != MMAP_LAYOUT:
            raise ArtifactError(
                f"artifact at {path} uses the {layout!r} layout; "
                f"ShardedModelReader reads only {MMAP_LAYOUT!r} artifacts — "
                "load it with RHCHMEModel.load")
        self._path = RHCHMEModel.resolve_path(path)
        self._array_paths = RHCHMEModel.mmap_array_paths(path, self._sidecar)
        self.config, self.types = RHCHMEModel.parse_sidecar(self._sidecar)
        self._lock = threading.Lock()
        self._array_cache: dict[tuple[str, str], np.ndarray] = {}
        self._memmaps: list[np.ndarray] = []
        self._promoted: set[str] = set()
        self._loads: dict[str, int] = {}
        self._closed = False

    def type_info(self, name: str) -> TypeInfo:
        """Return the :class:`TypeInfo` of the named type (metadata only)."""
        for info in self.types:
            if info.name == name:
                return info
        raise ValidationError(
            f"unknown object type {name!r}; known types: "
            f"{[info.name for info in self.types]}")

    # ----------------------------------------------------------- lazy loading
    def _check_open(self) -> None:
        if self._closed:
            raise ArtifactError(
                f"reader for {self._path} is closed; open the artifact "
                "again to read it")

    def _get(self, shard: str, key: str) -> np.ndarray:
        """One array, memory-mapped (or read, once promoted) single-flight."""
        self._check_open()
        cached = self._array_cache.get((shard, key))
        if cached is not None:
            return cached
        with self._lock:
            self._check_open()
            cached = self._array_cache.get((shard, key))
            if cached is not None:
                return cached
            try:
                array_path = self._array_paths[shard][key]
            except KeyError:
                raise ArtifactError(
                    f"model arrays at {self._path} do not match the sidecar "
                    f"(no file for {key!r} in shard {shard!r}); the array "
                    "files and json do not describe the same model") from None
            mode = None if shard in self._promoted else "r"
            array = RHCHMEModel.read_npy(array_path, mmap_mode=mode)
            if isinstance(array, np.memmap):
                self._memmaps.append(array)
            self._array_cache[(shard, key)] = array
            self._loads[shard] = self._loads.get(shard, 0) + 1
        return array

    def features(self, type_name: str) -> np.ndarray:
        """Training features of one type (loads/maps that type's array)."""
        info = self.type_info(type_name)
        if info.n_features is None:
            raise ValidationError(
                f"type {type_name!r} was fitted without features")
        return self._get(info.name, f"features::{type_name}")

    def membership(self, type_name: str) -> np.ndarray:
        """Fitted membership block of one type (loads that type's array)."""
        return self._get(self.type_info(type_name).name,
                         f"membership::{type_name}")

    def labels(self, type_name: str) -> np.ndarray:
        """Fitted hard labels of one type (loads that type's array)."""
        raw = self._get(self.type_info(type_name).name,
                        f"labels::{type_name}")
        return np.asarray(raw, dtype=np.int64)

    @property
    def association(self) -> np.ndarray:
        """The fitted association matrix ``S`` (loads the global shard)."""
        return self._get(GLOBAL_SHARD, "association")

    @property
    def error_matrix(self) -> RowSparseMatrix | None:
        """The fitted error matrix ``E_R`` (``None`` when the fit disabled it).

        Row-sparse, exactly as :meth:`RHCHMEModel.load` reconstructs it.
        """
        keys = error_matrix_npz_keys(self._sidecar)
        if not keys:
            return None
        arrays = {key: self._get(GLOBAL_SHARD, key) for key in keys}
        return read_error_matrix(
            arrays, sum(info.n_objects for info in self.types))

    # -------------------------------------------------------- residency moves
    def promote(self, type_name: str | None = None) -> None:
        """Promote shards from memory maps to in-memory copies.

        ``type_name`` promotes one type's arrays; ``None`` promotes every
        shard including the global one.  Promotion is the copy-on-write
        boundary of a streaming refresh: once a dirty type's arrays are
        plain in-memory copies, the artifact files can be rewritten
        underneath the reader without the maps observing torn state.  Future
        lazy loads of a promoted shard read eagerly instead of mapping.
        """
        self._check_open()
        if type_name is None:
            shards = [GLOBAL_SHARD] + [info.name for info in self.types]
        else:
            shards = [self.type_info(type_name).name]
        with self._lock:
            for shard in shards:
                self._promoted.add(shard)
            for (shard, key), array in list(self._array_cache.items()):
                if shard in self._promoted and isinstance(array, np.memmap):
                    self._array_cache[(shard, key)] = np.array(array)

    def preload(self) -> None:
        """Make every array resident in memory now.

        Used before an in-place artifact rewrite (e.g. a runtime refresh):
        once resident, the reader never touches the disk again, so the
        rewrite cannot race its remaining lazy loads.  Everything is
        promoted first, so no memory map remains backed by the files about
        to be replaced.
        """
        self.promote(None)
        for info in self.types:
            self.membership(info.name)
            self.labels(info.name)
            if info.n_features is not None:
                self.features(info.name)
        _ = self.association
        _ = self.error_matrix

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release every open memory map and drop all caches; idempotent.

        After ``close()`` any array access raises
        :class:`~repro.exceptions.ArtifactError`.  Maps whose buffers are
        still referenced elsewhere (a caller kept a slice) are left for the
        garbage collector rather than invalidated under the caller's feet.
        """
        with self._lock:
            self._array_cache.clear()
            maps, self._memmaps = self._memmaps, []
            self._closed = True
        for array in maps:
            mm = getattr(array, "_mmap", None)
            if mm is None:
                continue
            try:
                mm.close()
            except BufferError:
                # an exported view still references the buffer; dropping
                # our reference lets refcounting finalise it later
                pass

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def __enter__(self) -> "ShardedModelReader":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def cache_info(self) -> dict:
        """Byte-level residency accounting of every array file.

        Returns per-array entries (``shard``, ``bytes``, ``mode``) plus the
        totals partial-read assertions gate on: ``total_bytes`` (all array
        files on disk), ``resident_bytes`` (arrays held as in-memory
        copies), ``mapped_bytes`` (arrays held as live memory maps — an
        upper bound on what mapping may page in).  ``mode`` is ``"cold"``,
        ``"mapped"`` or ``"resident"``.  ``loads`` counts the array files
        opened per shard key (type name or ``"global"``).
        """
        arrays: dict[str, dict] = {}
        total = resident = mapped = 0
        for shard, entries in self._array_paths.items():
            for key, array_path in entries.items():
                nbytes = array_path.stat().st_size if array_path.exists() else 0
                total += nbytes
                cached = self._array_cache.get((shard, key))
                if cached is None:
                    mode = "cold"
                elif isinstance(cached, np.memmap):
                    mode = "mapped"
                    mapped += nbytes
                else:
                    mode = "resident"
                    resident += nbytes
                arrays[key] = {"shard": shard, "bytes": nbytes, "mode": mode}
        return {"layout": MMAP_LAYOUT, "arrays": arrays,
                "total_bytes": total, "resident_bytes": resident,
                "mapped_bytes": mapped, "loads": dict(self._loads),
                "promoted": sorted(self._promoted), "closed": self._closed}


class _LazyArrays(Mapping):
    """Read-only mapping that fetches each array through a reader on access.

    It keeps no cache of its own, so a promoted array is seen as the
    in-memory copy the reader now holds.
    """

    def __init__(self, names: list[str],
                 fetch: Callable[[str], np.ndarray]) -> None:
        self._names = list(names)
        self._fetch = fetch

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._names:
            raise KeyError(name)
        return self._fetch(name)

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def mapped_model(reader: ShardedModelReader) -> RHCHMEModel:
    """The :class:`RHCHMEModel` served over ``reader``.

    S and E_R are mapped now; each type's arrays are fetched through the
    reader on access.  The model's ``reader`` is set to ``reader``, whose
    ``close()`` ends the model's use.
    """
    sidecar = reader._sidecar
    names = [info.name for info in reader.types]
    model = RHCHMEModel(
        config=reader.config,
        types=reader.types,
        features=_LazyArrays([info.name for info in reader.types
                              if info.n_features is not None],
                             reader.features),
        membership=_LazyArrays(names, reader.membership),
        labels=_LazyArrays(names, reader.labels),
        association=reader.association,
        error_matrix=reader.error_matrix,
        backend=sidecar.get("backend", "dense"),
        schema_version=int(sidecar["schema_version"]),
        library_version=str(sidecar.get("library_version", "unknown")),
        diagnostics=read_diagnostics(sidecar))
    object.__setattr__(model, "reader", reader)
    return model


def open_model(path) -> RHCHMEModel:
    """Open an artifact the way its layout says it is served.

    A ``per-type-mmap`` artifact is served lazily through a
    :class:`ShardedModelReader` (only queried types' arrays are mapped, see
    :func:`mapped_model`); any other layout — monolithic or legacy
    ``per-type`` npz — is loaded eagerly by :meth:`RHCHMEModel.load`.
    """
    if artifact_layout(RHCHMEModel.read_metadata(path)) == MMAP_LAYOUT:
        return mapped_model(ShardedModelReader(path))
    return RHCHMEModel.load(path)
