"""Lazy, per-type access to ``per-type-mmap`` model artifacts.

A monolithic :class:`~repro.serve.artifact.RHCHMEModel` load decompresses
every array of every type.  For a serving process that only ever answers
queries for one object type that is pure waste: the out-of-sample extension
needs nothing beyond that type's training features and membership block —
not the association matrix, not the error matrix, not any other type.

:class:`ShardedModelReader` fronts an artifact written with
``save(path, shards="per-type-mmap")`` and loads arrays *on demand*: each
array is its own raw ``.npy`` file opened with ``mmap_mode="r"`` on first
touch, so the OS pages in only the bytes a predict reads, and the global
shard (S and E_R) is never touched by prediction at all.  :meth:`promote`
upgrades chosen shards to in-memory copies (the copy-on-write boundary a
delta-scheduled refresh needs before the artifact is rewritten underneath
the maps).  Every file open is recorded in :attr:`shard_loads` and
:meth:`cache_info` reports byte-level residency, so tests and benchmarks
can assert partial-load claims with manifest accounting instead of trusting
timings.

:func:`open_model` dispatches on the artifact's layout alone: a
``per-type-mmap`` artifact is served through this reader, any other layout
(monolithic, legacy ``per-type`` npz) is loaded eagerly.  Both objects
expose the same ``predict``/``type_info`` surface, so
:class:`repro.serve.BatchPredictor` and the runtime serve through either
interchangeably.  The reader is thread-safe (array loads and index builds
are single-flight under a lock) and a context manager (``close()`` releases
every open memory map deterministically).
"""

from __future__ import annotations

import threading

import numpy as np

from ..exceptions import ArtifactError, ValidationError
from ..graph.neighbors import QueryIndex
from ..linalg.backend import resolve_backend
from ..linalg.rowsparse import RowSparseMatrix
from .artifact import (GLOBAL_SHARD, MMAP_LAYOUT, RHCHMEModel, TypeInfo,
                       artifact_layout, check_query_features,
                       error_matrix_npz_keys, read_error_matrix)
from .extension import Prediction, out_of_sample_predict

__all__ = ["ShardedModelReader", "open_model"]


class ShardedModelReader:
    """Serve out-of-sample predictions from a ``per-type-mmap`` artifact.

    Parameters
    ----------
    path:
        The artifact handle (the same ``model.npz`` path the monolithic API
        uses); its sidecar must carry a ``per-type-mmap`` shards manifest.
        Any other layout — monolithic, or a legacy ``per-type`` npz
        artifact — is refused with :class:`~repro.exceptions.ArtifactError`
        (load it eagerly with :meth:`RHCHMEModel.load` instead).  Arrays
        are opened as read-only memory maps until they are promoted.

    Attributes
    ----------
    shard_loads:
        Mapping from shard key (type name or ``"global"``) to how many
        array files were opened for it: one per array file for the lifetime
        of the reader unless :meth:`evict` drops it.
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
        self._query_indexes: dict[str, QueryIndex] = {}
        self._closed = False
        self.shard_loads: dict[str, int] = {}

    # -------------------------------------------------------------- accessors
    @property
    def type_names(self) -> list[str]:
        """Names of the captured object types in block order."""
        return [t.name for t in self.types]

    @property
    def layout(self) -> str:
        """On-disk shard layout (always ``"per-type-mmap"``)."""
        return MMAP_LAYOUT

    def type_info(self, name: str) -> TypeInfo:
        """Return the :class:`TypeInfo` of the named type (metadata only)."""
        for info in self.types:
            if info.name == name:
                return info
        raise ValidationError(
            f"unknown object type {name!r}; known types: {self.type_names}")

    @property
    def loaded_types(self) -> list[str]:
        """Type names with at least one resident array, in load order."""
        seen: list[str] = []
        for shard, _key in self._array_cache:
            if shard != GLOBAL_SHARD and shard not in seen:
                seen.append(shard)
        return seen

    def accounting(self) -> dict:
        """Manifest accounting snapshot for partial-load assertions."""
        return {
            "n_types": len(self.types),
            "n_shards_on_disk": sum(len(entries) for entries
                                    in self._array_paths.values()),
            "loaded_types": self.loaded_types,
            "global_loaded": any(shard == GLOBAL_SHARD
                                 for shard, _key in self._array_cache),
            "shard_loads": dict(self.shard_loads),
        }

    def info(self) -> dict:
        """The artifact's sidecar metadata (includes the shards manifest)."""
        return dict(self._sidecar)

    @property
    def diagnostics(self) -> dict | None:
        """The sidecar's ``diagnostics`` section (``None`` when absent).

        Metadata-only — reading it never touches an array shard, so a
        drift detector can be built for a model whose shards are still
        cold.  Same shape as :attr:`RHCHMEModel.diagnostics`.
        """
        return self._sidecar.get("diagnostics")

    # ----------------------------------------------------------- lazy loading
    def _check_open(self) -> None:
        if self._closed:
            raise ArtifactError(
                f"reader for {self._path} is closed; open a new "
                "ShardedModelReader (or ModelView) to read it again")

    def _count_load(self, key: str) -> None:
        self.shard_loads[key] = self.shard_loads.get(key, 0) + 1

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
            self._count_load(shard)
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

    def query_index(self, type_name: str) -> QueryIndex:
        """Cached neighbour-search index of one type (single-flight build)."""
        index = self._query_indexes.get(type_name)
        if index is None:
            features = self.features(type_name)
            with self._lock:
                index = self._query_indexes.get(type_name)
                if index is None:
                    index = QueryIndex(features)
                    self._query_indexes[type_name] = index
        return index

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
            shards = [GLOBAL_SHARD] + self.type_names
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
                self.query_index(info.name)
        _ = self.association
        _ = self.error_matrix

    def evict(self, type_name: str | None = None) -> None:
        """Drop one type's resident arrays (or all arrays with ``None``).

        Open memory maps of evicted arrays stay tracked and are released
        by :meth:`close`; eviction only drops the reader's references so a
        later access re-reads (and re-maps) from disk.
        """
        with self._lock:
            if type_name is None:
                self._array_cache.clear()
                self._query_indexes.clear()
            else:
                self._query_indexes.pop(type_name, None)
                for shard, key in list(self._array_cache):
                    if shard == type_name:
                        del self._array_cache[(shard, key)]

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
            self._query_indexes.clear()
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
        ``"mapped"`` or ``"resident"``.
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
                "mapped_bytes": mapped, "loads": dict(self.shard_loads),
                "promoted": sorted(self._promoted), "closed": self._closed}

    # ------------------------------------------------------------- prediction
    def predict(self, type_name: str, X_new, *,
                batch_size: int = 256) -> Prediction:
        """Assign new objects of ``type_name`` out of sample.

        Identical numerics to :meth:`RHCHMEModel.predict` — the same
        blocks feed the same extension — but only ``type_name``'s arrays
        are ever read from disk.
        """
        info = self.type_info(type_name)
        X_new = check_query_features(info, X_new)
        resolved = resolve_backend(self.config.backend,
                                   n_objects=info.n_objects)
        return out_of_sample_predict(
            self.features(type_name), self.membership(type_name), X_new,
            p=self.config.p, weighting=self.config.weighting,
            backend=resolved, batch_size=batch_size,
            index=self.query_index(type_name))

    def to_model(self) -> RHCHMEModel:
        """Load every array and return the equivalent eager model."""
        return RHCHMEModel.load(self._path)


def open_model(path):
    """Open an artifact the way its layout says it is served.

    A ``per-type-mmap`` artifact is opened as a :class:`ShardedModelReader`
    (only queried types' arrays are mapped); any other layout — monolithic
    or legacy ``per-type`` npz — is loaded eagerly as an
    :class:`~repro.serve.artifact.RHCHMEModel`.  Both returned objects
    share the ``predict``/``type_info``/``type_names`` serving surface.
    """
    if artifact_layout(RHCHMEModel.read_metadata(path)) == MMAP_LAYOUT:
        return ShardedModelReader(path)
    return RHCHMEModel.load(path)
