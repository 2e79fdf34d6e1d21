"""The persistable fitted-model artifact (``RHCHMEModel``).

An :class:`RHCHMEModel` freezes everything a serving process needs from one
``RHCHME.fit``: the validated configuration, each type's training features,
the factorisation state (per-type membership blocks ``G_k``, the association
matrix ``S`` and the error matrix ``E_R``), the fitted hard labels, and a
schema/version stamp.  It round-trips exactly through ``save``/``load`` —
arrays in one compressed ``.npz``, metadata in a compact JSON sidecar —
so a model fitted in one process can serve out-of-sample predictions in
another, deterministically.

Artifacts are stamped with :data:`SCHEMA_VERSION`; ``load`` refuses any
artifact whose schema version does not match, raising
:class:`~repro.exceptions.ArtifactError` instead of silently misreading a
foreign layout.

Two on-disk layouts are written, and share one schema version and one
artifact *handle* (the ``model.npz`` path a caller passes around):

* **monolithic** (default) — every array in one compressed ``model.npz``;
  it is the small file, and :meth:`RHCHMEModel.load` reads it eagerly;
* **per-type mmap shards** (``save(path, shards="per-type-mmap")``) — one
  *raw* ``.npy`` file per array (compressed npz members cannot be
  memory-mapped), grouped per type in a ``shards`` manifest inside the JSON
  sidecar.  :func:`repro.serve.shards.open_model` serves it lazily: the
  model's arrays are opened with ``mmap_mode="r"`` through a
  :class:`~repro.serve.shards.ShardedModelReader` (``model.reader``) and
  page in only the bytes they touch, and a streaming refresh promotes just
  the dirty types' arrays to in-memory copies and never reads the clean
  types' features at all.  Every array file is written via temp-file +
  atomic rename, so an open memory map in another process keeps reading
  the old inode while a refresh replaces the file.

A third, legacy layout is only read: **per-type npz shards** (one
compressed ``model.<type>.npz`` per object type plus ``model.global.npz``).
:meth:`RHCHMEModel.load` reassembles it into the same model a monolithic
save round-trips to; ``save`` no longer writes it.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .. import __version__ as _library_version
from .._validation import as_float_array
from ..core.config import RHCHMEConfig
from ..core.state import FactorizationState
from ..exceptions import ArtifactError, ValidationError
from ..graph.neighbors import QueryIndex
from ..linalg.blocks import BlockSpec
from ..linalg.backend import resolve_backend
from ..linalg.rowsparse import RowSparseMatrix, as_row_sparse
from .extension import Prediction, out_of_sample_predict

__all__ = ["SCHEMA_VERSION", "SUPPORTED_SCHEMA_VERSIONS", "SHARD_LAYOUTS",
           "MMAP_LAYOUT", "TypeInfo", "RHCHMEModel", "load_model",
           "artifact_layout", "error_matrix_npz_keys", "read_error_matrix",
           "read_diagnostics"]

#: Version stamp of the on-disk artifact layout.  Bump whenever the npz key
#: set or the sidecar structure changes incompatibly; ``load`` refuses
#: artifacts outside :data:`SUPPORTED_SCHEMA_VERSIONS` outright.
#:
#: Version history:
#:
#: * 1 — original layout; the error matrix, when present, is one dense
#:   ``error_matrix`` array.
#: * 2 — adds the ``row-sparse`` error-matrix layout
#:   (``error_matrix_rows``/``error_matrix_values`` keys plus the
#:   ``error_matrix_layout`` sidecar field).  Version-1 artifacts still
#:   load; version-2 artifacts are refused by version-1 readers with a
#:   clean schema error rather than a misleading corruption message.
#:   Saves write only the row-sparse layout; a ``dense`` one (every
#:   version-1 artifact, and early version-2 dense-backend ones) is
#:   compressed to its non-zero rows on load.
SCHEMA_VERSION = 2

#: Schema versions this library can read.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

_FORMAT = "rhchme-model"

#: The array layouts ``save(..., shards=...)`` writes.  Legacy
#: ``"per-type"`` npz artifacts are read, never written.
SHARD_LAYOUTS = ("monolithic", "per-type-mmap")

#: The raw-``.npy``-per-array layout readable through ``mmap_mode="r"``.
MMAP_LAYOUT = "per-type-mmap"

#: Manifest key of the cross-type shard (association + error matrix).
GLOBAL_SHARD = "global"

#: Sidecar values of ``error_matrix_layout`` (absent on pre-row-sparse
#: artifacts, which are all dense).  Saves write only ``row-sparse``.
ERROR_MATRIX_LAYOUTS = ("dense", "row-sparse")

#: Config keys dropped when a sidecar is read: the retired one-step E
#: update's (the exact prox needs neither), the retired Eq. 9 ADMM's (the
#: exact active set needs neither), the retired top-k thresholding of
#: the subspace affinity (the exact affinity is already sparse) and the
#: retired k-means smoothing (a warm-start refresh never reads it).
#: Serving never read any of them.
_RETIRED_CONFIG_KEYS = ("zeta", "error_row_tol", "subspace_max_iter",
                        "subspace_tol", "subspace_topk", "init_smoothing")

#: Retired config keys that chose the fitted objective, with the one value
#: the fit still uses.  A sidecar holding that value drops the key; any
#: other value is refused, since the loaded config would name an objective
#: the model was not fitted under.
_FIXED_CONFIG_KEYS = {"laplacian_kind": "unnormalized",
                      "normalize_relations": True}

#: Diagnostics keys dropped when a sidecar is read: the drift fingerprints
#: earlier exports stored, which a drift-scoring server now builds from
#: the stored features.  The next save writes the section without them.
_RETIRED_DIAGNOSTICS_KEYS = ("fingerprints",)


def artifact_layout(sidecar: dict) -> str:
    """Array layout named by a validated sidecar (``"monolithic"`` if none)."""
    return (sidecar.get("shards") or {}).get("layout", "monolithic")


def error_matrix_npz_keys(sidecar: dict) -> list[str]:
    """npz keys holding the error matrix described by a validated sidecar.

    The row-sparse layout stores the surviving row indices and their dense
    value block (``error_matrix_rows``/``error_matrix_values``) — for the
    typical all-zero or few-corrupted-rows E_R that is O(k·n) on disk and
    at load time.  A legacy dense layout stores one ``error_matrix``
    array.  Returns an empty list when the artifact has no error matrix.
    """
    if not sidecar.get("has_error_matrix"):
        return []
    layout = sidecar.get("error_matrix_layout", "dense")
    if layout == "row-sparse":
        return ["error_matrix_rows", "error_matrix_values"]
    if layout != "dense":
        raise ArtifactError(
            f"unknown error-matrix layout {layout!r} "
            f"(this library reads {list(ERROR_MATRIX_LAYOUTS)})")
    return ["error_matrix"]


def read_error_matrix(arrays, n_total: int) -> RowSparseMatrix | None:
    """The row-sparse E_R held by an artifact's error-matrix arrays.

    ``arrays`` maps the keys of :func:`error_matrix_npz_keys` to arrays; a
    legacy dense ``error_matrix`` is compressed to its non-zero rows.
    Returns ``None`` when the artifact has no error matrix.
    """
    if "error_matrix_rows" in arrays:
        return RowSparseMatrix(np.asarray(arrays["error_matrix_rows"]),
                               np.asarray(arrays["error_matrix_values"]),
                               (n_total, n_total))
    return as_row_sparse(arrays.get("error_matrix"))


def read_diagnostics(sidecar: dict) -> dict | None:
    """The ``diagnostics`` section a model loaded from ``sidecar`` carries.

    ``None`` when the sidecar predates the section; retired keys are
    dropped.
    """
    section = sidecar.get("diagnostics")
    if section is None:
        return None
    return {key: value for key, value in section.items()
            if key not in _RETIRED_DIAGNOSTICS_KEYS}


def _safe_label(label: str) -> str:
    """Filesystem-safe file name component for a type label."""
    return re.sub(r"[^A-Za-z0-9_-]+", "-", label).strip("-") or "type"


def _write_npz_atomic(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Write a compressed npz via a temp file + atomic rename.

    A concurrent reader (another process cold-loading during a refresh)
    sees either the complete old file or the complete new file, never a
    truncated one.  The temp file is opened explicitly so numpy does not
    append a second ``.npz`` suffix.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_npy_atomic(path: Path, array: np.ndarray) -> None:
    """Write one raw ``.npy`` via a temp file + atomic rename.

    Same torn-write guarantee as :func:`_write_npz_atomic`, with one extra
    property the mmap layout depends on: ``replace`` swaps the directory
    entry but leaves the old inode alive, so a reader holding an open memory
    map keeps reading consistent old bytes while a refresh rewrites the
    array underneath it.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            np.save(handle, np.asarray(array))
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class TypeInfo:
    """Shape metadata of one object type captured in an artifact."""

    name: str
    n_objects: int
    n_clusters: int
    n_features: int | None


# eq=False: the generated __eq__ would compare ndarray/dict fields and raise
# on the ambiguous array truth value; identity comparison (and explicit
# array-level assertions in tests) is the meaningful contract here.
@dataclass(frozen=True, eq=False)
class RHCHMEModel:
    """Immutable fitted-model artifact supporting out-of-sample prediction.

    Attributes
    ----------
    config:
        The :class:`RHCHMEConfig` the model was fitted with; prediction
        reuses its ``p``, ``weighting`` and ``backend`` knobs so queries see
        the same affinity definition the training graph used.
    types:
        Per-type shape metadata in block order.
    features:
        Mapping from type name to its training feature matrix (types without
        features are absent — they cannot receive out-of-sample queries).
    membership:
        Mapping from type name to its fitted membership block ``G_k``.
    labels:
        Mapping from type name to the fitted hard labels of its training
        objects.
    association:
        The fitted association matrix ``S``.
    error_matrix:
        The fitted sample-wise error matrix ``E_R`` as a
        :class:`~repro.linalg.rowsparse.RowSparseMatrix` (``None`` when the
        fit disabled it); a dense array passed in is compressed to its
        non-zero rows.  It round-trips through ``save``/``load`` without
        densifying.
    backend:
        The concrete backend the fit resolved to (``"dense"``/``"sparse"``).
    diagnostics:
        The sidecar's JSON ``diagnostics`` section (``None`` on artifacts
        that predate it): its ``version`` stamp (always written by
        :meth:`from_fit`), plus — when the fit ran with
        ``config.diagnostics=True`` — the fit-time spectral/churn record
        under ``"fit"``.  The section is additive, so the artifact schema
        version is unchanged and pre-diagnostics readers simply ignore
        it.  Drift fingerprints are not stored: a drift-scoring server
        builds them from ``features`` (see
        :meth:`repro.diagnostics.DriftDetector.from_model`).
    reader:
        The :class:`~repro.serve.shards.ShardedModelReader` a lazily served
        model fetches its per-type arrays through (set by
        :func:`~repro.serve.shards.open_model` on a ``per-type-mmap``
        artifact; closing it ends the model's use), or ``None`` when every
        array is in memory.
    """

    config: RHCHMEConfig
    types: tuple[TypeInfo, ...]
    features: dict[str, np.ndarray]
    membership: dict[str, np.ndarray]
    labels: dict[str, np.ndarray]
    association: np.ndarray
    error_matrix: RowSparseMatrix | None
    backend: str = "dense"
    schema_version: int = SCHEMA_VERSION
    library_version: str = _library_version
    diagnostics: dict | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "error_matrix",
                           as_row_sparse(self.error_matrix))
        object.__setattr__(self, "reader", None)
        # Per-type neighbour-search indexes, built lazily on first predict
        # and reused for every later call (a KD-tree build per request would
        # dominate single-object latencies).  A plain cache, not state: the
        # artifact's arrays stay immutable.  The lock makes the build
        # single-flight when worker threads race on a cold type.
        object.__setattr__(self, "_query_indexes", {})
        object.__setattr__(self, "_index_lock", threading.Lock())

    def query_index(self, type_name: str) -> QueryIndex:
        """The cached neighbour-search index of one type (built on first use).

        Thread-safe: concurrent callers for a cold type build the index once
        under a lock; after that the immutable index is read lock-free.
        """
        index = self._query_indexes.get(type_name)
        if index is None:
            with self._index_lock:
                index = self._query_indexes.get(type_name)
                if index is None:
                    index = QueryIndex(self.features[type_name])
                    self._query_indexes[type_name] = index
        return index

    # ----------------------------------------------------------- construction
    @classmethod
    def from_fit(cls, result, data, config: RHCHMEConfig) -> "RHCHMEModel":
        """Build an artifact from a fit result, its dataset and its config.

        ``data`` must be the dataset the result was fitted on: a mismatched
        dataset would pair feature rows with membership blocks computed on
        different objects, producing an artifact that predicts garbage
        without ever erroring.  The block structure is checked up front so
        the mismatch fails at export time, not at serving time.
        """
        state = result.state
        if (state.object_spec.n_types != data.n_types
                or state.object_spec.sizes
                != tuple(t.n_objects for t in data.types)
                or set(result.labels) != set(data.type_names)):
            raise ValidationError(
                f"fit result (types of sizes {state.object_spec.sizes}, labels "
                f"for {sorted(result.labels)}) does not describe this dataset "
                f"({data.describe()}); export the model with the dataset it "
                "was fitted on")
        types = []
        features: dict[str, np.ndarray] = {}
        membership: dict[str, np.ndarray] = {}
        labels: dict[str, np.ndarray] = {}
        for index, object_type in enumerate(data.types):
            n_features = (object_type.features.shape[1]
                          if object_type.features is not None else None)
            types.append(TypeInfo(name=object_type.name,
                                  n_objects=object_type.n_objects,
                                  n_clusters=object_type.n_clusters,
                                  n_features=n_features))
            if object_type.features is not None:
                features[object_type.name] = np.array(object_type.features)
            membership[object_type.name] = np.array(
                state.membership_block(index))
            labels[object_type.name] = np.asarray(
                result.labels[object_type.name], dtype=np.int64).copy()
        error_matrix = (state.E_R.copy() if config.use_error_matrix
                        and state.E_R is not None else None)
        # The fit-time spectral/churn record rides along only when the fit
        # opted in via config.diagnostics.
        from ..diagnostics.spectral import DIAGNOSTICS_SCHEMA_VERSION
        diagnostics: dict = {"version": DIAGNOSTICS_SCHEMA_VERSION}
        fit_section = result.extras.get("diagnostics")
        if fit_section:
            diagnostics["fit"] = fit_section
        return cls(config=config, types=tuple(types), features=features,
                   membership=membership, labels=labels,
                   association=np.array(state.S),
                   error_matrix=error_matrix,
                   backend=result.extras.get("backend", "dense"),
                   diagnostics=diagnostics)

    # -------------------------------------------------------------- accessors
    @property
    def type_names(self) -> list[str]:
        """Names of the captured object types in block order."""
        return [t.name for t in self.types]

    def type_info(self, name: str) -> TypeInfo:
        """Return the :class:`TypeInfo` of the named type."""
        for info in self.types:
            if info.name == name:
                return info
        raise ValidationError(
            f"unknown object type {name!r}; known types: {self.type_names}")

    def state(self) -> FactorizationState:
        """Reconstruct the blocked factorisation state from the stored blocks.

        The artifact already stores G per type, which is exactly the
        solver's native representation — the blocks are copied straight in
        (the state is mutable; the artifact stays immutable) and no global
        stacked matrix is assembled.
        """
        object_spec = BlockSpec(tuple(t.n_objects for t in self.types))
        cluster_spec = BlockSpec(tuple(t.n_clusters for t in self.types))
        blocks = [np.array(self.membership[t.name]) for t in self.types]
        if self.error_matrix is None:
            E_R = RowSparseMatrix.zeros((object_spec.total, object_spec.total))
        else:
            E_R = self.error_matrix.copy()
        return FactorizationState(G_blocks=blocks, S=self.association.copy(),
                                  E_R=E_R, object_spec=object_spec,
                                  cluster_spec=cluster_spec)

    def info(self) -> dict:
        """Plain-dictionary summary (used by the ``info`` CLI subcommand)."""
        info = {
            "format": _FORMAT,
            # Always the *writer's* schema: a model loaded from an older
            # artifact re-saves in the current layout, so stamping the old
            # version would misdescribe the bytes on disk.
            "schema_version": SCHEMA_VERSION,
            "library_version": self.library_version,
            "backend": self.backend,
            "config": self._config_dict(),
            "types": [asdict(t) for t in self.types],
            "has_error_matrix": self.error_matrix is not None,
        }
        if self.error_matrix is not None:
            info["error_matrix_layout"] = "row-sparse"
        if self.diagnostics is not None:
            info["diagnostics"] = self.diagnostics
        return info

    # ------------------------------------------------------------- prediction
    def predict(self, type_name: str, X_new, *,
                batch_size: int = 256) -> Prediction:
        """Assign new objects of ``type_name`` out of sample.

        Computes the queries' p-NN affinities to the type's training objects
        (same ``p``/``weighting`` as the fit) and smooths them onto the
        fitted membership block; see
        :func:`repro.serve.extension.out_of_sample_predict`.  The config's
        backend is resolved against the training size.
        """
        info = self.type_info(type_name)
        if info.n_features is None:
            raise ValidationError(
                f"type {type_name!r} was fitted without features; "
                "out-of-sample prediction needs a feature space to embed "
                "queries in")
        X_new = as_float_array(X_new, name="X_new", ndim=2)
        if X_new.shape[1] != info.n_features:
            raise ValidationError(
                f"queries for type {type_name!r} must have "
                f"{info.n_features} features, got {X_new.shape[1]}")
        resolved = resolve_backend(self.config.backend,
                                   n_objects=info.n_objects)
        index = self.query_index(type_name)
        return out_of_sample_predict(
            self.features[type_name], self.membership[type_name], X_new,
            p=self.config.p, weighting=self.config.weighting,
            backend=resolved, batch_size=batch_size, index=index)

    # ------------------------------------------------------------ persistence
    def _config_dict(self) -> dict:
        config = asdict(self.config)
        config["weighting"] = self.config.weighting.value
        # diagnostics is a run-time knob, not a model parameter: whether a
        # fit recorded health metrics never changes the factors, and the
        # recorded metrics live in the sidecar's own diagnostics section.
        config.pop("diagnostics", None)
        return config

    @staticmethod
    def _paths(path) -> tuple[Path, Path]:
        """Resolve the npz path and its JSON sidecar for a user-given path."""
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        return path, path.with_suffix(".json")

    @classmethod
    def resolve_path(cls, path) -> Path:
        """Canonical absolute npz path a user-given artifact path refers to.

        ``"model"``, ``"model.npz"`` and ``"./model.npz"`` all resolve to the
        same path; cache layers key on this so one artifact is never loaded
        twice under different spellings.
        """
        return cls._paths(path)[0].resolve()

    @classmethod
    def read_metadata(cls, path) -> dict:
        """Read and validate an artifact's JSON sidecar without the arrays.

        Performs the same existence/format/schema-version checks as
        :meth:`load` but never opens any npz, so its cost is the sidecar's
        size, not the arrays': a multi5 default-fit sidecar, written as
        compact JSON, is 719 bytes monolithic and 1,455 bytes with the
        ``per-type-mmap`` manifest.  (Sidecars that still store drift
        fingerprints under ``diagnostics["fingerprints"]`` are about
        384 KB, which each read parses.)  Returns the sidecar dictionary
        (for a sharded artifact it includes the ``shards`` manifest).
        """
        npz_path, sidecar_path = cls._paths(path)
        if not sidecar_path.exists():
            # Preserve the historical monolithic error when both files are
            # absent: the npz is the artifact's user-facing handle.
            if not npz_path.exists():
                raise ArtifactError(f"model arrays not found: {npz_path}")
            raise ArtifactError(f"model sidecar not found: {sidecar_path}")
        try:
            sidecar = json.loads(sidecar_path.read_text())
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"corrupt model sidecar {sidecar_path}: {exc}") from exc
        if sidecar.get("format") != _FORMAT:
            raise ArtifactError(
                f"{sidecar_path} is not an RHCHME model sidecar "
                f"(format={sidecar.get('format')!r})")
        version = sidecar.get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise ArtifactError(
                f"unsupported artifact schema version {version!r} "
                f"(this library reads versions "
                f"{list(SUPPORTED_SCHEMA_VERSIONS)}); refusing to "
                "guess at a foreign layout — re-export the model with a "
                "matching library version")
        for shard_path in cls.shard_paths(path, sidecar).values():
            if not shard_path.exists():
                raise ArtifactError(f"model arrays not found: {shard_path}")
        return sidecar

    @classmethod
    def shard_paths(cls, path, sidecar: dict) -> dict[str, Path]:
        """Map each array file of an artifact to its absolute path.

        Keys are type names plus :data:`GLOBAL_SHARD` for a legacy
        ``per-type`` npz artifact, npz array keys (``membership::<type>``, ``association``, …)
        for the mmap layout (one file per array), or the single key
        ``"monolithic"`` for the default layout.  Shard file names in the
        manifest are relative to the sidecar.
        """
        npz_path, sidecar_path = cls._paths(path)
        manifest = sidecar.get("shards")
        if not manifest:
            return {"monolithic": npz_path}
        layout = manifest.get("layout")
        if layout == MMAP_LAYOUT:
            flat: dict[str, Path] = {}
            for entries in cls.mmap_array_paths(path, sidecar).values():
                flat.update(entries)
            return flat
        if layout != "per-type":
            raise ArtifactError(
                f"unknown shard layout {layout!r} "
                f"(this library reads ['per-type', {MMAP_LAYOUT!r}])")
        directory = sidecar_path.parent
        paths = {GLOBAL_SHARD: directory / manifest[GLOBAL_SHARD]}
        for name, filename in manifest["types"].items():
            paths[name] = directory / filename
        return paths

    @classmethod
    def mmap_array_paths(cls, path, sidecar: dict) -> dict[str, dict[str, Path]]:
        """Per-shard array-file map of a ``per-type-mmap`` artifact.

        Returns ``{shard_key: {npz_key: path}}`` where shard keys are type
        names plus :data:`GLOBAL_SHARD` and npz keys are the same array
        names the other layouts use (``membership::<type>``,
        ``association``, …).  Raises :class:`ArtifactError` for any other
        layout — callers that just need existence checks should use
        :meth:`shard_paths`, which handles every layout.
        """
        _, sidecar_path = cls._paths(path)
        manifest = sidecar.get("shards") or {}
        if manifest.get("layout") != MMAP_LAYOUT:
            raise ArtifactError(
                f"artifact at {path} does not use the {MMAP_LAYOUT!r} layout "
                f"(found {manifest.get('layout')!r})")
        directory = sidecar_path.parent
        paths = {GLOBAL_SHARD: {key: directory / filename for key, filename
                                in manifest[GLOBAL_SHARD].items()}}
        for name, entries in manifest["types"].items():
            paths[name] = {key: directory / filename
                           for key, filename in entries.items()}
        return paths

    def _type_arrays(self, info: TypeInfo) -> dict[str, np.ndarray]:
        arrays = {f"membership::{info.name}": self.membership[info.name],
                  f"labels::{info.name}": self.labels[info.name]}
        if info.name in self.features:
            arrays[f"features::{info.name}"] = self.features[info.name]
        return arrays

    def _global_arrays(self) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {"association": self.association}
        if self.error_matrix is not None:
            arrays["error_matrix_rows"] = self.error_matrix.rows
            arrays["error_matrix_values"] = self.error_matrix.values
        return arrays

    @classmethod
    def _remove_stale_layout(cls, path, keep: set[Path]) -> None:
        """Delete array files of a previous save at ``path`` (any layout).

        Re-exporting over an existing artifact must not leave a stale
        monolithic npz next to fresh shards (or vice versa): a later load
        would see whichever layout the new sidecar names, but humans and
        sync tools would see both.  Files in ``keep`` — the ones the new
        save is about to (atomically) rewrite — are left in place, so a
        same-layout re-export never has a window with missing files.
        """
        npz_path, sidecar_path = cls._paths(path)
        if not sidecar_path.exists():
            return
        try:
            old_sidecar = json.loads(sidecar_path.read_text())
        except json.JSONDecodeError:
            return
        if not isinstance(old_sidecar, dict):
            return
        try:
            old_files = cls.shard_paths(path, old_sidecar).values()
        except (ArtifactError, KeyError, TypeError):
            return
        for stale in old_files:
            if stale != npz_path and stale not in keep:
                stale.unlink(missing_ok=True)

    def save(self, path, *, shards: str | None = None) -> Path:
        """Write the artifact to ``path`` (array files + JSON sidecar).

        ``path`` may omit the ``.npz`` suffix; the sidecar lands next to the
        npz with a ``.json`` suffix.  Returns the artifact handle (the npz
        path) — every later ``load``/``predict`` call takes this same path
        regardless of layout.

        Parameters
        ----------
        shards:
            ``None``/``"monolithic"`` writes every array into one compressed
            npz.  ``"per-type-mmap"`` writes one *raw* ``.npy`` per array
            (``<stem>.<type>.<kind>.npy``) so readers can memory-map
            individual arrays and page in only the bytes they touch (see
            :func:`repro.serve.shards.open_model`).  The legacy
            ``"per-type"`` npz layout is read-only and is refused here.
        """
        layout = shards or "monolithic"
        if layout not in SHARD_LAYOUTS:
            raise ValidationError(
                f"cannot write shard layout {shards!r}; save writes one of "
                f"{SHARD_LAYOUTS} (legacy 'per-type' artifacts are read-only)")
        npz_path, sidecar_path = self._paths(path)
        npz_path.parent.mkdir(parents=True, exist_ok=True)
        sidecar = self.info()
        if layout == "monolithic":
            self._remove_stale_layout(path, keep={npz_path})
            arrays = self._global_arrays()
            for info in self.types:
                arrays.update(self._type_arrays(info))
            _write_npz_atomic(npz_path, arrays)
        else:  # MMAP_LAYOUT: one raw .npy per array
            if GLOBAL_SHARD in self.type_names:
                # The flat shard-key namespace (type names + the global
                # shard) cannot represent this artifact unambiguously.
                raise ValidationError(
                    f"cannot shard per type: a type is named "
                    f"{GLOBAL_SHARD!r}, which is the reserved key of the "
                    "cross-type shard; rename the type or save "
                    "monolithically")
            stem = npz_path.stem
            array_files: dict[str, np.ndarray] = {}

            def plan(label: str, arrays: dict[str, np.ndarray]) -> dict[str, str]:
                entries = {}
                for key, array in arrays.items():
                    kind = key.split("::", 1)[0]
                    filename = f"{stem}.{label}.{kind}.npy"
                    entries[key] = filename
                    array_files[filename] = array
                return entries

            manifest = {"layout": MMAP_LAYOUT,
                        GLOBAL_SHARD: plan(GLOBAL_SHARD, self._global_arrays()),
                        "types": {}}
            used_labels = {GLOBAL_SHARD}
            for index, info in enumerate(self.types):
                label = _safe_label(info.name)
                if label in used_labels:  # names collide after sanitisation
                    label = f"type{index}"
                used_labels.add(label)
                manifest["types"][info.name] = plan(label,
                                                    self._type_arrays(info))
            self._remove_stale_layout(
                path, keep={npz_path.with_name(name) for name in array_files})
            npz_path.unlink(missing_ok=True)  # stale monolithic arrays
            for filename, array in array_files.items():
                _write_npy_atomic(npz_path.with_name(filename), array)
            sidecar["shards"] = manifest
        # Sidecar last and atomically: readers never see a torn JSON, and a
        # crash mid-save leaves the previous sidecar in place (whose
        # shape/key checks refuse any half-updated array set loudly).  It
        # is machine-read, so it is written compact: ``indent`` would run
        # json's pure-Python encoder.
        tmp_sidecar = sidecar_path.with_name(sidecar_path.name + ".tmp")
        tmp_sidecar.write_text(json.dumps(sidecar) + "\n")
        tmp_sidecar.replace(sidecar_path)
        return npz_path

    @classmethod
    def parse_sidecar(cls, sidecar: dict) -> tuple[RHCHMEConfig, tuple[TypeInfo, ...]]:
        """Reconstruct the config and type metadata from a validated sidecar."""
        try:
            fields = dict(sidecar["config"])
            for key in _RETIRED_CONFIG_KEYS:
                fields.pop(key, None)
            for key, fixed in _FIXED_CONFIG_KEYS.items():
                value = fields.pop(key, fixed)
                if value != fixed:
                    raise ArtifactError(
                        f"artifact was fitted with {key}={value!r}, but "
                        f"this library fits only {key}={fixed!r}")
            if fields.get("backend") == "torch":
                # Artifacts fitted by the retired torch engine: serving
                # always resolved that name by the "auto" size rule, so it
                # reads as "auto" and the predictions are unchanged.
                fields["backend"] = "auto"
            config = RHCHMEConfig(**fields)
        except (TypeError, ValueError) as exc:
            raise ArtifactError(
                f"artifact config cannot be reconstructed: {exc}") from exc
        return config, tuple(TypeInfo(**entry) for entry in sidecar["types"])

    @staticmethod
    def read_shard(shard_path: Path, keys: list[str]) -> dict[str, np.ndarray]:
        """Read the named arrays out of one npz file, with artifact errors.

        Raises :class:`~repro.exceptions.ArtifactError` when the file does
        not hold a promised array (sidecar paired with the wrong npz) or is
        not a readable npz at all (truncated or corrupt write).
        """
        try:
            with np.load(shard_path) as arrays:
                return {key: np.array(arrays[key]) for key in keys}
        except KeyError as exc:
            raise ArtifactError(
                f"model arrays at {shard_path} do not match the sidecar "
                f"(missing {exc}); the npz and json files do not describe "
                "the same model") from exc
        except (OSError, ValueError) as exc:
            raise ArtifactError(
                f"corrupt model arrays at {shard_path}: {exc}") from exc

    @staticmethod
    def read_npy(array_path: Path, *, mmap_mode: str | None = None) -> np.ndarray:
        """Read one raw ``.npy`` array file, with artifact errors.

        ``mmap_mode="r"`` opens the file as a read-only memory map (only
        touched pages are read from disk); ``None`` reads an ordinary
        in-memory array.  Raises :class:`~repro.exceptions.ArtifactError`
        on a missing, truncated or non-npy file.
        """
        try:
            return np.load(array_path, mmap_mode=mmap_mode, allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise ArtifactError(
                f"corrupt model arrays at {array_path}: {exc}") from exc

    @classmethod
    def load(cls, path) -> "RHCHMEModel":
        """Read an artifact in any layout, legacy ``per-type`` included.

        Raises :class:`~repro.exceptions.ArtifactError` when an array file
        or the sidecar is missing, the sidecar does not describe an RHCHME
        model, the artifact's schema version differs from
        :data:`SCHEMA_VERSION`, or an npz does not hold the arrays the
        sidecar promises (a sidecar paired with the wrong or truncated npz).
        A sharded artifact is reassembled into the exact same model a
        monolithic save round-trips to.
        """
        sidecar = cls.read_metadata(path)
        config, types = cls.parse_sidecar(sidecar)
        manifest = sidecar.get("shards") or {}
        mmapped = manifest.get("layout") == MMAP_LAYOUT
        shard_paths = ({} if mmapped else cls.shard_paths(path, sidecar))
        sharded = not mmapped and "monolithic" not in shard_paths

        def type_keys(info: TypeInfo) -> list[str]:
            keys = [f"membership::{info.name}", f"labels::{info.name}"]
            if info.n_features is not None:
                keys.append(f"features::{info.name}")
            return keys

        global_keys = ["association"] + error_matrix_npz_keys(sidecar)
        if mmapped:
            array_paths = cls.mmap_array_paths(path, sidecar)
            arrays = {}
            for shard_key, keys in (
                    [(GLOBAL_SHARD, global_keys)]
                    + [(info.name, type_keys(info)) for info in types]):
                entries = array_paths.get(shard_key, {})
                for key in keys:
                    if key not in entries:
                        raise ArtifactError(
                            f"model arrays at {path} do not match the "
                            f"sidecar (missing {key!r} in shard "
                            f"{shard_key!r}); the array files and json do "
                            "not describe the same model")
                    arrays[key] = np.asarray(cls.read_npy(entries[key]))
        elif sharded:
            arrays = cls.read_shard(shard_paths[GLOBAL_SHARD], global_keys)
            for info in types:
                arrays.update(cls.read_shard(shard_paths[info.name],
                                             type_keys(info)))
        else:
            keys = list(global_keys)
            for info in types:
                keys.extend(type_keys(info))
            arrays = cls.read_shard(shard_paths["monolithic"], keys)

        features = {}
        membership = {}
        labels = {}
        for info in types:
            membership[info.name] = arrays[f"membership::{info.name}"]
            labels[info.name] = np.asarray(arrays[f"labels::{info.name}"],
                                           dtype=np.int64)
            if info.n_features is not None:
                features[info.name] = arrays[f"features::{info.name}"]

        error_matrix = read_error_matrix(
            arrays, sum(info.n_objects for info in types))
        return cls(config=config, types=types, features=features,
                   membership=membership, labels=labels,
                   association=arrays["association"],
                   error_matrix=error_matrix,
                   backend=sidecar.get("backend", "dense"),
                   schema_version=int(sidecar["schema_version"]),
                   library_version=str(sidecar.get("library_version", "unknown")),
                   diagnostics=read_diagnostics(sidecar))


def load_model(path) -> RHCHMEModel:
    """Module-level convenience alias for :meth:`RHCHMEModel.load`."""
    return RHCHMEModel.load(path)
