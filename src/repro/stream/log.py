"""Append-only object log: durable growth deltas for streaming refresh.

A deployed corpus grows continuously — new objects arrive with their
features, new co-occurrence edges connect them — but a refresh only needs
the *delta* since the last fit, not a re-materialised copy of everything.
:class:`ObjectLog` is the durable form of that delta: a directory holding
the base dataset's arrays once, plus one small append file per ingest
batch, described by a JSON manifest with a monotone version counter.

* :meth:`ObjectLog.create` snapshots a fitted dataset as the log's base
  (features per type, relation matrices in their native dense/sparse
  representation).
* :meth:`ObjectLog.append_objects` / :meth:`ObjectLog.append_edges` append
  an ingest batch — each append writes one new array file and atomically
  rewrites the manifest, bumping the version.  Base files are never
  touched again.
* :meth:`ObjectLog.dataset` materialises the *current*
  :class:`~repro.relational.dataset.MultiTypeRelationalData` (base +
  every appended segment), caching per-type feature concatenations and
  per-relation assemblies so repeated calls between appends are free and
  a call after an append only loads the new segment files and rebuilds
  only the relations whose edges or endpoint sizes changed.
* :meth:`ObjectLog.delta_since` summarises growth between two versions as
  a :class:`GrowthDelta`, whose :meth:`GrowthDelta.dirty_set` is exactly
  the :class:`~repro.core.schedule.DirtySet` a delta-scheduled refresh
  should run with: types that gained objects plus both endpoints of every
  relation that gained edges.

The log assumes a single writer (appends are not locked against each
other); readers always see a consistent state because array files are
written before the manifest that references them, and the manifest
replace is atomic.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .._validation import as_float_array
from ..core.schedule import DirtySet
from ..exceptions import ArtifactError, ValidationError
from ..relational.dataset import MultiTypeRelationalData
from ..relational.types import ObjectType, Relation

__all__ = ["ObjectLog", "GrowthDelta"]

_LOG_FORMAT = "rhchme-object-log"

#: Version stamp of the on-disk log layout; bump on incompatible changes.
LOG_SCHEMA_VERSION = 1

_MANIFEST = "manifest.json"


def _safe(label: str) -> str:
    """Filesystem-safe file name component for a type label."""
    return re.sub(r"[^A-Za-z0-9_-]+", "-", label).strip("-") or "type"


def _write_bytes_atomic(path: Path, writer) -> None:
    """Write a file via temp + atomic rename; ``writer(handle)`` fills it."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            writer(handle)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class GrowthDelta:
    """Summary of the log's growth between two versions.

    Attributes
    ----------
    since, version:
        The half-open version window ``(since, version]`` the delta covers.
    grown:
        Mapping from type name to how many objects it gained in the window
        (every type appears, clean types at zero).
    new_edges:
        Mapping from canonical ``(source, target)`` relation pairs to how
        many edge entries were appended in the window.
    """

    since: int
    version: int
    grown: dict[str, int]
    new_edges: dict[tuple[str, str], int]

    @property
    def is_empty(self) -> bool:
        """Whether nothing was appended in the window."""
        return (not any(self.grown.values())
                and not any(self.new_edges.values()))

    @property
    def n_new_objects(self) -> int:
        """Total objects appended in the window across all types."""
        return int(sum(self.grown.values()))

    def dirty_types(self) -> set[str]:
        """Type names the delta touches (grown, or endpoint of new edges)."""
        names = {name for name, count in self.grown.items() if count > 0}
        for (source, target), count in self.new_edges.items():
            if count > 0:
                names.add(source)
                names.add(target)
        return names

    def dirty_set(self) -> DirtySet:
        """The :class:`DirtySet` a refresh over this delta should use."""
        return DirtySet(types=frozenset(self.dirty_types()))

    def describe(self) -> dict:
        """JSON-safe summary for logs and telemetry."""
        return {
            "since": self.since,
            "version": self.version,
            "grown": dict(self.grown),
            "new_edges": {f"{s}->{t}": n
                          for (s, t), n in self.new_edges.items()},
            "dirty_types": sorted(self.dirty_types()),
        }


class ObjectLog:
    """Append-only growth log over a multi-type relational dataset.

    Open an existing log with ``ObjectLog(directory)``; start a new one
    from a dataset with :meth:`create`.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        manifest_path = self.directory / _MANIFEST
        if not manifest_path.exists():
            raise ArtifactError(
                f"no object log at {self.directory} (missing {_MANIFEST}); "
                "start one with ObjectLog.create(directory, data)")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise ArtifactError(
                f"corrupt object-log manifest {manifest_path}: {exc}") from exc
        if manifest.get("format") != _LOG_FORMAT:
            raise ArtifactError(
                f"{manifest_path} is not an object-log manifest "
                f"(format={manifest.get('format')!r})")
        if manifest.get("log_schema_version") != LOG_SCHEMA_VERSION:
            raise ArtifactError(
                f"unsupported object-log schema version "
                f"{manifest.get('log_schema_version')!r} (this library "
                f"reads version {LOG_SCHEMA_VERSION})")
        self._manifest = manifest
        # Incremental caches: concatenated features per type, assembled
        # relations with their accumulated entries (never mutated), and
        # the last materialised dataset — keyed by the number of
        # segments, the relation's (edge segments, endpoint sizes) stamp,
        # or the version they were built from.
        self._feature_parts: dict[str, list[np.ndarray]] = {}
        self._feature_scanned: dict[str, int] = {}
        self._feature_concat: dict[str, tuple[int, np.ndarray]] = {}
        self._relation_cache: dict[
            tuple[str, str], tuple[tuple[int, int, int], object, Relation]] = {}
        self._dataset_cache: tuple[int, MultiTypeRelationalData] | None = None

    # ------------------------------------------------------------ construction
    @classmethod
    def create(cls, directory, data: MultiTypeRelationalData) -> "ObjectLog":
        """Start a new log at ``directory`` with ``data`` as its base.

        The base snapshot stores each feature-carrying type's matrix as one
        ``.npy`` and each relation in its native representation (dense
        ``.npy`` or CSR ``.npz``); ground-truth labels are not carried —
        appended objects would have none.  Refuses a directory that already
        holds a log.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest_path = directory / _MANIFEST
        if manifest_path.exists():
            raise ArtifactError(
                f"{directory} already holds an object log; open it with "
                "ObjectLog(directory) or choose a fresh directory")
        types = []
        base_features: dict[str, str] = {}
        used = set()
        for index, object_type in enumerate(data.types):
            label = _safe(object_type.name)
            if label in used:
                label = f"type{index}"
            used.add(label)
            n_features = (object_type.features.shape[1]
                          if object_type.features is not None else None)
            types.append({"name": object_type.name, "label": label,
                          "n_objects": object_type.n_objects,
                          "n_clusters": object_type.n_clusters,
                          "n_features": n_features})
            if object_type.features is not None:
                filename = f"base.{label}.features.npy"
                matrix = object_type.features
                _write_bytes_atomic(directory / filename,
                                    lambda h, m=matrix: np.save(h, m))
                base_features[object_type.name] = filename
        labels = {entry["name"]: entry["label"] for entry in types}
        relations = []
        for relation in data.relations:
            stem = f"base.{labels[relation.source]}__{labels[relation.target]}"
            if relation.is_sparse:
                filename = stem + ".npz"
                matrix = sp.csr_matrix(relation.matrix)
                _write_bytes_atomic(directory / filename,
                                    lambda h, m=matrix: sp.save_npz(h, m))
            else:
                filename = stem + ".npy"
                matrix = relation.matrix
                _write_bytes_atomic(directory / filename,
                                    lambda h, m=matrix: np.save(h, m))
            relations.append({"source": relation.source,
                              "target": relation.target,
                              "file": filename,
                              "sparse": bool(relation.is_sparse),
                              "weight": float(relation.weight)})
        manifest = {"format": _LOG_FORMAT,
                    "log_schema_version": LOG_SCHEMA_VERSION,
                    "version": 0,
                    "types": types,
                    "base_features": base_features,
                    "relations": relations,
                    "segments": []}
        tmp = manifest_path.with_name(manifest_path.name + ".tmp")
        tmp.write_text(json.dumps(manifest) + "\n")
        tmp.replace(manifest_path)
        return cls(directory)

    # -------------------------------------------------------------- inspection
    @property
    def version(self) -> int:
        """Monotone version counter (0 = base only; +1 per append)."""
        return int(self._manifest["version"])

    @property
    def type_names(self) -> list[str]:
        """Names of the logged object types in block order."""
        return [entry["name"] for entry in self._manifest["types"]]

    @property
    def sizes(self) -> dict[str, int]:
        """Current object count per type (base + every appended batch)."""
        sizes = {entry["name"]: int(entry["n_objects"])
                 for entry in self._manifest["types"]}
        for segment in self._manifest["segments"]:
            if segment["kind"] == "objects":
                sizes[segment["type"]] += int(segment["count"])
        return sizes

    def describe(self) -> dict:
        """JSON-safe log summary (sizes, version, segment count)."""
        return {"directory": str(self.directory), "version": self.version,
                "sizes": self.sizes,
                "n_segments": len(self._manifest["segments"])}

    def _type_entry(self, name: str) -> dict:
        for entry in self._manifest["types"]:
            if entry["name"] == name:
                return entry
        raise ValidationError(
            f"unknown object type {name!r}; known types: {self.type_names}")

    def _relation_entry(self, source: str, target: str) -> dict | None:
        for entry in self._manifest["relations"]:
            if {entry["source"], entry["target"]} == {source, target}:
                return entry
        return None

    # ----------------------------------------------------------------- appends
    def _commit(self, segment: dict) -> int:
        """Append one segment record and atomically rewrite the manifest."""
        self._manifest["segments"].append(segment)
        self._manifest["version"] = self.version + 1
        segment["version"] = self._manifest["version"]
        manifest_path = self.directory / _MANIFEST
        tmp = manifest_path.with_name(manifest_path.name + ".tmp")
        tmp.write_text(json.dumps(self._manifest) + "\n")
        tmp.replace(manifest_path)
        self._dataset_cache = None
        return self._manifest["version"]

    def append_objects(self, type_name: str, features=None, *,
                       count: int | None = None) -> int:
        """Append new objects of one type; returns the new log version.

        Feature-carrying types take a ``(k, d)`` feature block (``d`` must
        match the base width); featureless types take ``count=k`` instead.
        New objects are appended after every existing object of the type —
        the prefix property an incremental refresh relies on holds by
        construction.
        """
        entry = self._type_entry(type_name)
        if entry["n_features"] is not None:
            if features is None:
                raise ValidationError(
                    f"type {type_name!r} carries features; append_objects "
                    f"needs a (k, {entry['n_features']}) feature block")
            features = as_float_array(features,
                                      name=f"{type_name}.features", ndim=2)
            if features.shape[1] != entry["n_features"]:
                raise ValidationError(
                    f"appended features of type {type_name!r} have "
                    f"{features.shape[1]} columns, the log holds "
                    f"{entry['n_features']}")
            n_new = int(features.shape[0])
            if count is not None and int(count) != n_new:
                raise ValidationError(
                    f"count={count} does not match the {n_new} appended "
                    f"feature rows of type {type_name!r}")
        else:
            if features is not None:
                raise ValidationError(
                    f"type {type_name!r} is featureless; append with "
                    "count=k, not a feature block")
            if count is None:
                raise ValidationError(
                    f"appending to featureless type {type_name!r} needs "
                    "count=k")
            n_new = int(count)
        if n_new <= 0:
            raise ValidationError(
                f"append_objects needs at least one new object, got {n_new}")
        filename = None
        if features is not None:
            filename = (f"seg{self.version + 1:06d}."
                        f"{entry['label']}.features.npy")
            _write_bytes_atomic(self.directory / filename,
                                lambda h: np.save(h, features))
        return self._commit({"kind": "objects", "type": type_name,
                             "count": n_new, "features": filename})

    def append_edges(self, source: str, target: str, rows, cols,
                     values) -> int:
        """Append relation entries; returns the new log version.

        ``rows``/``cols`` are *local* per-type object indices (row ``i`` of
        the source type, column ``j`` of the target type, in the current
        grown layout); ``values`` are the non-negative co-occurrence
        weights added at those positions.  The pair must already have a
        relation in the base dataset — the log extends observed relations,
        it does not invent new pairs (a new pair changes the factorisation
        structure and needs a cold fit).  A reversed ``(target, source)``
        call is accepted and canonicalised.
        """
        self._type_entry(source)
        self._type_entry(target)
        entry = self._relation_entry(source, target)
        if entry is None:
            raise ValidationError(
                f"no relation between {source!r} and {target!r} in the "
                "log's base dataset; the log only extends relations present "
                "at create() — fit a new model to add relation pairs")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if not (rows.size == cols.size == values.size):
            raise ValidationError(
                f"rows/cols/values lengths differ "
                f"({rows.size}/{cols.size}/{values.size})")
        if rows.size == 0:
            raise ValidationError("append_edges needs at least one entry")
        if np.any(values < 0):
            raise ValidationError(
                f"relation values must be non-negative "
                f"(R[{source},{target}])")
        if (source, target) != (entry["source"], entry["target"]):
            rows, cols = cols, rows  # canonicalise to the stored orientation
        sizes = self.sizes
        n_source = sizes[entry["source"]]
        n_target = sizes[entry["target"]]
        if np.any(rows < 0) or np.any(rows >= n_source):
            raise ValidationError(
                f"edge rows out of range for type {entry['source']!r} "
                f"(current size {n_source})")
        if np.any(cols < 0) or np.any(cols >= n_target):
            raise ValidationError(
                f"edge cols out of range for type {entry['target']!r} "
                f"(current size {n_target})")
        label_s = self._type_entry(entry["source"])["label"]
        label_t = self._type_entry(entry["target"])["label"]
        filename = f"seg{self.version + 1:06d}.{label_s}__{label_t}.edges.npz"
        _write_bytes_atomic(
            self.directory / filename,
            lambda h: np.savez(h, rows=rows, cols=cols, values=values))
        return self._commit({"kind": "edges", "source": entry["source"],
                             "target": entry["target"], "file": filename,
                             "n": int(values.size)})

    # ------------------------------------------------------------------ deltas
    def delta_since(self, version: int) -> GrowthDelta:
        """Growth between log ``version`` (exclusive) and the current head."""
        version = int(version)
        if not 0 <= version <= self.version:
            raise ValidationError(
                f"delta_since version must be in [0, {self.version}], "
                f"got {version}")
        grown = {name: 0 for name in self.type_names}
        new_edges: dict[tuple[str, str], int] = {
            (entry["source"], entry["target"]): 0
            for entry in self._manifest["relations"]}
        for segment in self._manifest["segments"]:
            if segment["version"] <= version:
                continue
            if segment["kind"] == "objects":
                grown[segment["type"]] += int(segment["count"])
            else:
                key = (segment["source"], segment["target"])
                new_edges[key] += int(segment["n"])
        return GrowthDelta(since=version, version=self.version,
                           grown=grown, new_edges=new_edges)

    # ----------------------------------------------------------- materialising
    def _features_for(self, entry: dict) -> np.ndarray | None:
        """Concatenated features of one type, loading only new segments."""
        name = entry["name"]
        if entry["n_features"] is None:
            return None
        parts = self._feature_parts.get(name)
        if parts is None:
            base_file = self._manifest["base_features"][name]
            parts = [np.load(self.directory / base_file)]
            self._feature_parts[name] = parts
            self._feature_scanned[name] = 0
        segments = self._manifest["segments"]
        for segment in segments[self._feature_scanned[name]:]:
            if (segment["kind"] == "objects" and segment["type"] == name
                    and segment["features"]):
                parts.append(np.load(self.directory / segment["features"]))
        self._feature_scanned[name] = len(segments)
        cached = self._feature_concat.get(name)
        if cached is not None and cached[0] == len(parts):
            return cached[1]
        concat = parts[0] if len(parts) == 1 else np.vstack(parts)
        self._feature_concat[name] = (len(parts), concat)
        return concat

    def _edges(self, segment: dict) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
        """The ``(rows, cols, values)`` triplets of one edge segment."""
        with np.load(self.directory / segment["file"]) as arrays:
            return (np.asarray(arrays["rows"], dtype=np.int64),
                    np.asarray(arrays["cols"], dtype=np.int64),
                    np.asarray(arrays["values"], dtype=np.float64))

    def _relation(self, entry: dict, sizes: dict[str, int]) -> Relation:
        """One relation at the current sizes, rebuilt only when it changed.

        Each relation is cached with its stamp (edge segments applied,
        endpoint sizes) and its accumulated entries: the dense matrix, or
        on the CSR path the concatenated COO triplets.  An append that
        gives it no edges and grows neither endpoint returns the cached
        :class:`Relation` object; any other append loads only the edge
        segments past the stamp.  The CSR matrix is built from the full
        triplet list, so duplicates sum exactly as in a fresh build.
        """
        key = (entry["source"], entry["target"])
        segments = [segment for segment in self._manifest["segments"]
                    if segment["kind"] == "edges"
                    and (segment["source"], segment["target"]) == key]
        n_source = sizes[entry["source"]]
        n_target = sizes[entry["target"]]
        stamp = (len(segments), n_source, n_target)
        cached = self._relation_cache.get(key)
        if cached is not None:
            cached_stamp, entries, relation = cached
            if cached_stamp == stamp:
                return relation
            applied = cached_stamp[0]
        else:
            path = self.directory / entry["file"]
            if entry["sparse"]:
                base = sp.coo_array(sp.load_npz(path))
                entries = (np.asarray(base.row, dtype=np.int64),
                           np.asarray(base.col, dtype=np.int64),
                           np.asarray(base.data, dtype=np.float64))
            else:
                entries = np.load(path)
            applied = 0
        new = [self._edges(segment) for segment in segments[applied:]]
        if entry["sparse"]:
            entries = tuple(np.concatenate(parts)
                            for parts in zip(entries, *new))
            rows, cols, values = entries
            matrix = sp.coo_array((values, (rows, cols)),
                                  shape=(n_source, n_target)).tocsr()
            matrix.sum_duplicates()
        else:
            matrix = np.zeros((n_source, n_target))
            matrix[: entries.shape[0], : entries.shape[1]] = entries
            for rows, cols, values in new:
                np.add.at(matrix, (rows, cols), values)
            entries = matrix
        relation = Relation(entry["source"], entry["target"], matrix,
                            weight=float(entry.get("weight", 1.0)))
        self._relation_cache[key] = (stamp, entries, relation)
        return relation

    def dataset(self) -> MultiTypeRelationalData:
        """Materialise the current dataset (base + every appended segment).

        Cached per version: repeated calls between appends return the same
        object.  A call after an append loads only the new segment files:
        feature arrays on top of the cached feature parts, and edges on
        top of each changed relation's cached entries.  Only the relations
        whose edges or endpoint sizes changed are rebuilt; every other
        relation is the same :class:`Relation` object as before.
        """
        if (self._dataset_cache is not None
                and self._dataset_cache[0] == self.version):
            return self._dataset_cache[1]
        sizes = self.sizes
        types = []
        for entry in self._manifest["types"]:
            types.append(ObjectType(entry["name"],
                                    n_objects=sizes[entry["name"]],
                                    n_clusters=int(entry["n_clusters"]),
                                    features=self._features_for(entry)))
        relations = [self._relation(entry, sizes)
                     for entry in self._manifest["relations"]]
        data = MultiTypeRelationalData(types, relations)
        self._dataset_cache = (self.version, data)
        return data
