"""Tests for per-type sharded artifacts and the lazy reader.

Saves write the ``per-type-mmap`` layout (one raw ``.npy`` per array);
partial-load claims are asserted with the reader's byte accounting (which
array files were actually opened), not timings.  Legacy ``per-type`` npz
artifacts are still read: :func:`save_legacy_per_type` writes one the way
that layout's writer did, so the read side stays covered.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ArtifactError, ValidationError
from repro.runtime import RuntimeServer
from repro.serve import (BatchPredictor, RHCHMEModel, ShardedModelReader,
                         open_model)

from .conftest import global_modes, touched_types

#: Array files of the two-type runtime artifact in the mmap layout.
MMAP_FILES = ["anchors.features.npy", "anchors.labels.npy",
              "anchors.membership.npy", "global.association.npy",
              "global.error_matrix_rows.npy", "global.error_matrix_values.npy",
              "points.features.npy", "points.labels.npy",
              "points.membership.npy"]


def save_legacy_per_type(model: RHCHMEModel, path):
    """Write ``model`` in the legacy ``per-type`` npz layout; return the handle.

    One compressed ``<stem>.<type>.npz`` per type (membership, labels,
    features) plus ``<stem>.global.npz`` (association and row-sparse error
    matrix), with the file map in the sidecar's ``shards`` manifest — the
    files that layout's writer produced.
    """
    npz_path = model.save(path)  # its sidecar; the npz is replaced below
    stem = npz_path.stem
    global_arrays = {"association": model.association}
    if model.error_matrix is not None:
        global_arrays["error_matrix_rows"] = model.error_matrix.rows
        global_arrays["error_matrix_values"] = model.error_matrix.values
    manifest = {"layout": "per-type", "global": f"{stem}.global.npz",
                "types": {}}
    files = {manifest["global"]: global_arrays}
    for info in model.types:
        arrays = {f"membership::{info.name}": model.membership[info.name],
                  f"labels::{info.name}": model.labels[info.name]}
        if info.name in model.features:
            arrays[f"features::{info.name}"] = model.features[info.name]
        manifest["types"][info.name] = f"{stem}.{info.name}.npz"
        files[f"{stem}.{info.name}.npz"] = arrays
    npz_path.unlink()
    for filename, arrays in files.items():
        np.savez_compressed(npz_path.with_name(filename), **arrays)
    sidecar_path = npz_path.with_suffix(".json")
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["shards"] = manifest
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    return npz_path


class TestRoundTripParity:
    def test_sharded_load_equals_monolithic_load(self, runtime_artifact,
                                                 runtime_model_path,
                                                 sharded_model_path):
        mono = RHCHMEModel.load(runtime_model_path)
        sharded = RHCHMEModel.load(sharded_model_path)
        assert mono.types == sharded.types
        assert mono.config == sharded.config
        for name in mono.membership:
            np.testing.assert_array_equal(mono.membership[name],
                                          sharded.membership[name])
            np.testing.assert_array_equal(mono.labels[name],
                                          sharded.labels[name])
        for name in mono.features:
            np.testing.assert_array_equal(mono.features[name],
                                          sharded.features[name])
        np.testing.assert_array_equal(mono.association, sharded.association)
        np.testing.assert_array_equal(mono.error_matrix, sharded.error_matrix)

    def test_shard_files_and_manifest_on_disk(self, sharded_model_path):
        directory = sharded_model_path.parent
        names = sorted(f.name for f in directory.iterdir())
        assert names == sorted(["model.json"]
                               + [f"model.{name}" for name in MMAP_FILES])
        sidecar = json.loads((directory / "model.json").read_text())
        assert sidecar["shards"]["layout"] == "per-type-mmap"
        assert sorted(sidecar["shards"]["types"]) == ["anchors", "points"]
        # the monolithic npz handle is not written in this layout
        assert not sharded_model_path.exists()

    def test_relayout_removes_stale_files(self, runtime_artifact, tmp_path):
        path = runtime_artifact.save(tmp_path / "m.npz",
                                     shards="per-type-mmap")
        runtime_artifact.save(tmp_path / "m.npz")  # back to monolithic
        names = sorted(f.name for f in tmp_path.iterdir())
        assert names == ["m.json", "m.npz"]
        loaded = RHCHMEModel.load(path)
        assert loaded.type_names == runtime_artifact.type_names

    def test_unknown_layout_rejected(self, runtime_artifact, tmp_path):
        with pytest.raises(ValidationError, match="layout"):
            runtime_artifact.save(tmp_path / "m.npz", shards="per-row")

    def test_type_named_global_cannot_shard(self, tmp_path):
        # "global" is the reserved shard key; a type by that name would be
        # unreadable after a sharded save, so the save must refuse it.
        from repro.core import RHCHME
        from repro.relational.dataset import MultiTypeRelationalData
        from repro.relational.types import ObjectType, Relation

        rng = np.random.default_rng(0)
        a = ObjectType("global", n_objects=12, n_clusters=2,
                       features=rng.random((12, 4)))
        b = ObjectType("other", n_objects=9, n_clusters=2,
                       features=rng.random((9, 4)))
        data = MultiTypeRelationalData(
            [a, b], [Relation("global", "other", rng.random((12, 9)))])
        model = RHCHME(max_iter=3, random_state=0, use_subspace_member=False,
                       track_metrics_every=0)
        model.fit(data)
        artifact = model.export_model(data)
        with pytest.raises(ValidationError, match="reserved"):
            artifact.save(tmp_path / "m.npz", shards="per-type-mmap")
        artifact.save(tmp_path / "m.npz")  # monolithic still fine

    def test_resave_same_layout_leaves_no_window_and_no_stale_files(
            self, runtime_artifact, tmp_path):
        path = runtime_artifact.save(tmp_path / "m.npz",
                                     shards="per-type-mmap")
        runtime_artifact.save(tmp_path / "m.npz", shards="per-type-mmap")
        names = sorted(f.name for f in tmp_path.iterdir())
        # no .tmp leftovers, no duplicates
        assert names == sorted(["m.json"]
                               + [f"m.{name}" for name in MMAP_FILES])
        loaded = RHCHMEModel.load(path)
        np.testing.assert_array_equal(loaded.association,
                                      runtime_artifact.association)


class TestMissingAndCorrupt:
    def test_missing_shard_refused(self, runtime_artifact, tmp_path):
        path = save_legacy_per_type(runtime_artifact, tmp_path / "m.npz")
        (tmp_path / "m.anchors.npz").unlink()
        with pytest.raises(ArtifactError, match="not found"):
            RHCHMEModel.load(path)

    def test_wrong_shard_content_refused(self, runtime_artifact, tmp_path):
        path = save_legacy_per_type(runtime_artifact, tmp_path / "m.npz")
        np.savez_compressed(tmp_path / "m.points.npz", junk=np.zeros(3))
        with pytest.raises(ArtifactError, match="do not match the sidecar"):
            RHCHMEModel.load(path)

    def test_corrupt_shard_refused(self, runtime_artifact, tmp_path):
        path = save_legacy_per_type(runtime_artifact, tmp_path / "m.npz")
        (tmp_path / "m.global.npz").write_bytes(b"not an npz")
        with pytest.raises(ArtifactError, match="corrupt"):
            RHCHMEModel.load(path)


class TestLazyReader:
    def test_predict_reads_only_queried_type_shard(self, sharded_model_path,
                                                   query_batch):
        model = open_model(sharded_model_path)
        model.predict("points", query_batch)
        model.predict("points", query_batch[:5])
        info = model.reader.cache_info()
        assert touched_types(info) == ["points"]
        # features and membership, each opened once; labels stay cold
        assert info["loads"]["points"] == 2
        # S and E_R are mapped at open; none of their bytes is resident
        assert global_modes(info) == {"mapped"}
        assert len(info["arrays"]) == len(MMAP_FILES)

    def test_lazy_prediction_matches_eager(self, sharded_model_path,
                                           runtime_artifact, query_batch):
        lazy = open_model(sharded_model_path).predict("points", query_batch)
        eager = runtime_artifact.predict("points", query_batch)
        np.testing.assert_array_equal(lazy.labels, eager.labels)
        np.testing.assert_array_equal(lazy.membership, eager.membership)

    def test_reader_refuses_monolithic_artifact(self, runtime_model_path):
        with pytest.raises(ArtifactError, match="monolithic"):
            ShardedModelReader(runtime_model_path)

    def test_open_model_dispatches_by_layout(self, runtime_model_path,
                                             sharded_model_path,
                                             runtime_artifact, tmp_path):
        legacy = save_legacy_per_type(runtime_artifact, tmp_path / "m.npz")
        lazy = open_model(sharded_model_path)
        assert isinstance(lazy, RHCHMEModel)
        assert isinstance(lazy.reader, ShardedModelReader)
        for eager in (open_model(runtime_model_path), open_model(legacy)):
            assert isinstance(eager, RHCHMEModel)
            assert eager.reader is None

    def test_global_shard_loads_on_association_access(self,
                                                      sharded_model_path,
                                                      runtime_artifact):
        reader = ShardedModelReader(sharded_model_path)
        np.testing.assert_array_equal(reader.association,
                                      runtime_artifact.association)
        assert reader.cache_info()["arrays"]["association"]["mode"] == "mapped"

    def test_labels_and_membership_accessors(self, sharded_model_path,
                                             runtime_artifact):
        reader = ShardedModelReader(sharded_model_path)
        np.testing.assert_array_equal(reader.labels("anchors"),
                                      runtime_artifact.labels["anchors"])
        np.testing.assert_array_equal(reader.membership("anchors"),
                                      runtime_artifact.membership["anchors"])
        assert touched_types(reader.cache_info()) == ["anchors"]

    def test_validation_matches_eager_model(self, sharded_model_path):
        model = open_model(sharded_model_path)
        with pytest.raises(ValidationError, match="unknown object type"):
            model.predict("nope", np.ones((2, 6)))
        with pytest.raises(ValidationError, match="features"):
            model.predict("points", np.ones((2, 2)))
        # neither failed request should have touched a type's arrays
        assert touched_types(model.reader.cache_info()) == []


class TestPredictorIntegration:
    def test_lazy_predictor_serves_sharded_artifact(self, sharded_model_path,
                                                    runtime_artifact,
                                                    query_batch):
        predictor = BatchPredictor()
        prediction = predictor.predict(path=sharded_model_path,
                                       type_name="points", X_new=query_batch)
        direct = runtime_artifact.predict("points", query_batch)
        np.testing.assert_array_equal(prediction.labels, direct.labels)
        model = predictor.get_model(sharded_model_path)
        assert touched_types(model.reader.cache_info()) == ["points"]

    def test_eager_predictor_still_loads_fully(self, runtime_artifact,
                                               tmp_path):
        # A legacy per-type npz artifact cannot be mapped: it is loaded
        # eagerly, whole.
        legacy = save_legacy_per_type(runtime_artifact, tmp_path / "m.npz")
        predictor = BatchPredictor()
        assert predictor.get_model(legacy).reader is None


class TestLegacyPerTypeArtifacts:
    """Legacy ``per-type`` npz artifacts are read eagerly and never written."""

    @pytest.fixture
    def legacy_path(self, runtime_artifact, tmp_path):
        return save_legacy_per_type(runtime_artifact, tmp_path / "m.npz")

    def test_load_matches_monolithic_bit_for_bit(self, legacy_path,
                                                 runtime_model_path,
                                                 query_batch):
        mono = RHCHMEModel.load(runtime_model_path)
        legacy = RHCHMEModel.load(legacy_path)
        assert legacy.types == mono.types
        assert legacy.config == mono.config
        for name in mono.type_names:
            np.testing.assert_array_equal(legacy.membership[name],
                                          mono.membership[name])
            np.testing.assert_array_equal(legacy.labels[name],
                                          mono.labels[name])
            np.testing.assert_array_equal(legacy.features[name],
                                          mono.features[name])
        np.testing.assert_array_equal(legacy.association, mono.association)
        np.testing.assert_array_equal(legacy.error_matrix.rows,
                                      mono.error_matrix.rows)
        np.testing.assert_array_equal(legacy.error_matrix.values,
                                      mono.error_matrix.values)
        expected = mono.predict("points", query_batch)
        actual = legacy.predict("points", query_batch)
        np.testing.assert_array_equal(actual.labels, expected.labels)
        np.testing.assert_array_equal(actual.membership, expected.membership)

    def test_open_model_returns_eager_model(self, legacy_path):
        assert open_model(legacy_path).reader is None

    def test_reader_refuses_legacy_layout(self, legacy_path):
        with pytest.raises(ArtifactError, match="'per-type' layout"):
            ShardedModelReader(legacy_path)

    def test_refresh_resaves_as_mmap(self, legacy_path, grown_dataset):
        with RuntimeServer(workers="serial") as runtime:
            runtime.refresh(legacy_path, grown_dataset, max_iter=3)
        sidecar = RHCHMEModel.read_metadata(legacy_path)
        assert sidecar["shards"]["layout"] == "per-type-mmap"
        assert sidecar["types"][0]["n_objects"] == 120
        assert not list(legacy_path.parent.glob("*.npz"))
        assert open_model(legacy_path).reader is not None

    def test_save_refuses_per_type(self, runtime_artifact, tmp_path):
        with pytest.raises(ValidationError, match="per-type-mmap"):
            runtime_artifact.save(tmp_path / "m.npz", shards="per-type")
        assert list(tmp_path.iterdir()) == []
