"""Tests for repro.serve.artifact — save/load round-trips and schema checks."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ArtifactError, ValidationError
from repro.serve import RHCHMEModel, SCHEMA_VERSION, load_model
from repro.serve.shards import open_model
from repro.stream import open_model_view


@pytest.fixture
def saved(blob_artifact, tmp_path):
    path = blob_artifact.save(tmp_path / "model.npz")
    return blob_artifact, path


class TestRoundTrip:
    def test_labels_exact(self, saved):
        artifact, path = saved
        loaded = RHCHMEModel.load(path)
        assert set(loaded.labels) == set(artifact.labels)
        for name in artifact.labels:
            np.testing.assert_array_equal(loaded.labels[name],
                                          artifact.labels[name])

    def test_state_blocks_exact(self, saved):
        artifact, path = saved
        loaded = RHCHMEModel.load(path)
        for name in artifact.membership:
            np.testing.assert_array_equal(loaded.membership[name],
                                          artifact.membership[name])
        np.testing.assert_array_equal(loaded.association, artifact.association)
        np.testing.assert_array_equal(loaded.error_matrix, artifact.error_matrix)

    def test_features_exact(self, saved):
        artifact, path = saved
        loaded = RHCHMEModel.load(path)
        assert set(loaded.features) == set(artifact.features)
        for name in artifact.features:
            np.testing.assert_array_equal(loaded.features[name],
                                          artifact.features[name])

    def test_config_and_metadata_exact(self, saved):
        artifact, path = saved
        loaded = RHCHMEModel.load(path)
        assert loaded.config == artifact.config
        assert loaded.types == artifact.types
        assert loaded.backend == artifact.backend
        assert loaded.schema_version == SCHEMA_VERSION

    def test_reconstructed_state_matches_fit(self, saved, blob_fit):
        _, path = saved
        _, result = blob_fit
        state = RHCHMEModel.load(path).state()
        for block, fitted in zip(state.G_blocks, result.state.G_blocks):
            np.testing.assert_array_equal(block, fitted)
        np.testing.assert_array_equal(state.S, result.state.S)
        np.testing.assert_array_equal(state.E_R, result.state.E_R)
        assert state.object_spec == result.state.object_spec
        assert state.cluster_spec == result.state.cluster_spec

    def test_suffixless_path_and_alias(self, blob_artifact, tmp_path):
        path = blob_artifact.save(tmp_path / "model")
        assert path.name == "model.npz"
        assert (tmp_path / "model.json").exists()
        loaded = load_model(tmp_path / "model")
        assert loaded.type_names == blob_artifact.type_names

    def test_runtime_knobs_absent_from_sidecar(self, saved):
        # diagnostics describes how one machine ran the fit, not what the
        # model is — it must not be persisted, so the artifact loads
        # identically anywhere.
        _, path = saved
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert "diagnostics" not in sidecar["config"]
        loaded = RHCHMEModel.load(path)
        assert loaded.config.diagnostics is False


class TestRetiredTorchBackend:
    """Sidecars of fits by the retired torch engine load as ``"auto"``."""

    @staticmethod
    def _mark_torch(path):
        sidecar_path = path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["config"]["backend"] = "torch"
        sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n")

    def test_load_reads_torch_as_auto(self, blob_artifact, blob_split,
                                      tmp_path):
        queries = blob_split.query_features
        reference = blob_artifact.save(tmp_path / "reference.npz")
        edited = blob_artifact.save(tmp_path / "torch.npz")
        self._mark_torch(edited)
        loaded = RHCHMEModel.load(edited)
        assert loaded.config.backend == "auto"
        expected = RHCHMEModel.load(reference).predict("points", queries)
        actual = loaded.predict("points", queries)
        np.testing.assert_array_equal(actual.labels, expected.labels)
        np.testing.assert_array_equal(actual.membership, expected.membership)

    def test_sharded_reader_reads_torch_as_auto(self, blob_artifact,
                                                blob_split, tmp_path):
        queries = blob_split.query_features
        reference = blob_artifact.save(tmp_path / "reference.npz",
                                       shards="per-type-mmap")
        edited = blob_artifact.save(tmp_path / "torch.npz",
                                    shards="per-type-mmap")
        self._mark_torch(edited)
        with open_model_view(reference) as expected_view, \
                open_model_view(edited) as view:
            assert view.model.config.backend == "auto"
            expected = expected_view.model.predict("points", queries)
            actual = view.model.predict("points", queries)
        np.testing.assert_array_equal(actual.labels, expected.labels)
        np.testing.assert_array_equal(actual.membership, expected.membership)


class TestRetiredErrorKnobs:
    """Sidecars carrying retired config keys still load and predict.

    A retired key that chose the fitted objective loads only at the value
    the fit still uses.
    """

    @staticmethod
    def check(artifact, tmp_path, **retired):
        path = artifact.save(tmp_path / "model.npz", shards="per-type-mmap")
        sidecar_path = path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["config"].update(retired)
        sidecar_path.write_text(json.dumps(sidecar))
        loaded = RHCHMEModel.load(path)
        assert loaded.config == artifact.config
        with open_model_view(path) as view:
            assert view.model.config == artifact.config
            for name, queries in artifact.features.items():
                expected = artifact.predict(name, queries)
                for served in (loaded, view.model):
                    actual = served.predict(name, queries)
                    np.testing.assert_array_equal(actual.labels,
                                                  expected.labels)
                    np.testing.assert_array_equal(actual.membership,
                                                  expected.membership)

    def test_zeta_and_error_row_tol_are_dropped(self, blob_artifact,
                                                tmp_path):
        self.check(blob_artifact, tmp_path, zeta=1e-10, error_row_tol=1e-8)

    def test_subspace_admm_knobs_are_dropped(self, blob_artifact, tmp_path):
        self.check(blob_artifact, tmp_path, subspace_max_iter=84,
                   subspace_tol=1e-5)

    def test_subspace_topk_is_dropped(self, blob_artifact, tmp_path):
        # Every sidecar written while the knob existed stores it, unset
        # (null) or set.
        for value in (None, 10):
            self.check(blob_artifact, tmp_path, subspace_topk=value)

    def test_fixed_objective_knobs_are_dropped(self, blob_artifact,
                                               tmp_path):
        # Every sidecar written while the knobs existed stores all three.
        # init_smoothing goes at any value: a warm-start refresh never
        # read it.
        for smoothing in (0.2, 0.05):
            self.check(blob_artifact, tmp_path, laplacian_kind="unnormalized",
                       normalize_relations=True, init_smoothing=smoothing)

    @pytest.mark.parametrize("key, value", [("laplacian_kind", "normalized"),
                                            ("normalize_relations", False)])
    def test_other_objectives_are_refused(self, blob_artifact, tmp_path,
                                          key, value):
        with pytest.raises(ArtifactError, match=key):
            self.check(blob_artifact, tmp_path, **{key: value})
        with pytest.raises(ArtifactError, match=key):
            open_model(tmp_path / "model.npz")


class TestSchemaRefusal:
    def _rewrite_sidecar(self, path, **overrides):
        sidecar_path = path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar.update(overrides)
        sidecar_path.write_text(json.dumps(sidecar))

    def test_mismatched_schema_version_refused(self, saved):
        _, path = saved
        self._rewrite_sidecar(path, schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(ArtifactError, match="schema version"):
            RHCHMEModel.load(path)

    def test_foreign_format_refused(self, saved):
        _, path = saved
        self._rewrite_sidecar(path, format="other-model")
        with pytest.raises(ArtifactError, match="not an RHCHME model"):
            RHCHMEModel.load(path)

    def test_corrupt_sidecar_refused(self, saved):
        _, path = saved
        path.with_suffix(".json").write_text("{not json")
        with pytest.raises(ArtifactError, match="corrupt"):
            RHCHMEModel.load(path)

    def test_missing_files_refused(self, tmp_path):
        with pytest.raises(ArtifactError, match="not found"):
            RHCHMEModel.load(tmp_path / "absent.npz")

    def test_missing_sidecar_refused(self, saved, tmp_path):
        _, path = saved
        path.with_suffix(".json").unlink()
        with pytest.raises(ArtifactError, match="sidecar"):
            RHCHMEModel.load(path)

    def test_sidecar_paired_with_wrong_npz_refused(self, saved, tmp_path):
        # The sidecar passes format/schema checks but promises arrays the
        # npz does not hold; load must fail with ArtifactError, not KeyError.
        _, path = saved
        np.savez_compressed(path, association=np.zeros((2, 2)))
        with pytest.raises(ArtifactError, match="do not match the sidecar"):
            RHCHMEModel.load(path)

    def test_read_metadata_never_touches_arrays(self, saved):
        _, path = saved
        path.write_bytes(b"not an npz at all")  # arrays corrupt, sidecar fine
        metadata = RHCHMEModel.read_metadata(path)
        assert metadata["schema_version"] == SCHEMA_VERSION
        with pytest.raises(Exception):
            RHCHMEModel.load(path)

    def test_resolve_path_normalises_spellings(self, saved):
        _, path = saved
        assert (RHCHMEModel.resolve_path(path.with_suffix(""))
                == RHCHMEModel.resolve_path(path))

    def test_unreconstructable_config_refused(self, saved):
        _, path = saved
        sidecar_path = path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["config"]["no_such_knob"] = 1
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(ArtifactError, match="config"):
            RHCHMEModel.load(path)


class TestModelInterface:
    def test_info_summarises_artifact(self, blob_artifact):
        info = blob_artifact.info()
        assert info["format"] == "rhchme-model"
        assert info["schema_version"] == SCHEMA_VERSION
        assert [t["name"] for t in info["types"]] == ["points", "anchors"]
        assert info["config"]["weighting"] == "cosine"
        assert json.dumps(info)  # JSON-serialisable end to end

    def test_unknown_type_rejected(self, blob_artifact):
        with pytest.raises(ValidationError, match="unknown object type"):
            blob_artifact.type_info("nope")

    def test_predict_validates_feature_dim(self, blob_artifact):
        with pytest.raises(ValidationError, match="features"):
            blob_artifact.predict("points", np.ones((3, 2)))

    def test_export_requires_fit(self, blob_split):
        from repro.core import RHCHME
        from repro.exceptions import NotFittedError
        with pytest.raises(NotFittedError):
            RHCHME().export_model(blob_split.train)

    def test_export_with_mismatched_dataset_rejected(self, blob_fit,
                                                     blob_dataset):
        # The fit ran on the training split; exporting against the full
        # dataset would pair wrong objects with the membership blocks.
        model, _ = blob_fit
        with pytest.raises(ValidationError, match="fitted on"):
            model.export_model(blob_dataset)

    def test_model_comparison_does_not_crash(self, saved):
        # eq=False: artifacts compare by identity; the dataclass-generated
        # __eq__ would raise on the ndarray/dict fields.
        artifact, path = saved
        loaded = RHCHMEModel.load(path)
        assert artifact == artifact
        assert artifact != loaded
        assert hash(artifact) is not None


def _rewrite_as_dense_layout(path) -> np.ndarray:
    """Rewrite a saved monolithic artifact's E_R in the legacy dense layout.

    Saves only write the row-sparse layout, so the dense one (every
    version-1 artifact, and version-2 dense-backend fits) is reproduced by
    hand: one ``error_matrix`` array and an ``error_matrix_layout`` of
    ``"dense"``.  Returns the dense matrix written.
    """
    from repro.serve.artifact import read_error_matrix
    sidecar_path = path.with_suffix(".json")
    sidecar = json.loads(sidecar_path.read_text())
    with np.load(path) as npz:
        arrays = dict(npz)
    n = sum(entry["n_objects"] for entry in sidecar["types"])
    dense = read_error_matrix(arrays, n).to_dense()
    del arrays["error_matrix_rows"], arrays["error_matrix_values"]
    np.savez_compressed(path, error_matrix=dense, **arrays)
    sidecar["error_matrix_layout"] = "dense"
    sidecar_path.write_text(json.dumps(sidecar))
    return dense


class TestErrorMatrixPersistence:
    """Row-sparse persistence of the error matrix, and legacy dense loads.

    Saves write only the row-sparse layout: the stored rows' indices and
    values, never an (n, n) block.  Dense-layout artifacts written before
    still load, compressed to their non-zero rows.
    """

    @pytest.fixture
    def sparse_fit_artifact(self, blob_dataset):
        # Four corrupted point rows: at β = 0.3 the exact E step keeps
        # exactly them, so E_R has a few stored rows to persist.
        from repro.core import RHCHME
        from repro.data.noise import corrupt_rows
        from repro.relational.dataset import MultiTypeRelationalData
        from repro.relational.types import Relation
        corrupted, _ = corrupt_rows(
            blob_dataset.relation_between("points", "anchors").matrix,
            fraction=0.05, magnitude=3.0, random_state=0)
        data = MultiTypeRelationalData(
            blob_dataset.types, [Relation("points", "anchors", corrupted)])
        model = RHCHME(max_iter=15, random_state=0, use_subspace_member=False,
                       track_metrics_every=0, backend="sparse", beta=0.3)
        model.fit(data)
        artifact = model.export_model(data)
        assert artifact.error_matrix.n_stored_rows == 4
        return artifact

    @pytest.fixture
    def dense_saved(self, sparse_fit_artifact, tmp_path):
        path = sparse_fit_artifact.save(tmp_path / "model.npz")
        return sparse_fit_artifact, path, _rewrite_as_dense_layout(path)

    def test_saves_write_only_row_sparse_layout(self, sparse_fit_artifact,
                                                tmp_path):
        path = sparse_fit_artifact.save(tmp_path / "model.npz")
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["error_matrix_layout"] == "row-sparse"
        with np.load(path) as npz:
            assert "error_matrix" not in npz.files
            assert npz["error_matrix_values"].shape == (
                4, sparse_fit_artifact.error_matrix.shape[1])

    def test_dense_layout_artifact_loads_row_sparse(self, dense_saved):
        from repro.linalg.rowsparse import RowSparseMatrix
        artifact, path, dense = dense_saved
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["error_matrix_layout"] == "dense"
        loaded = RHCHMEModel.load(path)
        assert isinstance(loaded.error_matrix, RowSparseMatrix)
        np.testing.assert_array_equal(loaded.error_matrix.rows,
                                      artifact.error_matrix.rows)
        np.testing.assert_array_equal(loaded.error_matrix.to_dense(), dense)
        # and it re-saves in the row-sparse layout
        repath = loaded.save(path.parent / "resaved.npz")
        residecar = json.loads(repath.with_suffix(".json").read_text())
        assert residecar["error_matrix_layout"] == "row-sparse"

    def test_all_zero_dense_error_matrix_compacts(self, blob_artifact,
                                                  tmp_path):
        import dataclasses
        from repro.linalg.rowsparse import RowSparseMatrix
        n = sum(info.n_objects for info in blob_artifact.types)
        zeroed = dataclasses.replace(blob_artifact,
                                     error_matrix=np.zeros((n, n)))
        path = zeroed.save(tmp_path / "zero.npz")
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["error_matrix_layout"] == "row-sparse"
        loaded = RHCHMEModel.load(path)
        assert isinstance(loaded.error_matrix, RowSparseMatrix)
        assert loaded.error_matrix.is_zero
        assert loaded.error_matrix.shape == (n, n)
        # reconstruction stays compact end to end
        assert isinstance(loaded.state().E_R, RowSparseMatrix)
        np.testing.assert_array_equal(np.asarray(loaded.error_matrix),
                                      np.zeros((n, n)))

    def test_row_sparse_round_trip_exact(self, sparse_fit_artifact, tmp_path):
        from repro.linalg.rowsparse import RowSparseMatrix
        assert isinstance(sparse_fit_artifact.error_matrix, RowSparseMatrix)
        path = sparse_fit_artifact.save(tmp_path / "model.npz")
        loaded = RHCHMEModel.load(path)
        assert isinstance(loaded.error_matrix, RowSparseMatrix)
        np.testing.assert_array_equal(loaded.error_matrix.rows,
                                      sparse_fit_artifact.error_matrix.rows)
        np.testing.assert_array_equal(loaded.error_matrix.values,
                                      sparse_fit_artifact.error_matrix.values)

    def test_row_sparse_round_trip_through_shards(self, sparse_fit_artifact,
                                                  tmp_path):
        from repro.linalg.rowsparse import RowSparseMatrix
        path = sparse_fit_artifact.save(tmp_path / "model.npz",
                                        shards="per-type-mmap")
        loaded = RHCHMEModel.load(path)
        assert isinstance(loaded.error_matrix, RowSparseMatrix)
        np.testing.assert_array_equal(
            np.asarray(loaded.error_matrix),
            np.asarray(sparse_fit_artifact.error_matrix))

    def test_global_shard_stays_compact(self, sparse_fit_artifact, tmp_path):
        # The row-sparse global shard must not dominate the artifact: with
        # few surviving rows it stays a small fraction of total bytes even
        # with use_error_matrix=True, keeping single-type partial reads
        # cheap relative to the whole.
        path = sparse_fit_artifact.save(tmp_path / "model.npz",
                                        shards="per-type-mmap")
        sidecar = json.loads(path.with_suffix(".json").read_text())
        manifest = sidecar["shards"]
        directory = path.parent
        global_bytes = sum((directory / name).stat().st_size
                           for name in manifest["global"].values())
        type_bytes = sum((directory / name).stat().st_size
                         for entries in manifest["types"].values()
                         for name in entries.values())
        assert global_bytes < 0.5 * type_bytes

    def test_lazy_reader_reads_row_sparse_global_shard(self,
                                                       sparse_fit_artifact,
                                                       tmp_path):
        from repro.serve.shards import ShardedModelReader
        path = sparse_fit_artifact.save(tmp_path / "model.npz",
                                        shards="per-type-mmap")
        reader = ShardedModelReader(path)
        np.testing.assert_array_equal(reader.association,
                                      sparse_fit_artifact.association)
        assert reader.cache_info()["loads"] == {"global": 1}

    def test_legacy_dense_sidecar_without_layout_field_loads(self,
                                                            dense_saved):
        # Artifacts written before the layout field existed are all dense;
        # a missing field must keep reading them.
        artifact, path, dense = dense_saved
        sidecar_path = path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar.pop("error_matrix_layout")
        sidecar_path.write_text(json.dumps(sidecar))
        loaded = RHCHMEModel.load(path)
        np.testing.assert_array_equal(loaded.error_matrix.rows,
                                      artifact.error_matrix.rows)
        np.testing.assert_array_equal(loaded.error_matrix.to_dense(), dense)

    def test_version1_dense_artifact_still_loads(self, dense_saved):
        # A true pre-row-sparse artifact: schema version 1, no layout
        # field, and the one-step E update's zeta knob in its config.
        artifact, path, dense = dense_saved
        sidecar_path = path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["schema_version"] = 1
        sidecar.pop("error_matrix_layout")
        sidecar["config"]["zeta"] = 1e-10
        sidecar_path.write_text(json.dumps(sidecar))
        loaded = RHCHMEModel.load(path)
        assert loaded.schema_version == 1
        assert loaded.config == artifact.config
        np.testing.assert_array_equal(loaded.error_matrix.to_dense(), dense)
        # re-saving writes the current schema, not the stale stamp
        repath = loaded.save(path.parent / "resaved.npz")
        residecar = json.loads(repath.with_suffix(".json").read_text())
        assert residecar["schema_version"] == SCHEMA_VERSION
