"""Tests for incremental artifact refresh (repro.runtime.refresh).

The acceptance bar mirrors the serving extension's: a warm-start refresh on
a grown dataset must agree with a cold full refit on at least 90% of
objects, and the hot-swap path must publish the refreshed model without
disturbing requests already in flight.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RHCHME
from repro.exceptions import ValidationError
from repro.metrics import cluster_alignment
from repro.runtime import RuntimeServer, refresh_model, warm_start_blocks

from .conftest import global_modes, touched_types

_WAIT = 30.0


def _agreement(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Label agreement after aligning arbitrary cluster numberings."""
    mapping = cluster_alignment(labels_a, labels_b)
    return float(np.mean(mapping[labels_b] == labels_a))


class TestWarmStartBlocks:
    def test_old_rows_preserved_and_new_rows_seeded(self, runtime_artifact,
                                                    grown_dataset):
        blocks = warm_start_blocks(runtime_artifact, grown_dataset)
        old = runtime_artifact.membership["points"]
        assert blocks["points"].shape == (120, 3)
        np.testing.assert_array_equal(blocks["points"][:90], old)
        assert blocks["anchors"].shape == runtime_artifact.membership[
            "anchors"].shape
        # seeded rows are informative: most new objects should already lean
        # towards their eventual cluster, not the uniform distribution
        seeded = blocks["points"][90:]
        assert np.all(seeded >= 0)
        assert (seeded.max(axis=1) > 1.2 * seeded.min(axis=1)).mean() > 0.5

    def test_ungrown_dataset_is_identity(self, runtime_artifact,
                                         runtime_dataset):
        blocks = warm_start_blocks(runtime_artifact, runtime_dataset)
        for name, block in runtime_artifact.membership.items():
            np.testing.assert_array_equal(blocks[name], block)


class TestRefreshValidation:
    def test_shrunk_type_rejected(self, runtime_artifact, blobs_factory):
        with pytest.raises(ValidationError, match="shrank"):
            refresh_model(runtime_artifact, blobs_factory(60))

    def test_changed_prefix_rejected(self, runtime_artifact, blobs_factory):
        tampered = blobs_factory(120)
        tampered.get_type("points").features[0, 0] += 1.0
        with pytest.raises(ValidationError, match="prefix"):
            refresh_model(runtime_artifact, tampered)

    def test_mismatched_types_rejected(self, runtime_artifact, blob_dataset):
        # blob_dataset has the same type names but different object counts
        # *and* different features; the prefix check must catch it.
        with pytest.raises(ValidationError):
            refresh_model(runtime_artifact, blob_dataset)

    def test_config_overrides_are_validated(self, runtime_artifact,
                                            grown_dataset):
        with pytest.raises(Exception):
            refresh_model(runtime_artifact, grown_dataset, max_iter=-3)


class TestRefreshAgreement:
    @pytest.fixture(scope="class")
    def refreshed_and_cold(self, runtime_artifact, grown_dataset):
        outcome = refresh_model(runtime_artifact, grown_dataset)
        cold = RHCHME(max_iter=25, random_state=0, use_subspace_member=False,
                      track_metrics_every=0).fit(grown_dataset)
        return outcome, cold

    def test_refresh_agrees_with_cold_refit_on_90_percent(
            self, refreshed_and_cold):
        outcome, cold = refreshed_and_cold
        agreement = _agreement(outcome.model.labels["points"],
                               cold.labels["points"])
        assert agreement >= 0.9

    def test_refresh_predictions_agree_with_cold_predictions(
            self, refreshed_and_cold, grown_dataset):
        outcome, cold_result = refreshed_and_cold
        cold_model = cold_result.to_model(
            grown_dataset,
            RHCHME(max_iter=25, random_state=0, use_subspace_member=False,
                   track_metrics_every=0).config)
        rng = np.random.default_rng(3)
        reference = grown_dataset.get_type("points").features
        queries = reference[rng.integers(0, reference.shape[0], 60)] + 0.05
        warm = outcome.model.predict("points", queries)
        cold = cold_model.predict("points", queries)
        mapping = cluster_alignment(outcome.model.labels["points"],
                                    cold_result.labels["points"])
        assert np.mean(mapping[cold.labels] == warm.labels) >= 0.9

    def test_outcome_accounting(self, refreshed_and_cold):
        outcome, _ = refreshed_and_cold
        assert outcome.grown == {"points": 30, "anchors": 0}
        assert outcome.n_new_objects == 30
        assert outcome.result.extras["warm_start"] is True
        assert outcome.model.type_info("points").n_objects == 120


class TestServerRefresh:
    def test_hot_swap_serves_new_model_and_keeps_old_futures(
            self, runtime_artifact, grown_dataset, tmp_path):
        path = runtime_artifact.save(tmp_path / "model.npz",
                                     shards="per-type-mmap")
        queries = grown_dataset.get_type("points").features[90:]
        with RuntimeServer(workers="thread", n_workers=2, max_batch_size=8,
                           max_delay_seconds=0.002) as runtime:
            before = runtime.submit(path=path,
                                    type_name="points", queries=queries)
            outcome = runtime.refresh(path, grown_dataset, max_iter=10)
            after = runtime.submit(path=path,
                                   type_name="points", queries=queries)
            # both generations answer; the in-flight future is not dropped
            assert before.result(timeout=_WAIT).n_queries == 30
            assert after.result(timeout=_WAIT).n_queries == 30
            assert runtime.stats.refreshes == 1
            # the refreshed artifact was persisted in the same shard layout
            meta = outcome.model.read_metadata(path)
            assert meta["shards"]["layout"] == "per-type-mmap"
            assert meta["types"][0]["n_objects"] == 120
            # the swapped-in cached model is the refreshed one
            cached = runtime.predictor.get_model(path)
            assert cached is outcome.model

    def test_refresh_without_save_keeps_disk_artifact(self, runtime_artifact,
                                                      grown_dataset,
                                                      tmp_path):
        path = runtime_artifact.save(tmp_path / "model.npz")
        with RuntimeServer(workers="serial", max_batch_size=8,
                           max_delay_seconds=0.002) as runtime:
            runtime.refresh(path, grown_dataset, save=False, max_iter=5)
            meta = runtime_artifact.read_metadata(path)
            assert meta["types"][0]["n_objects"] == 90  # disk untouched
            cached = runtime.predictor.get_model(path)
            assert cached.type_info("points").n_objects == 120  # cache swapped

    def test_refresh_preloads_cached_lazy_reader(self, runtime_artifact,
                                                 grown_dataset, tmp_path):
        # The cached reader must become fully resident before the files are
        # rewritten, so in-flight requests never read mid-rewrite shards.
        path = runtime_artifact.save(tmp_path / "model.npz",
                                     shards="per-type-mmap")
        with RuntimeServer(workers="serial", max_batch_size=8,
                           max_delay_seconds=0.002) as runtime:
            queries = grown_dataset.get_type("points").features[:4]
            runtime.predict(path=path,
                            type_name="points", queries=queries, timeout=_WAIT)
            reader = runtime.predictor.peek_model(path).reader
            assert touched_types(reader.cache_info()) == ["points"]
            runtime.refresh(path, grown_dataset, max_iter=3)
            info = reader.cache_info()
            assert touched_types(info) == ["anchors", "points"]
            assert global_modes(info) == {"resident"}


class TestSparseErrorMatrixRefresh:
    """Warm-start refresh through a sparse-backend artifact's row-sparse E_R.

    The artifact must round-trip E_R without densifying, the embed step must
    keep it row-sparse in the grown layout, and the refreshed fit must still
    agree with a cold refit — the same bar the dense path meets.
    """

    @pytest.fixture(scope="class")
    def sparse_artifact(self, blobs_factory, tmp_path_factory):
        from repro.serve import RHCHMEModel
        data = blobs_factory(90)
        # The residual rows of these blobs stay below 0.01, so a small β
        # keeps E_R rows for the embed step to remap.
        model = RHCHME(max_iter=25, random_state=0, use_subspace_member=False,
                       track_metrics_every=0, backend="sparse", beta=0.001)
        model.fit(data)
        path = model.export_model(data).save(
            tmp_path_factory.mktemp("sparse-er") / "model.npz")
        return RHCHMEModel.load(path)

    def test_artifact_round_trips_row_sparse(self, sparse_artifact):
        from repro.linalg.rowsparse import RowSparseMatrix
        assert isinstance(sparse_artifact.error_matrix, RowSparseMatrix)

    def test_embed_keeps_error_matrix_row_sparse(self, sparse_artifact,
                                                 grown_dataset):
        from repro.linalg.rowsparse import RowSparseMatrix
        from repro.runtime.refresh import _embed_error_matrix
        embedded = _embed_error_matrix(sparse_artifact, grown_dataset)
        assert isinstance(embedded, RowSparseMatrix)
        assert embedded.shape == (grown_dataset.n_objects_total,
                                  grown_dataset.n_objects_total)
        # old rows land at their remapped positions with identical values
        old = sparse_artifact.error_matrix
        assert old.n_stored_rows > 0
        n_new_points = (grown_dataset.get_type("points").n_objects
                        - sparse_artifact.type_info("points").n_objects)
        dense_old = old.to_dense()
        dense_new = embedded.to_dense()
        n_old_points = sparse_artifact.type_info("points").n_objects
        np.testing.assert_array_equal(
            dense_new[:n_old_points, :n_old_points],
            dense_old[:n_old_points, :n_old_points])
        assert np.all(dense_new[n_old_points:n_old_points + n_new_points] == 0)

    def test_refresh_agrees_with_cold_refit(self, sparse_artifact,
                                            grown_dataset):
        from repro.linalg.rowsparse import RowSparseMatrix
        outcome = refresh_model(sparse_artifact, grown_dataset)
        assert outcome.result.extras["warm_start"] is True
        assert outcome.grown == {"points": 30, "anchors": 0}
        assert isinstance(outcome.model.error_matrix, RowSparseMatrix)
        cold = RHCHME(sparse_artifact.config).fit(grown_dataset)
        for name in outcome.model.labels:
            agreement = _agreement(cold.labels[name],
                                   outcome.model.labels[name])
            assert agreement >= 0.9, (name, agreement)


class TestFingerprintReuse:
    """A refresh neither computes nor carries over drift fingerprints.

    A detector over the refreshed model builds each one from the refreshed
    features under the refreshed config, so nothing stale is reused: it
    equals a fresh fingerprint of the grown dataset whatever the schedule
    or the config overrides.
    """

    @staticmethod
    def _assert_fresh(model, data, name):
        from repro.diagnostics import DriftDetector, fingerprint_features
        config = model.config
        built = DriftDetector.from_model(model).fingerprints[name]
        fresh = fingerprint_features(
            data.get_type(name).features, p=config.p,
            weighting=config.weighting, random_state=config.random_state,
            type_name=name)
        assert built.n_reference == data.get_type(name).n_objects
        assert built.p == config.p
        for field in ("feature_edges", "feature_proportions", "mass_edges",
                      "mass_proportions"):
            assert (getattr(built, field).tobytes()
                    == getattr(fresh, field).tobytes()), field

    @pytest.fixture()
    def fingerprinted(self, monkeypatch):
        """Names of the types ``fingerprint_features`` ran for, in order."""
        import repro.diagnostics.drift as drift
        calls = []
        original = drift.fingerprint_features

        def counting(features, **kwargs):
            calls.append(kwargs.get("type_name"))
            return original(features, **kwargs)

        monkeypatch.setattr(drift, "fingerprint_features", counting)
        return calls

    def test_clean_fingerprint_equals_fresh_one(self, runtime_artifact,
                                                grown_dataset):
        outcome = refresh_model(runtime_artifact, grown_dataset,
                                dirty="auto", max_iter=3)
        assert outcome.dirty.types == {"points"}
        assert "fingerprints" not in outcome.model.diagnostics
        for name in ("points", "anchors"):
            self._assert_fresh(outcome.model, grown_dataset, name)

    @pytest.mark.parametrize("dirty", [None, "auto"], ids=["full", "delta"])
    def test_no_type_is_fingerprinted(self, runtime_artifact, grown_dataset,
                                      fingerprinted, dirty):
        refresh_model(runtime_artifact, grown_dataset, dirty=dirty,
                      max_iter=3)
        assert fingerprinted == []

    @pytest.mark.parametrize("dirty, overrides", [
        (None, {}),
        ("auto", {"p": 4}),
        ("auto", {"random_state": 1}),
    ], ids=["full-refit", "p-override", "random-state-override"])
    def test_recomputed_when_refit_or_knobs_change(
            self, runtime_artifact, grown_dataset, dirty, overrides):
        outcome = refresh_model(runtime_artifact, grown_dataset, dirty=dirty,
                                max_iter=3, **overrides)
        for name, value in overrides.items():
            assert getattr(outcome.model.config, name) == value
        self._assert_fresh(outcome.model, grown_dataset, "anchors")

    def test_grown_type_left_clean_is_recomputed(self, runtime_artifact,
                                                 grown_dataset):
        # A DirtySet may leave a grown type clean; its fingerprint still
        # covers every row the refreshed model holds.
        from repro.core.schedule import DirtySet
        outcome = refresh_model(runtime_artifact, grown_dataset,
                                dirty=DirtySet(types={"anchors"}), max_iter=3)
        self._assert_fresh(outcome.model, grown_dataset, "points")

    def test_mapped_refresh_leaves_clean_features_unmapped(
            self, sharded_model_path, grown_dataset, fingerprinted):
        from repro.stream import open_model_view
        with open_model_view(sharded_model_path, promote=["points"]) as view:
            outcome = refresh_model(view.model, grown_dataset, dirty="auto",
                                    validate="shapes", max_iter=3)
            info = view.cache_info()
        assert info["arrays"]["features::anchors"]["mode"] == "cold"
        assert fingerprinted == []
        assert "fingerprints" not in outcome.model.diagnostics
