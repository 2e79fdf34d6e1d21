"""Round-trip tests: diagnostics through the artifact and predictions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RHCHME
from repro.diagnostics import DIAGNOSTICS_SCHEMA_VERSION, DriftDetector
from repro.serve import RHCHMEModel, open_model
from repro.stream import open_model_view


@pytest.fixture(scope="module")
def plain_artifact(diag_blobs_factory):
    """An export from a fit that did NOT opt into fit-time diagnostics."""
    data = diag_blobs_factory(60)
    model = RHCHME(max_iter=8, random_state=0, use_subspace_member=False,
                   track_metrics_every=0)
    model.fit(data)
    return model.export_model(data)


class TestSidecarRoundTrip:
    def test_fingerprints_always_present(self, plain_artifact):
        document = plain_artifact.diagnostics
        assert document is not None
        assert document["version"] == DIAGNOSTICS_SCHEMA_VERSION
        assert set(document["fingerprints"]) == {"points", "anchors"}
        assert "fit" not in document

    def test_fit_section_only_with_diagnostics_enabled(self, diag_artifact):
        document = diag_artifact.diagnostics
        assert set(document["fit"]["spectral"]) == {"points", "anchors"}
        assert document["fit"]["iterations"] >= 1

    def test_monolithic_save_load_round_trip(self, diag_artifact, tmp_path):
        path = diag_artifact.save(tmp_path / "model.npz")
        loaded = RHCHMEModel.load(path)
        assert loaded.diagnostics == diag_artifact.diagnostics
        # the runtime knob never round-trips: a loaded artifact starts
        # with diagnostics recording off regardless of how it was fit
        assert loaded.config.diagnostics is False
        assert "diagnostics" not in loaded.info()["config"]

    def test_metadata_read_carries_diagnostics(self, diag_model_path):
        metadata = RHCHMEModel.read_metadata(diag_model_path)
        assert metadata["diagnostics"]["version"] == DIAGNOSTICS_SCHEMA_VERSION
        assert "fingerprints" in metadata["diagnostics"]

    def test_sharded_reader_exposes_diagnostics_without_loading_shards(
            self, diag_artifact, tmp_path):
        path = diag_artifact.save(tmp_path / "model.npz",
                                  shards="per-type-mmap")
        with open_model_view(path) as view:
            document = view.model.diagnostics
            info = view.cache_info()
        assert document["version"] == DIAGNOSTICS_SCHEMA_VERSION
        assert set(document["fingerprints"]) == {"points", "anchors"}
        # metadata only, the types' shards stay cold
        assert all(entry["mode"] == "cold" for entry in info["arrays"].values()
                   if entry["shard"] != "global")

    def test_detector_builds_from_loaded_and_sharded_models(
            self, diag_artifact, tmp_path):
        mono = RHCHMEModel.load(diag_artifact.save(tmp_path / "mono.npz"))
        sharded = open_model(
            diag_artifact.save(tmp_path / "sharded.npz",
                               shards="per-type-mmap"))
        for model in (mono, sharded):
            detector = DriftDetector.from_model(model, min_rows=8)
            assert detector is not None
            assert set(detector.fingerprints) == {"points", "anchors"}
            assert detector.fingerprints["points"].has_mass_sketch

    def test_json_serializable(self, diag_artifact):
        import json
        json.dumps(diag_artifact.diagnostics)  # must not raise


class TestPredictionAffinityMass:
    def test_predict_returns_affinity_mass(self, diag_artifact, query_stream):
        queries = query_stream(40)
        prediction = diag_artifact.predict("points", queries)
        assert prediction.affinity_mass is not None
        assert prediction.affinity_mass.shape == (40,)
        assert np.all(np.isfinite(prediction.affinity_mass))
        assert np.all(prediction.affinity_mass > 0.0)

    def test_mass_tracks_distance_from_training_set(self, diag_artifact,
                                                    query_stream):
        near = diag_artifact.predict("points", query_stream(64))
        far = diag_artifact.predict("points", query_stream(64) + 50.0)
        assert far.affinity_mass.mean() < near.affinity_mass.mean()

    def test_batched_prediction_masses_are_contiguous(self, diag_artifact,
                                                      query_stream):
        queries = query_stream(50)
        whole = diag_artifact.predict("points", queries, batch_size=256)
        batched = diag_artifact.predict("points", queries, batch_size=16)
        np.testing.assert_allclose(batched.affinity_mass,
                                   whole.affinity_mass, rtol=1e-10)
