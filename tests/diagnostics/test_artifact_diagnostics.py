"""Round-trip tests: diagnostics through the artifact and predictions."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core import RHCHME
from repro.diagnostics import (DIAGNOSTICS_SCHEMA_VERSION, DriftDetector,
                               fingerprint_features)
from repro.serve import BatchPredictor, RHCHMEModel, open_model
from repro.stream import open_model_view

#: ``points`` drift snapshot after :func:`_serve_stream`, pinned from the
#: library version whose exports stored fingerprints in the sidecar and
#: whose detector read them from there.
_PINNED_SNAPSHOT = {"rows": 192, "batches": 8, "feature_psi_mean": 0.193101,
                    "feature_psi_max": 0.365838, "mass_psi": 0.187125,
                    "score": 0.193101}


def _serve_stream(predictor, path, query_stream) -> None:
    """Eight 24-row ``points`` batches, the last four shifted by 2."""
    for batch in range(8):
        predictor.predict(path=path, type_name="points",
                          X_new=query_stream(24, shift=0.0 if batch < 4
                                             else 2.0, seed=300 + batch))


def _assert_same_fingerprint(got, want) -> None:
    """Field by field, arrays compared byte for byte."""
    for field in dataclasses.fields(want):
        got_value, want_value = (getattr(got, field.name),
                                 getattr(want, field.name))
        if field.name == "moments":
            assert got_value.keys() == want_value.keys()
            pairs = [(got_value[key], want_value[key]) for key in want_value]
        elif isinstance(want_value, np.ndarray):
            pairs = [(got_value, want_value)]
        else:
            assert got_value == want_value, field.name
            continue
        for got_array, want_array in pairs:
            assert got_array.dtype == want_array.dtype, field.name
            assert got_array.shape == want_array.shape, field.name
            assert got_array.tobytes() == want_array.tobytes(), field.name


def _stored_form(fingerprint) -> dict:
    """A fingerprint in the JSON layout sidecars used to store it in."""
    document = {}
    for field in dataclasses.fields(fingerprint):
        value = getattr(fingerprint, field.name)
        if field.name == "moments":
            value = {name: array.tolist() for name, array in value.items()}
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        document[field.name] = value
    return document


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
        # Every featured type can be drift-scored, and no export stores a
        # fingerprint: the detector builds them from the features.
        document = plain_artifact.diagnostics
        assert document == {"version": DIAGNOSTICS_SCHEMA_VERSION}
        detector = DriftDetector.from_model(plain_artifact)
        assert set(detector.fingerprints) == {"points", "anchors"}

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
        assert set(metadata["diagnostics"]) == {"version", "fit"}

    def test_sharded_reader_exposes_diagnostics_without_loading_shards(
            self, diag_artifact, tmp_path):
        path = diag_artifact.save(tmp_path / "model.npz",
                                  shards="per-type-mmap")
        with open_model_view(path) as view:
            document = view.model.diagnostics
            info = view.cache_info()
        assert document == diag_artifact.diagnostics
        assert set(document) == {"version", "fit"}
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


class TestFingerprintsBuiltWhereScored:
    @pytest.fixture(params=["monolithic", "per-type-mmap"])
    def stale_artifact(self, request, diag_artifact, tmp_path):
        """An artifact whose sidecar still stores drift fingerprints."""
        path = diag_artifact.save(tmp_path / "model.npz",
                                  shards=request.param)
        sidecar_path = path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        fingerprints = DriftDetector.from_model(diag_artifact).fingerprints
        sidecar["diagnostics"]["fingerprints"] = {
            name: _stored_form(fingerprints[name]) for name in fingerprints}
        sidecar_path.write_text(json.dumps(sidecar))
        return path

    @pytest.mark.parametrize("layout", ["eager", "per-type-mmap"])
    def test_built_fingerprint_equals_fingerprint_features(
            self, diag_artifact, tmp_path, layout):
        model = diag_artifact
        if layout == "per-type-mmap":
            model = open_model(diag_artifact.save(tmp_path / "model.npz",
                                                  shards=layout))
        detector = DriftDetector.from_model(model)
        config = model.config
        for name in ("points", "anchors"):
            _assert_same_fingerprint(
                detector.fingerprints[name],
                fingerprint_features(model.features[name], p=config.p,
                                     weighting=config.weighting,
                                     random_state=config.random_state,
                                     type_name=name))

    def test_scoring_maps_only_the_scored_type(self, diag_artifact,
                                               tmp_path, query_stream):
        path = diag_artifact.save(tmp_path / "model.npz",
                                  shards="per-type-mmap")
        predictor = BatchPredictor(diagnostics={"min_rows": 16})
        predictor.predict(path=path, type_name="points",
                          X_new=query_stream(32))
        arrays = predictor.get_model(path).reader.cache_info()["arrays"]
        assert arrays["features::points"]["mode"] == "mapped"
        assert arrays["features::anchors"]["mode"] == "cold"
        (snapshot,) = predictor.drift_snapshot().values()
        assert set(snapshot) == {"points"}

    def test_stale_sidecar_fingerprints_are_ignored(
            self, stale_artifact, query_stream, tmp_path):
        predictor = BatchPredictor(diagnostics={"min_rows": 16})
        _serve_stream(predictor, stale_artifact, query_stream)
        (snapshot,) = predictor.drift_snapshot().values()
        assert snapshot == {"points": _PINNED_SNAPSHOT}
        model = predictor.get_model(stale_artifact)
        assert set(model.diagnostics) == {"version", "fit"}
        resaved = model.save(tmp_path / "resaved.npz")
        assert set(RHCHMEModel.read_metadata(resaved)["diagnostics"]) == {
            "version", "fit"}


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
