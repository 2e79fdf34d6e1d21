"""Unit tests of fingerprints, PSI scoring and the drift detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RHCHMEConfig
from repro.diagnostics import (DriftDetector, fingerprint_features,
                               population_stability_index)


@pytest.fixture(scope="module")
def reference():
    rng = np.random.default_rng(0)
    return rng.normal(size=(300, 4)) * np.array([1.0, 2.0, 0.5, 3.0])


@pytest.fixture(scope="module")
def fingerprint(reference):
    return fingerprint_features(reference, p=5, type_name="points")


class TestPopulationStabilityIndex:
    def test_zero_for_matching_distribution(self):
        proportions = np.full(10, 0.1)
        counts = np.full(10, 100.0)
        assert population_stability_index(proportions, counts) == \
            pytest.approx(0.0, abs=1e-9)

    def test_zero_when_nothing_observed(self):
        assert population_stability_index(np.full(10, 0.1),
                                          np.zeros(10)) == 0.0

    def test_grows_with_mass_shift(self):
        proportions = np.full(10, 0.1)
        mild = np.array([5, 5, 10, 10, 15, 15, 10, 10, 10, 10], dtype=float)
        severe = np.array([0, 0, 0, 0, 0, 0, 0, 0, 50, 50], dtype=float)
        assert population_stability_index(proportions, severe) > \
            population_stability_index(proportions, mild) > 0.0

    def test_finite_with_empty_bins_on_either_side(self):
        proportions = np.array([0.5, 0.5, 0.0, 0.0])
        counts = np.array([0.0, 0.0, 3.0, 3.0])
        value = population_stability_index(proportions, counts)
        assert np.isfinite(value) and value > 0.0


def per_column_histograms(sample: np.ndarray, bins: int):
    """Quantile edges and bin proportions, one feature column at a time."""
    grid = np.linspace(0.0, 1.0, bins + 1)
    edges = np.empty((sample.shape[1], bins + 1))
    proportions = np.empty((sample.shape[1], bins))
    for j, column in enumerate(sample.T):
        edges[j] = np.quantile(column, grid)
        index = np.searchsorted(edges[j, 1:-1], column, side="right")
        proportions[j] = np.bincount(index, minlength=bins) / sample.shape[0]
    return edges, proportions


class TestFingerprint:
    @pytest.mark.parametrize("bins", [1, 3, 10])
    @pytest.mark.parametrize("case", ["normal", "constant-columns", "ties",
                                      "fewer-rows-than-bins", "one-row"])
    def test_histograms_match_a_per_column_reference(self, case, bins):
        rng = np.random.default_rng(3)
        features = {
            "normal": rng.normal(size=(300, 4)),
            "constant-columns": np.hstack([np.ones((30, 2)),
                                           rng.normal(size=(30, 3))]),
            "ties": rng.integers(0, 3, size=(50, 5)).astype(float),
            "fewer-rows-than-bins": rng.normal(size=(4, 6)),
            "one-row": rng.normal(size=(1, 3)),
        }[case]
        fp = fingerprint_features(features, bins=bins)
        edges, proportions = per_column_histograms(features, bins)
        np.testing.assert_array_equal(fp.feature_edges, edges)
        np.testing.assert_array_equal(fp.feature_proportions, proportions)

    def test_shapes_and_moments(self, reference, fingerprint):
        d = reference.shape[1]
        assert fingerprint.n_features == d
        assert fingerprint.feature_edges.shape == (d, fingerprint.bins + 1)
        assert fingerprint.feature_proportions.shape == (d, fingerprint.bins)
        np.testing.assert_allclose(fingerprint.moments["mean"],
                                   reference.mean(axis=0))
        np.testing.assert_allclose(fingerprint.moments["std"],
                                   reference.std(axis=0))
        # quantile-binned training proportions are near uniform
        np.testing.assert_allclose(fingerprint.feature_proportions.sum(axis=1),
                                   1.0, atol=1e-9)
        assert fingerprint.has_mass_sketch

    def test_sampling_caps_fingerprint_rows(self):
        rng = np.random.default_rng(1)
        big = rng.normal(size=(5000, 3))
        fp = fingerprint_features(big, sample_size=256)
        assert fp.n_sampled == 256
        assert fp.n_reference == 5000

    def test_tiny_type_has_no_mass_sketch_but_no_nans(self):
        fp = fingerprint_features(np.ones((2, 3)), p=5)
        assert not fp.has_mass_sketch
        assert np.all(np.isfinite(fp.feature_edges))


class TestDriftDetector:
    def test_in_distribution_scores_low_drifted_scores_high(self, reference,
                                                            fingerprint):
        rng = np.random.default_rng(2)
        scale = np.array([1.0, 2.0, 0.5, 3.0])
        fresh = rng.normal(size=(256, 4)) * scale

        detector = DriftDetector({"points": fingerprint}, min_rows=64)
        low = detector.observe("points", fresh)
        detector.reset()
        high = detector.observe("points", fresh + 6.0 * scale)
        assert low is not None and high is not None
        assert high.score > 10 * low.score
        assert high.feature_psi_max >= high.feature_psi_mean

    def test_min_rows_gates_scoring(self, fingerprint):
        detector = DriftDetector({"points": fingerprint}, min_rows=64)
        assert detector.observe("points", np.zeros((16, 4))) is None
        assert detector.score("points") is None
        # accumulating past the gate starts reporting
        assert detector.observe("points", np.zeros((64, 4))) is not None
        assert detector.score("points") is not None

    def test_unknown_type_and_bad_shape_are_ignored(self, fingerprint):
        detector = DriftDetector({"points": fingerprint}, min_rows=8)
        assert detector.observe("nope", np.zeros((32, 4))) is None
        assert detector.observe("points", np.zeros((32, 7))) is None
        assert detector.snapshot() == {}

    def test_window_decays_after_drift_episode(self, reference, fingerprint):
        rng = np.random.default_rng(3)
        scale = np.array([1.0, 2.0, 0.5, 3.0])
        detector = DriftDetector({"points": fingerprint}, min_rows=64,
                                 half_life_rows=128)
        drifted = detector.observe(
            "points", rng.normal(size=(256, 4)) * scale + 6.0 * scale)
        recovered = None
        for _ in range(8):
            recovered = detector.observe(
                "points", rng.normal(size=(256, 4)) * scale)
        assert recovered.score < 0.25 * drifted.score

    def test_affinity_mass_signal_catches_manifold_gap(self, reference,
                                                       fingerprint):
        # Queries with in-range marginals but far from the training
        # manifold: shuffle each feature column independently to break the
        # joint structure, then verify the mass PSI reacts even though the
        # per-feature histograms cannot.
        rng = np.random.default_rng(4)
        scale = np.array([1.0, 2.0, 0.5, 3.0])
        fresh = rng.normal(size=(256, 4)) * scale
        detector = DriftDetector({"points": fingerprint}, min_rows=64)
        # a plausible affinity mass far below the training sketch
        low_mass = np.full(256, float(fingerprint.mass_edges[0]) * 0.01)
        score = detector.observe("points", fresh, affinity_mass=low_mass)
        assert score.mass_psi > score.feature_psi_mean

    def test_from_model_without_fingerprints_returns_none(self):
        # A model with no featured type has nothing to fingerprint.
        class Featureless:
            config = RHCHMEConfig()
            features: dict = {}

        assert DriftDetector.from_model(Featureless()) is None

    def test_from_model_builds_fingerprints_on_first_use(self, reference):
        class CountingFeatures(dict):
            reads = 0

            def __getitem__(self, name):
                CountingFeatures.reads += 1
                return super().__getitem__(name)

        class Carrier:
            config = RHCHMEConfig(p=4, random_state=3)
            features = CountingFeatures(points=reference)

        detector = DriftDetector.from_model(Carrier(), min_rows=16)
        assert detector is not None
        assert set(detector.fingerprints) == {"points"}
        assert CountingFeatures.reads == 0
        for _ in range(3):
            detector.observe("points", reference[:32])
        assert CountingFeatures.reads == 1
        built = detector.fingerprints["points"]
        assert (built.p, built.n_reference) == (4, reference.shape[0])
        np.testing.assert_array_equal(
            built.feature_edges,
            fingerprint_features(reference, p=4,
                                 random_state=3).feature_edges)
