"""Tests for repro.core.rhchme (the full Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RHCHMEConfig
from repro.core.rhchme import RHCHME
from repro.data import make_dataset
from repro.exceptions import NotFittedError
from repro.metrics.fscore import clustering_fscore
from repro.metrics.nmi import normalized_mutual_information


class TestRHCHMEFit:
    def test_returns_labels_for_every_type(self, small_dataset):
        result = RHCHME(max_iter=8, random_state=0).fit(small_dataset)
        assert set(result.labels) == set(small_dataset.type_names)
        for object_type in small_dataset.types:
            labels = result.labels[object_type.name]
            assert labels.shape == (object_type.n_objects,)
            assert labels.max() < object_type.n_clusters

    def test_recovers_planted_clusters_on_easy_data(self, small_dataset):
        result = RHCHME(max_iter=15, random_state=0).fit(small_dataset)
        documents = small_dataset.get_type("documents")
        fscore = clustering_fscore(documents.labels, result.labels["documents"])
        nmi = normalized_mutual_information(documents.labels,
                                            result.labels["documents"])
        assert fscore > 0.8
        assert nmi > 0.8

    def test_objective_monotonically_decreases(self, small_dataset):
        result = RHCHME(max_iter=12, random_state=0).fit(small_dataset)
        objectives = result.trace.objectives
        # Theorem 1: the objective should not increase (allow tiny numerical slack).
        diffs = np.diff(objectives)
        assert np.all(diffs <= np.abs(objectives[:-1]) * 1e-6 + 1e-8)

    def test_deterministic_with_seed(self, small_dataset):
        a = RHCHME(max_iter=6, random_state=42).fit(small_dataset)
        b = RHCHME(max_iter=6, random_state=42).fit(small_dataset)
        for name in small_dataset.type_names:
            np.testing.assert_array_equal(a.labels[name], b.labels[name])

    def test_membership_rows_on_simplex(self, small_dataset):
        result = RHCHME(max_iter=6, random_state=0).fit(small_dataset)
        G = result.state.G
        assert np.all(G >= 0)
        np.testing.assert_allclose(G.sum(axis=1), 1.0, atol=1e-8)

    def test_error_matrix_disabled_stays_zero(self, small_dataset):
        config = RHCHMEConfig(max_iter=5, random_state=0, use_error_matrix=False)
        result = RHCHME(config).fit(small_dataset)
        np.testing.assert_allclose(result.state.E_R, 0.0)

    def test_error_matrix_enabled_becomes_nonzero(self, small_dataset):
        result = RHCHME(max_iter=5, random_state=0).fit(small_dataset)
        assert np.abs(result.state.E_R).sum() > 0

    def test_metrics_tracked_per_iteration(self, small_dataset):
        result = RHCHME(max_iter=5, random_state=0,
                        track_metrics_every=1).fit(small_dataset)
        series = result.trace.metric_series("fscore/documents")
        assert series.shape[0] == len(result.trace)
        assert np.all(np.isfinite(series))

    def test_metric_tracking_disabled(self, small_dataset):
        result = RHCHME(max_iter=4, random_state=0,
                        track_metrics_every=0).fit(small_dataset)
        series = result.trace.metric_series("fscore/documents")
        assert np.all(np.isnan(series))

    def test_fit_predict_returns_first_type_by_default(self, small_dataset):
        model = RHCHME(max_iter=4, random_state=0)
        labels = model.fit_predict(small_dataset)
        np.testing.assert_array_equal(labels, model.result_.labels["documents"])

    def test_fit_predict_named_type(self, small_dataset):
        model = RHCHME(max_iter=4, random_state=0)
        labels = model.fit_predict(small_dataset, "terms")
        assert labels.shape == (small_dataset.get_type("terms").n_objects,)

    def test_labels_property_requires_fit(self):
        with pytest.raises(NotFittedError):
            _ = RHCHME(max_iter=3).labels_

    def test_config_overrides_via_kwargs(self):
        model = RHCHME(lam=500.0, beta=10.0, max_iter=3)
        assert model.config.lam == 500.0
        assert model.config.beta == 10.0

    def test_config_object_plus_overrides(self):
        base = RHCHMEConfig(lam=100.0)
        model = RHCHME(base, beta=5.0)
        assert model.config.lam == 100.0
        assert model.config.beta == 5.0

    def test_random_init_also_works(self, small_dataset):
        result = RHCHME(max_iter=8, random_state=0, init="random").fit(small_dataset)
        documents = small_dataset.get_type("documents")
        assert clustering_fscore(documents.labels, result.labels["documents"]) > 0.5

    def test_timing_fields_populated(self, small_dataset):
        result = RHCHME(max_iter=3, random_state=0).fit(small_dataset)
        assert result.fit_seconds > 0
        assert result.ensemble_seconds > 0
        assert result.fit_seconds >= result.ensemble_seconds


class TestWarmStart:
    """The warm-start entry point (used by repro.runtime's refresh)."""

    def test_warm_start_from_own_state_converges_immediately(
            self, small_dataset):
        cold = RHCHME(max_iter=30, random_state=0,
                      track_metrics_every=0).fit(small_dataset)
        warm = RHCHME(max_iter=30, random_state=0,
                      track_metrics_every=0).fit(small_dataset,
                                                 warm_start=cold.state)
        assert warm.extras["warm_start"] is True
        assert warm.n_iterations <= cold.n_iterations
        for name in cold.labels:
            agreement = np.mean(warm.labels[name] == cold.labels[name])
            assert agreement >= 0.9

    def test_warm_start_accepts_membership_block_mapping(self, small_dataset):
        cold = RHCHME(max_iter=10, random_state=0,
                      track_metrics_every=0).fit(small_dataset)
        blocks = {object_type.name: cold.state.membership_block(index)
                  for index, object_type in enumerate(small_dataset.types)}
        warm = RHCHME(max_iter=10, random_state=0,
                      track_metrics_every=0).fit(small_dataset,
                                                 warm_start=blocks)
        assert warm.extras["warm_start"] is True
        assert set(warm.labels) == set(cold.labels)

    def test_warm_start_does_not_mutate_callers_state(self, small_dataset):
        cold = RHCHME(max_iter=5, random_state=0,
                      track_metrics_every=0).fit(small_dataset)
        G_before = cold.state.G.copy()
        RHCHME(max_iter=5, random_state=0,
               track_metrics_every=0).fit(small_dataset,
                                          warm_start=cold.state)
        np.testing.assert_array_equal(cold.state.G, G_before)

    def test_mismatched_state_rejected(self, small_dataset, tiny_dataset):
        cold = RHCHME(max_iter=3, random_state=0,
                      track_metrics_every=0).fit(tiny_dataset)
        from repro.exceptions import ValidationError
        with pytest.raises(ValidationError, match="does not match"):
            RHCHME(max_iter=3).fit(small_dataset, warm_start=cold.state)

    def test_missing_block_rejected(self, tiny_dataset):
        from repro.exceptions import ValidationError
        with pytest.raises(ValidationError, match="missing"):
            RHCHME(max_iter=3).fit(
                tiny_dataset,
                warm_start={"documents": np.ones((20, 2))})

    def test_invalid_warm_start_type_rejected(self, tiny_dataset):
        from repro.exceptions import ValidationError
        with pytest.raises(ValidationError, match="warm_start"):
            RHCHME(max_iter=3).fit(tiny_dataset, warm_start=42)


class TestSubspaceOutcomes:
    def test_multi5_records_each_types_spg_outcome(self):
        # The default 150-iteration budget is exhausted on every Multi5 type
        # before the stationarity step reaches tol=1e-4.
        data = make_dataset("multi5", random_state=0)
        result = RHCHME(max_iter=1, random_state=0).fit(data)
        outcomes = result.extras["subspace"]
        assert set(outcomes) == {"documents", "terms", "concepts"}
        objectives = {name: outcome["objective"]
                      for name, outcome in outcomes.items()}
        assert objectives == {"documents": pytest.approx(1937.47, rel=1e-5),
                              "terms": pytest.approx(359.884, rel=1e-5),
                              "concepts": pytest.approx(164.113, rel=1e-5)}
        for outcome in outcomes.values():
            assert outcome["iterations"] == 150
            assert outcome["converged"] is False
            assert outcome["step_norm"] > 1e-4

    def test_no_entries_without_the_subspace_member(self, small_dataset):
        result = RHCHME(max_iter=2, random_state=0,
                        use_subspace_member=False).fit(small_dataset)
        assert result.extras["subspace"] == {}


class TestUpdateTimers:
    """Per-update wall-clock buckets (S / G / E_R / objective)."""

    def test_extras_break_down_the_iteration_loop(self, small_dataset):
        result = RHCHME(max_iter=4, random_state=0).fit(small_dataset)
        timings = result.extras["update_seconds"]
        assert set(timings) == {"s_update", "g_update", "e_update",
                                "objective"}
        assert all(seconds >= 0.0 for seconds in timings.values())
        counts = result.trace.timing_counts
        iters = result.n_iterations
        # One pre-loop S solve doubles as iteration 1's S step (the
        # duplicate-update fix), so S is charged once per iteration total.
        assert counts["s_update"] == iters
        assert counts["g_update"] == iters
        assert counts["e_update"] == iters
        assert counts["objective"] == iters + 1

    def test_error_bucket_absent_when_disabled(self, small_dataset):
        result = RHCHME(max_iter=3, random_state=0,
                        use_error_matrix=False).fit(small_dataset)
        timings = result.extras["update_seconds"]
        assert "e_update" not in timings
        assert {"s_update", "g_update", "objective"} <= set(timings)
