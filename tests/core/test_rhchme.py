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
from repro.relational import MultiTypeRelationalData, ObjectType, Relation
from repro.serve import RHCHMEModel

#: A β below twice the largest residual row norms of ``small_dataset``
#: (they peak near 0.3), so the exact E step keeps rows.  At the default
#: β = 50 it keeps none.
KEEP_BETA = 0.1


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
        for G in result.state.G_blocks:
            assert np.all(G >= 0)
            np.testing.assert_allclose(G.sum(axis=1), 1.0, atol=1e-8)

    def test_error_matrix_disabled_stays_zero(self, small_dataset):
        config = RHCHMEConfig(max_iter=5, random_state=0, use_error_matrix=False)
        result = RHCHME(config).fit(small_dataset)
        np.testing.assert_allclose(result.state.E_R, 0.0)

    def test_error_matrix_enabled_becomes_nonzero(self, small_dataset):
        result = RHCHME(max_iter=5, random_state=0,
                        beta=KEEP_BETA).fit(small_dataset)
        assert result.state.E_R.n_stored_rows > 0
        assert np.abs(result.state.E_R).sum() > 0

    def test_default_beta_fit_equals_error_matrix_off(self, small_dataset):
        # Relation blocks have unit Frobenius norm, so every residual row
        # norm stays far below β/2 = 25: the prox keeps nothing and the fit
        # is bit-identical to the ablation without E_R.
        result = RHCHME(max_iter=5, random_state=0).fit(small_dataset)
        ablated = RHCHME(max_iter=5, random_state=0,
                         use_error_matrix=False).fit(small_dataset)
        assert result.state.E_R.n_stored_rows == 0
        np.testing.assert_array_equal(result.trace.objectives,
                                      ablated.trace.objectives)
        np.testing.assert_array_equal(result.state.S, ablated.state.S)
        for block, ablated_block in zip(result.state.G_blocks,
                                        ablated.state.G_blocks):
            np.testing.assert_array_equal(block, ablated_block)

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
        G_before = [block.copy() for block in cold.state.G_blocks]
        RHCHME(max_iter=5, random_state=0,
               track_metrics_every=0).fit(small_dataset,
                                          warm_start=cold.state)
        for block, before in zip(cold.state.G_blocks, G_before):
            np.testing.assert_array_equal(block, before)

    def test_mismatched_state_rejected(self, small_dataset, tiny_dataset):
        cold = RHCHME(max_iter=3, random_state=0,
                      track_metrics_every=0).fit(tiny_dataset)
        from repro.exceptions import ValidationError
        with pytest.raises(ValidationError, match="does not match"):
            RHCHME(max_iter=3).fit(small_dataset, warm_start=cold.state)

    @pytest.mark.parametrize("use_error_matrix", [True, False])
    def test_warm_start_state_without_error_matrix(self, small_dataset,
                                                   use_error_matrix):
        # FactorizationState.E_R is optional; a state that carries none
        # warm-starts a fit under either error-matrix setting, its L2,1
        # term reading as zero until the first E_R update.
        cold = RHCHME(max_iter=3, random_state=0,
                      track_metrics_every=0).fit(small_dataset)
        state = cold.state.copy()
        state.E_R = None
        result = RHCHME(max_iter=3, random_state=0, track_metrics_every=0,
                        use_error_matrix=use_error_matrix, beta=KEEP_BETA
                        ).fit(small_dataset, warm_start=state)
        sparsity = result.trace.terms_series("error_sparsity")
        assert np.all(np.isfinite(result.trace.objectives))
        assert sparsity[0] == 0.0
        if use_error_matrix:
            assert sparsity[-1] > 0.0
        else:
            assert result.state.E_R is None
            np.testing.assert_array_equal(sparsity, 0.0)

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


class TestSingleObjectType:
    """A featured type with one object has no pair of objects to relate."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_fit_save_load_predict(self, backend, tmp_path):
        rng = np.random.default_rng(0)
        documents = np.vstack([rng.normal(size=(10, 4)) + 4.0,
                               rng.normal(size=(10, 4)) - 4.0])
        venue = np.ones((1, 3))
        data = MultiTypeRelationalData(
            [ObjectType("documents", n_objects=20, n_clusters=2,
                        features=documents),
             ObjectType("venue", n_objects=1, n_clusters=1, features=venue)],
            [Relation("documents", "venue", np.ones((20, 1)))])
        model = RHCHME(max_iter=5, random_state=0, backend=backend,
                       track_metrics_every=0)
        result = model.fit(data)
        assert result.extras["backend"] == backend
        assert set(result.extras["subspace"]) == {"documents"}
        np.testing.assert_array_equal(result.labels["venue"], [0])
        artifact = model.export_model(data)
        loaded = RHCHMEModel.load(artifact.save(tmp_path / "model.npz"))
        for name, queries in (("documents", documents[::4]),
                              ("venue", np.vstack([venue, 2.0 * venue]))):
            expected = artifact.predict(name, queries)
            actual = loaded.predict(name, queries)
            np.testing.assert_array_equal(actual.labels, expected.labels)
            np.testing.assert_array_equal(actual.membership,
                                          expected.membership)


class TestSubspaceOutcomes:
    def test_multi5_records_each_types_spg_outcome(self):
        # The exact Eq. 9 active set converges on every type at its optimum,
        # at or below the J2 of 150 plain ADMM iterations.
        plain_150 = {"documents": 1937.472480, "terms": 339.240367,
                     "concepts": 158.556554}
        data = make_dataset("multi5", random_state=0)
        result = RHCHME(max_iter=1, random_state=0).fit(data)
        outcomes = result.extras["subspace"]
        assert set(outcomes) == {"documents", "terms", "concepts"}
        objectives = {name: outcome["objective"]
                      for name, outcome in outcomes.items()}
        assert objectives == {"documents": pytest.approx(1937.4721208, rel=1e-9),
                              "terms": pytest.approx(338.7615790, rel=1e-9),
                              "concepts": pytest.approx(158.5528202, rel=1e-9)}
        for name, objective in objectives.items():
            assert objective <= plain_150[name]
        for outcome in outcomes.values():
            assert outcome["converged"] is True
            assert outcome["iterations"] > 0
            assert 0.0 <= outcome["kkt_residual"] <= 1e-10

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


class TestLabelScores:
    """F/NMI are scored again only when a type's labels change."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count the calls through the module names the tracer wraps."""
        import repro.core.rhchme as rhchme
        calls = {"fscore": 0, "nmi": 0}

        def counting(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(rhchme, "clustering_fscore",
                            counting("fscore", clustering_fscore))
        monkeypatch.setattr(rhchme, "normalized_mutual_information",
                            counting("nmi", normalized_mutual_information))
        return calls

    def test_reuses_recomputes_and_recomputes_on_change_back(self, counted):
        from repro.core.rhchme import LabelScores
        truth = np.array([0, 0, 1, 1, 2, 2])
        first = np.array([0, 0, 1, 1, 1, 2])
        moved = np.array([0, 0, 1, 1, 2, 2])
        scores = LabelScores()
        expected_first = (clustering_fscore(truth, first),
                          normalized_mutual_information(truth, first))
        expected_moved = (clustering_fscore(truth, moved),
                          normalized_mutual_information(truth, moved))
        assert scores.score("docs", truth, first) == expected_first
        assert counted == {"fscore": 1, "nmi": 1}
        # Equal labels in a fresh array: reused, no call.
        assert scores.score("docs", truth, first.copy()) == expected_first
        assert counted == {"fscore": 1, "nmi": 1}
        assert scores.score("docs", truth, moved) == expected_moved
        assert counted == {"fscore": 2, "nmi": 2}
        # Back to the first labels: recomputed, not the stale pair.
        assert scores.score("docs", truth, first) == expected_first
        assert counted == {"fscore": 3, "nmi": 3}

    def test_types_are_tracked_separately(self, counted):
        from repro.core.rhchme import LabelScores
        truth = np.array([0, 1, 0, 1])
        labels = np.array([1, 0, 1, 0])
        scores = LabelScores()
        scores.score("a", truth, labels)
        scores.score("b", truth, labels)
        assert counted == {"fscore": 2, "nmi": 2}

    def test_default_fit_calls_far_fewer_than_two_per_type_and_record(
            self, small_dataset, counted):
        result = RHCHME(max_iter=30, random_state=0).fit(small_dataset)
        labelled = sum(t.has_labels for t in small_dataset.types)
        per_record = 2 * labelled * len(result.trace.records)
        assert 0 < counted["fscore"] + counted["nmi"] < per_record


class TestMetricReuseParity:
    """Reused F/NMI values are the values a recompute gives, bit for bit."""

    @staticmethod
    def _metric_trace(fit):
        return [record.metrics for record in fit().trace.records]

    def _assert_identical_with_and_without_reuse(self, monkeypatch, fit):
        from repro.core.rhchme import LabelScores
        reused = self._metric_trace(fit)
        with monkeypatch.context() as patch:
            patch.setattr(LabelScores, "unchanged",
                          staticmethod(lambda previous, labels: False))
            recomputed = self._metric_trace(fit)
        assert len(reused) == len(recomputed)
        for a, b in zip(reused, recomputed):
            assert a.keys() == b.keys()
            for name in a:
                assert np.float64(a[name]).tobytes() == \
                    np.float64(b[name]).tobytes(), name

    def test_default_fit(self, monkeypatch):
        data = make_dataset("multi5-small", random_state=0)
        self._assert_identical_with_and_without_reuse(
            monkeypatch, lambda: RHCHME(random_state=0).fit(data))

    def test_nmtf_baseline_fit(self, monkeypatch):
        from repro.baselines import SNMTF
        data = make_dataset("multi5-small", random_state=1)
        self._assert_identical_with_and_without_reuse(
            monkeypatch, lambda: SNMTF(random_state=1, max_iter=40).fit(data))
