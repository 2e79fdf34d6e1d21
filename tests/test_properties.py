"""Cross-module property-based tests (hypothesis).

These properties tie several packages together: Laplacian regularisers must
stay positive semi-definite under the ensemble combinations, the metric
implementations must respect their mathematical invariants for arbitrary
label vectors, and the update rules must preserve the feasibility
constraints (non-negativity, simplex rows) for arbitrary non-negative
inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.assignments import membership_to_labels, one_hot_membership
from repro.graph.laplacian import unnormalized_laplacian
from repro.linalg.normalize import row_normalize_l1
from repro.linalg.norms import l21_norm, trace_quadratic
from repro.linalg.parts import split_parts
from repro.linalg.projections import project_nonnegative_zero_diagonal, project_simplex
from repro.metrics.extra import adjusted_rand_index, purity_score
from repro.metrics.fscore import clustering_fscore
from repro.metrics.nmi import normalized_mutual_information


# ---------------------------------------------------------------- strategies
label_vectors = st.integers(2, 4).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), min_size=6, max_size=50))

nonneg_affinities = arrays(
    np.float64, (7, 7), elements=st.floats(0, 5, allow_nan=False)).map(
    lambda A: (A + A.T) / 2).map(lambda A: A - np.diag(np.diag(A)))


class TestMetricProperties:
    @given(label_vectors)
    @settings(max_examples=40, deadline=None)
    def test_self_agreement_is_perfect(self, labels):
        labels = np.asarray(labels)
        assert clustering_fscore(labels, labels) == pytest.approx(1.0)
        assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)
        assert purity_score(labels, labels) == pytest.approx(1.0)
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    @given(label_vectors, st.permutations(list(range(4))))
    @settings(max_examples=40, deadline=None)
    def test_metrics_invariant_to_cluster_renaming(self, labels, permutation):
        labels = np.asarray(labels)
        renamed = np.asarray([permutation[int(v)] for v in labels])
        assert clustering_fscore(labels, renamed) == pytest.approx(
            clustering_fscore(labels, labels))
        assert normalized_mutual_information(labels, renamed) == pytest.approx(1.0)

    @given(label_vectors, label_vectors)
    @settings(max_examples=40, deadline=None)
    def test_metrics_bounded(self, a, b):
        n = min(len(a), len(b))
        a, b = np.asarray(a[:n]), np.asarray(b[:n])
        assert 0.0 <= clustering_fscore(a, b) <= 1.0
        assert 0.0 <= normalized_mutual_information(a, b) <= 1.0
        assert 0.0 <= purity_score(a, b) <= 1.0
        assert -1.0 <= adjusted_rand_index(a, b) <= 1.0


class TestGraphProperties:
    @given(nonneg_affinities)
    @settings(max_examples=30, deadline=None)
    def test_laplacian_quadratic_form_nonnegative(self, affinity):
        L = unnormalized_laplacian(affinity)
        rng = np.random.default_rng(0)
        G = rng.random((affinity.shape[0], 3))
        assert trace_quadratic(G, L) >= -1e-8

    @given(nonneg_affinities, nonneg_affinities,
           st.floats(0.0, 4.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_ensemble_combination_stays_psd(self, affinity_a, affinity_b, alpha):
        # α·L_S + L_E is a non-negative combination of PSD matrices (Eq. 12).
        combined = alpha * unnormalized_laplacian(affinity_a) + unnormalized_laplacian(
            affinity_b)
        eigenvalues = np.linalg.eigvalsh((combined + combined.T) / 2)
        assert eigenvalues.min() >= -1e-7


class TestBlockAndProjectionProperties:
    @given(arrays(np.float64, (6, 6), elements=st.floats(-5, 5, allow_nan=False)))
    @settings(max_examples=30, deadline=None)
    def test_feasibility_projection_is_projection(self, matrix):
        projected = project_nonnegative_zero_diagonal(matrix)
        # Idempotent and never increases the distance to any feasible point.
        np.testing.assert_allclose(projected,
                                   project_nonnegative_zero_diagonal(projected))
        feasible = np.abs(matrix)
        np.fill_diagonal(feasible, 0.0)
        assert (np.linalg.norm(projected - feasible)
                <= np.linalg.norm(matrix - feasible) + 1e-9)

    @given(arrays(np.float64, (8,), elements=st.floats(-10, 10, allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_simplex_projection_closest_among_candidates(self, vector):
        projected = project_simplex(vector)
        rng = np.random.default_rng(1)
        for _ in range(5):
            candidate = rng.dirichlet(np.ones(vector.size))
            assert (np.linalg.norm(projected - vector)
                    <= np.linalg.norm(candidate - vector) + 1e-9)


class TestMembershipProperties:
    @given(label_vectors)
    @settings(max_examples=30, deadline=None)
    def test_row_normalised_membership_is_stochastic(self, labels):
        labels = np.asarray(labels)
        membership = one_hot_membership(labels) + 0.01
        normalised = row_normalize_l1(membership)
        np.testing.assert_allclose(normalised.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(normalised >= 0)
        np.testing.assert_array_equal(membership_to_labels(normalised), labels)

    @given(arrays(np.float64, (5, 4), elements=st.floats(-3, 3, allow_nan=False)))
    @settings(max_examples=30, deadline=None)
    def test_l21_norm_triangle_inequality(self, matrix):
        other = np.roll(matrix, 1, axis=0)
        assert (l21_norm(matrix + other)
                <= l21_norm(matrix) + l21_norm(other) + 1e-9)

    @given(arrays(np.float64, (5, 5), elements=st.floats(-4, 4, allow_nan=False)))
    @settings(max_examples=30, deadline=None)
    def test_split_parts_minimal_decomposition(self, matrix):
        # Among all decompositions M = P − N with P, N ≥ 0, the positive/
        # negative split has the smallest entry-wise sum P + N = |M|.
        pos, neg = split_parts(matrix)
        np.testing.assert_allclose(pos - neg, matrix, atol=1e-10)
        np.testing.assert_allclose(pos + neg, np.abs(matrix), atol=1e-10)
