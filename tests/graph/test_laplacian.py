"""Tests for repro.graph.laplacian."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.graph.laplacian import (
    degree_vector,
    laplacian,
    normalized_laplacian,
    unnormalized_laplacian,
)


def _random_affinity(seed: int, n: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.random((n, n))
    A = (A + A.T) / 2
    np.fill_diagonal(A, 0.0)
    return A


affinity_strategy = arrays(np.float64, (6, 6),
                           elements=st.floats(0, 10, allow_nan=False)).map(
    lambda A: (A + A.T) / 2).map(
    lambda A: A - np.diag(np.diag(A)))


class TestUnnormalizedLaplacian:
    def test_rows_sum_to_zero(self):
        L = unnormalized_laplacian(_random_affinity(0))
        np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-10)

    def test_matches_networkx(self):
        graph = nx.erdos_renyi_graph(10, 0.5, seed=1)
        A = nx.to_numpy_array(graph)
        expected = nx.laplacian_matrix(graph).toarray()
        np.testing.assert_allclose(unnormalized_laplacian(A), expected)

    @given(affinity_strategy)
    @settings(max_examples=25, deadline=None)
    def test_positive_semidefinite(self, affinity):
        L = unnormalized_laplacian(affinity)
        eigenvalues = np.linalg.eigvalsh((L + L.T) / 2)
        assert eigenvalues.min() >= -1e-8

    def test_constant_vector_in_nullspace(self):
        L = unnormalized_laplacian(_random_affinity(2))
        np.testing.assert_allclose(L @ np.ones(L.shape[0]), 0.0, atol=1e-10)

    def test_degree_vector(self):
        affinity = _random_affinity(3)
        np.testing.assert_allclose(degree_vector(affinity), affinity.sum(axis=1))


class TestNormalizedLaplacian:
    def test_matches_networkx(self):
        graph = nx.erdos_renyi_graph(12, 0.5, seed=2)
        A = nx.to_numpy_array(graph)
        expected = nx.normalized_laplacian_matrix(graph).toarray()
        np.testing.assert_allclose(normalized_laplacian(A), expected, atol=1e-10)

    def test_eigenvalues_in_zero_two(self):
        L = normalized_laplacian(_random_affinity(4))
        eigenvalues = np.linalg.eigvalsh((L + L.T) / 2)
        assert eigenvalues.min() >= -1e-8
        assert eigenvalues.max() <= 2.0 + 1e-8

    def test_isolated_vertex_diagonal_one(self):
        affinity = np.zeros((3, 3))
        affinity[0, 1] = affinity[1, 0] = 1.0
        L = normalized_laplacian(affinity)
        assert L[2, 2] == pytest.approx(1.0)


class TestDispatch:
    def test_known_kinds(self):
        affinity = _random_affinity(5)
        np.testing.assert_allclose(laplacian(affinity),
                                   unnormalized_laplacian(affinity))

    def test_number_of_zero_eigenvalues_equals_components(self):
        # Two disconnected cliques -> exactly two (near-)zero eigenvalues.
        block = np.ones((4, 4)) - np.eye(4)
        affinity = np.zeros((8, 8))
        affinity[:4, :4] = block
        affinity[4:, 4:] = block
        eigenvalues = np.linalg.eigvalsh(unnormalized_laplacian(affinity))
        assert int(np.sum(eigenvalues < 1e-8)) == 2


class TestSparseLaplacians:
    def _affinity_pair(self, n=12, seed=9):
        import scipy.sparse as sp
        rng = np.random.default_rng(seed)
        dense = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        dense = (dense + dense.T) / 2
        np.fill_diagonal(dense, 0.0)
        return dense, sp.csr_array(dense)

    @pytest.mark.parametrize("builder", [
        pytest.param(unnormalized_laplacian, id="unnormalized"),
        pytest.param(normalized_laplacian, id="normalized")])
    def test_sparse_matches_dense(self, builder):
        import scipy.sparse as sp
        dense, sparse = self._affinity_pair()
        L_dense = builder(dense)
        L_sparse = builder(sparse)
        assert sp.issparse(L_sparse)
        np.testing.assert_allclose(L_sparse.toarray(), L_dense, atol=1e-12)

    def test_sparse_degree_vector(self):
        dense, sparse = self._affinity_pair()
        np.testing.assert_allclose(degree_vector(sparse), degree_vector(dense))

    def test_sparse_rows_sum_to_zero_unnormalized(self):
        _, sparse = self._affinity_pair()
        L = unnormalized_laplacian(sparse)
        np.testing.assert_allclose(np.asarray(L.sum(axis=1)).ravel(), 0.0,
                                   atol=1e-12)

    def test_sparse_asymmetric_within_noise_fixed(self):
        import scipy.sparse as sp
        dense, _ = self._affinity_pair()
        noisy = dense.copy()
        noisy[0, 1] += 1e-12
        L = unnormalized_laplacian(sp.csr_array(noisy))
        np.testing.assert_allclose(L.toarray(), L.toarray().T, atol=1e-10)

    def test_sparse_isolated_vertex_normalized(self):
        import scipy.sparse as sp
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 1.0
        L = normalized_laplacian(sp.csr_array(dense))
        # isolated vertices keep a diagonal 1, as in the dense variant
        np.testing.assert_allclose(L.toarray(), normalized_laplacian(dense),
                                   atol=1e-12)


class TestAsymmetricInputConsistency:
    def test_degree_vector_same_for_asymmetric_dense_and_sparse(self):
        import scipy.sparse as sp
        W = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(degree_vector(sp.csr_array(W)),
                                   degree_vector(W))

    def test_grossly_asymmetric_sparse_repaired_like_dense(self):
        import scipy.sparse as sp
        W = np.array([[0.0, 5.0], [1.0, 0.0]])
        np.testing.assert_allclose(unnormalized_laplacian(sp.csr_array(W)).toarray(),
                                   unnormalized_laplacian(W), atol=1e-12)
