"""Tests for repro.subspace.representation (multiple-subspace learning)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.spectral import spectral_clustering
from repro.data.manifolds import sample_union_of_rays
from repro.metrics.nmi import normalized_mutual_information
from repro.subspace.representation import (
    SubspaceRepresentation,
    learn_subspace_affinity,
    subspace_objective,
    subspace_objective_gradient,
)


class TestObjectiveAndGradient:
    def test_objective_nonnegative(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 4))
        gram = X @ X.T
        W = np.abs(rng.normal(size=(10, 10)))
        np.fill_diagonal(W, 0.0)
        assert subspace_objective(W, gram, gamma=10.0) >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 3))
        gram = X @ X.T
        W = np.abs(rng.normal(size=(6, 6))) * 0.1
        np.fill_diagonal(W, 0.0)
        gamma = 5.0
        analytic = subspace_objective_gradient(W, gram, gamma)
        numeric = np.zeros_like(W)
        eps = 1e-6
        for i in range(6):
            for j in range(6):
                perturbed = W.copy()
                perturbed[i, j] += eps
                high = subspace_objective(perturbed, gram, gamma)
                perturbed[i, j] -= 2 * eps
                low = subspace_objective(perturbed, gram, gamma)
                numeric[i, j] = (high - low) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-4)

    def test_perfect_reconstruction_leaves_only_sparsity_term(self):
        # If X W = X exactly, the residual term vanishes and only ||W W^T||_1 remains.
        X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        gram = X @ X.T
        # w reconstructing x2 = 2*x1 etc. is not needed; test with W = 0:
        W = np.zeros((3, 3))
        value = subspace_objective(W, gram, gamma=1.0)
        assert value == pytest.approx(np.trace(gram))


class TestSubspaceRepresentation:
    def test_output_is_symmetric_nonnegative_zero_diagonal(self, line_data):
        X, _ = line_data
        result = SubspaceRepresentation(gamma=25.0).fit(X)
        W = result.affinity
        np.testing.assert_allclose(W, W.T, atol=1e-10)
        assert np.all(W >= 0)
        np.testing.assert_allclose(np.diag(W), 0.0, atol=1e-12)

    def test_within_subspace_mass_dominates(self, line_data):
        X, labels = line_data
        W = learn_subspace_affinity(X, gamma=25.0)
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        within = float(W[same].sum())
        across = float(W[~same & ~np.eye(len(labels), dtype=bool)].sum())
        assert within > across

    def test_spectral_clustering_on_affinity_recovers_subspaces(self):
        # Rays are the non-negative analogue of the union-of-lines benchmark:
        # the non-negative representation of Eq. 9 can only combine points
        # whose coefficients are non-negative.
        X, labels = sample_union_of_rays(n_per_ray=30, n_rays=2, ambient_dim=5,
                                         noise=0.01, random_state=1)
        W = learn_subspace_affinity(X, gamma=50.0)
        predicted = spectral_clustering(W + 1e-6, 2, random_state=0)
        assert normalized_mutual_information(labels, predicted) > 0.7

    def test_connects_distant_within_subspace_points(self):
        # Points far apart on the same ray should still obtain affinity mass,
        # which is exactly what a small-p Euclidean graph misses.
        X, labels = sample_union_of_rays(n_per_ray=20, n_rays=2, ambient_dim=3,
                                         noise=0.005,
                                         coefficient_range=(0.2, 3.0),
                                         random_state=3)
        W = learn_subspace_affinity(X, gamma=50.0)
        # Pick the two most distant points of ray 0.
        members = np.nonzero(labels == 0)[0]
        sub = X[members]
        distances = np.linalg.norm(sub[:, None] - sub[None, :], axis=-1)
        i_local, j_local = np.unravel_index(np.argmax(distances), distances.shape)
        i, j = members[i_local], members[j_local]
        assert W[i, j] > 1e-6

    def test_rejects_single_object(self):
        with pytest.raises(ValueError):
            SubspaceRepresentation().fit(np.ones((1, 3)))

    def test_two_fits_are_bit_identical(self, line_data):
        # The solve starts from zero, so it needs no seed.
        X, _ = line_data
        a = SubspaceRepresentation(gamma=25.0).fit(X)
        b = SubspaceRepresentation(gamma=25.0).fit(X)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.outcome() == b.outcome()

    def test_gamma_controls_reconstruction_pressure(self, line_data):
        X, _ = line_data
        loose = SubspaceRepresentation(gamma=0.1).fit(X)
        tight = SubspaceRepresentation(gamma=100.0).fit(X)
        # With a larger gamma the solver works harder on reconstruction, so
        # the affinity should carry at least as much total mass.
        assert tight.affinity.sum() >= loose.affinity.sum() * 0.5

    def test_invalid_gamma_rejected(self):
        with pytest.raises(Exception):
            SubspaceRepresentation(gamma=0.0)
