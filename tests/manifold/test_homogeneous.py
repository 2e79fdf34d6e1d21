"""Tests for repro.manifold.homogeneous (RMC candidate ensemble)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.candidates import CandidateSpec, default_candidate_grid
from repro.graph.weights import WeightingScheme
from repro.linalg.norms import trace_quadratic
from repro.linalg.projections import project_simplex
from repro.manifold.homogeneous import HomogeneousCandidateEnsemble


class TestHomogeneousEnsemble:
    def test_default_grid_size(self):
        ensemble = HomogeneousCandidateEnsemble()
        assert ensemble.n_candidates == 6

    def test_build_candidates_shapes(self, tiny_dataset):
        ensemble = HomogeneousCandidateEnsemble(
            specs=default_candidate_grid(p_values=[2, 4], schemes=["binary"]))
        candidates = ensemble.build_candidates(tiny_dataset)
        assert len(candidates) == 2
        for candidate in candidates:
            assert [block.shape for block in candidate] == [
                (t.n_objects, t.n_objects) for t in tiny_dataset.types]

    def test_combine_requires_build(self):
        ensemble = HomogeneousCandidateEnsemble()
        with pytest.raises(RuntimeError):
            ensemble.combine()

    def test_uniform_combination_is_mean(self, tiny_dataset):
        ensemble = HomogeneousCandidateEnsemble(
            specs=default_candidate_grid(p_values=[2, 4], schemes=["cosine"]))
        candidates = ensemble.build_candidates(tiny_dataset)
        combined = ensemble.combine()
        for t, block in enumerate(combined):
            np.testing.assert_allclose(
                block, np.mean([candidate[t] for candidate in candidates], axis=0),
                atol=1e-12)

    def test_custom_weights_combination(self, tiny_dataset):
        ensemble = HomogeneousCandidateEnsemble(
            specs=default_candidate_grid(p_values=[2, 4], schemes=["cosine"]))
        candidates = ensemble.build_candidates(tiny_dataset)
        combined = ensemble.combine(np.array([1.0, 0.0]))
        for block, expected in zip(combined, candidates[0]):
            np.testing.assert_allclose(block, expected)

    def test_wrong_weight_shape_rejected(self, tiny_dataset):
        ensemble = HomogeneousCandidateEnsemble(
            specs=default_candidate_grid(p_values=[2], schemes=["cosine"]))
        ensemble.build_candidates(tiny_dataset)
        with pytest.raises(ValueError):
            ensemble.combine(np.array([0.5, 0.5]))

    def test_refit_weights_on_simplex(self, tiny_dataset):
        ensemble = HomogeneousCandidateEnsemble(
            specs=default_candidate_grid(p_values=[2, 4],
                                         schemes=["binary", "cosine"]))
        candidates = ensemble.build_candidates(tiny_dataset)
        rng = np.random.default_rng(0)
        G_blocks = [rng.random((t.n_objects, t.n_clusters))
                    for t in tiny_dataset.types]
        weights = ensemble.refit_weights(G_blocks)
        assert weights.shape == (4,)
        assert np.all(weights >= -1e-12)
        assert weights.sum() == pytest.approx(1.0)
        # the penalty of each candidate sums its per-type blocks' traces
        penalties = np.array([sum(trace_quadratic(G, L)
                                  for G, L in zip(G_blocks, candidate))
                              for candidate in candidates])
        np.testing.assert_allclose(
            weights, project_simplex(-penalties / (2.0 * ensemble.smoothing)))

    def test_refit_requires_build(self):
        ensemble = HomogeneousCandidateEnsemble()
        with pytest.raises(RuntimeError):
            ensemble.refit_weights([np.ones((3, 2))])

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            HomogeneousCandidateEnsemble(specs=[])

    def test_type_without_features_contributes_zero_blocks(self):
        from repro.relational.dataset import MultiTypeRelationalData
        from repro.relational.types import ObjectType, Relation
        rng = np.random.default_rng(1)
        docs = ObjectType("documents", n_objects=8, n_clusters=2,
                          features=rng.random((8, 3)))
        terms = ObjectType("terms", n_objects=4, n_clusters=2)
        data = MultiTypeRelationalData(
            [docs, terms], [Relation("documents", "terms", rng.random((8, 4)))])
        ensemble = HomogeneousCandidateEnsemble(
            specs=[CandidateSpec(p=3, scheme=WeightingScheme.COSINE)])
        candidates = ensemble.build_candidates(data)
        np.testing.assert_allclose(candidates[0][1], 0.0)
        assert candidates[0][1].shape == (4, 4)
