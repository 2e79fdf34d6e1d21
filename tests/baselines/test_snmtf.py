"""Tests for repro.baselines.snmtf."""

from __future__ import annotations

import numpy as np

from repro.baselines.snmtf import SNMTF
from repro.metrics.fscore import clustering_fscore


class TestSNMTF:
    def test_regularizer_is_block_diagonal_laplacian(self, tiny_dataset):
        # One (n_t, n_t) block per type; the off-diagonal blocks of the
        # block-diagonal L are structural zeros and never exist.
        model = SNMTF(lam=10.0, p=3, random_state=0)
        L_blocks = model.build_regularizer(tiny_dataset)
        assert [L.shape for L in L_blocks] == [
            (t.n_objects, t.n_objects) for t in tiny_dataset.types]
        for L in L_blocks:
            # each block is a Laplacian: symmetric, rows sum to ~0
            np.testing.assert_allclose(L, L.T, atol=1e-12)
            np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-8)

    def test_fit_recovers_block_structure(self, tiny_dataset):
        result = SNMTF(lam=1.0, p=3, max_iter=30, random_state=0).fit(tiny_dataset)
        documents = tiny_dataset.get_type("documents")
        assert clustering_fscore(documents.labels, result.labels["documents"]) > 0.85

    def test_objective_never_increases(self, tiny_dataset):
        result = SNMTF(lam=1.0, p=3, max_iter=15, random_state=0).fit(tiny_dataset)
        objectives = result.trace.objectives
        diffs = np.diff(objectives)
        assert np.all(diffs <= np.abs(objectives[:-1]) * 1e-6 + 1e-8)

    def test_weighting_scheme_configurable(self, tiny_dataset):
        heat = SNMTF(lam=1.0, p=3, weighting="heat_kernel", random_state=0)
        cosine = SNMTF(lam=1.0, p=3, weighting="cosine", random_state=0)
        L_heat = heat.build_regularizer(tiny_dataset)
        L_cos = cosine.build_regularizer(tiny_dataset)
        assert not all(np.allclose(a, b) for a, b in zip(L_heat, L_cos))

    def test_zero_lambda_behaves_like_src(self, tiny_dataset):
        from repro.baselines.src import SRC
        snmtf = SNMTF(lam=0.0, p=3, max_iter=10, random_state=3).fit(tiny_dataset)
        src = SRC(max_iter=10, random_state=3).fit(tiny_dataset)
        np.testing.assert_array_equal(snmtf.labels["documents"],
                                      src.labels["documents"])

    def test_converged_flag_consistent(self, tiny_dataset):
        result = SNMTF(lam=1.0, p=3, max_iter=200, tol=1e-4,
                       random_state=0).fit(tiny_dataset)
        if result.converged:
            assert result.n_iterations < 200
