"""The subspace_topk knob: sparse backend with the subspace member active.

Top-k thresholding of the subspace affinity bounds that member at 2k
non-zeros per row, which is what unlocks ``backend="sparse"`` (and the
``"auto"`` choice) for fits with ``use_subspace_member=True``.  At
``k >= n - 1`` the thresholding is exact (only a zero row minimum can be
dropped from a zero-diagonal non-negative affinity), so the sparse top-k
ensemble must match the exact dense one bit-for-bit-ish — the parity
contract the knob rests on.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import RHCHME
from repro.data.datasets import make_dataset
from repro.linalg.backend import AUTO_SPARSE_THRESHOLD
from repro.manifold.ensemble import HeterogeneousManifoldEnsemble

SEED = 0


@pytest.fixture(scope="module")
def multi5_small():
    return make_dataset("multi5-small", random_state=SEED)


def _largest_type_size(data) -> int:
    return max(t.n_objects for t in data.types)


class TestEnsembleParityAtTopkNMinusOne:
    def test_sparse_topk_matches_exact_dense_ensemble(self, multi5_small):
        kwargs = dict(alpha=1.0, use_subspace=True, use_pnn=True, p=3)
        exact = HeterogeneousManifoldEnsemble(backend="dense", **kwargs
                                              ).build_blocks(multi5_small)
        topk = _largest_type_size(multi5_small) - 1
        thresholded = HeterogeneousManifoldEnsemble(
            backend="sparse", subspace_topk=topk, **kwargs
        ).build_blocks(multi5_small)
        for exact_L, thresholded_L in zip(exact, thresholded):
            assert sp.issparse(thresholded_L)
            np.testing.assert_allclose(thresholded_L.toarray(), exact_L,
                                       rtol=1e-10, atol=1e-12)

    def test_small_topk_actually_sparsifies(self, multi5_small):
        kwargs = dict(alpha=1.0, use_subspace=True, use_pnn=True, p=3)
        full = HeterogeneousManifoldEnsemble(backend="sparse", **kwargs
                                             ).build_blocks(multi5_small)
        thresholded = HeterogeneousManifoldEnsemble(
            backend="sparse", subspace_topk=5, **kwargs
        ).build_blocks(multi5_small)
        assert (sum(L.nnz for L in thresholded)
                < sum(L.nnz for L in full))
        # subspace top-5 union + pNN(3) union + diagonal stays well bounded
        for L in thresholded:
            assert L.nnz <= L.shape[0] * (2 * 5 + 2 * 3 + 1)


class TestAutoResolution:
    def test_auto_no_longer_forced_dense_with_topk(self):
        ensemble = HeterogeneousManifoldEnsemble(backend="auto", alpha=1.0,
                                                 use_subspace=True,
                                                 subspace_topk=10)
        assert ensemble.resolve(AUTO_SPARSE_THRESHOLD) == "sparse"

    def test_auto_still_dense_without_topk(self):
        ensemble = HeterogeneousManifoldEnsemble(backend="auto", alpha=1.0,
                                                 use_subspace=True)
        assert ensemble.resolve(AUTO_SPARSE_THRESHOLD) == "dense"

    def test_invalid_topk_rejected(self):
        with pytest.raises(ValueError):
            HeterogeneousManifoldEnsemble(subspace_topk=0)


class TestFitParityWithTopk:
    def test_sparse_topk_fit_matches_dense_fit(self, multi5_small):
        topk = _largest_type_size(multi5_small) - 1
        common = dict(max_iter=10, random_state=SEED, track_metrics_every=0)
        dense = RHCHME(backend="dense", **common).fit(multi5_small)
        sparse = RHCHME(backend="sparse", subspace_topk=topk,
                        **common).fit(multi5_small)
        assert sparse.extras["backend"] == "sparse"
        for type_name in dense.labels:
            np.testing.assert_array_equal(dense.labels[type_name],
                                          sparse.labels[type_name])
        np.testing.assert_allclose(np.asarray(sparse.trace.objectives),
                                   np.asarray(dense.trace.objectives),
                                   rtol=1e-8)

    def test_aggressive_topk_still_fits(self, multi5_small):
        result = RHCHME(backend="sparse", subspace_topk=4, max_iter=5,
                        random_state=SEED, track_metrics_every=0
                        ).fit(multi5_small)
        assert result.extras["backend"] == "sparse"
        assert set(result.labels) == {"documents", "terms", "concepts"}
