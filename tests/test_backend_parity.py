"""Dense / sparse backend parity for the full RHCHME pipeline.

The compute backend must be an implementation detail: fits with
``backend="dense"`` and ``backend="sparse"`` on the same dataset and seed
must produce identical hard labels and objective traces that agree to within
1e-8.  These tests are the contract the benchmark speedups rest on.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import RHCHME
from repro.data.datasets import make_dataset
from repro.manifold.ensemble import HeterogeneousManifoldEnsemble

MAX_ITER = 15
SEED = 0


@pytest.fixture(scope="module")
def multi5_small():
    return make_dataset("multi5-small", random_state=SEED)


@pytest.fixture(scope="module")
def fits(multi5_small):
    dense = RHCHME(max_iter=MAX_ITER, random_state=SEED,
                   backend="dense").fit(multi5_small)
    sparse = RHCHME(max_iter=MAX_ITER, random_state=SEED,
                    backend="sparse").fit(multi5_small)
    return dense, sparse


class TestFitParity:
    def test_backends_recorded(self, fits):
        dense, sparse = fits
        assert dense.extras["backend"] == "dense"
        assert sparse.extras["backend"] == "sparse"

    def test_identical_labels_for_every_type(self, fits):
        dense, sparse = fits
        assert set(dense.labels) == set(sparse.labels)
        for type_name in dense.labels:
            np.testing.assert_array_equal(dense.labels[type_name],
                                          sparse.labels[type_name])

    def test_objective_traces_within_1e8(self, fits):
        dense, sparse = fits
        dense_trace = np.asarray(dense.trace.objectives)
        sparse_trace = np.asarray(sparse.trace.objectives)
        assert dense_trace.shape == sparse_trace.shape
        np.testing.assert_allclose(sparse_trace, dense_trace, rtol=1e-8)

    def test_final_membership_matrices_close(self, fits):
        dense, sparse = fits
        for sparse_block, dense_block in zip(sparse.state.G_blocks,
                                             dense.state.G_blocks):
            np.testing.assert_allclose(sparse_block, dense_block,
                                       rtol=1e-8, atol=1e-10)


class TestAutoBackend:
    def test_auto_resolves_dense_on_small_data(self, multi5_small):
        result = RHCHME(max_iter=2, random_state=SEED,
                        backend="auto").fit(multi5_small)
        assert result.extras["backend"] == "dense"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            RHCHME(backend="bogus")


class TestEnsembleParity:
    def test_ensemble_laplacians_match(self, multi5_small):
        kwargs = dict(use_subspace=False, use_pnn=True, p=3)
        dense = HeterogeneousManifoldEnsemble(backend="dense", **kwargs
                                              ).build_blocks(multi5_small)
        sparse = HeterogeneousManifoldEnsemble(backend="sparse", **kwargs
                                               ).build_blocks(multi5_small)
        for dense_L, sparse_L in zip(dense, sparse):
            assert isinstance(dense_L, np.ndarray)
            assert sp.issparse(sparse_L)
            np.testing.assert_allclose(sparse_L.toarray(), dense_L, atol=1e-12)

    def test_sparse_ensemble_with_subspace_member(self, multi5_small):
        kwargs = dict(alpha=1.0, use_subspace=True, use_pnn=True, p=3)
        dense = HeterogeneousManifoldEnsemble(backend="dense", **kwargs
                                              ).build_blocks(multi5_small)
        sparse = HeterogeneousManifoldEnsemble(backend="sparse", **kwargs
                                               ).build_blocks(multi5_small)
        for dense_L, sparse_L in zip(dense, sparse):
            assert sp.issparse(sparse_L)
            np.testing.assert_allclose(sparse_L.toarray(), dense_L,
                                       rtol=1e-10, atol=1e-12)
