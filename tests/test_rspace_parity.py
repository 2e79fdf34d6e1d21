"""Dense / sparse R-space parity for the full RHCHME pipeline.

PR 1's parity suite (``test_backend_parity.py``) pinned the graph side;
with R-space now sparse-capable — CSR relations, row-sparse E_R, factored
``G S Gᵀ`` — the same contract must hold end to end: fits with
``backend="dense"``, ``"sparse"`` and ``"auto"`` on the same dataset and
seed must produce identical hard labels and objective trajectories that
agree to floating-point noise, with ``use_error_matrix=True`` exercising
the E_R update every iteration.  The fits run at :data:`BETA`, where the
exact E step keeps some rows; at the default β = 50 it keeps none and E_R
would not participate.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import RHCHME
from repro.data.datasets import make_dataset
from repro.linalg.rowsparse import RowSparseMatrix
from repro.relational.dataset import MultiTypeRelationalData
from repro.relational.types import Relation

MAX_ITER = 15
SEED = 0
#: The prox keeps 19 of multi5-small's 260 rows here.
BETA = 0.3


def _fit(data, backend: str):
    return RHCHME(max_iter=MAX_ITER, random_state=SEED, backend=backend,
                  beta=BETA).fit(data)


@pytest.fixture(scope="module")
def multi5_small():
    return make_dataset("multi5-small", random_state=SEED)


@pytest.fixture(scope="module")
def fits(multi5_small):
    return {backend: _fit(multi5_small, backend)
            for backend in ("dense", "sparse", "auto")}


class TestFullFitParity:
    def test_error_matrix_runs_in_every_fit(self, fits):
        # The contract below is only meaningful if the E_R update actually
        # participates: it keeps some rows but not all.
        for result in fits.values():
            assert result.trace.terms_series("error_sparsity")[-1] > 0
            assert 0 < result.state.E_R.n_stored_rows < (
                result.state.object_spec.total)

    def test_sparse_fit_uses_row_sparse_error_matrix(self, fits):
        # One E_R representation on both backends.
        for result in fits.values():
            assert isinstance(result.state.E_R, RowSparseMatrix)

    @pytest.mark.parametrize("backend", ["sparse", "auto"])
    def test_identical_labels(self, fits, backend):
        for type_name in fits["dense"].labels:
            np.testing.assert_array_equal(fits[backend].labels[type_name],
                                          fits["dense"].labels[type_name])

    @pytest.mark.parametrize("backend", ["sparse", "auto"])
    def test_objective_trajectory_parity(self, fits, backend):
        dense_trace = np.asarray(fits["dense"].trace.objectives)
        other_trace = np.asarray(fits[backend].trace.objectives)
        assert dense_trace.shape == other_trace.shape
        np.testing.assert_allclose(other_trace, dense_trace, rtol=1e-8)

    def test_per_term_trajectory_parity(self, fits):
        for term in ("reconstruction", "error_sparsity", "graph_smoothness"):
            np.testing.assert_allclose(
                fits["sparse"].trace.terms_series(term),
                fits["dense"].trace.terms_series(term),
                rtol=1e-7, atol=1e-12)

    def test_error_matrices_numerically_equal(self, fits):
        np.testing.assert_allclose(np.asarray(fits["sparse"].state.E_R),
                                   np.asarray(fits["dense"].state.E_R),
                                   rtol=1e-7, atol=1e-10)

    def test_final_membership_matrices_close(self, fits):
        for sparse_block, dense_block in zip(fits["sparse"].state.G_blocks,
                                             fits["dense"].state.G_blocks):
            np.testing.assert_allclose(sparse_block, dense_block,
                                       rtol=1e-8, atol=1e-10)


class TestCsrRelationInput:
    """Relations supplied as scipy CSR must behave exactly like dense ones."""

    @pytest.fixture(scope="class")
    def paired_datasets(self, multi5_small):
        sparse_relations = [
            Relation(rel.source, rel.target, sp.csr_array(rel.matrix),
                     weight=rel.weight)
            for rel in multi5_small.relations]
        sparse_data = MultiTypeRelationalData(multi5_small.types,
                                              sparse_relations)
        return multi5_small, sparse_data

    def test_relation_block_values_match(self, paired_datasets):
        dense_data, sparse_data = paired_datasets
        for normalize in (False, True):
            expected = dense_data.relation_blocks(normalize=normalize)
            R_sparse = sparse_data.relation_blocks(normalize=normalize,
                                                   backend="sparse")
            R_dense = sparse_data.relation_blocks(normalize=normalize)
            assert sorted(R_sparse) == sorted(R_dense) == sorted(expected)
            for pair, block in expected.items():
                assert sp.issparse(R_sparse[pair])
                np.testing.assert_allclose(R_sparse[pair].toarray(), block,
                                           atol=1e-12)
                np.testing.assert_allclose(R_dense[pair], block, atol=1e-12)

    def test_fits_agree_across_relation_storage(self, paired_datasets):
        dense_data, sparse_data = paired_datasets
        from_dense = _fit(dense_data, "sparse")
        from_sparse = _fit(sparse_data, "sparse")
        np.testing.assert_allclose(from_sparse.trace.objectives,
                                   from_dense.trace.objectives, rtol=1e-9)
        for type_name in from_dense.labels:
            np.testing.assert_array_equal(from_sparse.labels[type_name],
                                          from_dense.labels[type_name])


class TestErrorRowTolParity:
    """The prox's survival threshold (‖q_i‖ > β/2) means the same thing on
    both backends."""

    def test_backends_drop_the_same_rows(self, fits):
        dense, sparse = fits["dense"], fits["sparse"]
        np.testing.assert_allclose(np.asarray(sparse.trace.objectives),
                                   np.asarray(dense.trace.objectives),
                                   rtol=1e-8)
        dense_alive = np.flatnonzero(dense.state.E_R.row_norms() > 0.0)
        assert 0 < dense_alive.size < dense.state.object_spec.total
        np.testing.assert_array_equal(sparse.state.E_R.rows, dense_alive)
        np.testing.assert_allclose(np.asarray(sparse.state.E_R),
                                   np.asarray(dense.state.E_R),
                                   rtol=1e-7, atol=1e-10)
