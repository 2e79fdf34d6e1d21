"""Tests for repro.core.rspace (factored per-pair R-space kernels).

Every kernel is checked against the dense formula it replaces on a random
non-square relation pair ``(t, u)``: the factored path must agree to
floating-point noise without ever building the ``(n_t, n_u)`` residual.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import rspace
from repro.core.state import FactorizationState
from repro.linalg.blocks import BlockSpec
from repro.linalg.rowsparse import RowSparseMatrix

N_T, N_U, C_T, C_U = 30, 20, 4, 3


@pytest.fixture
def problem(rng):
    """Random sparse R_tu plus the factor blocks of one relation pair."""
    dense_R = rng.random((N_T, N_U))
    dense_R[dense_R < 0.7] = 0.0
    dense_R[5] = 0.0  # an empty row
    R = sp.csr_array(dense_R)
    G_t = np.abs(rng.normal(size=(N_T, C_T)))
    G_u = np.abs(rng.normal(size=(N_U, C_U)))
    S = rng.normal(size=(C_T, C_U))
    E_dense = np.zeros((N_T, N_U))
    stored = np.array([2, 11, 23])
    E_dense[stored] = rng.normal(size=(3, N_U))
    E = RowSparseMatrix(stored, E_dense[stored], (N_T, N_U))
    return dense_R, R, G_t, S, G_u, E_dense, E


def _relation_kinds(dense_R, R):
    """(argument, dense reference) for R_tu dense, CSR and absent."""
    return [(dense_R, dense_R), (R, dense_R), (None, np.zeros_like(dense_R))]


class TestPatternKernels:
    def test_empty_pattern(self):
        # A CSR relation with no stored entries leaves only the (M P_u) · M
        # term of the residual row-norm identity.
        R = sp.csr_array((5, 4), dtype=np.float64)
        G_t, S, G_u = np.ones((5, 2)), np.eye(2), np.ones((4, 2))
        np.testing.assert_allclose(
            rspace.pair_residual_sq_row_norms(R, G_t, S, G_u),
            np.sum((G_t @ S @ G_u.T) ** 2, axis=1))


class TestResidualKernels:
    def test_residual_row_norms_match_dense(self, problem):
        dense_R, R, G_t, S, G_u, _, _ = problem
        for R_arg, R_ref in _relation_kinds(dense_R, R):
            residual = R_ref - G_t @ S @ G_u.T
            np.testing.assert_allclose(
                rspace.pair_residual_sq_row_norms(R_arg, G_t, S, G_u),
                np.sum(residual * residual, axis=1), rtol=1e-9, atol=1e-12)

    def test_residual_rows_match_dense(self, problem):
        dense_R, R, G_t, S, G_u, _, _ = problem
        rows = np.array([0, 5, 7, 29])
        for R_arg, R_ref in _relation_kinds(dense_R, R):
            expected = (R_ref - G_t @ S @ G_u.T)[rows]
            np.testing.assert_allclose(
                rspace.pair_residual_rows(R_arg, G_t, S, G_u, rows),
                expected, rtol=1e-9, atol=1e-12)

    def test_residual_rows_empty_selection(self, problem):
        _, R, G_t, S, G_u, _, _ = problem
        out = rspace.pair_residual_rows(R, G_t, S, G_u,
                                        np.empty(0, dtype=np.int64))
        assert out.shape == (0, N_U)


class TestProjectRelations:
    def test_sparse_r_row_sparse_e(self, problem):
        dense_R, R, _, _, G_u, E_dense, E = problem
        expected = (dense_R - E_dense) @ G_u
        np.testing.assert_allclose(rspace.project_relations(R, E, G_u),
                                   expected)

    def test_sparse_r_none_e(self, problem):
        dense_R, R, _, _, G_u, _, _ = problem
        np.testing.assert_allclose(rspace.project_relations(R, None, G_u),
                                   dense_R @ G_u)

    def test_dense_r_row_sparse_e(self, problem):
        dense_R, _, _, _, G_u, E_dense, E = problem
        np.testing.assert_allclose(rspace.project_relations(dense_R, E, G_u),
                                   (dense_R - E_dense) @ G_u)

    def test_association_core(self, problem):
        # The S update's per-pair core G_tᵀ (R_tu − E_tu) G_u (Eq. 18),
        # from the projection a fit's product cache shares.
        dense_R, R, G_t, _, G_u, E_dense, E = problem
        state = FactorizationState(G_blocks=[G_t, G_u],
                                   object_spec=BlockSpec((N_T, N_U)),
                                   cluster_spec=BlockSpec((C_T, C_U)))
        products = rspace.ProductCache().bind({(0, 1): R}, [(0, 1)], state)
        np.testing.assert_allclose(products.core((0, 1), E),
                                   G_t.T @ (dense_R - E_dense) @ G_u)
        # The E_R rows come off a copy: the shared R_tu G_u is intact.
        np.testing.assert_allclose(products.relation_product((0, 1)),
                                   dense_R @ G_u)


class TestReconstructionError:
    def _dense_value(self, dense_R, G_t, S, G_u, E_dense):
        return float(np.linalg.norm(dense_R - G_t @ S @ G_u.T - E_dense) ** 2)

    @staticmethod
    def _error_operands(e_kind, E_dense, E):
        if e_kind == "row-sparse":
            return E, E_dense
        return None, np.zeros_like(E_dense)

    @pytest.mark.parametrize("sparse_r", [True, False])
    @pytest.mark.parametrize("e_kind", ["row-sparse", "none"])
    def test_matches_dense_formula(self, problem, sparse_r, e_kind):
        dense_R, R, G_t, S, G_u, E_dense, E = problem
        R_arg = R if sparse_r else dense_R
        E_arg, E_ref = self._error_operands(e_kind, E_dense, E)
        expected = self._dense_value(dense_R, G_t, S, G_u, E_ref)
        np.testing.assert_allclose(
            rspace.pair_reconstruction_error(R_arg, G_t, S, G_u, E_arg),
            expected, rtol=1e-9)

    @pytest.mark.parametrize("e_kind", ["row-sparse", "none"])
    def test_absent_relation_matches_dense_formula(self, problem, e_kind):
        # R_tu = None: a pair that only a warm-start E_R keeps active.
        dense_R, _, G_t, S, G_u, E_dense, E = problem
        E_arg, E_ref = self._error_operands(e_kind, E_dense, E)
        expected = self._dense_value(np.zeros_like(dense_R), G_t, S, G_u,
                                     E_ref)
        np.testing.assert_allclose(
            rspace.pair_reconstruction_error(None, G_t, S, G_u, E_arg),
            expected, rtol=1e-9)

    def test_exact_reconstruction_is_near_zero(self, rng):
        G_t = np.abs(rng.normal(size=(N_T, C_T)))
        G_u = np.abs(rng.normal(size=(N_U, C_U)))
        S = rng.normal(size=(C_T, C_U))
        product = G_t @ S @ G_u.T
        R = sp.csr_array(product)
        value = rspace.pair_reconstruction_error(R, G_t, S, G_u, None)
        assert value < 1e-9 * float(np.sum(product * product))
