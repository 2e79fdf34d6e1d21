"""Tests for repro.core.updates (the blockwise S / G / E_R update rules)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag

from repro.core.objective import evaluate_objective_blocks
from repro.core.state import initialize_state
from repro.core.updates import (
    update_association_blocks,
    update_error_matrix_blocks,
    update_membership_blocks,
)
from repro.graph.laplacian import unnormalized_laplacian
from repro.graph.pnn import pnn_affinity
from repro.linalg.normalize import row_normalize_l1
from repro.linalg.parts import split_parts
from repro.linalg.rowsparse import RowSparseMatrix


#: A β inside the residual row norms (0.015–0.04) of ``prepared``'s state,
#: so the E step keeps part of the rows.
KEEP_BETA = 0.04


def _stacked_relations(R_pairs, spec) -> np.ndarray:
    """Test-local dense ``(n, n)`` R assembled from the per-pair blocks."""
    R = np.zeros((spec.total, spec.total))
    for (t, u), block in R_pairs.items():
        R[spec.slice(t), spec.slice(u)] = (block.toarray() if sp.issparse(block)
                                           else block)
    return R


def _residual(R_pairs, state) -> np.ndarray:
    """Dense stacked residual ``R − G S Gᵀ``."""
    G = block_diag(*state.G_blocks)
    return _stacked_relations(R_pairs, state.object_spec) - G @ state.S @ G.T


def _objective(R_pairs, state, L_blocks, *, lam, beta):
    return evaluate_objective_blocks(R_pairs, state, L_blocks, lam=lam,
                                     beta=beta)


@pytest.fixture
def prepared(tiny_dataset):
    """Relation blocks, per-type Laplacians and an initialised state."""
    R_pairs = tiny_dataset.relation_blocks(normalize=True)
    L_blocks = [unnormalized_laplacian(pnn_affinity(object_type.features, p=3,
                                                    scheme="cosine"))
                for object_type in tiny_dataset.types]
    state = initialize_state(tiny_dataset, R_pairs, random_state=0)
    state.S = update_association_blocks(R_pairs, state)
    return R_pairs, L_blocks, state


def _parts(L_blocks):
    return [split_parts(block) for block in L_blocks]


class TestAssociationUpdate:
    def test_shape_and_finite(self, prepared):
        R_pairs, _, state = prepared
        S = update_association_blocks(R_pairs, state)
        assert S.shape == state.S.shape
        assert np.all(np.isfinite(S))

    def test_diagonal_blocks_zero(self, prepared):
        R_pairs, _, state = prepared
        S = update_association_blocks(R_pairs, state)
        spec = state.cluster_spec
        for k in range(spec.n_types):
            np.testing.assert_allclose(S[spec.slice(k), spec.slice(k)], 0.0)

    def test_minimises_reconstruction_given_G(self, prepared):
        # The closed-form S is the least-squares minimiser; perturbing it must
        # not decrease the reconstruction term.
        R_pairs, L_blocks, state = prepared
        state.S = update_association_blocks(R_pairs, state)
        base = _objective(R_pairs, state, L_blocks, lam=0.0,
                          beta=0.0).reconstruction
        rng = np.random.default_rng(0)
        perturbed = state.copy()
        for _ in range(5):
            perturbed.S = state.S + 0.05 * rng.normal(size=state.S.shape)
            value = _objective(R_pairs, perturbed, L_blocks, lam=0.0,
                               beta=0.0).reconstruction
            assert value >= base - 1e-8


class TestMembershipUpdate:
    def test_nonnegative_and_row_normalised(self, prepared):
        R_pairs, L_blocks, state = prepared
        for block in update_membership_blocks(R_pairs, _parts(L_blocks), state,
                                              lam=1.0):
            assert np.all(block >= 0)
            np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-9)

    def test_block_structure_preserved(self, prepared):
        R_pairs, L_blocks, state = prepared
        blocks = update_membership_blocks(R_pairs, _parts(L_blocks), state,
                                          lam=1.0)
        expected = list(zip(state.object_spec.sizes, state.cluster_spec.sizes))
        assert [block.shape for block in blocks] == expected

    def test_normalize_keyword_routes_row_normalisation(self, prepared):
        # normalize=False is the bare multiplicative step of Eq. 21; Eq. 22
        # row-normalises exactly that step.
        R_pairs, L_blocks, state = prepared
        parts = _parts(L_blocks)
        bare = update_membership_blocks(R_pairs, parts, state, lam=1.0,
                                        normalize=False)
        normalised = update_membership_blocks(R_pairs, parts, state, lam=1.0,
                                              normalize=True)
        for raw, block in zip(bare, normalised):
            assert not np.allclose(raw.sum(axis=1), 1.0)
            np.testing.assert_array_equal(block, row_normalize_l1(raw))

    def test_objective_not_increased_by_joint_s_g_update(self, prepared):
        # Theorem 1: each alternating pass decreases J4.  The G update alone
        # uses the *unnormalised* KKT step, so we check the full pass
        # (S update followed by G update) like Algorithm 2 does.
        R_pairs, L_blocks, state = prepared
        lam = 0.5
        parts = _parts(L_blocks)
        before = _objective(R_pairs, state, L_blocks, lam=lam, beta=1.0).total
        for _ in range(3):
            state.S = update_association_blocks(R_pairs, state)
            state.G_blocks = update_membership_blocks(R_pairs, parts, state,
                                                      lam=lam)
        after = _objective(R_pairs, state, L_blocks, lam=lam, beta=1.0).total
        assert after <= before * 1.05

    def test_zero_lambda_ignores_graph(self, prepared):
        R_pairs, L_blocks, state = prepared
        with_graph = update_membership_blocks(R_pairs, _parts(L_blocks), state,
                                              lam=0.0)
        zeros = [np.zeros_like(block) for block in L_blocks]
        without_graph = update_membership_blocks(R_pairs, _parts(zeros), state,
                                                 lam=1.0)
        for a, b in zip(with_graph, without_graph):
            np.testing.assert_allclose(a, b, atol=1e-10)


class TestErrorMatrixUpdate:
    def test_shape_and_finite(self, prepared):
        R_pairs, _, state = prepared
        E = update_error_matrix_blocks(R_pairs, state, beta=10.0)
        n = state.object_spec.total
        assert E.shape == (n, n)
        assert np.all(np.isfinite(E))

    def test_large_beta_shrinks_error_matrix(self, prepared):
        # β = min row norm keeps every row (2‖q_i‖ > β); β = max row norm
        # keeps only rows with ‖q_i‖ > β/2, each shrunk harder.
        R_pairs, _, state = prepared
        norms = np.linalg.norm(_residual(R_pairs, state), axis=1)
        small_beta = update_error_matrix_blocks(R_pairs, state,
                                                beta=float(norms.min()))
        large_beta = update_error_matrix_blocks(R_pairs, state,
                                                beta=float(norms.max()))
        assert small_beta.n_stored_rows == norms.size
        assert 0 < large_beta.n_stored_rows < small_beta.n_stored_rows
        assert np.abs(large_beta).sum() < np.abs(small_beta).sum()

    def test_error_rows_proportional_to_residual_rows(self, prepared):
        # Row i of E is s_i q_i with the group soft threshold
        # s_i = max(0, 1 − β / (2‖q_i‖)) of the residual row q_i.
        R_pairs, _, state = prepared
        residual = _residual(R_pairs, state)
        norms = np.linalg.norm(residual, axis=1)
        beta = float(norms.max())
        E = update_error_matrix_blocks(R_pairs, state, beta=beta)
        scale = np.maximum(0.0, 1.0 - beta / (2.0 * norms))
        np.testing.assert_array_equal(E.rows, np.flatnonzero(scale > 0))
        assert 0 < E.n_stored_rows < norms.size
        np.testing.assert_allclose(E.to_dense(), scale[:, None] * residual,
                                   rtol=1e-9, atol=1e-14)

    @pytest.mark.parametrize("beta", [0.1, 1.0, 50.0])
    def test_update_minimises_l21_subproblem(self, tiny_dataset, beta):
        # The E step is the exact prox of β‖·‖₂,₁ at Q = R − G S Gᵀ:
        # perturbing its output never lowers ‖Q − E‖²_F + β‖E‖₂,₁.  On the
        # unnormalised relation the residual row norms (0.3–0.9) all
        # exceed β/2 at β = 0.1, straddle it at β = 1 and stay below it at
        # β = 50; one residual row is planted exactly zero.
        R_pairs = tiny_dataset.relation_blocks(normalize=False)
        state = initialize_state(tiny_dataset, R_pairs, random_state=0)
        state.S = update_association_blocks(R_pairs, state)
        zero_row = 3
        G = block_diag(*state.G_blocks)
        R_pairs[(0, 1)] = R_pairs[(0, 1)].copy()
        R_pairs[(0, 1)][zero_row] = (G @ state.S @ G.T)[
            zero_row, state.object_spec.slice(1)]
        Q = _residual(R_pairs, state)
        assert not np.any(Q[zero_row])

        def l21_objective(E: np.ndarray) -> float:
            return float(np.sum((Q - E) ** 2)
                         + beta * np.sum(np.linalg.norm(E, axis=1)))

        E_star = update_error_matrix_blocks(R_pairs, state, beta=beta)
        assert zero_row not in E_star.rows
        if beta < 50.0:
            assert E_star.n_stored_rows > 0
        E_star = E_star.to_dense()
        base = l21_objective(E_star)
        rng = np.random.default_rng(0)
        for scale in (1e-1, 1e-3):
            for _ in range(5):
                step = scale * rng.normal(size=E_star.shape)
                assert l21_objective(E_star + step) >= base - 1e-12
            zero_step = np.zeros_like(E_star)
            zero_step[zero_row] = scale * rng.normal(size=E_star.shape[1])
            assert l21_objective(E_star + zero_step) >= base - 1e-12

    def test_update_decreases_subobjective_when_residual_dominates(self, prepared):
        # With β small relative to the residual row norms every row
        # survives, and the exact step lowers the L2,1-regularised
        # sub-objective.
        R_pairs, L_blocks, state = prepared
        residual = _residual(R_pairs, state)
        row_norms = np.sqrt(np.sum(residual * residual, axis=1))
        beta = 0.5 * float(np.min(row_norms[row_norms > 0]))
        before = _objective(R_pairs, state, L_blocks, lam=0.0, beta=beta).total
        state.E_R = update_error_matrix_blocks(R_pairs, state, beta=beta)
        after = _objective(R_pairs, state, L_blocks, lam=0.0, beta=beta).total
        assert after <= before + 1e-8

    def test_reweighting_handles_zero_rows(self, prepared):
        # At a β far below the residual row norms (0.015–0.04) every
        # non-zero residual row survives, scaled by s_i = 1 − β / (2‖q_i‖),
        # while rows planted exactly zero are never stored — the threshold
        # never divides by a zero row norm.  β stays above the ~1e-9
        # rounding floor of the row-norm identity, which a zero row's
        # computed norm can reach.
        R_pairs, _, state = prepared
        zero_rows = [0, 5]
        G = block_diag(*state.G_blocks)
        R_pairs = dict(R_pairs)
        R_pairs[(0, 1)] = R_pairs[(0, 1)].copy()
        R_pairs[(0, 1)][zero_rows] = (G @ state.S @ G.T)[
            zero_rows, state.object_spec.slice(1)]
        Q = _residual(R_pairs, state)
        assert not np.any(Q[zero_rows])
        norms = np.linalg.norm(Q, axis=1)
        nonzero = np.flatnonzero(norms > 0)
        beta = 1e-6
        E = update_error_matrix_blocks(R_pairs, state, beta=beta)
        assert np.all(np.isfinite(E.values))
        np.testing.assert_array_equal(E.rows, nonzero)
        scale = 1.0 - beta / (2.0 * norms[nonzero])
        np.testing.assert_allclose(E.values, scale[:, None] * Q[nonzero],
                                   rtol=1e-9, atol=1e-14)


def _gemm_membership_update(R_pairs, L_blocks, state, *, lam):
    """Test-local per-type Eq. 21-22 forming every product as a GEMM.

    ``L_t⁺ G_t`` and ``L_t⁻ G_t`` are dense matrix products even when a
    part is diagonal or all zero, and ``R_tu G_u`` and the grams are
    recomputed per term.  ``state`` carries no E_R row.
    """
    G, S, clusters = state.G_blocks, state.S, state.cluster_spec
    blocks = []
    for t, G_t in enumerate(G):
        A = np.zeros_like(G_t)
        B = np.zeros((G_t.shape[1], G_t.shape[1]))
        for source, target in sorted(R_pairs):
            if source == t:
                S_tu = S[clusters.slice(t), clusters.slice(target)]
                A += np.asarray(R_pairs[(t, target)] @ G[target]) @ S_tu.T
        for source, target in sorted(R_pairs):
            if target == t:
                S_ut = S[clusters.slice(source), clusters.slice(t)]
                B += S_ut.T @ (G[source].T @ G[source]) @ S_ut
        L_pos, L_neg = split_parts(np.asarray(L_blocks[t]))
        A_pos, A_neg = split_parts(A)
        B_pos, B_neg = split_parts(B)
        numerator = lam * (L_neg @ G_t) + A_pos + G_t @ B_neg
        denominator = lam * (L_pos @ G_t) + A_neg + G_t @ B_pos
        ratio = numerator / np.maximum(denominator, 1e-12)
        blocks.append(row_normalize_l1(G_t * np.sqrt(ratio)))
    return blocks


class TestMembershipUpdateBackends:
    def test_precomputed_parts_match_unsplit_path(self, prepared):
        # Test-local dense Eq. 21-22 on the stacked matrices, splitting the
        # stacked L on the fly: the kernel's per-type precomputed parts must
        # give the same blocks.  The terms are a featureless type here: its
        # ensemble Laplacian is all zero.
        R_pairs, L_blocks, state = prepared
        L_blocks = [L_blocks[0], np.zeros_like(L_blocks[1])]
        lam = 250.0
        R = _stacked_relations(R_pairs, state.object_spec)
        G = block_diag(*state.G_blocks)
        S = state.S
        L_pos, L_neg = split_parts(block_diag(*L_blocks))
        A_pos, A_neg = split_parts(R @ G @ S.T)
        B_pos, B_neg = split_parts(S.T @ (G.T @ G) @ S)
        ratio = ((lam * (L_neg @ G) + A_pos + G @ B_neg)
                 / np.maximum(lam * (L_pos @ G) + A_neg + G @ B_pos, 1e-12))
        expected = row_normalize_l1(G * np.sqrt(ratio))
        blocks = update_membership_blocks(R_pairs, _parts(L_blocks), state,
                                          lam=lam)
        np.testing.assert_allclose(block_diag(*blocks), expected,
                                   rtol=1e-12, atol=1e-15)
        # The kernel applies the documents' L⁺ (diagonal) as its diagonal
        # and skips the terms' zero L; both equal the GEMMs bit for bit.
        assert state.E_R.is_zero
        for block, reference in zip(blocks, _gemm_membership_update(
                R_pairs, L_blocks, state, lam=lam)):
            np.testing.assert_array_equal(block, reference)

    def test_sparse_laplacian_matches_dense(self, prepared):
        R_pairs, L_blocks, state = prepared
        dense = update_membership_blocks(R_pairs, _parts(L_blocks), state,
                                         lam=250.0)
        csr = [sp.csr_array(block) for block in L_blocks]
        sparse = update_membership_blocks(R_pairs, _parts(csr), state,
                                          lam=250.0)
        for a, b in zip(sparse, dense):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestEmptyClusterRegression:
    """The S update must survive a cluster emptying mid-iteration.

    An (almost) empty cluster is a (near-)zero column of G, so GᵀG is
    singular; the ridge-regularised solve formerly answered with
    ``O(1/ridge)`` entries along the null direction and the fit blew up.
    The guarded pseudo-inverse (repro.linalg.safe.gram_pinv) zeroes the
    null direction instead.
    """

    def test_bounded_with_exactly_empty_cluster(self, prepared):
        R_pairs, _, state = prepared
        state.G_blocks[0][:, 0] = 0.0
        S = update_association_blocks(R_pairs, state)
        assert np.all(np.isfinite(S))
        np.testing.assert_allclose(S[0, :], 0.0, atol=1e-10)
        np.testing.assert_allclose(S[:, 0], 0.0, atol=1e-10)

    def test_bounded_with_nearly_empty_cluster(self, prepared):
        # The dangerous regime: the column is not exactly zero, so the
        # gram is singular only numerically and nothing cancels exactly.
        R_pairs, _, state = prepared
        healthy = update_association_blocks(R_pairs, state)
        state.G_blocks[0][:, 0] *= 1e-15
        S = update_association_blocks(R_pairs, state)
        assert np.all(np.isfinite(S))
        bound = 10.0 * max(np.max(np.abs(healthy)), 1.0)
        assert np.max(np.abs(S)) < bound
        np.testing.assert_allclose(S[0, :], 0.0, atol=1e-8)

    def test_fit_survives_warm_start_with_empty_cluster(self, tiny_dataset):
        from repro.core.rhchme import RHCHME
        R_pairs = tiny_dataset.relation_blocks(normalize=True)
        state = initialize_state(tiny_dataset, R_pairs, random_state=0)
        # empty the first documents cluster outright
        state.G_blocks[0][:, 0] = 0.0
        result = RHCHME(max_iter=5, random_state=0,
                        track_metrics_every=0).fit(tiny_dataset,
                                                   warm_start=state)
        assert np.all(np.isfinite(result.trace.objectives))
        for block in result.state.G_blocks:
            assert np.all(np.isfinite(block))
        assert np.all(np.isfinite(np.asarray(result.state.E_R)))

    def test_gram_pinv_matches_inverse_when_well_conditioned(self, rng):
        from repro.linalg.safe import gram_pinv
        G = rng.normal(size=(30, 5))
        gram = G.T @ G
        np.testing.assert_allclose(gram_pinv(gram), np.linalg.inv(gram),
                                   rtol=1e-8, atol=1e-10)


class TestZeroResidualRegression:
    """All-zero residual rows must never produce NaNs in the E_R update."""

    def _exact_state(self, prepared):
        # Make the residual exactly zero by construction: R_tu := G_t S_tu G_uᵀ.
        R_pairs, _, state = prepared
        state = state.copy()
        c = state.cluster_spec
        R_exact = {(t, u): state.G_blocks[t] @ state.S[c.slice(t), c.slice(u)]
                   @ state.G_blocks[u].T for t, u in R_pairs}
        return R_exact, state

    @pytest.mark.parametrize("beta", [0.0, 10.0])
    def test_exact_residual_yields_finite_zero_error(self, prepared, beta):
        R_exact, state = self._exact_state(prepared)
        E = update_error_matrix_blocks(R_exact, state, beta=beta)
        assert np.all(np.isfinite(E))
        np.testing.assert_allclose(E, 0.0, atol=1e-10)

    def test_sparse_path_drops_exact_rows_entirely(self, prepared):
        R_exact, state = self._exact_state(prepared)
        R_csr = {pair: sp.csr_array(block) for pair, block in R_exact.items()}
        E = update_error_matrix_blocks(R_csr, state, beta=10.0)
        assert E.n_stored_rows == 0

    def test_reweighting_finite_without_zeta(self, prepared):
        # The prox is the fixed point of the paper's reweighting (Eq. 25–27)
        # with D taken from E and no ζ floor: every stored row satisfies
        # e_i = q_i / (1 + β D_ii) with D_ii = 1 / (2‖e_i‖).  Rows whose
        # residual is exactly zero are never stored, so D is never
        # evaluated at a zero row and the step stays finite.
        R_exact, state = self._exact_state(prepared)
        noisy_rows = [1, 4, 7]
        R_exact[(0, 1)] = R_exact[(0, 1)].copy()
        R_exact[(0, 1)][noisy_rows] += 0.05
        Q = _residual(R_exact, state)
        beta = 0.01
        E = update_error_matrix_blocks(R_exact, state, beta=beta)
        assert np.all(np.isfinite(E.values))
        np.testing.assert_array_equal(E.rows, noisy_rows)
        D = 1.0 / (2.0 * E.stored_row_norms())
        np.testing.assert_allclose(E.values,
                                   Q[E.rows] / (1.0 + beta * D)[:, None],
                                   rtol=1e-9, atol=1e-14)

    def test_fit_on_exactly_reconstructable_data_stays_finite(self):
        # A perfectly block-structured relation: the factorisation can
        # reconstruct it (almost) exactly, so residual rows shrink to ~0 —
        # the regime that used to NaN under beta > 0 without the floor.
        from repro.core.rhchme import RHCHME
        from repro.relational.dataset import MultiTypeRelationalData
        from repro.relational.types import ObjectType, Relation
        n_a, n_b = 24, 16
        labels_a = np.repeat([0, 1], n_a // 2)
        labels_b = np.repeat([0, 1], n_b // 2)
        matrix = (labels_a[:, None] == labels_b[None, :]).astype(float)
        data = MultiTypeRelationalData(
            [ObjectType("a", n_objects=n_a, n_clusters=2, features=matrix,
                        labels=labels_a),
             ObjectType("b", n_objects=n_b, n_clusters=2, features=matrix.T,
                        labels=labels_b)],
            [Relation("a", "b", matrix)])
        result = RHCHME(max_iter=10, random_state=0, beta=50.0,
                        track_metrics_every=0).fit(data)
        assert np.all(np.isfinite(result.trace.objectives))
        assert np.all(np.isfinite(np.asarray(result.state.E_R)))


class TestSparseUpdateParity:
    """Each update rule must agree across dense and CSR relation blocks.

    The shared state carries E_R rows: :data:`KEEP_BETA` sits inside the
    residual row norms of ``prepared``, so the prox keeps part of them.
    """

    @pytest.fixture
    def sparse_prepared(self, prepared):
        R_pairs, L_blocks, state = prepared
        state = state.copy()
        state.E_R = update_error_matrix_blocks(R_pairs, state,
                                               beta=KEEP_BETA)
        assert 0 < state.E_R.n_stored_rows < state.object_spec.total
        sparse_state = state.copy()
        R_csr = {pair: sp.csr_array(block) for pair, block in R_pairs.items()}
        return R_pairs, R_csr, L_blocks, state, sparse_state

    def test_association_update(self, sparse_prepared):
        R_pairs, R_csr, _, state, sparse_state = sparse_prepared
        dense = update_association_blocks(R_pairs, state)
        sparse = update_association_blocks(R_csr, sparse_state)
        np.testing.assert_allclose(sparse, dense, rtol=1e-9, atol=1e-12)

    def test_membership_update(self, sparse_prepared):
        R_pairs, R_csr, L_blocks, state, sparse_state = sparse_prepared
        parts = _parts(L_blocks)
        dense = update_membership_blocks(R_pairs, parts, state, lam=250.0)
        sparse = update_membership_blocks(R_csr, parts, sparse_state,
                                          lam=250.0)
        for a, b in zip(sparse, dense):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_error_matrix_update(self, sparse_prepared):
        R_pairs, R_csr, _, state, sparse_state = sparse_prepared
        dense = update_error_matrix_blocks(R_pairs, state, beta=KEEP_BETA)
        sparse = update_error_matrix_blocks(R_csr, sparse_state,
                                            beta=KEEP_BETA)
        np.testing.assert_array_equal(sparse.rows, dense.rows)
        np.testing.assert_allclose(sparse.to_dense(), dense.to_dense(),
                                   rtol=1e-8, atol=1e-11)

    def test_objective_evaluation(self, sparse_prepared):
        R_pairs, R_csr, L_blocks, state, sparse_state = sparse_prepared
        dense = _objective(R_pairs, state, L_blocks, lam=250.0,
                           beta=KEEP_BETA)
        sparse = _objective(R_csr, sparse_state, L_blocks, lam=250.0,
                            beta=KEEP_BETA)
        np.testing.assert_allclose(sparse.reconstruction, dense.reconstruction,
                                   rtol=1e-9)
        np.testing.assert_allclose(sparse.error_sparsity, dense.error_sparsity,
                                   rtol=1e-9)
        np.testing.assert_allclose(sparse.graph_smoothness,
                                   dense.graph_smoothness, rtol=1e-12)


class TestBlockwiseDefaultPairs:
    """Omitting ``pairs`` must still visit warm-start E_R-only blocks."""

    @pytest.fixture
    def chain(self):
        from repro.relational.dataset import MultiTypeRelationalData
        from repro.relational.types import ObjectType, Relation

        # A chain a-b-c leaves the (a, c) pair with no observed relation.
        rng = np.random.default_rng(0)
        types = [ObjectType(name, n_objects=8, n_clusters=2)
                 for name in ("a", "b", "c")]
        data = MultiTypeRelationalData(
            types, [Relation("a", "b", rng.random((8, 8))),
                    Relation("b", "c", rng.random((8, 8)))])
        R_pairs = data.relation_blocks(normalize=True)
        state = initialize_state(data, R_pairs, init="random",
                                 random_state=0)
        spec = state.object_spec
        # Plant warm-start error mass on the unrelated (a, c) block.
        t, u = 0, 2
        assert (t, u) not in R_pairs
        rows = np.array([spec.offsets[t]])
        values = np.zeros((1, spec.total))
        values[0, spec.slice(u)] = 1.0
        state.E_R = RowSparseMatrix(rows, values, (spec.total, spec.total))
        return R_pairs, state, (t, u)

    def test_error_only_pair_contributes_to_association(self, chain):
        from repro.core.updates import active_relation_pairs

        R_pairs, state, (t, u) = chain
        spec = state.object_spec
        assert (t, u) in active_relation_pairs(R_pairs, state.E_R, spec)
        S_default = update_association_blocks(R_pairs, state)
        cspec = state.cluster_spec
        assert np.abs(S_default[cspec.slice(t), cspec.slice(u)]).sum() > 0
        # and the default matches an explicit active-pair list
        explicit = update_association_blocks(
            R_pairs, state,
            pairs=active_relation_pairs(R_pairs, state.E_R, spec))
        np.testing.assert_array_equal(S_default, explicit)
        assert not sp.issparse(S_default)

    def test_error_only_pair_contributes_to_objective(self, chain):
        # The objective's default pair set is the update kernels' active
        # set: the (a, c) block's residual −E_ac is part of ‖R − GSGᵀ − E‖².
        from repro.core.updates import active_relation_pairs

        R_pairs, state, _ = chain
        state.S = update_association_blocks(R_pairs, state)
        L_blocks = [np.zeros((n, n)) for n in state.object_spec.sizes]
        default = _objective(R_pairs, state, L_blocks, lam=0.0, beta=0.0)
        explicit = evaluate_objective_blocks(
            R_pairs, state, L_blocks, lam=0.0, beta=0.0,
            pairs=active_relation_pairs(R_pairs, state.E_R,
                                        state.object_spec))
        relation_only = evaluate_objective_blocks(
            R_pairs, state, L_blocks, lam=0.0, beta=0.0, pairs=sorted(R_pairs))
        assert default.reconstruction == explicit.reconstruction
        assert default.reconstruction > relation_only.reconstruction + 1.0
        G = block_diag(*state.G_blocks)
        dense = (_stacked_relations(R_pairs, state.object_spec)
                 - G @ state.S @ G.T - state.E_R.to_dense())
        assert default.reconstruction == pytest.approx(float(np.sum(dense ** 2)),
                                                       rel=1e-12)


def error_matrix_by_full_assembly(R_pairs, state, *, beta):
    """The E step before its early exit, as the reference.

    Every type builds its value block, zero-row or not, runs
    ``residual_rows`` on every pair and all blocks are concatenated.
    """
    from repro.core.rspace import (pair_residual_rows,
                                   pair_residual_sq_row_norms)
    spec, cluster_spec = state.object_spec, state.cluster_spec
    n_total = spec.total
    pieces = []
    for t in range(spec.n_types):
        terms = [((t, u), R_pairs[(t, u)],
                  state.S[cluster_spec.slice(t), cluster_spec.slice(u)],
                  state.G_blocks[u])
                 for u in range(spec.n_types) if (t, u) in R_pairs]
        sq = np.zeros(spec.sizes[t])
        for pair, R_tu, S_tu, G_u in terms:
            sq += pair_residual_sq_row_norms(R_tu, state.G_blocks[t], S_tu,
                                             G_u)
        norms = np.sqrt(np.maximum(sq, 0.0))
        rows = np.flatnonzero(2.0 * norms > beta)
        scale = 1.0 - beta / (2.0 * norms[rows])
        values = np.zeros((rows.size, n_total))
        for pair, R_tu, S_tu, G_u in terms:
            values[:, spec.slice(pair[1])] = scale[:, None] * \
                pair_residual_rows(R_tu, state.G_blocks[t], S_tu, G_u, rows)
        pieces.append((rows + spec.offsets[t], values))
    rows = np.concatenate([piece[0] for piece in pieces])
    values = (np.vstack([piece[1] for piece in pieces])
              if rows.size else np.empty((0, n_total)))
    return RowSparseMatrix(rows, values, (n_total, n_total))


@pytest.fixture(scope="module")
def corrupted_fit():
    """A corrupted-multi5 fit at a β where E_R keeps rows."""
    from repro.core import RHCHME
    from repro.data import make_dataset
    data = make_dataset("corrupted-multi5", random_state=0)
    result = RHCHME(beta=0.3, max_iter=15, random_state=0).fit(data)
    return data, result


class TestErrorStepEarlyExit:
    """No row survives: nothing is built; rows survive: nothing changes."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_surviving_rows_match_full_assembly(self, corrupted_fit, backend):
        data, result = corrupted_fit
        R_pairs = data.relation_blocks(normalize=True, backend=backend)
        E = update_error_matrix_blocks(R_pairs, result.state, beta=0.3)
        reference = error_matrix_by_full_assembly(R_pairs, result.state,
                                                  beta=0.3)
        assert E.rows.size > 0
        np.testing.assert_array_equal(E.rows, reference.rows)
        assert E.values.tobytes() == reference.values.tobytes()

    def test_default_beta_builds_no_rows(self, corrupted_fit, monkeypatch):
        from repro.core.rspace import ProductCache
        data, result = corrupted_fit
        R_pairs = data.relation_blocks(normalize=True)

        def forbidden(*args, **kwargs):
            raise AssertionError("residual rows built with no row kept")

        monkeypatch.setattr(ProductCache, "residual_rows", forbidden)
        E = update_error_matrix_blocks(R_pairs, result.state, beta=50.0)
        n_total = data.n_objects_total
        assert E.is_zero and E.shape == (n_total, n_total)
        assert E.values.shape == (0, n_total)


def _count_row_norms(monkeypatch) -> list:
    """Record every per-row residual norm a product cache forms."""
    from repro.core.rspace import ProductCache
    calls = []
    original = ProductCache.residual_sq_row_norms

    def counted(self, pair):
        calls.append(pair)
        return original(self, pair)

    monkeypatch.setattr(ProductCache, "residual_sq_row_norms", counted)
    return calls


class TestErrorStepScreen:
    """A row type whose summed pair residual is at most (β/2)² keeps no
    row, because ‖q_i‖² ≤ Σ_j ‖q_j‖²: the E step forms none of its per-row
    norms, and E_R is the per-row prox's bit for bit either way."""

    def test_default_fit_forms_no_row_norm(self, monkeypatch):
        from repro.core import RHCHME
        from repro.data import make_dataset
        data = make_dataset("multi5-small", random_state=0)
        calls = _count_row_norms(monkeypatch)
        result = RHCHME(random_state=0, max_iter=10).fit(data)
        assert result.state.E_R.is_zero
        assert calls == []
        # The count sees the per-row path where E_R keeps rows.
        kept = RHCHME(random_state=0, max_iter=10, beta=0.3).fit(data)
        assert kept.state.E_R.n_stored_rows > 0
        assert calls

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_beta_around_both_bounds_matches_per_row_prox(
            self, corrupted_fit, monkeypatch, backend):
        from repro.core.rspace import pair_residual_sq_row_norms
        data, result = corrupted_fit
        state = result.state
        R_pairs = data.relation_blocks(normalize=True, backend=backend)
        spec, cluster_spec = state.object_spec, state.cluster_spec
        type_sq = []
        for t in range(spec.n_types):
            sq = np.zeros(spec.sizes[t])
            for u in range(spec.n_types):
                if (t, u) in R_pairs:
                    sq += pair_residual_sq_row_norms(
                        R_pairs[(t, u)], state.G_blocks[t],
                        state.S[cluster_spec.slice(t), cluster_spec.slice(u)],
                        state.G_blocks[u])
            type_sq.append(sq)
        largest_row = 2.0 * np.sqrt(max(sq.max() for sq in type_sq))
        largest_type = 2.0 * np.sqrt(max(sq.sum() for sq in type_sq))
        assert largest_row < largest_type
        calls = _count_row_norms(monkeypatch)
        for bound in (largest_row, largest_type):
            for beta in (bound * (1 - 1e-6), bound * (1 + 1e-6)):
                del calls[:]
                E = update_error_matrix_blocks(R_pairs, state, beta=beta)
                reference = error_matrix_by_full_assembly(R_pairs, state,
                                                          beta=beta)
                np.testing.assert_array_equal(E.rows, reference.rows)
                assert E.values.tobytes() == reference.values.tobytes()
                assert E.n_stored_rows == (1 if beta < largest_row else 0)
                if beta > largest_type:
                    assert calls == []  # every type screened
                else:
                    assert calls       # the largest type was not
