"""Tests for repro.core.objective (the blockwise Eq. 15 evaluation)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag

from repro.core.objective import evaluate_objective_blocks
from repro.core.state import FactorizationState
from repro.linalg.blocks import BlockSpec
from repro.linalg.norms import frobenius_norm, l21_norm, trace_quadratic

OBJECTS = BlockSpec((5, 4, 3))
CLUSTERS = BlockSpec((2, 3, 2))
#: The (1, 2) pair carries no relation.
RELATED = ((0, 1), (0, 2))


def _random_problem(seed=0):
    """Random blocked factors plus their stacked dense counterparts."""
    rng = np.random.default_rng(seed)
    R_pairs = {}
    R = np.zeros((OBJECTS.total, OBJECTS.total))
    for t, u in RELATED:
        block = rng.random((OBJECTS.sizes[t], OBJECTS.sizes[u]))
        R_pairs[(t, u)], R_pairs[(u, t)] = block, block.T
        R[OBJECTS.slice(t), OBJECTS.slice(u)] = block
        R[OBJECTS.slice(u), OBJECTS.slice(t)] = block.T
    G_blocks = [rng.random((n, c)) for n, c in zip(OBJECTS.sizes,
                                                    CLUSTERS.sizes)]
    S = rng.random((CLUSTERS.total, CLUSTERS.total))
    E = rng.normal(size=(OBJECTS.total, OBJECTS.total)) * 0.1
    # S and E_R only live on the related pairs (the S update never writes
    # an inactive block).
    for t in range(OBJECTS.n_types):
        for u in range(OBJECTS.n_types):
            if (t, u) not in R_pairs:
                S[CLUSTERS.slice(t), CLUSTERS.slice(u)] = 0.0
                E[OBJECTS.slice(t), OBJECTS.slice(u)] = 0.0
    L_blocks = []
    for n in OBJECTS.sizes:
        block = rng.random((n, n))
        L_blocks.append((block + block.T) / 2)
    state = FactorizationState(G_blocks=G_blocks, S=S, E_R=E,
                               object_spec=OBJECTS, cluster_spec=CLUSTERS)
    return R_pairs, R, state, L_blocks


class TestEvaluateObjective:
    def test_matches_direct_formula(self):
        R_pairs, R, state, L_blocks = _random_problem()
        lam, beta = 2.5, 1.5
        breakdown = evaluate_objective_blocks(R_pairs, state, L_blocks,
                                              lam=lam, beta=beta)
        G = block_diag(*state.G_blocks)
        E = state.E_R
        L = block_diag(*L_blocks)
        expected_recon = frobenius_norm(R - G @ state.S @ G.T - E) ** 2
        assert breakdown.reconstruction == pytest.approx(expected_recon)
        assert breakdown.error_sparsity == pytest.approx(beta * l21_norm(E))
        assert breakdown.graph_smoothness == pytest.approx(lam * trace_quadratic(G, L))
        assert breakdown.total == pytest.approx(
            expected_recon + beta * l21_norm(E) + lam * trace_quadratic(G, L))

    def test_zero_error_matrix_has_zero_sparsity_term(self):
        R_pairs, R, state, L_blocks = _random_problem(1)
        state.E_R = np.zeros_like(R)
        breakdown = evaluate_objective_blocks(R_pairs, state, L_blocks,
                                              lam=1.0, beta=5.0)
        assert breakdown.error_sparsity == 0.0

    def test_missing_error_matrix_has_zero_sparsity_term(self):
        # A state without an error matrix (the NMTF baselines, or a warm
        # start that carries none) reads as E_R = 0.
        R_pairs, R, state, L_blocks = _random_problem(1)
        without = evaluate_objective_blocks(R_pairs, state.copy(), L_blocks,
                                            lam=1.0, beta=5.0)
        state.E_R = None
        breakdown = evaluate_objective_blocks(R_pairs, state, L_blocks,
                                              lam=1.0, beta=5.0)
        state.E_R = np.zeros_like(R)
        zero = evaluate_objective_blocks(R_pairs, state, L_blocks,
                                         lam=1.0, beta=5.0)
        assert breakdown.error_sparsity == 0.0
        assert breakdown.reconstruction == pytest.approx(zero.reconstruction)
        assert breakdown.total == pytest.approx(zero.total)
        assert breakdown.total != pytest.approx(without.total)

    def test_perfect_factorisation_has_zero_reconstruction(self):
        # The residual row-norm identity cancels to ~1e-16 per row; rows
        # within rounding of zero are materialised, so dense and CSR
        # relation blocks both score an exact factorisation exactly zero.
        R_pairs, _, state, L_blocks = _random_problem(2)
        state.E_R = None
        exact = {(t, u): state.G_blocks[t]
                 @ state.S[CLUSTERS.slice(t), CLUSTERS.slice(u)]
                 @ state.G_blocks[u].T for t, u in R_pairs}
        for blocks in (exact, {pair: sp.csr_array(block)
                               for pair, block in exact.items()}):
            breakdown = evaluate_objective_blocks(blocks, state, L_blocks,
                                                  lam=1.0, beta=1.0)
            assert breakdown.reconstruction == pytest.approx(0.0, abs=1e-18)

    def test_terms_nonnegative_for_laplacian_regularizer(self):
        from repro.graph.laplacian import unnormalized_laplacian
        R_pairs, _, state, _ = _random_problem(3)
        rng = np.random.default_rng(3)
        L_blocks = []
        for n in OBJECTS.sizes:
            affinity = rng.random((n, n))
            affinity = (affinity + affinity.T) / 2
            np.fill_diagonal(affinity, 0)
            L_blocks.append(unnormalized_laplacian(affinity))
        breakdown = evaluate_objective_blocks(R_pairs, state, L_blocks,
                                              lam=3.0, beta=2.0)
        assert breakdown.reconstruction >= 0
        assert breakdown.error_sparsity >= 0
        assert breakdown.graph_smoothness >= -1e-9
