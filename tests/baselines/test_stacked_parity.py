"""Blocked-core ↔ stacked-oracle parity for the NMTF baselines.

SRC, SNMTF and RMC run on the blocked solver core: per-pair relations,
per-type Laplacian blocks and the blockwise S / G / objective kernels with
no error matrix.  The oracle here is a test-local copy of the dense loop
they ran on before — stacked ``(n, n)`` R and L, stacked ``(n, c)`` G, the
multiplicative step with an explicit block mask, RMC's weight refit on
the stacked candidates.  Both evaluate the same arithmetic in a different
summation order, so labels must match exactly and objective traces and
RMC's learnt weights to 1e-10 relative.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag

from repro.baselines import RMC, SNMTF, SRC
from repro.core.state import initialize_state
from repro.data.datasets import make_dataset
from repro.linalg.norms import trace_quadratic
from repro.linalg.parts import split_parts
from repro.linalg.projections import project_simplex
from repro.linalg.safe import gram_pinv, safe_divide

SEED = 0
MAX_ITER = 30

MODELS = {
    "SRC": lambda: SRC(max_iter=MAX_ITER, random_state=SEED),
    "SNMTF": lambda: SNMTF(max_iter=MAX_ITER, random_state=SEED),
    "RMC": lambda: RMC(max_iter=MAX_ITER, random_state=SEED, refit_every=2),
}


def _dense(block) -> np.ndarray:
    return block.toarray() if sp.issparse(block) else np.asarray(block)


def _combine(weights, candidates) -> np.ndarray:
    combined = np.zeros_like(candidates[0])
    for weight, candidate in zip(weights, candidates):
        combined += weight * candidate
    return combined


def _stacked_reference(model, data) -> dict:
    """Test-local dense HOCC loop on the stacked matrices.

    The baselines carry no error matrix, so ``R − E_R`` is ``R`` throughout.
    """
    candidates = weights = None
    if isinstance(model, RMC):
        candidates = [block_diag(*blocks)
                      for blocks in model.ensemble.build_candidates(data)]
        weights = np.full(len(candidates), 1.0 / len(candidates))
        L = _combine(weights, candidates)
    elif isinstance(model, SNMTF):
        L = block_diag(*map(_dense, model.build_regularizer(data)))
    else:
        L = None
    R_pairs = data.relation_blocks(normalize=True)
    objects, clusters = data.object_block_spec(), data.cluster_block_spec()
    R = np.zeros((objects.total, objects.total))
    for (t, u), block in R_pairs.items():
        R[objects.slice(t), objects.slice(u)] = block
    mask = block_diag(*[np.ones((n, c)) for n, c in zip(objects.sizes,
                                                         clusters.sizes)])
    state = initialize_state(data, R_pairs, init=model.init,
                             random_state=model.random_state)
    G = block_diag(*state.G_blocks)

    def update_S():
        gram_inverse = gram_pinv(G.T @ G)
        S = gram_inverse @ (G.T @ (R @ G)) @ gram_inverse
        for k in range(clusters.n_types):
            S[clusters.slice(k), clusters.slice(k)] = 0.0
        return S

    def membership_step():
        A_pos, A_neg = split_parts(R @ G @ S.T)
        B_pos, B_neg = split_parts(S.T @ (G.T @ G) @ S)
        numerator = A_pos + G @ B_neg
        denominator = A_neg + G @ B_pos
        if L is not None and model.lam > 0:
            L_pos, L_neg = split_parts(L)
            numerator = numerator + model.lam * (L_neg @ G)
            denominator = denominator + model.lam * (L_pos @ G)
        return G * np.sqrt(safe_divide(numerator, denominator)) * mask

    def objective():
        reconstruction = np.linalg.norm(R - G @ S @ G.T) ** 2
        if L is None:
            return reconstruction
        return reconstruction + model.lam * trace_quadratic(G, L)

    S = update_S()
    trace = [objective()]
    for iteration in range(1, model.max_iter + 1):
        S = update_S()
        G = membership_step()
        if candidates is not None and iteration % model.refit_every == 0:
            penalties = np.array([trace_quadratic(G, candidate)
                                  for candidate in candidates])
            weights = project_simplex(-penalties
                                      / (2.0 * model.ensemble.smoothing))
            L = _combine(weights, candidates)
        trace.append(objective())
        if 0.0 <= (trace[-2] - trace[-1]) / max(abs(trace[-2]), 1e-12) < model.tol:
            break
    labels = {object_type.name: np.argmax(G[objects.slice(index),
                                            clusters.slice(index)], axis=1)
              for index, object_type in enumerate(data.types)}
    return {"labels": labels, "objectives": np.array(trace),
            "weights": weights}


@pytest.fixture(scope="module")
def runs():
    data = make_dataset("multi5-small", random_state=SEED)
    outcomes = {}
    for name, factory in MODELS.items():
        model = factory()
        result = model.fit(data)
        outcomes[name] = (model, result, _stacked_reference(factory(), data))
    return outcomes


class TestStackedOracleParity:
    @pytest.mark.parametrize("name", list(MODELS))
    def test_labels_identical(self, runs, name):
        _, result, reference = runs[name]
        for type_name, labels in reference["labels"].items():
            assert np.array_equal(result.labels[type_name], labels)

    @pytest.mark.parametrize("name", list(MODELS))
    def test_objective_traces_match(self, runs, name):
        _, result, reference = runs[name]
        np.testing.assert_allclose(result.trace.objectives,
                                   reference["objectives"], rtol=1e-10,
                                   atol=0.0)

    def test_rmc_weights_match(self, runs):
        model, _, reference = runs["RMC"]
        np.testing.assert_allclose(model.ensemble_weights_,
                                   reference["weights"], rtol=0.0, atol=1e-10)
        assert not np.allclose(model.ensemble_weights_,
                               1.0 / model.ensemble.n_candidates)
