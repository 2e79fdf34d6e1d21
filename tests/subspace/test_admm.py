"""The exact Eq. 9 solve: J2 against two oracles, KKT, properties, memory.

``plain_admm`` is the self-expressive ADMM splitting of SSC that solved
Eq. 9 before the active set, unrelaxed (α = 1).  ``reference_spg`` is the
non-monotone spectral projected gradient of Birgin, Martínez & Raydan that
solved it before the ADMM (the paper's Algorithm 1), driven by the
reference math :func:`subspace_objective` / :func:`subspace_objective_gradient`
from the random start it used to draw.  Both are kept as J2 oracles at a
budget of 150 iterations: the active set reaches the optimum, so it must
end no higher than either on every featured type, at a KKT residual of at
most 1e-10.
"""

from __future__ import annotations

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from repro.data import make_dataset
from repro.linalg.projections import project_nonnegative_zero_diagonal
from repro.subspace import (SubspaceRepresentation, subspace_objective,
                            subspace_objective_gradient)

GAMMA = 25.0
#: The oracles' budget, the ADMM's old ``subspace_max_iter``; SPG ran it
#: at ``tol=1e-4``.
BUDGET = 150
#: The exact J2 may exceed an oracle's by at most this relative amount.
J2_RTOL = 1e-10
#: Largest KKT residual (relative to max|∇J2(0)|) an exact solve may leave.
KKT_TOL = 1e-10
PRESETS = ("multi5", "multi5-small", "multi10-small", "r-min20max200-small",
           "r-top10-small")


def reference_spg(objective, gradient, project, x0, *, max_iter=200,
                  tol=1e-5, memory=10, sigma_init=1.0, sigma_min=1e-10,
                  sigma_max=1e10, armijo_decrease=1e-4, backtrack_factor=0.5,
                  max_backtracks=30) -> np.ndarray:
    """SPG over ``project``'s convex set; returns the final iterate."""
    sigma = float(np.clip(sigma_init, sigma_min, sigma_max))
    x = project(np.asarray(x0, dtype=np.float64))
    f_x = float(objective(x))
    grad = gradient(x)
    recent_values = deque([f_x], maxlen=memory)

    for _ in range(max_iter):
        if float(np.max(np.abs(project(x - grad) - x))) <= tol:
            break
        direction = project(x - sigma * grad) - x
        directional_derivative = float(np.sum(grad * direction))
        if directional_derivative >= 0.0:
            sigma = 1.0
            direction = project(x - sigma * grad) - x
            directional_derivative = float(np.sum(grad * direction))
            if directional_derivative >= 0.0:
                break

        reference = max(recent_values)
        step = 1.0
        for _ in range(max_backtracks):
            candidate = x + step * direction
            f_candidate = float(objective(candidate))
            if f_candidate <= reference + armijo_decrease * step * directional_derivative:
                break
            step *= backtrack_factor
        else:
            candidate = x + step * direction
            f_candidate = float(objective(candidate))

        grad_candidate = gradient(candidate)
        s = (candidate - x).ravel()
        y = (grad_candidate - grad).ravel()
        sy = float(np.dot(s, y))
        sigma = (float(np.clip(np.dot(s, s) / sy, sigma_min, sigma_max))
                 if sy > 0 else sigma_max)
        x, f_x, grad = candidate, f_candidate, grad_candidate
        recent_values.append(f_x)
    return x


def normalised_gram(X: np.ndarray) -> np.ndarray:
    """The trace-normalised Gram matrix J2 is defined on."""
    gram = X @ X.T
    scale = float(np.trace(gram)) / X.shape[0]
    return gram / scale if scale > 0 else gram


def spg_150(X: np.ndarray) -> np.ndarray:
    """SPG-150 from the seed-0 start ``uniform(0, 1e-2)`` it used to draw."""
    gram = normalised_gram(X)
    start = np.random.default_rng(0).uniform(0.0, 1e-2, size=(X.shape[0],) * 2)
    return reference_spg(lambda W: subspace_objective(W, gram, GAMMA),
                         lambda W: subspace_objective_gradient(W, gram, GAMMA),
                         project_nonnegative_zero_diagonal, start,
                         max_iter=BUDGET, tol=1e-4)


def plain_admm(X: np.ndarray) -> np.ndarray:
    """Plain ADMM-150 at ``tol=1e-5`` from ``Z = U = 0``.

    ``W ← (H + ρI)⁻¹(2γ·gram + ρ(Z − U))``, ``Z ← Π(W + U)``,
    ``U ← U + W − Z`` with ``H = 2(γ·gram + 11ᵀ)`` and ``ρ = tr(H)/n``.
    """
    n, tol = X.shape[0], 1e-5
    gram = normalised_gram(X)
    H = 2.0 * (GAMMA * gram + 1.0)
    rho = float(np.trace(H)) / n
    inverse = np.linalg.inv(H + rho * np.eye(n))
    constant = inverse @ (2.0 * GAMMA * gram)
    Z, U = np.zeros((n, n)), np.zeros((n, n))
    absolute = n * tol
    for _ in range(BUDGET):
        W = constant + rho * (inverse @ (Z - U))
        V = W + U
        Z_next = project_nonnegative_zero_diagonal(V)
        U_next = V - Z_next
        primal = np.linalg.norm(U_next - U)
        dual = rho * np.linalg.norm(Z_next - Z)
        w_norm = np.linalg.norm(W)
        Z, U = Z_next, U_next
        if (primal <= absolute + tol * max(w_norm, np.linalg.norm(Z))
                and dual <= absolute + tol * rho * np.linalg.norm(U)):
            break
    return Z


def check_against(X: np.ndarray, oracle) -> None:
    """The exact solve converges, is KKT-optimal and ends at or below ``oracle``."""
    gram = normalised_gram(X)
    result = SubspaceRepresentation(GAMMA).fit(X)
    assert result.converged
    assert result.kkt_residual <= KKT_TOL
    exact = subspace_objective(result.coefficients, gram, GAMMA)
    np.testing.assert_allclose(result.objective, exact, rtol=1e-10)
    assert exact <= subspace_objective(oracle(X), gram, GAMMA) * (1.0 + J2_RTOL)


@pytest.fixture(scope="module")
def presets():
    return {preset: make_dataset(preset, random_state=0) for preset in PRESETS}


class TestObjectiveAgainstPlainADMM:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("type_name", ["documents", "terms", "concepts"])
    def test_j2_no_higher_than_plain_admm_150(self, presets, preset,
                                              type_name):
        check_against(presets[preset].get_type(type_name).features, plain_admm)

    def test_j2_no_higher_on_the_woodbury_path(self):
        # Four blobs with d + 1 < n/2, the input the ADMM once solved
        # through Woodbury.
        rng = np.random.default_rng(9)
        centers = rng.normal(scale=6.0, size=(4, 16))
        X = centers[np.arange(160) % 4] + rng.normal(size=(160, 16))
        check_against(X, plain_admm)
        check_against(X, spg_150)


class TestObjectiveAgainstSPG:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("type_name", ["documents", "terms", "concepts"])
    def test_j2_no_higher_than_spg_150(self, presets, preset, type_name):
        check_against(presets[preset].get_type(type_name).features, spg_150)


class TestSolution:
    @pytest.mark.parametrize("n, d", [(40, 12), (24, 90), (2, 3), (90, 6)],
                             ids=["40x12", "24x90", "2x3", "90x6"])
    def test_coefficients_are_exactly_feasible(self, n, d):
        X = np.random.default_rng(n + d).normal(size=(n, d))
        result = SubspaceRepresentation(GAMMA).fit(X)
        assert result.converged and result.kkt_residual <= KKT_TOL
        assert np.all(result.coefficients >= 0.0)
        assert np.all(np.diag(result.coefficients) == 0.0)
        assert np.array_equal(result.affinity, result.affinity.T)

    def test_orthogonal_objects_converge_to_zero(self):
        # Objects that cannot reconstruct one another have W = 0 as the
        # minimiser, where J2 is γ·tr(gram) = γ·n: no index ever enters.
        result = SubspaceRepresentation(GAMMA).fit(np.diag([1.0, 2.0, 3.0, 0.5]))
        assert result.converged and result.n_iterations == 0
        assert not result.coefficients.any()
        assert result.objective == GAMMA * 4.0
        assert result.kkt_residual == 0.0

    def test_outcome_records_the_kkt_residual(self):
        X = np.random.default_rng(5).normal(size=(30, 8))
        result = SubspaceRepresentation(GAMMA).fit(X)
        outcome = result.outcome()
        assert set(outcome) == {"iterations", "converged", "objective",
                                "kkt_residual"}
        assert outcome["iterations"] == result.n_iterations > 0
        assert outcome["converged"] is True
        assert 0.0 <= outcome["kkt_residual"] <= KKT_TOL

    def test_matches_an_independent_nnls_per_column(self):
        # Column j is an NNLS in factor form: ‖F w − f_j‖² with
        # F = [√γ·Xᵀ/√scale; 1ᵀ] and f_j = [√γ·x_j/√scale; 0].
        X = np.random.default_rng(6).normal(size=(36, 10))
        X[7] = X[3]
        n = X.shape[0]
        gram = normalised_gram(X)
        weight = np.sqrt(GAMMA * n / np.vdot(X, X))
        F = np.vstack([weight * X.T, np.ones((1, n))])
        expected = np.zeros((n, n))
        for j in range(n):
            others = np.r_[0:j, j + 1:n]
            expected[others, j] = nnls(F[:, others],
                                       np.r_[weight * X[j], 0.0])[0]
        result = SubspaceRepresentation(GAMMA).fit(X)
        np.testing.assert_allclose(
            result.objective, subspace_objective(expected, gram, GAMMA),
            rtol=1e-10)


@st.composite
def degenerate_inputs(draw) -> np.ndarray:
    """Small inputs with duplicated rows, all-zero rows, low rank and
    feature scales from 1e-3 to 1e3."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 60))
    rank = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d))
    X *= 10.0 ** rng.uniform(-3.0, 3.0, size=d)
    duplicates = draw(st.integers(0, n // 2))
    X[rng.integers(0, n, duplicates)] = X[rng.integers(0, n, duplicates)]
    X[rng.integers(0, n, draw(st.integers(0, 2)))] = 0.0
    return X


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(degenerate_inputs())
    def test_exact_feasible_and_below_the_zero_start(self, X):
        result = SubspaceRepresentation(GAMMA).fit(X)
        assert result.converged
        assert result.kkt_residual <= KKT_TOL
        assert np.all(result.coefficients >= 0.0)
        assert np.all(np.diag(result.coefficients) == 0.0)
        assert np.array_equal(result.affinity, result.affinity.T)
        # J2(0) = γ‖X‖²/scale, with scale = ‖X‖²/n (1 for X = 0).
        scale = float(np.vdot(X, X)) / X.shape[0] or 1.0
        assert result.objective <= GAMMA * float(np.vdot(X, X)) / scale * (1.0 + 1e-12)


def peak_bytes(X: np.ndarray) -> int:
    """tracemalloc peak of one solve of ``X``."""
    tracemalloc.start()
    try:
        assert SubspaceRepresentation().fit(X).converged
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkspace:
    # The ids name the factor paths the ADMM took for d + 1 below and
    # above n/2.
    @pytest.mark.parametrize("d", [20, 60], ids=["woodbury", "dense"])
    def test_peak_within_the_spg_workspace(self, d):
        # The SPG held nine n×n arrays: its iterate, trial point, direction,
        # scratch, two gradients, the evaluator's product and scratch, and
        # the Gram matrix.
        n = 96
        X = np.random.default_rng(8).normal(size=(n, d))
        assert peak_bytes(X) <= 9 * n * n * 8
