"""The Eq. 9 ADMM: J2 against two oracles, its two factor paths, memory.

``plain_admm`` is the unrelaxed loop (α = 1) the solver ran before its Z
and U updates were over-relaxed.  ``reference_spg`` is the non-monotone
spectral projected gradient of Birgin, Martínez & Raydan that solved Eq. 9
before the ADMM (the paper's Algorithm 1), driven by the reference math
:func:`subspace_objective` / :func:`subspace_objective_gradient` from the
random start it used to draw.  Both are kept as J2 oracles at a budget of
150 iterations: at its default cap the relaxed ADMM must end no higher than
either on every featured type.
"""

from __future__ import annotations

import tracemalloc
from collections import deque

import numpy as np
import pytest

import repro.subspace.representation as representation
from repro.core import RHCHMEConfig
from repro.data import make_dataset
from repro.linalg.projections import project_nonnegative_zero_diagonal
from repro.subspace import (SubspaceRepresentation, subspace_objective,
                            subspace_objective_gradient)

GAMMA = 25.0
#: The oracles' budget, the old ``subspace_max_iter``; SPG ran it at
#: ``tol=1e-4``.
BUDGET = 150
#: The relaxed ADMM's default cap.
DEFAULT_CAP = RHCHMEConfig().subspace_max_iter
#: The ADMM's J2 may exceed an oracle's by at most this relative amount.
J2_RTOL = 1e-5
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
    """Plain ADMM-150 at ``tol=1e-5``: ``Z ← Π(W + U)``, ``U ← U + W − Z``."""
    n, tol = X.shape[0], 1e-5
    gram = X @ X.T
    scale = float(np.trace(gram)) / n or 1.0
    gram /= scale
    rho = 2.0 * (GAMMA * float(np.trace(gram)) / n + 1.0)
    step = representation._w_step(X, scale, gram, GAMMA, rho)
    Z, U, W = (np.zeros((n, n)) for _ in range(3))
    absolute = n * tol
    for _ in range(BUDGET):
        step(Z - U, W)
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


@pytest.fixture(scope="module")
def presets():
    return {preset: make_dataset(preset, random_state=0) for preset in PRESETS}


class TestObjectiveAgainstPlainADMM:
    @staticmethod
    def check(X: np.ndarray) -> None:
        gram = normalised_gram(X)
        result = SubspaceRepresentation(GAMMA, max_iter=DEFAULT_CAP).fit(X)
        relaxed = subspace_objective(result.coefficients, gram, GAMMA)
        plain = subspace_objective(plain_admm(X), gram, GAMMA)
        assert relaxed <= plain * (1.0 + J2_RTOL)

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("type_name", ["documents", "terms", "concepts"])
    def test_j2_no_higher_than_plain_admm_150(self, presets, preset,
                                              type_name):
        self.check(presets[preset].get_type(type_name).features)

    def test_j2_no_higher_on_the_woodbury_path(self):
        rng = np.random.default_rng(9)
        centers = rng.normal(scale=6.0, size=(4, 16))
        X = centers[np.arange(160) % 4] + rng.normal(size=(160, 16))
        assert X.shape[1] + 1 < X.shape[0] / 2
        self.check(X)


class TestObjectiveAgainstSPG:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("type_name", ["documents", "terms", "concepts"])
    def test_j2_no_higher_than_spg_150(self, presets, preset, type_name):
        X = presets[preset].get_type(type_name).features
        gram = normalised_gram(X)
        result = SubspaceRepresentation(GAMMA, max_iter=DEFAULT_CAP).fit(X)
        admm = subspace_objective(result.coefficients, gram, GAMMA)
        spg = subspace_objective(spg_150(X), gram, GAMMA)
        assert admm <= spg * (1.0 + J2_RTOL)
        np.testing.assert_allclose(result.objective, admm, rtol=1e-10)


def normalised(X: np.ndarray) -> np.ndarray:
    """``X`` scaled so that ``X Xᵀ`` is the trace-normalised Gram matrix."""
    return X / np.sqrt(np.sum(X * X) / X.shape[0])


class TestFactorPaths:
    def test_dense_and_woodbury_operators_agree(self):
        rng = np.random.default_rng(3)
        X = normalised(rng.normal(size=(60, 9)))
        gram = X @ X.T
        rho = 2.0 * (GAMMA + 1.0)
        dense = representation._dense_operator(gram, GAMMA, rho)
        woodbury = representation._woodbury_operator(X, GAMMA, rho)
        for operand in (rng.normal(size=(60, 60)), gram):
            expected, actual = np.empty_like(operand), np.empty_like(operand)
            dense(operand, expected)
            woodbury(operand, actual)
            error = np.linalg.norm(actual - expected) / np.linalg.norm(expected)
            assert error <= 1e-10

    def test_solves_agree_down_both_paths(self, monkeypatch):
        # d + 1 >= n/2 picks the explicit inverse; the second fit sends the
        # same input through Woodbury instead.
        X = np.random.default_rng(4).normal(size=(50, 30))
        dense = SubspaceRepresentation(GAMMA, max_iter=BUDGET).fit(X)
        scaled = normalised(X)
        monkeypatch.setattr(
            representation, "_dense_operator",
            lambda gram, gamma, rho:
                representation._woodbury_operator(scaled, gamma, rho))
        woodbury = SubspaceRepresentation(GAMMA, max_iter=BUDGET).fit(X)
        assert dense.n_iterations == woodbury.n_iterations
        error = (np.linalg.norm(woodbury.coefficients - dense.coefficients)
                 / np.linalg.norm(dense.coefficients))
        assert error <= 1e-10


class TestSolution:
    @pytest.mark.parametrize("n, d", [(40, 12), (24, 90), (2, 3), (90, 6)],
                             ids=["40x12", "24x90", "2x3", "90x6"])
    def test_coefficients_are_exactly_feasible(self, n, d):
        X = np.random.default_rng(n + d).normal(size=(n, d))
        result = SubspaceRepresentation(GAMMA, max_iter=BUDGET).fit(X)
        assert np.all(result.coefficients >= 0.0)
        assert np.all(np.diag(result.coefficients) == 0.0)
        assert np.array_equal(result.affinity, result.affinity.T)

    def test_orthogonal_objects_converge_to_zero(self):
        # Objects that cannot reconstruct one another have W = 0 as the
        # minimiser, where J2 is γ·tr(gram) = γ·n.
        result = SubspaceRepresentation(GAMMA).fit(np.diag([1.0, 2.0, 3.0, 0.5]))
        assert result.converged
        assert not result.coefficients.any()
        assert result.objective == GAMMA * 4.0

    def test_outcome_records_both_residuals(self):
        X = np.random.default_rng(5).normal(size=(30, 8))
        outcome = SubspaceRepresentation(GAMMA, max_iter=3).fit(X).outcome()
        assert set(outcome) == {"iterations", "converged", "objective",
                                "primal_residual", "dual_residual"}
        assert outcome["iterations"] == 3 and outcome["converged"] is False
        assert outcome["primal_residual"] > 0 and outcome["dual_residual"] > 0


def peak_bytes(X: np.ndarray, max_iter: int) -> int:
    """tracemalloc peak of one capped solve of ``X``."""
    tracemalloc.start()
    try:
        result = SubspaceRepresentation(max_iter=max_iter, tol=1e-12).fit(X)
        assert result.n_iterations == max_iter
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkspace:
    def test_peak_memory_does_not_grow_with_iterations(self):
        n = 96
        X = np.random.default_rng(7).normal(size=(n, 20))
        assert peak_bytes(X, 60) - peak_bytes(X, 5) < n * n * 8

    @pytest.mark.parametrize("d", [20, 60], ids=["woodbury", "dense"])
    def test_peak_within_the_spg_workspace(self, d):
        # The SPG held nine n×n arrays: its iterate, trial point, direction,
        # scratch, two gradients, the evaluator's product and scratch, and
        # the Gram matrix.
        n = 96
        X = np.random.default_rng(8).normal(size=(n, d))
        assert peak_bytes(X, 20) <= 9 * n * n * 8
