"""Parity of the fused, workspace-backed SPG with the loop it replaced.

The oracle below is the previous ``spg_minimize`` verbatim, driven by the
reference math :func:`subspace_objective` / :func:`subspace_objective_gradient`,
with counters added so each case can show which branches it exercised.
The fused solver keeps that loop's operation order, so the coefficients,
iteration count and converged flag must be bit-identical.  Objective values
differ in one respect: the fused evaluator takes ``‖W Wᵀ‖₁`` as ``‖1ᵀW‖²``,
which sums the same non-negative terms in another order, so the objective
and its history are compared within :data:`OBJECTIVE_RTOL`.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from repro.data import make_dataset
from repro.linalg.projections import project_nonnegative_zero_diagonal
from repro.subspace import (SubspaceRepresentation, spg_minimize,
                            subspace_evaluator, subspace_objective,
                            subspace_objective_gradient)

#: Summation-order bound for the objective: a few ulps measured, 16 allowed.
OBJECTIVE_RTOL = 16 * np.finfo(np.float64).eps
GAMMA = 25.0


@dataclass
class Reference:
    solution: np.ndarray
    objective: float
    n_iterations: int
    converged: bool
    history: list
    counts: dict


def reference_spg(objective, gradient, project, x0, *, max_iter=200,
                  tol=1e-5, memory=10, sigma_init=1.0, sigma_min=1e-10,
                  sigma_max=1e10, armijo_decrease=1e-4, backtrack_factor=0.5,
                  max_backtracks=30) -> Reference:
    """The replaced solver, line for line, plus branch counters."""
    counts = {"backtracks": 0, "resets": 0, "capped": 0}
    sigma = float(np.clip(sigma_init, sigma_min, sigma_max))

    x = project(np.asarray(x0, dtype=np.float64))
    f_x = float(objective(x))
    grad = gradient(x)
    history = [f_x]
    recent_values = [f_x]
    converged = False
    iteration = 0

    for iteration in range(1, max_iter + 1):
        direction = project(x - sigma * grad) - x
        step_norm = float(np.max(np.abs(project(x - grad) - x)))
        if step_norm <= tol:
            converged = True
            iteration -= 1
            break

        directional_derivative = float(np.sum(grad * direction))
        if directional_derivative >= 0.0:
            counts["resets"] += 1
            sigma = 1.0
            direction = project(x - sigma * grad) - x
            directional_derivative = float(np.sum(grad * direction))
            if directional_derivative >= 0.0:
                converged = True
                iteration -= 1
                break

        reference = max(recent_values)
        step = 1.0
        for _ in range(max_backtracks):
            candidate = x + step * direction
            f_candidate = float(objective(candidate))
            if f_candidate <= reference + armijo_decrease * step * directional_derivative:
                break
            counts["backtracks"] += 1
            step *= backtrack_factor
        else:
            counts["capped"] += 1
            candidate = x + step * direction
            f_candidate = float(objective(candidate))

        grad_candidate = gradient(candidate)
        s = (candidate - x).ravel()
        y = (grad_candidate - grad).ravel()
        sy = float(np.dot(s, y))
        if sy > 0:
            sigma = float(np.clip(np.dot(s, s) / sy, sigma_min, sigma_max))
        else:
            sigma = sigma_max

        x, f_x, grad = candidate, f_candidate, grad_candidate
        history.append(f_x)
        recent_values.append(f_x)
        if len(recent_values) > memory:
            recent_values.pop(0)

    return Reference(solution=x, objective=f_x, n_iterations=iteration,
                     converged=converged, history=history, counts=counts)


def normalised_gram(X: np.ndarray) -> np.ndarray:
    """The Gram matrix exactly as ``SubspaceRepresentation.fit`` scales it."""
    gram = X @ X.T
    scale = float(np.trace(gram)) / X.shape[0]
    return gram / scale if scale > 0 else gram


def random_start(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return project_nonnegative_zero_diagonal(rng.uniform(0.0, 1e-2, size=(n, n)))


def solve_both(gram, x0, **options):
    """Run the oracle and the fused solver from the same start."""
    reference = reference_spg(
        lambda W: subspace_objective(W, gram, GAMMA),
        lambda W: subspace_objective_gradient(W, gram, GAMMA),
        project_nonnegative_zero_diagonal, x0, **options)
    fused = spg_minimize(
        subspace_evaluator(gram, GAMMA),
        lambda W: project_nonnegative_zero_diagonal(W, out=W), x0, **options)
    return reference, fused


def assert_parity(reference: Reference, fused) -> None:
    assert np.array_equal(fused.solution, reference.solution)
    assert fused.n_iterations == reference.n_iterations
    assert fused.converged == reference.converged
    assert len(fused.history) == len(reference.history)
    np.testing.assert_allclose(fused.history, reference.history,
                               rtol=OBJECTIVE_RTOL, atol=0.0)
    assert fused.objective == fused.history[-1]
    np.testing.assert_allclose(fused.objective, reference.objective,
                               rtol=OBJECTIVE_RTOL, atol=0.0)


@pytest.fixture(scope="module")
def multi5():
    return make_dataset("multi5", random_state=0)


class TestFusedSolverParity:
    @pytest.mark.parametrize("type_name", ["documents", "terms", "concepts"])
    def test_multi5_types_short_budget(self, multi5, type_name):
        X = multi5.get_type(type_name).features
        gram = normalised_gram(X)
        reference, fused = solve_both(gram, random_start(X.shape[0], 0),
                                      max_iter=12, tol=1e-4)
        assert_parity(reference, fused)
        assert reference.counts["backtracks"] > 0

    @pytest.mark.parametrize("n, d", [(40, 12), (24, 90), (2, 3)],
                             ids=["d<n", "d>n", "n=2"])
    def test_random_data(self, n, d):
        X = np.random.default_rng(n + d).normal(size=(n, d))
        reference, fused = solve_both(normalised_gram(X), random_start(n, 1),
                                      max_iter=120, tol=1e-6)
        assert_parity(reference, fused)

    def test_start_at_optimum(self):
        # Orthogonal objects cannot reconstruct one another: W = 0 is the
        # minimiser, and both solvers stop before the first step.
        X = np.diag([1.0, 2.0, 3.0, 0.5])
        reference, fused = solve_both(normalised_gram(X), np.zeros((4, 4)),
                                      max_iter=50, tol=1e-10)
        assert_parity(reference, fused)
        assert fused.converged and fused.n_iterations == 0
        assert fused.step_norm == 0.0

    def test_descent_direction_reset(self):
        # A spectral step far below the iterates' ulp leaves the projected
        # direction exactly zero, so the first iteration resets sigma.
        X = np.random.default_rng(5).normal(size=(30, 8))
        reference, fused = solve_both(normalised_gram(X), random_start(30, 2),
                                      max_iter=40, tol=1e-6,
                                      sigma_init=1e-300, sigma_min=1e-300)
        assert reference.counts["resets"] > 0
        assert_parity(reference, fused)

    def test_backtracking_and_capped_line_search(self):
        # A monotone search with a two-halving cap rejects full steps and
        # exhausts the cap on some iterations.
        X = np.abs(np.random.default_rng(6).normal(size=(36, 10)))
        reference, fused = solve_both(normalised_gram(X), random_start(36, 3),
                                      max_iter=80, tol=1e-8, memory=1,
                                      max_backtracks=2)
        assert reference.counts["backtracks"] > 0
        assert reference.counts["capped"] > 0
        assert_parity(reference, fused)

    def test_representation_matches_reference(self, multi5):
        X = multi5.get_type("concepts").features
        result = SubspaceRepresentation(gamma=GAMMA, max_iter=20, tol=1e-4,
                                        random_state=0).fit(X)
        rng = np.random.default_rng(0)
        initial = project_nonnegative_zero_diagonal(
            rng.uniform(0.0, 1e-2, size=(X.shape[0],) * 2))
        reference, _ = solve_both(normalised_gram(X), initial, max_iter=20,
                                  tol=1e-4)
        assert np.array_equal(result.coefficients, reference.solution)
        assert np.array_equal(result.affinity,
                              (reference.solution + reference.solution.T) / 2.0)
        assert result.n_iterations == reference.n_iterations
        assert result.converged == reference.converged


class TestWorkspace:
    def test_peak_memory_does_not_grow_with_iterations(self):
        n = 96
        X = np.random.default_rng(7).normal(size=(n, 20))

        def peak_bytes(max_iter: int) -> int:
            tracemalloc.start()
            try:
                result = SubspaceRepresentation(max_iter=max_iter, tol=1e-12,
                                                random_state=0).fit(X)
                assert result.n_iterations == max_iter
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(60) - peak_bytes(5) < n * n * 8
