"""Tests for repro.subspace.spg (the Spectral Projected Gradient solver)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.subspace.spg import spg_minimize


def evaluator(objective, gradient):
    """Adapt an ``(objective, gradient)`` pair to the ``evaluate`` contract."""
    def evaluate(x):
        return objective(x), lambda out: np.copyto(out, gradient(x))
    return evaluate


def box(lower, upper):
    """In-place projection onto the box ``[lower, upper]``."""
    return lambda x: np.clip(x, lower, upper, out=x)


def nonnegative(x):
    """In-place projection onto the non-negative orthant."""
    np.maximum(x, 0.0, out=x)


class TestSPGQuadratic:
    def test_unconstrained_quadratic_reaches_minimum(self):
        # f(x) = ||x - target||^2 with a trivially large feasible box.
        target = np.array([1.0, -2.0, 3.0])
        result = spg_minimize(
            evaluator(lambda x: float(np.sum((x - target) ** 2)),
                      lambda x: 2.0 * (x - target)),
            box(-100.0, 100.0),
            np.zeros(3), max_iter=200, tol=1e-8)
        np.testing.assert_allclose(result.solution, target, atol=1e-5)
        assert result.converged

    def test_nonnegative_constraint_active(self):
        # Minimiser of ||x + 1||^2 over x >= 0 is the origin.
        result = spg_minimize(
            evaluator(lambda x: float(np.sum((x + 1.0) ** 2)),
                      lambda x: 2.0 * (x + 1.0)),
            nonnegative,
            np.ones(4), max_iter=200, tol=1e-8)
        np.testing.assert_allclose(result.solution, 0.0, atol=1e-6)

    def test_box_constraint_respected_throughout(self):
        result = spg_minimize(
            evaluator(lambda x: float(np.sum((x - 10.0) ** 2)),
                      lambda x: 2.0 * (x - 10.0)),
            box(0.0, 1.0),
            np.full(3, 0.5), max_iter=100, tol=1e-8)
        np.testing.assert_allclose(result.solution, 1.0, atol=1e-6)

    def test_history_monotone_overall(self):
        # Non-monotone line search may allow small bumps inside the memory
        # window, but the final value must not exceed the initial value.
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6))
        Q = A @ A.T + np.eye(6)
        b = rng.normal(size=6)
        result = spg_minimize(
            evaluator(lambda x: float(0.5 * x @ Q @ x - b @ x),
                      lambda x: Q @ x - b),
            box(-50.0, 50.0),
            np.zeros(6), max_iter=300, tol=1e-10)
        assert result.history[-1] <= result.history[0] + 1e-12
        expected = np.linalg.solve(Q, b)
        np.testing.assert_allclose(result.solution, expected, atol=1e-4)

    def test_respects_max_iter(self):
        result = spg_minimize(
            evaluator(lambda x: float(np.sum(x ** 2)), lambda x: 2.0 * x),
            lambda x: None,
            np.full(3, 100.0), max_iter=2, tol=1e-16)
        assert result.n_iterations <= 2

    def test_starting_at_optimum_converges_immediately(self):
        result = spg_minimize(
            evaluator(lambda x: float(np.sum(x ** 2)), lambda x: 2.0 * x),
            nonnegative,
            np.zeros(3), max_iter=50, tol=1e-8)
        assert result.converged
        assert result.n_iterations == 0
        assert result.step_norm == 0.0

    def test_matrix_shaped_variables(self):
        target = np.array([[1.0, 2.0], [3.0, 4.0]])
        result = spg_minimize(
            evaluator(lambda W: float(np.sum((W - target) ** 2)),
                      lambda W: 2.0 * (W - target)),
            nonnegative,
            np.zeros((2, 2)), max_iter=200, tol=1e-8)
        np.testing.assert_allclose(result.solution, target, atol=1e-5)

    def test_invalid_parameters_rejected(self):
        zero = evaluator(lambda x: 0.0, lambda x: x)
        with pytest.raises(Exception):
            spg_minimize(zero, lambda x: None, np.zeros(2), max_iter=0)
        with pytest.raises(Exception):
            spg_minimize(zero, lambda x: None, np.zeros(2), tol=-1.0)

    def test_starting_point_not_modified(self):
        x0 = np.full((3, 3), -1.0)
        spg_minimize(
            evaluator(lambda W: float(np.sum((W - 1.0) ** 2)),
                      lambda W: 2.0 * (W - 1.0)),
            nonnegative, x0, max_iter=5, tol=1e-8)
        np.testing.assert_array_equal(x0, -1.0)

    def test_step_norm_reports_the_final_iterate(self):
        # Capped before convergence, the reported step norm is the one of
        # the returned solution: ||P(x - grad f(x)) - x||_inf.
        target = np.array([4.0, -3.0, 2.0])
        result = spg_minimize(
            evaluator(lambda x: float(np.sum((x - target) ** 4)),
                      lambda x: 4.0 * (x - target) ** 3),
            nonnegative,
            np.full(3, 10.0), max_iter=3, tol=1e-12)
        assert not result.converged
        x = result.solution
        expected = np.max(np.abs(
            np.maximum(x - 4.0 * (x - target) ** 3, 0.0) - x))
        assert result.step_norm == expected
