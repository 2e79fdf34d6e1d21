"""Non-monotone Spectral Projected Gradient (SPG) solver.

Implements the projected-gradient scheme of Birgin, Martínez & Raydan (SIAM
J. Optim., 1999) that Algorithm 1 of the paper uses to minimise the
multiple-subspace objective over the convex set
``{W : W ≥ 0, diag(W) = 0}``:

1. form the projected direction ``D = P(W − σ ∇f(W)) − W``;
2. choose a step length by a non-monotone Armijo line search;
3. update the spectral step ``σ = (sᵀ s) / (sᵀ y)`` from the Barzilai–Borwein
   quotient of successive iterates/gradients.

The objective enters as one ``evaluate`` callable returning the value and a
lazy gradient, so a problem whose value and gradient share a product (the
subspace objective's ``gram @ W``) forms it once per point; the projection
works in place.  Every iterate-sized temporary lives in a workspace
allocated once per solve.  :class:`repro.subspace.SubspaceRepresentation`
is the solver's only caller.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .._validation import check_positive_float, check_positive_int

__all__ = ["Evaluate", "SPGResult", "spg_minimize"]

#: ``evaluate(x)`` returns ``(f(x), gradient)``; ``gradient(out)`` writes
#: ``∇f(x)`` into ``out``.  The solver calls ``gradient`` before the next
#: ``evaluate`` and before it changes ``x``, so both may share a workspace.
Evaluate = Callable[[np.ndarray], tuple[float, Callable[[np.ndarray], object]]]


@dataclass
class SPGResult:
    """Outcome of an SPG run.

    Attributes
    ----------
    solution:
        The final (projected) iterate.
    objective:
        Objective value at the final iterate.
    n_iterations:
        Number of outer iterations performed.
    converged:
        ``True`` when the projected-gradient stationarity criterion was met
        before exhausting ``max_iter``.
    step_norm:
        Infinity norm of the stationarity step ``P(x − ∇f(x)) − x`` at the
        final iterate, the quantity ``tol`` bounds.
    history:
        Objective value per iteration (including the starting point).
    """

    solution: np.ndarray
    objective: float
    n_iterations: int
    converged: bool
    step_norm: float
    history: list[float] = field(default_factory=list)


def _stationarity_step(x, grad, project, out) -> float:
    """``‖P(x − ∇f) − x‖_∞``, computed in ``out``."""
    np.subtract(x, grad, out=out)
    project(out)
    np.subtract(out, x, out=out)
    return float(np.max(np.abs(out, out=out)))


def _step(x, step, direction, out) -> np.ndarray:
    """``out = x + step · direction`` (``1 · direction`` is exact, so skipped)."""
    if step != 1.0:
        direction = np.multiply(step, direction, out=out)
    return np.add(x, direction, out=out)


def _projected_direction(x, grad, sigma, project, out, scratch) -> float:
    """Write ``P(x − σ∇f) − x`` into ``out``; return ``⟨∇f, out⟩``."""
    np.multiply(sigma, grad, out=out)
    np.subtract(x, out, out=out)
    project(out)
    np.subtract(out, x, out=out)
    return float(np.sum(np.multiply(grad, out, out=scratch)))


def spg_minimize(evaluate: Evaluate,
                 project: Callable[[np.ndarray], object],
                 x0: np.ndarray,
                 *,
                 max_iter: int = 200,
                 tol: float = 1e-5,
                 memory: int = 10,
                 sigma_init: float = 1.0,
                 sigma_min: float = 1e-10,
                 sigma_max: float = 1e10,
                 armijo_decrease: float = 1e-4,
                 backtrack_factor: float = 0.5,
                 max_backtracks: int = 30) -> SPGResult:
    """Minimise a smooth objective over a convex set defined by ``project``.

    Parameters
    ----------
    evaluate:
        ``evaluate(x) -> (f(x), gradient)`` with ``gradient(out)`` writing
        ``∇f(x)`` into ``out`` (see :data:`Evaluate`).  It is called once
        per Armijo trial; the gradient only at accepted points.
    project:
        Euclidean projection onto the feasible set, applied in place to
        the array it is given.
    x0:
        Starting point; a projected copy is used, ``x0`` is not modified.
    max_iter:
        Maximum number of outer iterations.
    tol:
        Stationarity tolerance on the infinity norm of the projected-gradient
        step ``P(x − ∇f(x)) − x``.
    memory:
        Number of previous objective values used by the non-monotone Armijo
        condition (``memory=1`` gives the classical monotone line search).
    sigma_init, sigma_min, sigma_max:
        Initial value and safeguarding bounds of the spectral step length.
    armijo_decrease:
        Sufficient-decrease constant of the Armijo condition.
    backtrack_factor:
        Multiplicative backtracking factor of the line search.
    max_backtracks:
        Maximum number of halvings per line search before accepting the step.
    """
    max_iter = check_positive_int(max_iter, name="max_iter")
    memory = check_positive_int(memory, name="memory")
    tol = check_positive_float(tol, name="tol")
    sigma = float(np.clip(sigma_init, sigma_min, sigma_max))

    x = np.array(x0, dtype=np.float64)
    project(x)
    # The accepted point and the trial point swap roles after every
    # iteration, as do their gradients; ``direction`` and ``scratch`` are
    # reused for s and y once the line search is done with them.
    candidate, direction, scratch, grad, grad_candidate = (
        np.empty_like(x) for _ in range(5))
    f_x, gradient = evaluate(x)
    gradient(grad)
    history = [f_x]
    recent_values = deque([f_x], maxlen=memory)
    converged = False
    iteration = 0
    step_norm = _stationarity_step(x, grad, project, scratch)

    for iteration in range(1, max_iter + 1):
        if step_norm <= tol:
            converged = True
            iteration -= 1
            break

        directional_derivative = _projected_direction(
            x, grad, sigma, project, direction, scratch)
        if directional_derivative >= 0.0:
            # The projected direction is not a descent direction (can happen
            # with a badly scaled spectral step); reset sigma and retry once.
            sigma = 1.0
            directional_derivative = _projected_direction(
                x, grad, sigma, project, direction, scratch)
            if directional_derivative >= 0.0:
                converged = True
                iteration -= 1
                break

        reference = max(recent_values)
        step = 1.0
        for _ in range(max_backtracks):
            f_candidate, gradient = evaluate(
                _step(x, step, direction, candidate))
            if f_candidate <= reference + armijo_decrease * step * directional_derivative:
                break
            step *= backtrack_factor
        else:
            f_candidate, gradient = evaluate(
                _step(x, step, direction, candidate))

        gradient(grad_candidate)
        s = np.subtract(candidate, x, out=direction).ravel()
        y = np.subtract(grad_candidate, grad, out=scratch).ravel()
        sy = float(np.dot(s, y))
        if sy > 0:
            sigma = float(np.clip(np.dot(s, s) / sy, sigma_min, sigma_max))
        else:
            sigma = sigma_max

        x, candidate = candidate, x
        grad, grad_candidate = grad_candidate, grad
        f_x = f_candidate
        history.append(f_x)
        recent_values.append(f_x)
        step_norm = _stationarity_step(x, grad, project, scratch)

    return SPGResult(solution=x, objective=f_x, n_iterations=iteration,
                     converged=converged, step_norm=step_norm,
                     history=history)
