"""Multiple-subspace representation learning (Algorithm 1 / Eq. 9).

Each object of a type is reconstructed from the other objects of the same
type.  The learnt coefficient matrix ``W_k`` is the subspace-membership
affinity ``W^S``: objects drawn from the same low-dimensional subspace get a
non-zero similarity regardless of their Euclidean distance, objects from
different subspaces get (near-)zero similarity.

Objective (Eq. 9, with the paper's column-vector convention transposed into
our row-major convention ``X ∈ R^{n×d}``):

    J2(W) = γ ‖Xᵀ − Xᵀ W‖²_F + ‖W Wᵀ‖₁    s.t.  W ≥ 0, diag(W) = 0

Because ``W ≥ 0``, ``‖W Wᵀ‖₁ = 1ᵀ W Wᵀ 1 = Σ_j (Σ_i W_ij)²`` is smooth with
gradient ``2·11ᵀW``.  The paper's Algorithm 1
writes the gradient as ``2·W11ᵀ``, which is the same expression under the
transposed (column-object) data convention; both are equivalent because the
learnt affinity is symmetrised afterwards.

J2 is a convex quadratic whose columns separate and all share one Hessian,
``H = 2(γ·gram + 11ᵀ)``.  The paper minimises it with SPG; this module uses
the self-expressive ADMM splitting of SSC (Elhamifar & Vidal, TPAMI 2013)
instead, over-relaxed (Eckstein & Bertsekas, Math. Programming 1992; Boyd
et al., 2011, §3.4.3), which reaches a lower J2 in fewer iterations:

    W ← (H + ρI)⁻¹ (2γ·gram + ρ(Z − U))      (the unconstrained quadratic)
    Ŵ ← αW + (1 − α)Z                        (α = RELAXATION = 1.8)
    Z ← Π(Ŵ + U)                             (Eq. 11 projection)
    U ← U + Ŵ − Z

from ``Z = U = 0`` with ``ρ = tr(H)/n``.  ``H + ρI`` is factored once per
type, so an iteration is one product and needs no line search.  It stops
when the primal and dual residuals ``‖W − Z‖_F`` and ``ρ‖Z − Z_prev‖_F``
meet ``tol`` (Boyd et al., 2011, §3.3.1, with ``ε_abs = ε_rel = tol``) and
returns the feasible ``Z``, or the start ``W = 0`` when ``Z`` does not
score a lower J2.

:func:`subspace_objective` and :func:`subspace_objective_gradient` state the
math of J2; the ADMM never calls them, Figure 1's Algorithm 1 does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .._validation import as_float_array, check_positive_float, check_positive_int
from ..linalg.projections import project_nonnegative_zero_diagonal

__all__ = [
    "subspace_objective",
    "subspace_objective_gradient",
    "SubspaceResult",
    "SubspaceRepresentation",
    "learn_subspace_affinity",
]

#: Relaxation factor α of the Z and U updates; α = 1 is plain ADMM.
RELAXATION = 1.8

#: ``operator(D, out)`` writes ``ρ (H + ρI)⁻¹ D`` into ``out`` (``out`` is
#: not ``D``); a W-step ``step(D, out)`` writes the whole W update.
Operator = Callable[[np.ndarray, np.ndarray], object]


def subspace_objective(W: np.ndarray, gram: np.ndarray, gamma: float) -> float:
    """Evaluate J2 given the Gram matrix ``gram = X Xᵀ`` of the objects.

    Expanding the reconstruction term with the Gram matrix keeps every
    evaluation at ``O(n²·n)`` in the number of objects and independent of the
    feature dimensionality, which matters for the text-like data the paper
    uses (thousands of features).
    """
    W = np.asarray(W, dtype=np.float64)
    residual_quadratic = (np.trace(gram)
                          - 2.0 * float(np.sum(gram * W))
                          + float(np.sum((gram @ W) * W)))
    sparsity = float(np.sum(W @ W.T)) if np.all(W >= 0) else float(np.sum(np.abs(W @ W.T)))
    return gamma * max(residual_quadratic, 0.0) + sparsity


def subspace_objective_gradient(W: np.ndarray, gram: np.ndarray,
                                gamma: float) -> np.ndarray:
    """Gradient of J2 with respect to ``W`` (Algorithm 1, step 1).

    ``∇J2 = 2γ (X Xᵀ W − X Xᵀ) + 2 Z W`` where ``Z`` is the all-ones matrix,
    so ``Z W`` has entry ``(i, j)`` equal to the j-th column sum of ``W`` —
    the gradient of ``‖W Wᵀ‖₁ = Σ_j (Σ_i W_ij)²`` for non-negative ``W``.
    """
    W = np.asarray(W, dtype=np.float64)
    column_sums = np.sum(W, axis=0, keepdims=True)
    ones_product = np.broadcast_to(column_sums, W.shape)
    return 2.0 * gamma * (gram @ W - gram) + 2.0 * ones_product


def _dense_operator(gram: np.ndarray, gamma: float, rho: float) -> Operator:
    """``ρ (H + ρI)⁻¹`` as an explicit inverse (one n³ product per call)."""
    shifted = np.multiply(2.0 * gamma, gram)
    shifted += 2.0
    shifted.flat[::shifted.shape[0] + 1] += rho
    inverse = np.linalg.inv(shifted)
    del shifted
    inverse *= rho
    return lambda D, out: np.matmul(inverse, D, out=out)


def _woodbury_operator(X: np.ndarray, weight: float, rho: float) -> Operator:
    """``ρ (H + ρI)⁻¹`` through Woodbury on ``H = F Fᵀ`` (two n²·k products).

    ``F = [√(2·weight)·X, √2·1]`` has ``k = d + 1`` columns, so
    ``H = 2(weight·X Xᵀ + 11ᵀ)``, and
    ``ρ (ρI + F Fᵀ)⁻¹ = I − F (ρI + Fᵀ F)⁻¹ Fᵀ`` needs only a ``k × k``
    solve.
    """
    factor = np.hstack([np.sqrt(2.0 * weight) * X,
                        np.full((X.shape[0], 1), np.sqrt(2.0))])
    inner = factor.T @ factor
    inner.flat[::inner.shape[0] + 1] += rho
    solved = np.linalg.solve(inner, factor.T)

    def apply(D: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.matmul(factor, solved @ D, out=out)
        return np.subtract(D, out, out=out)

    return apply


def _w_step(X: np.ndarray, scale: float, gram: np.ndarray, gamma: float,
            rho: float) -> Operator:
    """Factor ``H + ρI`` once; the step maps ``D = Z − U`` to the next W.

    ``gram = X Xᵀ / scale``.  ``W = (H + ρI)⁻¹(2γ·gram + ρD)`` is the
    operator applied to ``D`` plus a constant.  An application costs
    ``2n³`` flop through the explicit inverse and ``4n²(d + 1)`` through
    Woodbury, so Woodbury is used while ``d + 1 < n/2``.
    """
    n, d = X.shape
    if d + 1 >= n / 2:
        apply = _dense_operator(gram, gamma, rho)
    else:
        apply = _woodbury_operator(X, gamma / scale, rho)
    constant = np.empty_like(gram)
    apply(gram, constant)
    constant *= 2.0 * gamma / rho

    def step(D: np.ndarray, out: np.ndarray) -> np.ndarray:
        apply(D, out)
        out += constant
        return out

    return step


def _objective(X: np.ndarray, scale: float, Z: np.ndarray, gamma: float) -> float:
    """J2 at a feasible ``Z`` from its residual ``Xᵀ − XᵀZ`` (``‖Z Zᵀ‖₁ = ‖1ᵀZ‖²``)."""
    residual = X.T @ Z
    np.subtract(X.T, residual, out=residual)
    column_sums = np.sum(Z, axis=0)
    return float(gamma / scale * np.vdot(residual, residual)
                 + np.vdot(column_sums, column_sums))


@dataclass
class SubspaceResult:
    """Result of fitting the multiple-subspace representation.

    Attributes
    ----------
    affinity:
        Symmetrised non-negative subspace affinity ``(|W| + |Wᵀ|) / 2``.
    coefficients:
        Raw (asymmetric) coefficient matrix ``W`` solving Eq. 9; exactly
        feasible (the ADMM's projected iterate ``Z``, or zero when ``Z``
        scores no lower).
    objective:
        J2 at ``coefficients``.
    n_iterations:
        ADMM iterations performed.
    converged:
        Whether both ADMM residuals met their tolerance.
    primal_residual, dual_residual:
        Final ``‖W − Z‖_F`` and ``ρ‖Z − Z_prev‖_F``, the quantities ``tol``
        bounds.
    """

    affinity: np.ndarray
    coefficients: np.ndarray
    objective: float
    n_iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float

    def outcome(self) -> dict:
        """The solve's outcome as a JSON-safe record (no arrays)."""
        return {"iterations": int(self.n_iterations),
                "converged": bool(self.converged),
                "objective": float(self.objective),
                "primal_residual": float(self.primal_residual),
                "dual_residual": float(self.dual_residual)}


class SubspaceRepresentation:
    """Estimator for the subspace-membership affinity of one object type.

    Parameters
    ----------
    gamma:
        Noise-tolerance weight of the reconstruction term (larger values mean
        the data is assumed cleaner); the paper's experiments favour
        ``γ ∈ [10, 50]``.
    max_iter:
        Maximum ADMM iterations.
    tol:
        Absolute and relative tolerance of both ADMM residuals.
    """

    def __init__(self, gamma: float = 25.0, *, max_iter: int = 200,
                 tol: float = 1e-5) -> None:
        self.gamma = check_positive_float(gamma, name="gamma")
        self.max_iter = check_positive_int(max_iter, name="max_iter")
        self.tol = check_positive_float(tol, name="tol")

    def fit(self, X: np.ndarray) -> SubspaceResult:
        """Learn the subspace affinity for data matrix ``X`` (objects as rows)."""
        X = as_float_array(X, name="X", ndim=2)
        n_objects = X.shape[0]
        if n_objects < 2:
            raise ValueError("subspace learning needs at least two objects")
        gram = X @ X.T
        # Scale-normalise the Gram matrix so the same gamma grid behaves
        # comparably across datasets with very different feature magnitudes.
        scale = float(np.trace(gram)) / n_objects or 1.0
        gram /= scale
        gamma, tol = self.gamma, self.tol
        rho = 2.0 * (gamma * float(np.trace(gram)) / n_objects + 1.0)
        Z, U, W, spare = (np.zeros((n_objects, n_objects)) for _ in range(4))
        step = _w_step(X, scale, gram, gamma, rho)
        del gram

        absolute = n_objects * tol        # √(n²)·ε_abs over the n² entries
        converged = False
        primal = dual = 0.0
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            step(np.subtract(Z, U, out=spare), W)
            w_norm = np.linalg.norm(W)
            # V = αW + (1 − α)Z + U: the relaxed iterate, fed to Z and U.
            V = np.subtract(W, Z, out=spare)
            V *= RELAXATION
            V += Z
            V += U
            Z_next = project_nonnegative_zero_diagonal(V, out=U)
            U_next = np.subtract(V, Z_next, out=V)
            # r = W − Z_next and s = ρ(Z_next − Z) overwrite W and the old
            # Z, whose buffers become the next W and spare.
            primal = float(np.linalg.norm(np.subtract(W, Z_next, out=W)))
            dual = rho * float(np.linalg.norm(np.subtract(Z_next, Z, out=Z)))
            Z, spare, U = Z_next, Z, U_next
            if (primal <= absolute + tol * max(w_norm, np.linalg.norm(Z))
                    and dual <= absolute + tol * rho * np.linalg.norm(U)):
                converged = True
                break
        del U, W, step
        objective = _objective(X, scale, Z, gamma)
        # W = 0 is feasible with J2 = γ‖X‖²/scale; keep it unless the
        # iterate beats it (a tiny iterate near that optimum need not).
        zero_objective = gamma / scale * float(np.vdot(X, X))
        if objective >= zero_objective:
            Z.fill(0.0)
            objective = zero_objective
        affinity = np.add(Z, Z.T, out=spare)
        affinity /= 2.0

        return SubspaceResult(affinity=affinity,
                              coefficients=Z,
                              objective=objective,
                              n_iterations=iteration,
                              converged=converged,
                              primal_residual=primal,
                              dual_residual=dual)


def learn_subspace_affinity(X: np.ndarray, gamma: float = 25.0, *,
                            max_iter: int = 200, tol: float = 1e-5) -> np.ndarray:
    """Convenience wrapper returning only the symmetric affinity ``W^S``."""
    model = SubspaceRepresentation(gamma=gamma, max_iter=max_iter, tol=tol)
    return model.fit(X).affinity
