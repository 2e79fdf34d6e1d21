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
gradient ``2 Z W`` (``Z`` the all-ones matrix).  The paper's Algorithm 1
writes the gradient as ``2 W Z``, which is the same expression under the
transposed (column-object) data convention; both are equivalent because the
learnt affinity is symmetrised afterwards.

:func:`subspace_objective` and :func:`subspace_objective_gradient` state
the math; the solver runs :func:`subspace_evaluator`, which computes both
from one ``gram @ W`` product per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_float_array, check_positive_float, check_random_state
from ..linalg.projections import project_nonnegative_zero_diagonal
from .spg import Evaluate, spg_minimize

__all__ = [
    "subspace_evaluator",
    "subspace_objective",
    "subspace_objective_gradient",
    "SubspaceResult",
    "SubspaceRepresentation",
    "learn_subspace_affinity",
]


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


def subspace_evaluator(gram: np.ndarray, gamma: float) -> Evaluate:
    """Fused value and lazy gradient of J2 for :func:`spg_minimize`.

    One call forms ``gram @ W`` once, into a workspace allocated here, and
    the returned gradient reuses it, so an Armijo trial costs one ``n³``
    product.  The arithmetic is :func:`subspace_objective` and
    :func:`subspace_objective_gradient` operation for operation, except
    that ``‖W Wᵀ‖₁`` is taken as ``‖1ᵀW‖²``, the squared column sums the
    gradient needs anyway.  That identity needs ``W ≥ 0``, which holds
    exactly for every point the solver evaluates: iterates are projected
    and a trial ``W + 2⁻ᵏ (P − W)`` between feasible points rounds to a
    non-negative value.  The sparsity term then differs from the reference
    only in summation order, by a few ulps.
    """
    trace = np.trace(gram)
    product = np.empty_like(gram)
    scratch = np.empty_like(gram)

    def evaluate(W: np.ndarray):
        linear = float(np.sum(np.multiply(gram, W, out=scratch)))
        np.matmul(gram, W, out=product)
        quadratic = float(np.sum(np.multiply(product, W, out=scratch)))
        residual_quadratic = trace - 2.0 * linear + quadratic
        column_sums = np.sum(W, axis=0, keepdims=True)
        sparsity = float(np.vdot(column_sums, column_sums))

        def gradient(out: np.ndarray) -> None:
            np.subtract(product, gram, out=out)
            np.multiply(2.0 * gamma, out, out=out)
            np.add(out, 2.0 * column_sums, out=out)

        return float(gamma * max(residual_quadratic, 0.0) + sparsity), gradient

    return evaluate


@dataclass
class SubspaceResult:
    """Result of fitting the multiple-subspace representation.

    Attributes
    ----------
    affinity:
        Symmetrised non-negative subspace affinity ``(|W| + |Wᵀ|) / 2``.
    coefficients:
        Raw (asymmetric) coefficient matrix ``W`` solving Eq. 9.
    objective:
        Final objective value.
    n_iterations:
        SPG iterations performed.
    converged:
        Whether the SPG stationarity criterion was met.
    step_norm:
        Final SPG stationarity step norm, the quantity ``tol`` bounds.
    """

    affinity: np.ndarray
    coefficients: np.ndarray
    objective: float
    n_iterations: int
    converged: bool
    step_norm: float

    def outcome(self) -> dict:
        """The SPG outcome as a JSON-safe record (no arrays)."""
        return {"iterations": int(self.n_iterations),
                "converged": bool(self.converged),
                "objective": float(self.objective),
                "step_norm": float(self.step_norm)}


class SubspaceRepresentation:
    """Estimator for the subspace-membership affinity of one object type.

    Parameters
    ----------
    gamma:
        Noise-tolerance weight of the reconstruction term (larger values mean
        the data is assumed cleaner); the paper's experiments favour
        ``γ ∈ [10, 50]``.
    max_iter:
        Maximum SPG iterations.
    tol:
        SPG stationarity tolerance.
    random_state:
        Seed controlling the random initialisation of ``W``.
    init_scale:
        Magnitude of the random uniform initialisation.
    """

    def __init__(self, gamma: float = 25.0, *, max_iter: int = 200,
                 tol: float = 1e-4, random_state=None,
                 init_scale: float = 1e-2) -> None:
        self.gamma = check_positive_float(gamma, name="gamma")
        self.max_iter = int(max_iter)
        self.tol = check_positive_float(tol, name="tol")
        self.random_state = random_state
        self.init_scale = check_positive_float(init_scale, name="init_scale")

    def fit(self, X: np.ndarray) -> SubspaceResult:
        """Learn the subspace affinity for data matrix ``X`` (objects as rows)."""
        X = as_float_array(X, name="X", ndim=2)
        n_objects = X.shape[0]
        if n_objects < 2:
            raise ValueError("subspace learning needs at least two objects")
        rng = check_random_state(self.random_state)
        gram = X @ X.T
        # Scale-normalise the Gram matrix so the same gamma grid behaves
        # comparably across datasets with very different feature magnitudes.
        scale = float(np.trace(gram)) / n_objects
        if scale > 0:
            gram = gram / scale

        initial = project_nonnegative_zero_diagonal(
            rng.uniform(0.0, self.init_scale, size=(n_objects, n_objects)))

        result = spg_minimize(
            subspace_evaluator(gram, self.gamma),
            lambda W: project_nonnegative_zero_diagonal(W, out=W),
            initial,
            max_iter=self.max_iter,
            tol=self.tol,
        )
        coefficients = result.solution
        affinity = (coefficients + coefficients.T) / 2.0
        return SubspaceResult(affinity=affinity,
                              coefficients=coefficients,
                              objective=result.objective,
                              n_iterations=result.n_iterations,
                              converged=result.converged,
                              step_norm=result.step_norm)


def learn_subspace_affinity(X: np.ndarray, gamma: float = 25.0, *,
                            max_iter: int = 200, tol: float = 1e-4,
                            random_state=None) -> np.ndarray:
    """Convenience wrapper returning only the symmetric affinity ``W^S``."""
    model = SubspaceRepresentation(gamma=gamma, max_iter=max_iter, tol=tol,
                                   random_state=random_state)
    return model.fit(X).affinity
