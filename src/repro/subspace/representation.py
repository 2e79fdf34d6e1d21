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

J2 separates by column.  With ``B = γ·gram`` (the trace-normalised Gram
matrix) and ``A = B + 11ᵀ``, column j minimises ``wᵀAw − 2·B[:, j]ᵀw`` over
``w ≥ 0`` with ``w_j = 0``: a non-negative least-squares problem (NNLS) in
Gram form, and every column shares ``A``.  The paper minimises J2 with SPG;
this module solves it exactly with the Lawson–Hanson active set (*Solving
Least Squares Problems*, 1974) in Gram form (Bro & De Jong, *J. Chemometrics*
1997), all columns advanced together (Van Benthem & Keenan,
*J. Chemometrics* 2004).  From ``W = 0``, each pass

1. prices every unconverged column: its dual ``B[:, j] − A w``, off the
   support and the diagonal, has no positive entry once it has converged;
2. adds the index of the largest positive dual to each column's support;
3. solves all the support systems ``A[P, P] z = B[P, j]`` as padded
   batches; a column whose ``z`` is not positive steps from ``w`` towards
   ``z`` until the first coefficient reaches zero, drops it and solves
   again.

The solution is exact, so it ends no higher than any iterative solve, and
its columns are sparse (at most ``d + 1`` non-zeros).  The only limit is
Lawson and Hanson's own bound of ``3·n`` passes; a solve that reaches it
reports ``converged=False``.  :func:`subspace_objective` and
:func:`subspace_objective_gradient` state the math of J2; the active set
never calls them, Figure 1's Algorithm 1 does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .._validation import as_float_array, check_positive_float

__all__ = [
    "subspace_objective",
    "subspace_objective_gradient",
    "SubspaceResult",
    "SubspaceRepresentation",
    "learn_subspace_affinity",
]

#: Pass cap per object, the bound of Lawson and Hanson's own NNLS code.
PASSES_PER_OBJECT = 3


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


class _ActiveSet:
    """Supports and coefficients of every column's NNLS, one row per column.

    Row ``j`` holds column j's support left-aligned in ``index[j, :size[j]]``
    and its coefficients in ``value[j, :size[j]]``; the padding repeats ``j``
    with a zero coefficient.  ``kkt[j]`` is the largest KKT violation of
    ``∇J2 / 2`` at column j's latest pricing.
    """

    def __init__(self, B: np.ndarray) -> None:
        n = B.shape[0]
        self.B = B
        self.size = np.zeros(n, dtype=np.intp)
        self.index = np.repeat(np.arange(n)[:, None], 8, axis=1)
        self.value = np.zeros((n, 8))
        self.kkt = np.zeros(n)
        # max|B| = max|∇J2(0)| / 2 sits on the diagonal (B is a Gram matrix).
        self.peak = float(B.diagonal().max())
        # A positive dual this small is rounding error.
        self.tol = 10.0 * n * np.finfo(np.float64).eps * self.peak

    def price(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's largest dual ``B[:, j] − A w`` off its support, and where.

        The diagonal is no variable, so it is never priced.  Records the
        rows' KKT violations in :attr:`kkt`.
        """
        width = int(self.size[rows].max(initial=0))
        # A last slot holding −1 at the row's own index makes the product
        # subtract B[j, :] (B is symmetric).
        index = np.empty((rows.size, width + 1), dtype=np.intp)
        index[:, :width] = self.index[rows, :width]
        index[:, width] = rows
        values = np.full((rows.size, width + 1), -1.0)
        values[:, :width] = self.value[rows, :width]
        product = sp.csr_array((values.ravel(), index.ravel(),
                                np.arange(rows.size + 1) * (width + 1)),
                               shape=(rows.size, self.B.shape[0]))
        gradient = product @ self.B             # ∇J2 / 2 − 1ᵀw
        gradient += values[:, :width].sum(axis=1, keepdims=True)
        along = np.arange(rows.size)
        gradient[along, rows] = 0.0             # padding reads the diagonal
        on_support = np.abs(gradient[along[:, None], index]).max(axis=1)
        gradient[along[:, None], index] = np.inf
        entering = np.argmin(gradient, axis=1)
        dual = -gradient[along, entering]
        self.kkt[rows] = np.maximum(on_support, dual)
        return entering, dual

    def enter(self, rows: np.ndarray, entering: np.ndarray) -> None:
        """Append one index to the support of each of ``rows``."""
        slots = self.size[rows]
        if slots.max() == self.index.shape[1]:
            self.index = np.hstack([self.index, np.repeat(
                np.arange(self.B.shape[0])[:, None], slots.max(), axis=1)])
            self.value = np.hstack([self.value, np.zeros_like(self.value)])
        self.index[rows, slots] = entering
        self.size[rows] = slots + 1

    def solve_supports(self, rows: np.ndarray) -> np.ndarray:
        """Solve ``A[P, P] z = B[P, j]`` for each row's support (padded by 0)."""
        n = self.B.shape[0]
        width = int(self.size[rows].max())
        solution = np.zeros((rows.size, width))
        # Chunks of columns keep the batch of systems within one n×n array.
        chunk = max(1, (n * n) // max(width, 1) ** 2)
        for start in range(0, rows.size, chunk):
            block = rows[start:start + chunk]
            index = self.index[block, :width]
            valid = (np.arange(width) < self.size[block, None]).astype(np.float64)
            system = np.take(self.B, index[:, :, None] * n + index[:, None, :])
            system += 1.0
            system *= valid[:, :, None]
            system *= valid[:, None, :]
            system.reshape(block.size, width * width)[:, ::width + 1] += 1.0 - valid
            rhs = self.B[index, block[:, None]]
            rhs *= valid
            solution[start:start + block.size] = np.linalg.solve(
                system, rhs[:, :, None])[:, :, 0]
        return solution

    def update(self, rows: np.ndarray) -> None:
        """Lawson–Hanson's inner loop: re-solve until every support is positive."""
        while rows.size:
            width = int(self.size[rows].max())
            z = self.solve_supports(rows)
            valid = np.arange(width) < self.size[rows, None]
            blocking = valid & (z <= 0.0)
            infeasible = blocking.any(axis=1)
            self.value[rows[~infeasible], :width] = z[~infeasible]
            rows, z, valid, blocking = (rows[infeasible], z[infeasible],
                                        valid[infeasible], blocking[infeasible])
            if not rows.size:
                return
            # Step from w towards z until the first blocking coefficient
            # reaches zero; an entering index (w = 0) blocks at once.
            w = self.value[rows, :width]
            ratio = np.where(blocking, 0.0, np.inf)
            np.divide(w, w - z, out=ratio, where=blocking & (w > 0.0))
            first = np.argmin(ratio, axis=1)
            along = np.arange(rows.size)
            w += ratio[along, first, None] * (z - w)
            w[along, first] = 0.0
            keep = valid & (w > 0.0)
            # Compact the surviving support entries to the left.
            order = np.argsort(~keep, axis=1, kind="stable")
            along = along[:, None]
            index = np.where(keep, self.index[rows, :width], rows[:, None])
            self.index[rows, :width] = index[along, order]
            self.value[rows, :width] = np.where(keep, w, 0.0)[along, order]
            self.size[rows] = keep.sum(axis=1)

    def decrease(self) -> float:
        """``J2(0) − J2(W) = Σ_j B[:, j]ᵀw_j``, as each w_j solves its support system."""
        n = self.B.shape[0]
        return float(np.vdot(self.B[self.index, np.arange(n)[:, None]], self.value))

    def coefficients(self) -> np.ndarray:
        """The dense ``W`` whose column j is row j's solution."""
        n = self.B.shape[0]
        W = np.zeros((n, n))
        W[self.index, np.arange(n)[:, None]] = self.value
        return W


@dataclass
class SubspaceResult:
    """Result of fitting the multiple-subspace representation.

    Attributes
    ----------
    affinity:
        Symmetrised non-negative subspace affinity ``(|W| + |Wᵀ|) / 2``.
    coefficients:
        Raw (asymmetric) coefficient matrix ``W`` solving Eq. 9; exactly
        feasible.
    objective:
        J2 at ``coefficients``.
    n_iterations:
        Active-set passes performed.
    converged:
        Whether every column met the KKT conditions.
    kkt_residual:
        The largest KKT violation of ``∇J2`` relative to ``max|∇J2(0)|``:
        ``|∇J2|`` on the support and ``−∇J2`` where positive off it,
        diagonal excluded.
    """

    affinity: np.ndarray
    coefficients: np.ndarray
    objective: float
    n_iterations: int
    converged: bool
    kkt_residual: float

    def outcome(self) -> dict:
        """The solve's outcome as a JSON-safe record (no arrays)."""
        return {"iterations": int(self.n_iterations),
                "converged": bool(self.converged),
                "objective": float(self.objective),
                "kkt_residual": float(self.kkt_residual)}


class SubspaceRepresentation:
    """Estimator for the subspace-membership affinity of one object type.

    Parameters
    ----------
    gamma:
        Noise-tolerance weight of the reconstruction term (larger values mean
        the data is assumed cleaner); the paper's experiments favour
        ``γ ∈ [10, 50]``.
    """

    def __init__(self, gamma: float = 25.0) -> None:
        self.gamma = check_positive_float(gamma, name="gamma")

    def fit(self, X: np.ndarray) -> SubspaceResult:
        """Learn the subspace affinity for data matrix ``X`` (objects as rows)."""
        X = as_float_array(X, name="X", ndim=2)
        n_objects = X.shape[0]
        if n_objects < 2:
            raise ValueError("subspace learning needs at least two objects")
        B = X @ X.T
        # Scale-normalise the Gram matrix so the same gamma grid behaves
        # comparably across datasets with very different feature magnitudes;
        # J2(0) = γ·tr(gram)/scale is then γ·n.
        scale = float(np.trace(B)) / n_objects
        start = self.gamma * n_objects if scale else 0.0
        B *= self.gamma / (scale or 1.0)
        solver = _ActiveSet(B)
        rows = np.arange(n_objects)
        passes = 0
        while True:
            entering, dual = solver.price(rows)
            unconverged = dual > solver.tol
            rows, entering = rows[unconverged], entering[unconverged]
            if not rows.size or passes == PASSES_PER_OBJECT * n_objects:
                break
            solver.enter(rows, entering)
            solver.update(rows)
            passes += 1
        objective = start - solver.decrease()
        # kkt and peak both hold halves of ∇J2.
        kkt_residual = max(0.0, float(solver.kkt.max())) / (solver.peak or 1.0)
        W = solver.coefficients()
        del B, solver
        affinity = np.add(W, W.T)
        affinity /= 2.0
        return SubspaceResult(affinity=affinity,
                              coefficients=W,
                              objective=objective,
                              n_iterations=passes,
                              converged=not rows.size,
                              kkt_residual=kkt_residual)


def learn_subspace_affinity(X: np.ndarray, gamma: float = 25.0) -> np.ndarray:
    """Convenience wrapper returning only the symmetric affinity ``W^S``."""
    return SubspaceRepresentation(gamma=gamma).fit(X).affinity
