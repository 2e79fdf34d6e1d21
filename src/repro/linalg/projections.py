"""Projection operators onto the feasible sets used by the solvers.

The SPG solver for the multiple-subspace objective (Algorithm 1) projects its
iterates onto the closed convex set ``{W : W ≥ 0, diag(W) = 0}``; Eq. 11 of
the paper defines that projection element-wise.  The simplex projection is
used by the RMC baseline to keep its learnt candidate-Laplacian weights on the
probability simplex.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "project_nonnegative",
    "project_nonnegative_zero_diagonal",
    "project_box",
    "project_simplex_rows",
    "project_simplex",
]


def project_nonnegative(matrix: np.ndarray) -> np.ndarray:
    """Project ``matrix`` onto the non-negative orthant (clip below at zero)."""
    return np.maximum(np.asarray(matrix, dtype=np.float64), 0.0)


def project_nonnegative_zero_diagonal(matrix: np.ndarray,
                                      out: np.ndarray | None = None) -> np.ndarray:
    """Projection operator of Eq. 11: clip negatives and zero the diagonal.

    The result goes to ``out`` when given; ``out=matrix`` projects in place.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    out = np.maximum(matrix, 0.0, out=out)
    np.fill_diagonal(out, 0.0)
    return out


def project_box(matrix: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """Project ``matrix`` onto the box ``[lower, upper]`` element-wise."""
    if lower > upper:
        raise ValueError(f"lower bound {lower} exceeds upper bound {upper}")
    return np.clip(np.asarray(matrix, dtype=np.float64), lower, upper)


def project_simplex(vector: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Implements the sorting-based algorithm of Held, Wolfe & Crowder; the
    result is non-negative and sums to one.
    """
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if vector.size == 0:
        raise ValueError("cannot project an empty vector onto the simplex")
    sorted_desc = np.sort(vector)[::-1]
    cumulative = np.cumsum(sorted_desc) - 1.0
    indices = np.arange(1, vector.size + 1)
    candidates = sorted_desc - cumulative / indices
    rho = np.nonzero(candidates > 0)[0][-1]
    theta = cumulative[rho] / (rho + 1.0)
    return np.maximum(vector - theta, 0.0)


def project_simplex_rows(matrix: np.ndarray) -> np.ndarray:
    """Project each row of ``matrix`` onto the probability simplex."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim == 1:
        return project_simplex(matrix)
    return np.vstack([project_simplex(row) for row in matrix])
