"""Factored R-space kernels of the blocked solver core.

Every R-space quantity of Algorithm 2 — the association update (Eq. 18), the
membership numerators (Eq. 21), the error-matrix shrinkage (Eq. 25–27) and
the reconstruction term of the objective (Eq. 15) — decomposes over the
ordered relation pairs ``(t, u)`` and involves the pair product
``G_t S_tu G_uᵀ``, which is dense even when the relation block ``R_tu`` is
sparse.  The dense backend materialises it; the sparse kernels here never
do.  Instead the product stays factored as ``M G_uᵀ`` with
``M = G_t S_tu`` and is only ever

* multiplied by a skinny dense matrix (``G_t S_tu G_uᵀ G_u = M (G_uᵀ G_u)``),
* evaluated at the sparse pattern of ``R_tu`` (``(M G_uᵀ)ᵢⱼ = Mᵢ · G_uⱼ``
  for the ``nnz`` stored ``(i, j)`` pairs), or
* reduced through Frobenius/trace identities in the cluster space
  (``‖M G_uᵀ‖²_F = Σ (M P_u) ∘ M`` with ``P_u = G_uᵀ G_u``).

That caps the per-iteration R-space cost at ``O(nnz·c + n·c²)`` time and
``O(nnz + n·c)`` memory instead of ``O(n²·c)`` / ``O(n²)`` — the same
complexity collapse the sparse graph pipeline already achieved for the
Laplacian side.  The error matrix ``E_R`` participates through the
row-sparse representation of :class:`repro.linalg.rowsparse.RowSparseMatrix`
(its surviving rows are dense, but there are only as many of them as there
are corrupted samples).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..linalg.rowsparse import RowSparseMatrix

__all__ = [
    "pattern_inner",
    "pattern_row_inner",
    "project_relations",
    "pair_residual_sq_row_norms",
    "pair_residual_rows",
    "pair_reconstruction_error",
]

#: Row-count chunk for gather-heavy pattern evaluations; bounds the transient
#: ``O(nnz_chunk · c)`` gather buffers without measurably slowing the kernel.
_PATTERN_CHUNK = 262_144


def pattern_row_inner(R: sp.csr_array, M: np.ndarray,
                      G: np.ndarray) -> np.ndarray:
    """Per-row inner products ``Σⱼ Rᵢⱼ (M Gᵀ)ᵢⱼ`` against R's pattern.

    Evaluates ``(M Gᵀ)ᵢⱼ = Mᵢ · Gⱼ`` only at the ``nnz`` stored entries of
    ``R`` and reduces them per row — ``O(nnz · c)`` time, ``O(nnz)`` memory
    (chunked gathers keep the transient buffers bounded).
    """
    R = sp.csr_array(R)
    n_rows = R.shape[0]
    result = np.zeros(n_rows, dtype=np.float64)
    if R.nnz == 0:
        return result
    row_of_entry = np.repeat(np.arange(n_rows), np.diff(R.indptr))
    for start in range(0, R.nnz, _PATTERN_CHUNK):
        stop = min(start + _PATTERN_CHUNK, R.nnz)
        entries = R.data[start:stop] * np.einsum(
            "ij,ij->i", M[row_of_entry[start:stop]], G[R.indices[start:stop]])
        result += np.bincount(row_of_entry[start:stop], weights=entries,
                              minlength=n_rows)
    return result


def pattern_inner(R: sp.csr_array, M: np.ndarray, G: np.ndarray) -> float:
    """Frobenius inner product ``⟨R, M Gᵀ⟩`` against R's sparse pattern."""
    return float(np.sum(pattern_row_inner(R, M, G)))


def project_relations(R, E_R, G: np.ndarray) -> np.ndarray:
    """The skinny projection ``(R − E_R) G`` shared by the S and G updates.

    ``R`` may be dense, CSR or ``None`` (a structurally absent relation
    block, treated as zero); ``E_R`` may be dense, row-sparse or ``None``.
    The result is always a dense ``(n_t, c_u)`` array and no
    ``(n_t, n_u)`` intermediate is formed for sparse operands.  The
    blockwise solver calls this per relation pair with ``R_tu``, ``E_tu``
    and ``G_u``.
    """
    if R is None:
        if E_R is None:
            raise ValueError("project_relations needs at least one operand")
        RG = np.zeros((E_R.shape[0], G.shape[1]), dtype=np.float64)
    else:
        RG = R @ G
        if sp.issparse(R):
            RG = np.asarray(RG)
    if E_R is None:
        return RG
    if isinstance(E_R, RowSparseMatrix):
        if E_R.rows.size:
            RG[E_R.rows] -= E_R.values @ G
        return RG
    return RG - E_R @ G


# --------------------------------------------------------------- pair kernels
#
# The pair's reconstruction ``G_t S_{tu} G_uᵀ`` stays factored as
# ``M G_uᵀ`` (``M = G_t S_{tu}``); ``R_tu`` may be dense, CSR or ``None``
# (an absent relation block).


def pair_residual_sq_row_norms(R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                               G_u: np.ndarray, *,
                               M: np.ndarray | None = None,
                               P_u: np.ndarray | None = None) -> np.ndarray:
    """Squared row norms of the pair residual ``R_tu − G_t S_tu G_uᵀ``.

    Returned unsummed and unsquare-rooted so the error-matrix update can
    accumulate them across a type's relation pairs before taking the row
    norm of the type's full residual rows.  Never densifies a CSR ``R_tu``.
    """
    if M is None:
        M = G_t @ S_tu
    if P_u is None:
        P_u = G_u.T @ G_u
    gram_diag = np.einsum("ij,ij->i", M @ P_u, M)
    if R_tu is None:
        return gram_diag
    if sp.issparse(R_tu):
        R_tu = sp.csr_array(R_tu)
        data_sq = R_tu.data * R_tu.data
        row_sq = np.add.reduceat(np.concatenate([data_sq, [0.0]]),
                                 R_tu.indptr[:-1])
        row_sq[np.diff(R_tu.indptr) == 0] = 0.0
        cross = pattern_row_inner(R_tu, M, G_u)
        return row_sq - 2.0 * cross + gram_diag
    residual = R_tu - M @ G_u.T
    return np.einsum("ij,ij->i", residual, residual)


def pair_residual_rows(R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                       G_u: np.ndarray, rows: np.ndarray, *,
                       M: np.ndarray | None = None) -> np.ndarray:
    """Materialise the pair-residual rows ``(R_tu − G_t S_tu G_uᵀ)[rows]``."""
    if M is None:
        M = G_t @ S_tu
    rows = np.asarray(rows, dtype=np.int64)
    n_cols = G_u.shape[0]
    if rows.size == 0:
        return np.empty((0, n_cols), dtype=np.float64)
    reconstruction = M[rows] @ G_u.T
    if R_tu is None:
        return -reconstruction
    if sp.issparse(R_tu):
        return sp.csr_array(R_tu)[rows].toarray() - reconstruction
    return R_tu[rows] - reconstruction


def pair_reconstruction_error(R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                              G_u: np.ndarray, E_tu) -> float:
    """``‖R_tu − G_t S_tu G_uᵀ − E_tu‖²_F`` for one relation pair.

    Expands the square into pairwise Frobenius inner products whenever any
    operand is sparse: the pure-R and pure-E terms come from their own
    storage, the ``G_t S_tu G_uᵀ`` cross terms are evaluated at the sparse
    patterns, and its own square collapses into the cluster space.  With
    all-dense operands the residual is formed directly.  ``E_tu`` may be
    dense, row-sparse or ``None``.
    """
    sparse_R = sp.issparse(R_tu)
    if not sparse_R and R_tu is not None and not isinstance(E_tu, RowSparseMatrix):
        M = G_t @ S_tu
        residual = R_tu - M @ G_u.T
        if E_tu is not None:
            residual = residual - E_tu
        return float(np.sum(residual * residual))

    M = G_t @ S_tu
    P_u = G_u.T @ G_u
    gsgt_sq = float(np.sum((M @ P_u) * M))
    if R_tu is None:
        total = gsgt_sq
    elif sparse_R:
        R_tu = sp.csr_array(R_tu)
        total = (float(np.sum(R_tu.data * R_tu.data))
                 - 2.0 * pattern_inner(R_tu, M, G_u) + gsgt_sq)
    else:
        total = (float(np.sum(R_tu * R_tu))
                 - 2.0 * float(np.sum((R_tu @ G_u) * M)) + gsgt_sq)

    if E_tu is None:
        return float(max(total, 0.0))
    if isinstance(E_tu, RowSparseMatrix):
        e_sq = E_tu.frobenius_squared()
        r_dot_e = 0.0 if R_tu is None else E_tu.inner(R_tu)
        e_dot_gsgt = float(np.sum((E_tu.values @ G_u) * M[E_tu.rows]))
    else:
        E_tu = np.asarray(E_tu, dtype=np.float64)
        e_sq = float(np.sum(E_tu * E_tu))
        if R_tu is None:
            r_dot_e = 0.0
        elif sparse_R:
            r_dot_e = float(R_tu.multiply(E_tu).sum())
        else:
            r_dot_e = float(np.sum(R_tu * E_tu))
        e_dot_gsgt = float(np.sum((E_tu @ G_u) * M))
    total += e_sq - 2.0 * r_dot_e + 2.0 * e_dot_gsgt
    return float(max(total, 0.0))
