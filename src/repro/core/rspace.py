"""Factored R-space kernels of the blocked solver core.

Every R-space quantity of Algorithm 2 — the association update (Eq. 18), the
membership numerators (Eq. 21), the error-matrix prox (Eq. 25–27) and the
reconstruction term of the objective (Eq. 15) — decomposes over the
ordered relation pairs ``(t, u)`` and involves the pair product
``G_t S_tu G_uᵀ``, which is dense even when the relation block ``R_tu`` is
sparse.  The kernels here never materialise it.  The product stays
factored as ``M G_uᵀ`` with ``M = G_t S_tu`` and is only ever

* multiplied by a skinny dense matrix (``G_t S_tu G_uᵀ G_u = M (G_uᵀ G_u)``),
* reduced to residual row norms through one identity that holds for dense
  and CSR ``R_tu`` alike (with ``P_u = G_uᵀ G_u``)::

      ‖R_i − M_i G_uᵀ‖² = ‖R_i‖² − 2 (R_tu G_u)_i · M_i + (M P_u)_i · M_i

* or evaluated on the few rows the error matrix stores.

Only the objective's term for a dense ``R_tu`` forms the residual: it costs
the same as the identity there and, unlike the identity, has no
cancellation error on an exact factorisation.

That caps the per-iteration R-space cost at ``O(nnz·c + n·c²)`` time and
``O(nnz + n·c)`` memory.  The error matrix ``E_R`` participates through the
row-sparse representation of :class:`repro.linalg.rowsparse.RowSparseMatrix`
(its stored rows are dense, but there are only as many of them as there
are rows the L2,1 prox keeps).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "project_relations",
    "pair_residual_sq_row_norms",
    "pair_residual_rows",
    "pair_reconstruction_error",
]


def project_relations(R, E_R, G: np.ndarray) -> np.ndarray:
    """The skinny projection ``(R − E_R) G`` shared by the S and G updates.

    ``R`` may be dense, CSR or ``None`` (a structurally absent relation
    block, treated as zero); ``E_R`` is a row-sparse block or ``None``.
    The result is always a dense ``(n_t, c_u)`` array and no
    ``(n_t, n_u)`` intermediate is formed.  The blockwise solver calls this
    per relation pair with ``R_tu``, ``E_tu`` and ``G_u``.
    """
    if R is None:
        if E_R is None:
            raise ValueError("project_relations needs at least one operand")
        RG = np.zeros((E_R.shape[0], G.shape[1]), dtype=np.float64)
    else:
        RG = np.asarray(R @ G)
    if E_R is not None and E_R.rows.size:
        RG[E_R.rows] -= E_R.values @ G
    return RG


# --------------------------------------------------------------- pair kernels
#
# The pair's reconstruction ``G_t S_{tu} G_uᵀ`` stays factored as
# ``M G_uᵀ`` (``M = G_t S_{tu}``); ``R_tu`` may be dense, CSR or ``None``
# (an absent relation block).


def pair_residual_sq_row_norms(R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                               G_u: np.ndarray, *,
                               M: np.ndarray | None = None) -> np.ndarray:
    """Squared row norms of the pair residual ``R_tu − G_t S_tu G_uᵀ``.

    Evaluated through the module's row-norm identity, so neither the
    residual nor ``G_t S_tu G_uᵀ`` is formed for dense or CSR ``R_tu``.
    Returned unsummed and unsquare-rooted so the error-matrix update can
    accumulate them across a type's relation pairs before taking the row
    norm of the type's full residual rows.
    """
    if M is None:
        M = G_t @ S_tu
    sq = np.einsum("ij,ij->i", M @ (G_u.T @ G_u), M)
    if R_tu is None:
        return sq
    cross = np.einsum("ij,ij->i", np.asarray(R_tu @ G_u), M)
    return _row_sq_norms(R_tu) - 2.0 * cross + sq


def _row_sq_norms(R) -> np.ndarray:
    """Squared row norms ``‖R_i‖²`` of a dense or CSR block."""
    if not sp.issparse(R):
        return np.einsum("ij,ij->i", R, R)
    R = R.tocsr()
    entry_rows = np.repeat(np.arange(R.shape[0]), np.diff(R.indptr))
    return np.bincount(entry_rows, weights=R.data * R.data,
                       minlength=R.shape[0])


def pair_residual_rows(R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                       G_u: np.ndarray, rows: np.ndarray, *,
                       M: np.ndarray | None = None) -> np.ndarray:
    """Materialise the pair-residual rows ``(R_tu − G_t S_tu G_uᵀ)[rows]``."""
    if M is None:
        M = G_t @ S_tu
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.empty((0, G_u.shape[0]), dtype=np.float64)
    reconstruction = M[rows] @ G_u.T
    if R_tu is None:
        return -reconstruction
    if sp.issparse(R_tu):
        return sp.csr_array(R_tu)[rows].toarray() - reconstruction
    return R_tu[rows] - reconstruction


def pair_reconstruction_error(R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                              G_u: np.ndarray, E_tu) -> float:
    """``‖R_tu − G_t S_tu G_uᵀ − E_tu‖²_F`` for one relation pair.

    A dense ``R_tu`` forms the residual directly, which stays exact on an
    exact factorisation.  Otherwise the rows ``E_tu`` does not store
    contribute their residual row norms from
    :func:`pair_residual_sq_row_norms`, and the stored rows are
    materialised and differenced directly.  ``E_tu`` is a row-sparse
    block or ``None``.
    """
    M = G_t @ S_tu
    stored = E_tu is not None and E_tu.rows.size > 0
    if R_tu is not None and not sp.issparse(R_tu):
        residual = M @ G_u.T
        np.subtract(R_tu, residual, out=residual)
        if stored:
            residual[E_tu.rows] -= E_tu.values
        return float(np.vdot(residual, residual))
    sq = pair_residual_sq_row_norms(R_tu, G_t, S_tu, G_u, M=M)
    if stored:
        diff = (pair_residual_rows(R_tu, G_t, S_tu, G_u, E_tu.rows, M=M)
                - E_tu.values)
        sq[E_tu.rows] = np.einsum("ij,ij->i", diff, diff)
    return float(max(np.sum(sq), 0.0))
