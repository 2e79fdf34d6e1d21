"""Factored R-space kernels of the blocked solver core and their product cache.

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

* or evaluated on the few rows the error matrix stores, and on the rows
  whose identity value is within rounding of zero (there the identity's
  cancellation error would dominate, so an exact factorisation scores
  exactly zero).

That caps the per-iteration R-space cost at ``O(nnz·c + n·c²)`` time and
``O(nnz + n·c)`` memory.  The error matrix ``E_R`` participates through the
row-sparse representation of :class:`repro.linalg.rowsparse.RowSparseMatrix`
(its stored rows are dense, but there are only as many of them as there
are rows the L2,1 prox keeps).

The S, G and E_R steps and the objective all consume the same few products
of the current factors — ``R_tu G_u``, ``G_uᵀ G_u``, ``M``, the residual
row norms and ``L_t^± G_t``.  :class:`ProductCache` computes each of them
once per operand and hands it to every consumer until the operand is
replaced.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..linalg.parts import split_parts
from ..linalg.safe import gram_pinv

__all__ = [
    "ProductCache",
    "project_relations",
    "pair_residual_sq_row_norms",
    "pair_residual_rows",
    "pair_reconstruction_error",
]

#: A residual row whose identity value is at most this fraction of
#: ``‖R_i‖²`` is materialised instead: the identity loses every digit there.
_NEAR_ZERO_RTOL = 1e-10

#: The pair index of a one-shot cache (the module-level kernels below).
_PAIR = (0, 1)


class ProductCache:
    """Products of one fit's current factors, each computed once.

    An entry lives in a slot named by its kind and its type or pair index,
    and remembers the operand arrays it was computed from.  A lookup whose
    operands are the very same objects (``is``) returns the stored value;
    other operands recompute it and replace the entry, so a slot holds one
    entry at most.  Identity keys are sound because the solver replaces
    the G blocks, S and E_R at every update and never writes into them:
    clean blocks a delta refresh freezes keep their identity, so their
    products last the whole refresh.  No consumer writes into a value the
    cache returns.

    A fit owns one cache and passes it to the update kernels and the
    objective; a kernel called without one builds a private cache, so it
    runs the same code either way.  ``R_tu`` may be dense, CSR or ``None``
    (a structurally absent relation block).
    """

    def __init__(self) -> None:
        self._slots: dict = {}

    def _memo(self, slot, operands: tuple, compute):
        entry = self._slots.get(slot)
        if entry is not None:
            for held, given in zip(entry[0], operands):
                if held is not given:
                    break
            else:
                return entry[1]
        value = compute()
        self._slots[slot] = (operands, value)
        return value

    # ------------------------------------------------------------ block views
    def association_block(self, S: np.ndarray, cluster_spec, pair):
        """The ``S_tu`` view of ``S``.

        The same object until ``S`` is replaced, so the products of
        ``S_tu`` below can be keyed by its identity.
        """
        t, u = pair
        return self._memo(("S", pair), (S,), lambda: S[
            cluster_spec.slice(t), cluster_spec.slice(u)])

    def error_block(self, E_R, object_spec, pair):
        """The ``E_tu`` view of the row-sparse ``E_R``.

        ``None`` when ``E_R`` is ``None`` or stores no row, so an empty
        error matrix is never sliced.
        """
        if E_R is None or E_R.is_zero:
            return None
        t, u = pair
        return self._memo(("E", pair), (E_R,), lambda: E_R.block(
            object_spec.slice(t), object_spec.slice(u)))

    # ------------------------------------------------------ relation products
    def relation_product(self, pair, R_tu, G_u: np.ndarray):
        """``R_tu G_u`` as a dense ``(n_t, c_u)`` array (``None`` if absent)."""
        if R_tu is None:
            return None
        return self._memo(("RG", pair), (R_tu, G_u),
                          lambda: np.asarray(R_tu @ G_u))

    def relation_sq_row_norms(self, pair, R_tu) -> np.ndarray:
        """``‖R_i‖²`` of every row of ``R_tu``, once per relation block."""
        return self._memo(("R2", pair), (R_tu,), lambda: _row_sq_norms(R_tu))

    def projected_relation(self, pair, R_tu, E_tu, G_u: np.ndarray):
        """``(R_tu − E_tu) G_u``, the projection the S and G steps share.

        The stored rows of ``E_tu`` are subtracted from a copy of
        ``R_tu G_u``, so no ``(n_t, n_u)`` intermediate is formed.
        ``None`` when both operands are absent: the projection is zero.
        """
        RG = self.relation_product(pair, R_tu, G_u)
        if E_tu is None or not E_tu.rows.size:
            return RG
        projected = (np.zeros((E_tu.shape[0], G_u.shape[1])) if RG is None
                     else RG.copy())
        projected[E_tu.rows] -= E_tu.values @ G_u
        return projected

    # ------------------------------------------------------------------ grams
    def gram(self, t: int, G_t: np.ndarray) -> np.ndarray:
        """``G_tᵀ G_t``."""
        return self._memo(("P", t), (G_t,), lambda: G_t.T @ G_t)

    def gram_pinv(self, t: int, G_t: np.ndarray) -> np.ndarray:
        """Guarded pseudo-inverse of ``G_tᵀ G_t`` (see :func:`gram_pinv`)."""
        return self._memo(("P+", t), (G_t,),
                          lambda: gram_pinv(self.gram(t, G_t)))

    # -------------------------------------------------------------- residuals
    def factored(self, pair, G_t: np.ndarray, S_tu: np.ndarray) -> np.ndarray:
        """``M = G_t S_tu``, the left factor of the pair's reconstruction."""
        return self._memo(("M", pair), (G_t, S_tu), lambda: G_t @ S_tu)

    def residual_sq_row_norms(self, pair, R_tu, G_t: np.ndarray,
                              S_tu: np.ndarray, G_u: np.ndarray) -> np.ndarray:
        """Squared row norms of ``R_tu − G_t S_tu G_uᵀ`` by the identity.

        Unsummed and unsquare-rooted: the E step accumulates them across a
        type's pairs, the objective sums them per pair.
        """
        def compute():
            M = self.factored(pair, G_t, S_tu)
            sq = np.einsum("ij,ij->i", M @ self.gram(pair[1], G_u), M)
            if R_tu is None:
                return sq
            cross = np.einsum("ij,ij->i",
                              self.relation_product(pair, R_tu, G_u), M)
            return self.relation_sq_row_norms(pair, R_tu) - 2.0 * cross + sq

        return self._memo(("Q2", pair), (R_tu, G_t, S_tu, G_u), compute)

    def residual_rows(self, pair, R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                      G_u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Materialise the residual rows ``(R_tu − G_t S_tu G_uᵀ)[rows]``."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.empty((0, G_u.shape[0]), dtype=np.float64)
        reconstruction = self.factored(pair, G_t, S_tu)[rows] @ G_u.T
        if R_tu is None:
            return -reconstruction
        if sp.issparse(R_tu):
            return sp.csr_array(R_tu)[rows].toarray() - reconstruction
        return R_tu[rows] - reconstruction

    def reconstruction_error(self, pair, R_tu, G_t: np.ndarray,
                             S_tu: np.ndarray, G_u: np.ndarray,
                             E_tu) -> float:
        """``‖R_tu − G_t S_tu G_uᵀ − E_tu‖²_F`` for one relation pair.

        Rows contribute their identity row norms, except the rows ``E_tu``
        stores and the rows whose identity value is within rounding of
        zero: those are materialised and differenced directly.
        """
        sq = self.residual_sq_row_norms(pair, R_tu, G_t, S_tu, G_u)
        scale = (0.0 if R_tu is None
                 else self.relation_sq_row_norms(pair, R_tu))
        rows = np.flatnonzero(sq <= _NEAR_ZERO_RTOL * scale)
        stored = E_tu is not None and E_tu.rows.size > 0
        if stored:
            rows = np.union1d(rows, E_tu.rows)
        if rows.size:
            diff = self.residual_rows(pair, R_tu, G_t, S_tu, G_u, rows)
            if stored:
                diff[np.searchsorted(rows, E_tu.rows)] -= E_tu.values
            sq = sq.copy()
            sq[rows] = np.einsum("ij,ij->i", diff, diff)
        return float(max(np.sum(sq), 0.0))

    # -------------------------------------------------------------- laplacian
    def laplacian_parts(self, t: int, L_t):
        """``(L_t⁺, L_t⁻)``, split once per Laplacian block."""
        return self._memo(("L", t), (L_t,), lambda: split_parts(L_t))

    def laplacian_products(self, t: int, parts, G_t: np.ndarray):
        """``(L_t⁺ G_t, L_t⁻ G_t)``; a part with no non-zero gives ``None``.

        A part whose non-zeros all sit on its diagonal (``L_t⁺`` of a
        Laplacian of a non-negative affinity) is applied as that diagonal.
        Both shortcuts only skip the exact zeros a matrix product would add,
        so the values equal ``L_t^± @ G_t``.
        """
        L_pos, L_neg = parts
        diagonals = self._memo(("Ldiag", t), (L_pos, L_neg), lambda: (
            _nonzero_diagonal(L_pos), _nonzero_diagonal(L_neg)))
        return self._memo(("LG", t), (L_pos, L_neg, G_t), lambda: tuple(
            _apply_part(part, diagonal, G_t)
            for part, diagonal in zip(parts, diagonals)))


def _nonzero_diagonal(part):
    """The diagonal of a part with no off-diagonal non-zero, else ``None``."""
    diagonal = np.asarray(part.diagonal(), dtype=np.float64)
    nnz = part.count_nonzero() if sp.issparse(part) else np.count_nonzero(part)
    return diagonal.copy() if np.count_nonzero(diagonal) == nnz else None


def _apply_part(part, diagonal, G_t: np.ndarray):
    """``part @ G_t``, or ``None`` when ``part`` is all zero."""
    if diagonal is None:
        return part @ G_t
    if not diagonal.any():
        return None
    return diagonal[:, None] * G_t


def _row_sq_norms(R) -> np.ndarray:
    """Squared row norms ``‖R_i‖²`` of a dense or CSR block."""
    if not sp.issparse(R):
        return np.einsum("ij,ij->i", R, R)
    R = R.tocsr()
    entry_rows = np.repeat(np.arange(R.shape[0]), np.diff(R.indptr))
    return np.bincount(entry_rows, weights=R.data * R.data,
                       minlength=R.shape[0])


# ------------------------------------------------------- one-shot pair kernels
#
# Each runs one pair through a private cache: the same code a fit's shared
# cache runs.


def project_relations(R, E_R, G: np.ndarray) -> np.ndarray:
    """The skinny projection ``(R − E_R) G`` of one relation pair.

    ``R`` may be dense, CSR or ``None`` (treated as zero); ``E_R`` is a
    row-sparse block or ``None``, and at least one of them is given.
    """
    if R is None and E_R is None:
        raise ValueError("project_relations needs at least one operand")
    projected = ProductCache().projected_relation(_PAIR, R, E_R, G)
    if projected is None:
        return np.zeros((E_R.shape[0], G.shape[1]))
    return projected


def pair_residual_sq_row_norms(R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                               G_u: np.ndarray) -> np.ndarray:
    """Squared row norms of the pair residual ``R_tu − G_t S_tu G_uᵀ``."""
    return ProductCache().residual_sq_row_norms(_PAIR, R_tu, G_t, S_tu, G_u)


def pair_residual_rows(R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                       G_u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Materialise the pair-residual rows ``(R_tu − G_t S_tu G_uᵀ)[rows]``."""
    return ProductCache().residual_rows(_PAIR, R_tu, G_t, S_tu, G_u, rows)


def pair_reconstruction_error(R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                              G_u: np.ndarray, E_tu) -> float:
    """``‖R_tu − G_t S_tu G_uᵀ − E_tu‖²_F`` for one relation pair.

    The residual row-norm identity gives every row, except the rows
    ``E_tu`` (row-sparse or ``None``) stores and the rows within rounding
    of zero, which are materialised and differenced directly.
    """
    return ProductCache().reconstruction_error(_PAIR, R_tu, G_t, S_tu, G_u,
                                               E_tu)
