"""Factored R-space kernels of the blocked solver core and their product cache.

Every R-space quantity of Algorithm 2 — the association update (Eq. 18), the
membership numerators (Eq. 21), the error-matrix prox (Eq. 25–27) and the
reconstruction term of the objective (Eq. 15) — decomposes over the
ordered relation pairs ``(t, u)`` and involves the pair product
``G_t S_tu G_uᵀ``, which is dense even when the relation block ``R_tu`` is
sparse.  The kernels here never materialise it.

With the grams ``P_t = G_tᵀ G_t`` and the core ``C_tu = G_tᵀ R_tu G_u``
(the product the S step forms), the standard tri-factorisation expansion
(Ding et al., *KDD* 2006) puts a pair's squared residual in cluster space,
for dense and CSR ``R_tu`` alike::

    ‖R_tu − G_t S_tu G_uᵀ‖²_F = ‖R_tu‖²_F − 2 ⟨S_tu, C_tu⟩ + ⟨P_t S_tu P_u, S_tu⟩

That is the objective's reconstruction term, corrected on the rows the
error matrix stores (``‖Q − E‖² = ‖Q‖² − Σ_i (2 q_i·e_i − ‖e_i‖²)``), and
the E step's bound on every row of a type at once.  Per-row residual norms
are formed only for a row type that bound does not clear, through one
identity (with ``M = G_t S_tu``)::

    ‖R_i − M_i G_uᵀ‖² = ‖R_i‖² − 2 (R_tu G_u)_i · M_i + (M P_u)_i · M_i

and rows are materialised only where the E step keeps them, where E_R
stores them, and where a pair's value is within rounding of zero (there
both expansions lose every digit, so an exact factorisation is summed
row by row and scores exactly zero).

That caps the per-iteration R-space cost at the products ``R_tu G_u`` and
``G_tᵀ (R_tu G_u)``, ``O(nnz·c + n·c²)`` time and ``O(nnz + n·c)`` memory.
The error matrix ``E_R`` participates through the row-sparse
representation of :class:`repro.linalg.rowsparse.RowSparseMatrix` (its
stored rows are dense, but there are only as many of them as there are
rows the L2,1 prox keeps).  :class:`ProductCache` forms each product the
S, G and E_R steps and the objective share once per iterate.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..linalg.blocks import BlockSpec
from ..linalg.parts import split_parts
from ..linalg.rowsparse import RowSparseMatrix
from ..linalg.safe import gram_pinv
from .state import FactorizationState

__all__ = [
    "ProductCache",
    "project_relations",
    "pair_residual_sq_row_norms",
    "pair_residual_rows",
    "pair_reconstruction_error",
]

#: A residual whose value is at most this fraction of its magnitude (a
#: row's ``‖R_i‖²``, a pair's ``‖R_tu‖² + ‖G_t S_tu G_uᵀ‖²``) is within
#: rounding of zero: it is summed from materialised rows instead.
_NEAR_ZERO_RTOL = 1e-10


class ProductCache:
    """The products one fit's steps share, each formed once per iterate.

    Every step binds the cache to its state first (:meth:`bind`).  Binding
    checks each factor — every ``G_t`` and ``S`` — against the one the held
    products were formed from, by identity, and drops the products of each
    factor the state replaced; within the step every read is a plain
    lookup that forms a missing product once.  Identity is sound because
    the solver replaces the G blocks, S and E_R at every update and never
    writes into them, so a block a delta refresh freezes keeps its
    products for the whole refresh.  No consumer writes into a value the
    cache returns.

    The fit's constants are formed once: the pair adjacency
    (:attr:`row_pairs`, :attr:`column_pairs`), the cluster and object
    slices and each relation block's squared norms when the cache is first
    bound to the fit's relation blocks and pair list (binding it to
    another ``R_pairs`` or pair list starts over), and each Laplacian's
    split and diagonals on first use.

    A fit owns one cache and passes it to every step; a step called without
    one binds a private cache, so it runs the same code either way.
    ``R_tu`` may be dense, CSR or absent from ``R_pairs`` (a structurally
    absent relation block).
    """

    def __init__(self) -> None:
        self._R_pairs = None
        self._pairs = None
        # Keyed by their explicit operands, checked on every read.
        self._laplacians: dict = {}   # t -> (L_t, (L⁺, L⁻), diagonals)
        self._smooth: dict = {}       # t -> (parts, G_t, (L⁺G_t, L⁻G_t))
        self._errors: dict = {}       # pair -> (E_R, E_tu or None)

    # ---------------------------------------------------------------- binding
    def bind(self, R_pairs, pairs, state) -> "ProductCache":
        """Point the cache at ``state``'s factors; returns the cache.

        One identity check per ``G_t`` and one for ``S``; the products of
        every factor ``state`` replaced are dropped.
        """
        if R_pairs is not self._R_pairs or pairs is not self._pairs:
            self._start_fit(R_pairs, pairs, state)
        for t, G_t in enumerate(state.G_blocks):
            if G_t is not self._G[t]:
                self._G[t] = G_t
                self._drop_type(t)
        if state.S is not self._S:
            self._S = state.S
            for products in (self._S_blocks, self._factored, self._residual,
                             self._row_norms):
                products.clear()
        return self

    def _start_fit(self, R_pairs, pairs, state) -> None:
        """Form the constants of a fit over ``R_pairs`` and ``pairs``."""
        n_types = len(state.G_blocks)
        self._R_pairs, self._pairs = R_pairs, pairs
        self._G = [None] * n_types
        self._S = None
        self.cluster_slices = [state.cluster_spec.slice(t)
                               for t in range(n_types)]
        self.object_slices = [state.object_spec.slice(t)
                              for t in range(n_types)]
        #: Per type ``t``, its pairs ``(t, u)`` (``row_pairs``) and
        #: ``(u, t)`` (``column_pairs``), in pair order.
        self.row_pairs = [[] for _ in range(n_types)]
        self.column_pairs = [[] for _ in range(n_types)]
        for pair in pairs:
            self.row_pairs[pair[0]].append(pair)
            self.column_pairs[pair[1]].append(pair)
        #: ``‖R_i‖²`` per row and ``‖R_tu‖²_F`` of every relation block.
        self.relation_sq_row_norms = {pair: _row_sq_norms(R_pairs[pair])
                                   for pair in pairs if pair in R_pairs}
        self.relation_sq_norms = {pair: float(np.sum(rows)) for pair, rows
                               in self.relation_sq_row_norms.items()}
        # Formed from the bound factors (and dropped by bind) — the
        # factors each depends on in brackets.
        self._relation = {}     # pair -> R_tu G_u                  (G_u)
        self._projected = {}    # pair -> (E_tu, (R_tu − E_tu) G_u)  (G_u)
        self._cross = {}        # pair -> G_tᵀ R_tu G_u             (G_t, G_u)
        self._gram = {}         # t -> G_tᵀ G_t                     (G_t)
        self._pinv = {}         # t -> (G_tᵀ G_t)⁺                  (G_t)
        self._S_blocks = {}     # pair -> S_tu view                 (S)
        self._factored = {}     # pair -> G_t S_tu                  (G_t, S)
        self._residual = {}     # pair -> (‖Q_tu‖², magnitude)      (G, S)
        self._row_norms = {}    # pair -> ‖q_i‖² per row            (G, S)

    def _drop_type(self, t: int) -> None:
        """Forget every product formed from the previous ``G_t``."""
        self._gram.pop(t, None)
        self._pinv.pop(t, None)
        for pair in self.row_pairs[t]:
            for products in (self._cross, self._residual, self._row_norms,
                             self._factored):
                products.pop(pair, None)
        for pair in self.column_pairs[t]:
            for products in (self._cross, self._residual, self._row_norms,
                             self._relation, self._projected):
                products.pop(pair, None)

    # ------------------------------------------------------------ block views
    def association_block(self, pair) -> np.ndarray:
        """The ``S_tu`` view of the bound ``S``."""
        S_tu = self._S_blocks.get(pair)
        if S_tu is None:
            t, u = pair
            S_tu = self._S_blocks[pair] = self._S[self.cluster_slices[t],
                                                  self.cluster_slices[u]]
        return S_tu

    def error_block(self, E_R, object_spec, pair):
        """The ``E_tu`` view of the row-sparse ``E_R``.

        ``None`` when ``E_R`` is ``None`` or stores no row in the pair's
        block, so an empty error matrix is never sliced.
        """
        if E_R is None or E_R.is_zero:
            return None
        entry = self._errors.get(pair)
        if entry is None or entry[0] is not E_R:
            t, u = pair
            block = E_R.block(object_spec.slice(t), object_spec.slice(u))
            entry = self._errors[pair] = (E_R, block if block.rows.size
                                          else None)
        return entry[1]

    # ------------------------------------------------------ relation products
    def relation_product(self, pair):
        """``R_tu G_u`` as a dense ``(n_t, c_u)`` array (``None`` if absent)."""
        RG = self._relation.get(pair)
        if RG is None:
            R_tu = self._R_pairs.get(pair)
            if R_tu is None:
                return None
            RG = self._relation[pair] = np.asarray(R_tu @ self._G[pair[1]])
        return RG

    def projected_relation(self, pair, E_tu):
        """``(R_tu − E_tu) G_u``, the projection the S and G steps share.

        The stored rows of ``E_tu`` are subtracted from a copy of
        ``R_tu G_u``, so no ``(n_t, n_u)`` intermediate is formed.
        ``None`` when both operands are absent: the projection is zero.
        """
        RG = self.relation_product(pair)
        if E_tu is None:
            return RG
        entry = self._projected.get(pair)
        if entry is None or entry[0] is not E_tu:
            entry = self._projected[pair] = (E_tu, _project(
                RG, E_tu, self._G[pair[1]]))
        return entry[1]

    def cross(self, pair):
        """``G_tᵀ R_tu G_u``, the E_R-free core (``None`` if absent)."""
        C_tu = self._cross.get(pair)
        if C_tu is None:
            RG = self.relation_product(pair)
            if RG is None:
                return None
            C_tu = self._cross[pair] = self._G[pair[0]].T @ RG
        return C_tu

    def core(self, pair, E_tu):
        """``G_tᵀ (R_tu − E_tu) G_u``, the S step's core (``None`` if zero).

        Without stored E_R rows in the pair it is :meth:`cross`, the
        product the residual of the same factors reads.
        """
        if E_tu is None:
            return self.cross(pair)
        return self._G[pair[0]].T @ self.projected_relation(pair, E_tu)

    # ------------------------------------------------------------------ grams
    def gram(self, t: int) -> np.ndarray:
        """``G_tᵀ G_t``."""
        P_t = self._gram.get(t)
        if P_t is None:
            G_t = self._G[t]
            P_t = self._gram[t] = G_t.T @ G_t
        return P_t

    def gram_pinv(self, t: int) -> np.ndarray:
        """Guarded pseudo-inverse of ``G_tᵀ G_t`` (see :func:`gram_pinv`)."""
        inverse = self._pinv.get(t)
        if inverse is None:
            inverse = self._pinv[t] = gram_pinv(self.gram(t))
        return inverse

    # -------------------------------------------------------------- residuals
    def residual(self, pair) -> tuple[float, float]:
        """``(‖R_tu − G_t S_tu G_uᵀ‖²_F, its magnitude)`` in cluster space.

        The magnitude ``‖R_tu‖²_F + ‖G_t S_tu G_uᵀ‖²_F`` bounds the
        expansion's terms, and so scales its rounding error.
        """
        entry = self._residual.get(pair)
        if entry is None:
            t, u = pair
            entry = self._residual[pair] = _residual_norm(
                self.relation_sq_norms.get(pair, 0.0),
                self.association_block(pair), self.cross(pair),
                self.gram(t), self.gram(u))
        return entry

    def factored(self, pair) -> np.ndarray:
        """``M = G_t S_tu``, the left factor of the pair's reconstruction."""
        M = self._factored.get(pair)
        if M is None:
            M = self._factored[pair] = (self._G[pair[0]]
                                        @ self.association_block(pair))
        return M

    def residual_sq_row_norms(self, pair) -> np.ndarray:
        """Squared row norms of ``R_tu − G_t S_tu G_uᵀ`` by the row identity.

        Unsummed and unsquare-rooted: the E step accumulates them across a
        type's pairs.
        """
        sq = self._row_norms.get(pair)
        if sq is None:
            sq = self._row_norms[pair] = _row_identity(
                self.relation_sq_row_norms.get(pair),
                self.relation_product(pair), self.factored(pair),
                self.gram(pair[1]))
        return sq

    def residual_rows(self, pair, rows: np.ndarray) -> np.ndarray:
        """Materialise the residual rows ``(R_tu − G_t S_tu G_uᵀ)[rows]``."""
        return _residual_rows(self._R_pairs.get(pair), self.factored(pair),
                              self._G[pair[1]], rows)

    def reconstruction_error(self, pair, E_tu) -> float:
        """``‖R_tu − G_t S_tu G_uᵀ − E_tu‖²_F`` for one relation pair.

        The cluster-space residual, corrected on the rows ``E_tu`` stores:
        ``‖Q − E‖² = ‖Q‖² − Σ_i (2 q_i·e_i − ‖e_i‖²)``.  A value within
        rounding of zero is summed row by row instead.
        """
        value, magnitude = self.residual(pair)
        if E_tu is not None:
            stored = self.residual_rows(pair, E_tu.rows)
            value -= float(np.sum((2.0 * stored - E_tu.values) * E_tu.values))
        if value > _NEAR_ZERO_RTOL * magnitude:
            return value
        return self._reconstruction_by_rows(pair, E_tu)

    def _reconstruction_by_rows(self, pair, E_tu) -> float:
        """The pair's reconstruction term summed over its rows.

        Rows contribute their identity row norms, except the rows ``E_tu``
        stores and the rows whose identity value is within rounding of
        zero: those are materialised and differenced directly.
        """
        sq = self.residual_sq_row_norms(pair)
        scale = self.relation_sq_row_norms.get(pair, 0.0)
        rows = np.flatnonzero(sq <= _NEAR_ZERO_RTOL * scale)
        if E_tu is not None:
            rows = np.union1d(rows, E_tu.rows)
        if rows.size:
            diff = self.residual_rows(pair, rows)
            if E_tu is not None:
                diff[np.searchsorted(rows, E_tu.rows)] -= E_tu.values
            sq = sq.copy()
            sq[rows] = np.einsum("ij,ij->i", diff, diff)
        return float(max(np.sum(sq), 0.0))

    # -------------------------------------------------------------- laplacian
    def laplacian_parts(self, t: int, L_t):
        """``(L_t⁺, L_t⁻)``, split once per Laplacian block."""
        entry = self._laplacians.get(t)
        if entry is None or entry[0] is not L_t:
            parts = split_parts(L_t)
            entry = self._laplacians[t] = (
                L_t, parts, tuple(_nonzero_diagonal(part) for part in parts))
        return entry[1]

    def laplacian_products(self, t: int, parts, G_t: np.ndarray):
        """``(L_t⁺ G_t, L_t⁻ G_t)``; a part with no non-zero gives ``None``.

        A part whose non-zeros all sit on its diagonal (``L_t⁺`` of a
        Laplacian of a non-negative affinity) is applied as that diagonal.
        Both shortcuts only skip the exact zeros a matrix product would add,
        so the values equal ``L_t^± @ G_t``.
        """
        entry = self._smooth.get(t)
        if entry is None or entry[0] is not parts or entry[1] is not G_t:
            known = self._laplacians.get(t)
            diagonals = (known[2] if known is not None and known[1] is parts
                         else tuple(_nonzero_diagonal(part) for part in parts))
            entry = self._smooth[t] = (parts, G_t, tuple(
                _apply_part(part, diagonal, G_t)
                for part, diagonal in zip(parts, diagonals)))
        return entry[2]


# --------------------------------------------------------- explicit operands
#
# The arithmetic of the products above, shared by the cache and the
# one-shot pair kernels below, so both give the same bits.


def _row_sq_norms(R) -> np.ndarray:
    """Squared row norms ``‖R_i‖²`` of a dense or CSR block."""
    if not sp.issparse(R):
        return np.einsum("ij,ij->i", R, R)
    R = R.tocsr()
    entry_rows = np.repeat(np.arange(R.shape[0]), np.diff(R.indptr))
    return np.bincount(entry_rows, weights=R.data * R.data,
                       minlength=R.shape[0])


def _project(RG, E_tu, G_u: np.ndarray) -> np.ndarray:
    """``R_tu G_u`` (zero when ``None``) minus the stored rows' ``E_tu G_u``."""
    projected = (np.zeros((E_tu.shape[0], G_u.shape[1])) if RG is None
                 else RG.copy())
    projected[E_tu.rows] -= E_tu.values @ G_u
    return projected


def _residual_norm(R_sq: float, S_tu, C_tu, P_t, P_u) -> tuple[float, float]:
    """``(‖R − G_t S G_uᵀ‖²_F, ‖R‖²_F + ‖G_t S G_uᵀ‖²_F)`` from c×c products.

    ``C_tu = G_tᵀ R G_u`` is ``None`` for an absent relation block.
    """
    fitted = float(((P_t @ S_tu @ P_u) * S_tu).sum())
    if C_tu is None:
        return fitted, fitted
    return R_sq - 2.0 * float((S_tu * C_tu).sum()) + fitted, R_sq + fitted


def _row_identity(R_rows, RG, M: np.ndarray, P_u: np.ndarray) -> np.ndarray:
    """Per-row ``‖R_i‖² − 2 (R G_u)_i · M_i + (M P_u)_i · M_i``.

    ``R_rows`` and ``RG`` are ``None`` for an absent relation block.
    """
    sq = np.einsum("ij,ij->i", M @ P_u, M)
    if RG is None:
        return sq
    return R_rows - 2.0 * np.einsum("ij,ij->i", RG, M) + sq


def _residual_rows(R_tu, M: np.ndarray, G_u: np.ndarray,
                   rows) -> np.ndarray:
    """``(R_tu − M G_uᵀ)[rows]``, materialised."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.empty((0, G_u.shape[0]), dtype=np.float64)
    reconstruction = M[rows] @ G_u.T
    if R_tu is None:
        return -reconstruction
    if sp.issparse(R_tu):
        return sp.csr_array(R_tu)[rows].toarray() - reconstruction
    return R_tu[rows] - reconstruction


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


# ------------------------------------------------------- one-shot pair kernels


def project_relations(R, E_R, G: np.ndarray) -> np.ndarray:
    """The skinny projection ``(R − E_R) G`` of one relation pair.

    ``R`` may be dense, CSR or ``None`` (treated as zero); ``E_R`` is a
    row-sparse block or ``None``, and at least one of them is given.
    """
    if R is None and E_R is None:
        raise ValueError("project_relations needs at least one operand")
    RG = None if R is None else np.asarray(R @ G)
    if E_R is None or not E_R.rows.size:
        return np.zeros((E_R.shape[0], G.shape[1])) if RG is None else RG
    return _project(RG, E_R, G)


def pair_residual_sq_row_norms(R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                               G_u: np.ndarray) -> np.ndarray:
    """Squared row norms of the pair residual ``R_tu − G_t S_tu G_uᵀ``."""
    M = G_t @ S_tu
    if R_tu is None:
        return _row_identity(None, None, M, G_u.T @ G_u)
    return _row_identity(_row_sq_norms(R_tu), np.asarray(R_tu @ G_u), M,
                         G_u.T @ G_u)


def pair_residual_rows(R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                       G_u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Materialise the pair-residual rows ``(R_tu − G_t S_tu G_uᵀ)[rows]``."""
    return _residual_rows(R_tu, G_t @ S_tu, G_u, rows)


def pair_reconstruction_error(R_tu, G_t: np.ndarray, S_tu: np.ndarray,
                              G_u: np.ndarray, E_tu) -> float:
    """``‖R_tu − G_t S_tu G_uᵀ − E_tu‖²_F`` for one relation pair.

    Runs :meth:`ProductCache.reconstruction_error` on a private cache bound
    to the pair ``(0, 1)`` of a two-type state; ``E_tu`` is row-sparse or
    ``None``.
    """
    (n_t, c_t), (n_u, c_u) = G_t.shape, G_u.shape
    S = np.zeros((c_t + c_u, c_t + c_u))
    S[:c_t, c_t:] = S_tu
    E_R = None
    if E_tu is not None:
        E_R = RowSparseMatrix(
            E_tu.rows, np.hstack([np.zeros((E_tu.rows.size, n_t)),
                                  E_tu.values]), (n_t + n_u, n_t + n_u))
    state = FactorizationState(G_blocks=[G_t, G_u], S=S, E_R=E_R,
                               object_spec=BlockSpec((n_t, n_u)),
                               cluster_spec=BlockSpec((c_t, c_u)))
    pair = (0, 1)
    R_pairs = {} if R_tu is None else {pair: R_tu}
    products = ProductCache().bind(R_pairs, [pair], state)
    return products.reconstruction_error(
        pair, products.error_block(state.E_R, state.object_spec, pair))
