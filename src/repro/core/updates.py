"""Update rules of Algorithm 2 (Eq. 18, Eq. 21–22, Eq. 25–27), blockwise.

The objective is minimised by alternating three subproblem solutions while
the other variables are held fixed:

* ``S`` — closed form ``(GᵀG)⁺ Gᵀ (R − E_R) G (GᵀG)⁺`` (Eq. 18), with the
  gram inverse routed through the guarded pseudo-inverse of
  :func:`repro.linalg.safe.gram_pinv` so an emptied cluster (a zero column
  of G, hence a singular gram) zeroes its association row instead of
  blowing the fit up.
* ``G`` — a multiplicative update derived from the KKT conditions (Eq. 21),
  using positive/negative part splits of L, A and B to keep G non-negative,
  followed by row-ℓ1 normalisation (Eq. 22).
* ``E_R`` — the exact minimiser of ``‖Q − E‖²_F + β ‖E‖₂,₁`` with
  ``Q = R − G S Gᵀ``: the proximal operator of the L2,1 norm, a row-wise
  group soft threshold (Parikh & Boyd, *Proximal Algorithms*, 2014) that
  scales row ``q_i`` by ``s_i = max(0, 1 − β / (2 ‖q_i‖))``.  It is the
  fixed point of the paper's reweighting (Eq. 25–27, with D taken from E
  rather than from Q), whereas Eq. 27 applied once is only that
  iteration's first step — which can raise the objective and breaks
  Theorem 1.  No row of a type whose summed residual ``Σ_i ‖q_i‖²`` is at
  most ``(β/2)²`` survives, which the step checks in cluster space before
  it forms any per-row norm.

Every rule runs on the block structure of the problem: per-type membership
blocks ``G_t``, per-type Laplacian blocks ``L_t`` and per-pair relation
blocks ``R_tu`` (dense or CSR).  The error matrix ``E_R`` is a
:class:`repro.linalg.rowsparse.RowSparseMatrix` holding only the rows the
prox keeps, or ``None`` (no error matrix).  The residual ``R − G S Gᵀ`` is
never formed: each pair's ``G_t S_tu G_uᵀ`` stays factored (see
:mod:`repro.core.rspace`), and only the kept rows are materialised.  The
products the rules and the objective share (``R_tu G_u``, the cores
``G_tᵀ R_tu G_u``, the grams, the pair residuals, ``L_t^± G_t``) come from
the fit's :class:`~repro.core.rspace.ProductCache`, once per iterate: each
rule binds the cache to its state once and then only reads it.
"""

from __future__ import annotations

import time

import numpy as np

from ..linalg.normalize import row_normalize_l1
from ..linalg.rowsparse import RowSparseMatrix
from ..obs import current_span
from .rspace import ProductCache
from .state import FactorizationState

__all__ = [
    "update_association_blocks",
    "update_membership_blocks",
    "update_error_matrix_blocks",
    "active_relation_pairs",
]

_EPS = 1e-12

#: Relative rounding margin of the E step's screen.  The cluster-space
#: residual and the per-row identity both carry cancellation error of
#: order machine epsilon times the residual's magnitude
#: (``‖R‖² + ‖G S Gᵀ‖²``); this margin exceeds it by orders of magnitude.
_SCREEN_MARGIN = 1e-8


# ----------------------------------------------------------- blockwise kernels
#
# The blocked solver core works on the structure Algorithm 2 already has:
# G is block diagonal by type, S has zero diagonal blocks, R and E_R only
# live on cross-type blocks, and L only couples objects within a type.  The
# kernels below solve each update per type / per pair — the stacked
# matrices' off-block entries are structural zeros, so nothing is lost by
# never forming them.


def _map(fn, keys, *, name):
    """Apply one task kernel to every pair or type index in ``keys``, in order.

    When a fit-trace span is active (the solver activates one per update
    family under ``diagnostics=True``), every kernel invocation is
    recorded as a completed ``name`` child of it, labelled by its key.
    """
    parent = current_span()
    if parent is None:
        return [fn(key) for key in keys]
    results = []
    for key in keys:
        start = time.perf_counter()
        results.append(fn(key))
        parent.record(name, start, time.perf_counter(), item=str(key))
    return results


def _graph_term(lam: float, LG, base: np.ndarray) -> np.ndarray:
    """``λ L_t^± G_t + base``; a part with no non-zero (``None``) adds none."""
    return base if LG is None else lam * LG + base


def active_relation_pairs(R_pairs, E_R, object_spec) -> list[tuple[int, int]]:
    """Ordered type pairs the blocked updates must visit.

    A pair is active when a relation block exists or the (warm-start) error
    matrix carries mass on its block.  Activity is closed under the update
    rules — a pair with zero relation, zero error and zero association
    stays exactly zero through S, G and E_R updates — so the set is
    computed once per fit and reused every iteration.
    """
    active = set(R_pairs)
    if E_R is not None and not E_R.is_zero:
        for t in range(object_spec.n_types):
            for u in range(object_spec.n_types):
                if t == u or (t, u) in active:
                    continue
                block = E_R.block(object_spec.slice(t), object_spec.slice(u))
                if np.any(block.values):
                    active.add((t, u))
    return sorted(active)


def update_association_blocks(R_pairs, state: FactorizationState, *,
                              pairs=None, dirty_pairs=None,
                              S_prev=None, products=None) -> np.ndarray:
    """Blockwise closed-form S update (Eq. 18).

    ``GᵀG`` is block diagonal, so its pseudo-inverse is the block diagonal
    of the per-type gram pseudo-inverses and the update decomposes per
    ordered pair: ``S_tu = (G_tᵀG_t)⁺ G_tᵀ (R_tu − E_tu) G_u (G_uᵀG_u)⁺``.
    The diagonal blocks of S are structurally zero — the paper's masking
    step disappears instead of being re-imposed.  ``R_pairs`` maps ordered
    type-index pairs to relation blocks (dense or CSR); pairs absent from
    both ``R_pairs`` and ``pairs`` contribute nothing.

    Each pair's final ``(k_t, k_u)`` pseudo-inverse sandwich is evaluated
    as ``P_t (C_tu P_u)``.

    Under a delta schedule ``dirty_pairs`` restricts the solve to the
    pairs whose factors moved; clean blocks carry over from ``S_prev``
    (the warm-start association), whose diagonal blocks are re-zeroed to
    keep the structural invariant regardless of what the caller stored
    there.  With ``dirty_pairs=None`` (the default) every active pair is
    solved into a fresh zero matrix — the pre-delta behaviour, unchanged.

    ``products`` is the fit's :class:`~repro.core.rspace.ProductCache`
    (a private one when ``None``): the cores and the gram pseudo-inverses
    come from it.  Without stored E_R rows a pair's core is the
    ``G_tᵀ R_tu G_u`` the objective read at the same factors.
    """
    if pairs is None:
        pairs = active_relation_pairs(R_pairs, state.E_R, state.object_spec)
    if products is None:
        products = ProductCache()
    products.bind(R_pairs, pairs, state)
    slices = products.cluster_slices
    object_spec = state.object_spec
    compute = [pair for pair in pairs
               if dirty_pairs is None or pair in dirty_pairs]

    def core(pair):
        """``G_tᵀ (R_tu − E_tu) G_u``; ``None`` when it is zero."""
        return products.core(pair, products.error_block(state.E_R,
                                                        object_spec, pair))

    cores = _map(core, compute, name="one_pair")

    total = state.cluster_spec.total
    if dirty_pairs is None or S_prev is None:
        S = np.zeros((total, total))
    else:
        S = np.array(S_prev, dtype=np.float64, copy=True)
        for block in slices:
            S[block, block] = 0.0
    for (t, u), C_tu in zip(compute, cores):
        S[slices[t], slices[u]] = (
            0.0 if C_tu is None
            else products.gram_pinv(t) @ (C_tu @ products.gram_pinv(u)))
    return S


def update_membership_blocks(R_pairs, L_parts, state: FactorizationState, *,
                             lam: float, pairs=None,
                             dirty_types=None,
                             normalize: bool = True,
                             products=None) -> list[np.ndarray]:
    """Blockwise multiplicative G update (Eq. 21–22), one task per type.

    For type ``t`` the update's A and B terms are
    ``A_t = Σ_u (R_tu − E_tu) G_u S_tuᵀ`` and
    ``B_t = Σ_u S_utᵀ (G_uᵀ G_u) S_ut`` — only that type's blocks are ever
    formed, so G stays block diagonal by construction.  ``L_parts``
    supplies the per-type ``(L_t⁺, L_t⁻)`` splits (computed once per
    regulariser, not per iteration).

    ``normalize`` applies the row-ℓ1 normalisation of Eq. 22 after the
    multiplicative step.  RHCHME always normalises; the NMTF baselines
    publish the update without it (see :class:`repro.baselines.BaseHOCC`).

    ``dirty_types`` (a set of type indices) restricts the update to those
    types; every clean type's block object is returned *as is* — frozen,
    never copied, its ``L_parts`` entry never touched (a delta-scheduled
    fit does not even build clean Laplacians).  ``None`` updates every
    type, exactly as before.

    ``products`` is the fit's :class:`~repro.core.rspace.ProductCache`
    (a private one when ``None``): ``(R_tu − E_tu) G_u``, the grams and
    ``L_t^± G_t`` come from it, formed at the same factors by the steps
    before it (the E step's screen, the objective and the S step).
    """
    if pairs is None:
        pairs = active_relation_pairs(R_pairs, state.E_R, state.object_spec)
    if products is None:
        products = ProductCache()
    products.bind(R_pairs, pairs, state)
    G = state.G_blocks
    E_R = state.E_R
    object_spec = state.object_spec
    todo = (range(object_spec.n_types) if dirty_types is None
            else sorted(dirty_types))

    def update_type(t: int) -> np.ndarray:
        G_t = G[t]
        A = np.zeros_like(G_t)
        for pair in products.row_pairs[t]:
            projected = products.projected_relation(
                pair, products.error_block(E_R, object_spec, pair))
            if projected is not None:
                A += projected @ products.association_block(pair).T
        B = np.zeros((G_t.shape[1], G_t.shape[1]))
        for pair in products.column_pairs[t]:
            S_ut = products.association_block(pair)
            B += S_ut.T @ products.gram(pair[0]) @ S_ut
        L_pos_G, L_neg_G = products.laplacian_products(t, L_parts[t], G_t)
        # M = M⁺ − M⁻ with M⁺ = max(M, 0) and M⁻ = M⁺ − M: the values of
        # split_parts up to the sign of a zero, in two array passes.
        A_pos = np.maximum(A, 0.0)
        A_neg = A_pos - A
        B_pos = np.maximum(B, 0.0)
        B_neg = B_pos - B
        numerator = _graph_term(lam, L_neg_G, A_pos) + G_t @ B_neg
        denominator = _graph_term(lam, L_pos_G, A_neg) + G_t @ B_pos
        updated = numerator / np.maximum(denominator, _EPS)
        np.sqrt(updated, out=updated)
        updated *= G_t
        return row_normalize_l1(updated, copy=False) if normalize else updated

    blocks = _map(update_type, todo, name="one_type")
    if dirty_types is None:
        return list(blocks)
    updated = list(G)
    for t, block in zip(todo, blocks):
        updated[t] = block
    return updated


def _carried_error_rows(E_prev, object_spec, t: int):
    """Type ``t``'s stored rows of the previous E_R, in global coordinates.

    The splice path of a delta-scheduled E update: clean row types carry
    their previous rows through unchanged instead of re-solving them.
    Returns its ``(rows, values)``, or ``None`` without a previous E_R.
    """
    if E_prev is None:
        return None
    lo = object_spec.offsets[t]
    start = int(np.searchsorted(E_prev.rows, lo))
    stop = int(np.searchsorted(E_prev.rows, lo + object_spec.sizes[t]))
    return (np.asarray(E_prev.rows[start:stop], dtype=np.int64),
            np.asarray(E_prev.values[start:stop]))


def update_error_matrix_blocks(R_pairs, state: FactorizationState, *,
                               beta: float, pairs=None,
                               dirty_types=None,
                               E_prev=None, products=None) -> RowSparseMatrix:
    """Blockwise exact E step: the L2,1 prox of the residual, row-sparse.

    The L2,1 row norm of object ``i`` of type ``t`` spans every cross-type
    block of its row, so the task unit is a *type*.  A row survives the
    group soft threshold when ``2 ‖q_i‖ > β`` and is stored as ``s_i q_i``
    with ``s_i = 1 − β / (2 ‖q_i‖) > 0``; a zero residual row never
    survives, so no division by zero arises.

    Each type is first screened in cluster space: ``‖q_i‖² ≤ Σ_j ‖q_j‖² =
    Σ_u ‖Q_tu‖²_F`` for every row, so a type whose summed pair residual is
    at most ``(β/2)²`` (less a rounding margin) keeps no row, and none of
    its per-row norms is formed.  Only a type that fails the screen
    accumulates its squared residual row norms over its relation pairs,
    thresholds them and materialises the surviving rows.  The screen is
    exact: it changes no stored row.  The global residual ``R − G S Gᵀ``
    is never assembled — per pair the reconstruction stays factored as
    ``(G_t S_tu) G_uᵀ``.  Returns a :class:`RowSparseMatrix` on both
    backends; at the default β on unit-Frobenius relation blocks it stores
    no row at all.

    Under a delta schedule ``dirty_types`` restricts the re-solve to those
    row types; every clean row type splices its rows of ``E_prev`` (the
    previous iterate's error matrix) through unchanged.  ``None`` solves
    every type from scratch.

    ``products`` is the fit's :class:`~repro.core.rspace.ProductCache`
    (a private one when ``None``).  The pair residuals the screen forms
    there are the ones the objective then reads.
    """
    if pairs is None:
        pairs = active_relation_pairs(R_pairs, state.E_R, state.object_spec)
    if products is None:
        products = ProductCache()
    products.bind(R_pairs, pairs, state)
    object_spec = state.object_spec
    n_total = object_spec.total
    limit = (1.0 - _SCREEN_MARGIN) * (0.5 * beta) ** 2
    todo = (range(object_spec.n_types) if dirty_types is None
            else sorted(dirty_types))

    def solve_type(t: int):
        """Global ``(rows, values)`` of type ``t``'s kept prox rows.

        ``None`` when the threshold keeps no row: nothing is materialised.
        """
        type_pairs = products.row_pairs[t]
        total = magnitude = 0.0
        for pair in type_pairs:
            value, size = products.residual(pair)
            total += value
            magnitude += size
        if total + _SCREEN_MARGIN * magnitude < limit:
            return None
        sq = np.zeros(object_spec.sizes[t])
        for pair in type_pairs:
            sq += products.residual_sq_row_norms(pair)
        norms = np.sqrt(np.maximum(sq, 0.0))
        rows = np.flatnonzero(2.0 * norms > beta)
        if not rows.size:
            return None
        scale = 1.0 - beta / (2.0 * norms[rows])
        values = np.zeros((rows.size, n_total))
        for pair in type_pairs:
            values[:, products.object_slices[pair[1]]] = (
                scale[:, None] * products.residual_rows(pair, rows))
        return rows + object_spec.offsets[t], values

    results = _map(solve_type, todo, name="one_type")
    if dirty_types is None:
        pieces = results
    else:
        # Recomputed rows land in their type's global row range and clean
        # types splice theirs from E_prev, so concatenating in type order
        # keeps the global row index strictly increasing.
        solved = dict(zip(todo, results))
        pieces = [solved[t] if t in solved
                  else _carried_error_rows(E_prev, object_spec, t)
                  for t in range(object_spec.n_types)]
    pieces = [piece for piece in pieces
              if piece is not None and piece[0].size]
    if not pieces:
        return RowSparseMatrix.zeros((n_total, n_total))
    return RowSparseMatrix(np.concatenate([piece[0] for piece in pieces]),
                           np.vstack([piece[1] for piece in pieces]),
                           (n_total, n_total))
