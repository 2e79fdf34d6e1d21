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
  Theorem 1.

Every rule runs on the block structure of the problem: per-type membership
blocks ``G_t``, per-type Laplacian blocks ``L_t`` and per-pair relation
blocks ``R_tu`` (dense or CSR).  The error matrix ``E_R`` is a
:class:`repro.linalg.rowsparse.RowSparseMatrix` holding only the rows the
prox keeps, or ``None`` (no error matrix).  The residual ``R − G S Gᵀ`` is
never formed: each pair's ``G_t S_tu G_uᵀ`` stays factored (see
:mod:`repro.core.rspace`), and only the kept rows are materialised.
"""

from __future__ import annotations

import time

import numpy as np

from ..linalg.normalize import row_normalize_l1
from ..linalg.parts import split_parts
from ..linalg.rowsparse import RowSparseMatrix
from ..linalg.safe import gram_pinv, safe_divide
from ..obs import current_span
from . import rspace
from .state import FactorizationState

__all__ = [
    "update_association_blocks",
    "update_membership_blocks",
    "update_error_matrix_blocks",
    "active_relation_pairs",
]

_EPS = 1e-12


# ----------------------------------------------------------- blockwise kernels
#
# The blocked solver core works on the structure Algorithm 2 already has:
# G is block diagonal by type, S has zero diagonal blocks, R and E_R only
# live on cross-type blocks, and L only couples objects within a type.  The
# kernels below solve each update per type / per pair — the stacked
# matrices' off-block entries are structural zeros, so nothing is lost by
# never forming them.


def _map(fn, items, *, labels, name):
    """Apply one task kernel to every item, in order.

    When a fit-trace span is active (the solver activates one per update
    family under ``diagnostics=True``), every kernel invocation is
    recorded as a completed ``name`` child of it, labelled by the
    matching entry of ``labels`` (task items carry operand arrays, whose
    repr is not a label).
    """
    parent = current_span()
    if parent is None:
        return [fn(item) for item in items]
    results = []
    for label, item in zip(labels, items):
        start = time.perf_counter()
        results.append(fn(item))
        parent.record(name, start, time.perf_counter(), item=str(label))
    return results


# Module-level task kernels: one per update family, taking a single plain
# tuple of operand arrays.  Every operand a task reads is in its item, so a
# kernel is a pure function of that tuple.


def _association_core_task(item):
    """Core ``G_tᵀ (R_tu − E_tu) G_u`` of one pair's S block (Eq. 18)."""
    G_t, R_tu, E_tu, G_u = item
    return G_t.T @ rspace.project_relations(R_tu, E_tu, G_u)


def _membership_type_task(item):
    """Multiplicative update of one type's membership block (Eq. 21–22)."""
    G_t, L_parts_t, a_terms, b_terms, lam, normalize = item
    A = np.zeros_like(G_t)
    for R_tu, E_tu, G_u, S_tu in a_terms:
        A += rspace.project_relations(R_tu, E_tu, G_u) @ S_tu.T
    B = np.zeros((G_t.shape[1], G_t.shape[1]))
    for S_ut, gram_u in b_terms:
        B += S_ut.T @ gram_u @ S_ut
    L_pos, L_neg = L_parts_t
    A_pos, A_neg = split_parts(A)
    B_pos, B_neg = split_parts(B)
    numerator = lam * (L_neg @ G_t) + A_pos + G_t @ B_neg
    denominator = lam * (L_pos @ G_t) + A_neg + G_t @ B_pos
    ratio = safe_divide(numerator, denominator, eps=_EPS)
    updated = G_t * np.sqrt(ratio)
    return row_normalize_l1(updated) if normalize else updated


def _error_type_task(item):
    """Prox rows of one row type (the exact E step).

    ``terms`` lists ``(u, R_tu, S_tu, G_u)`` over the type's outgoing
    pairs.  The squared residual row norms accumulate across them; a row
    survives the group soft threshold when ``2 ‖q_i‖ > β`` and is stored
    as ``s_i q_i`` with ``s_i = 1 − β / (2 ‖q_i‖) > 0``.  A zero residual
    row never survives, so no division by zero arises.  Returns
    ``(global_rows, values)`` without writing shared state, so the task
    is a pure function of its item.
    """
    G_t, terms, beta, n_total, col_slices, row_offset = item
    factored = {u: G_t @ S_tu for u, _, S_tu, _ in terms}
    sq = np.zeros(G_t.shape[0])
    for u, R_tu, S_tu, G_u in terms:
        sq += rspace.pair_residual_sq_row_norms(R_tu, G_t, S_tu, G_u,
                                                M=factored[u])
    norms = np.sqrt(np.maximum(sq, 0.0))
    rows = np.flatnonzero(2.0 * norms > beta)
    scale = 1.0 - beta / (2.0 * norms[rows])
    values = np.zeros((rows.size, n_total))
    for u, R_tu, S_tu, G_u in terms:
        values[:, col_slices[u]] = scale[:, None] * rspace.pair_residual_rows(
            R_tu, G_t, S_tu, G_u, rows, M=factored[u])
    return rows + row_offset, values


def _error_block(E_R, object_spec, t: int, u: int):
    """The ``(t, u)`` block of the row-sparse error matrix, as a view.

    ``None`` stays ``None``; the block shares the value storage.
    """
    if E_R is None:
        return None
    return E_R.block(object_spec.slice(t), object_spec.slice(u))


def active_relation_pairs(R_pairs, E_R, object_spec) -> list[tuple[int, int]]:
    """Ordered type pairs the blocked updates must visit.

    A pair is active when a relation block exists or the (warm-start) error
    matrix carries mass on its block.  Activity is closed under the update
    rules — a pair with zero relation, zero error and zero association
    stays exactly zero through S, G and E_R updates — so the set is
    computed once per fit and reused every iteration.
    """
    active = set(R_pairs)
    if E_R is not None:
        for t in range(object_spec.n_types):
            for u in range(object_spec.n_types):
                if t == u or (t, u) in active:
                    continue
                if np.any(_error_block(E_R, object_spec, t, u).values):
                    active.add((t, u))
    return sorted(active)


def update_association_blocks(R_pairs, state: FactorizationState, *,
                              pairs=None, dirty_pairs=None,
                              S_prev=None) -> np.ndarray:
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
    """
    if pairs is None:
        pairs = active_relation_pairs(R_pairs, state.E_R, state.object_spec)
    G = state.G_blocks
    cluster_spec = state.cluster_spec
    object_spec = state.object_spec
    if dirty_pairs is None:
        compute = list(pairs)
        pinvs = [gram_pinv(block.T @ block) for block in G]
    else:
        compute = [pair for pair in pairs if pair in dirty_pairs]
        needed = sorted({index for pair in compute for index in pair})
        pinvs = {index: gram_pinv(G[index].T @ G[index]) for index in needed}

    items = []
    for pair in compute:
        t, u = pair
        E_tu = _error_block(state.E_R, object_spec, t, u)
        items.append((G[t], R_pairs.get(pair), E_tu, G[u]))

    cores = _map(_association_core_task, items, labels=compute,
                 name="one_pair")

    if dirty_pairs is None or S_prev is None:
        S = np.zeros((cluster_spec.total, cluster_spec.total))
    else:
        S = np.array(S_prev, dtype=np.float64, copy=True)
        for t in range(cluster_spec.n_types):
            block = cluster_spec.slice(t)
            S[block, block] = 0.0
    for (t, u), core in zip(compute, cores):
        S[cluster_spec.slice(t), cluster_spec.slice(u)] = (
            pinvs[t] @ (core @ pinvs[u]))
    return S


def update_membership_blocks(R_pairs, L_parts, state: FactorizationState, *,
                             lam: float, pairs=None,
                             dirty_types=None,
                             normalize: bool = True) -> list[np.ndarray]:
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
    """
    if pairs is None:
        pairs = active_relation_pairs(R_pairs, state.E_R, state.object_spec)
    G = state.G_blocks
    S = state.S
    cluster_spec = state.cluster_spec
    object_spec = state.object_spec
    by_source: dict[int, list[int]] = {}
    by_target: dict[int, list[int]] = {}
    for t, u in pairs:
        by_source.setdefault(t, []).append(u)
        by_target.setdefault(u, []).append(t)
    if dirty_types is None:
        todo = list(range(object_spec.n_types))
        grams = [block.T @ block for block in G]
    else:
        todo = sorted(dirty_types)
        needed = sorted({u for t in todo for u in by_target.get(t, ())})
        grams = {u: G[u].T @ G[u] for u in needed}

    def s_block(t: int, u: int) -> np.ndarray:
        return S[cluster_spec.slice(t), cluster_spec.slice(u)]

    def type_item(t: int):
        a_terms = [(R_pairs.get((t, u)),
                    _error_block(state.E_R, object_spec, t, u),
                    G[u], s_block(t, u)) for u in by_source.get(t, ())]
        b_terms = [(s_block(u, t), grams[u]) for u in by_target.get(t, ())]
        return G[t], L_parts[t], a_terms, b_terms

    items = [(*type_item(t), lam, normalize) for t in todo]
    blocks = _map(_membership_type_task, items, labels=todo,
                  name="one_type")
    if dirty_types is None:
        return list(blocks)
    updated = list(G)
    for t, block in zip(todo, blocks):
        updated[t] = block
    return updated


def _carried_error_rows(E_prev, object_spec, t: int, n_total: int):
    """Type ``t``'s stored rows of the previous E_R, in global coordinates.

    The splice path of a delta-scheduled E update: clean row types carry
    their previous rows through unchanged instead of re-solving them.
    Returns ``(rows, values)`` with values of global width ``n_total``.
    """
    if E_prev is None:
        return np.empty(0, dtype=np.int64), np.empty((0, n_total))
    lo = object_spec.offsets[t]
    start = int(np.searchsorted(E_prev.rows, lo))
    stop = int(np.searchsorted(E_prev.rows, lo + object_spec.sizes[t]))
    return (np.asarray(E_prev.rows[start:stop], dtype=np.int64),
            np.asarray(E_prev.values[start:stop]))


def update_error_matrix_blocks(R_pairs, state: FactorizationState, *,
                               beta: float, pairs=None,
                               dirty_types=None,
                               E_prev=None) -> RowSparseMatrix:
    """Blockwise exact E step: the L2,1 prox of the residual, row-sparse.

    The L2,1 row norm of object ``i`` of type ``t`` spans every cross-type
    block of its row, so the task unit is a *type*: accumulate the squared
    residual row norms over the type's relation pairs, threshold them, and
    materialise only the surviving rows.  The global residual
    ``R − G S Gᵀ`` is never assembled — per pair the reconstruction stays
    factored as ``(G_t S_tu) G_uᵀ``.  Returns a :class:`RowSparseMatrix`
    on both backends; at the default β on unit-Frobenius relation blocks
    it stores no row at all.

    Under a delta schedule ``dirty_types`` restricts the re-solve to those
    row types; every clean row type splices its rows of ``E_prev`` (the
    previous iterate's error matrix) through unchanged.  ``None`` solves
    every type from scratch.
    """
    if pairs is None:
        pairs = active_relation_pairs(R_pairs, state.E_R, state.object_spec)
    G = state.G_blocks
    S = state.S
    object_spec = state.object_spec
    cluster_spec = state.cluster_spec
    n_total = object_spec.total
    by_source: dict[int, list[int]] = {}
    for t, u in pairs:
        by_source.setdefault(t, []).append(u)

    todo = (list(range(object_spec.n_types)) if dirty_types is None
            else sorted(dirty_types))

    def type_terms(t: int):
        return [(u, R_pairs.get((t, u)),
                 S[cluster_spec.slice(t), cluster_spec.slice(u)], G[u])
                for u in by_source.get(t, ())]

    col_slices = {u: object_spec.slice(u)
                  for u in range(object_spec.n_types)}
    items = [(G[t], type_terms(t), beta, n_total, col_slices,
              object_spec.offsets[t]) for t in todo]
    results = _map(_error_type_task, items, labels=todo,
                   name="one_type")
    if dirty_types is None:
        pieces = results
    else:
        # Recomputed rows land in their type's global row range and clean
        # types splice theirs from E_prev, so concatenating in type order
        # keeps the global row index strictly increasing.
        solved = dict(zip(todo, results))
        pieces = [solved[t] if t in solved
                  else _carried_error_rows(E_prev, object_spec, t, n_total)
                  for t in range(object_spec.n_types)]
    rows = np.concatenate([piece[0] for piece in pieces])
    values = (np.vstack([piece[1] for piece in pieces])
              if rows.size else np.empty((0, n_total)))
    return RowSparseMatrix(rows, values, (n_total, n_total))
