"""Evaluation of the RHCHME objective (Eq. 15) and its decomposition.

Keeping the objective evaluation separate from the update rules allows the
tests to assert the monotone-decrease property proved in the paper's
Theorem 1 and lets the convergence recorder log the contribution of each
term (reconstruction, sparsity, graph smoothness).

The evaluation runs on the blocked state: relation blocks may be dense or
CSR and ``E_R`` is row-sparse or ``None``.  Each pair's reconstruction
term ``‖R_tu − G_t S_tu G_uᵀ − E_tu‖²_F`` is the cluster-space expansion
of :mod:`repro.core.rspace` for dense and CSR blocks alike (so
``G_t S_tu G_uᵀ`` is never materialised), corrected on the rows E_R
stores.  Those pair residuals, the cores ``G_tᵀ R_tu G_u`` they read and
the ``L_t^± G_t`` products of the smoothness term are shared through the
fit's :class:`~repro.core.rspace.ProductCache` with the E step that
precedes the evaluation and the S and G steps that follow it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rspace import ProductCache
from .updates import _map, active_relation_pairs

__all__ = ["ObjectiveBreakdown", "evaluate_objective_blocks"]


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Value of each term of the RHCHME objective at one iterate.

    Attributes
    ----------
    reconstruction:
        ``‖R − G S Gᵀ − E_R‖²_F``.
    error_sparsity:
        ``β ‖E_R‖_{2,1}``.
    graph_smoothness:
        ``λ tr(Gᵀ L G)``.
    """

    reconstruction: float
    error_sparsity: float
    graph_smoothness: float

    @property
    def total(self) -> float:
        """The full objective J4 (Eq. 15)."""
        return self.reconstruction + self.error_sparsity + self.graph_smoothness


def _smoothness(L_pos_G, L_neg_G, G_t) -> float:
    """``tr(G_tᵀ L_t G_t)`` from ``L_t^± G_t`` (``None``: an all-zero part)."""
    if L_pos_G is None and L_neg_G is None:
        return 0.0
    LG = ((0.0 if L_pos_G is None else L_pos_G)
          - (0.0 if L_neg_G is None else L_neg_G))
    return float(np.sum(LG * G_t))


def _l21(E_R) -> float:
    """``‖E_R‖_{2,1}``; a state without an error matrix, or an empty one,
    contributes zero."""
    return 0.0 if E_R is None or E_R.is_zero else E_R.l21_norm()


def _type_l21(E_R, object_spec, t: int) -> float:
    """The L2,1 norm contribution of one row type's E_R rows."""
    if E_R is None:
        return 0.0
    return E_R.block(object_spec.slice(t), slice(0, E_R.shape[1])).l21_norm()


def evaluate_objective_blocks(R_pairs, state, L_blocks, *, lam: float,
                              beta: float, pairs=None,
                              schedule=None, cache=None,
                              products=None) -> ObjectiveBreakdown:
    """Blockwise evaluation of Eq. 15 — no global matrix is ever assembled.

    Every term decomposes over the block structure: the reconstruction is a
    sum of per-pair residual norms ``‖R_tu − G_t S_tu G_uᵀ − E_tu‖²_F``
    (the diagonal blocks are structural zeros), the smoothness a sum of
    per-type traces ``tr(G_tᵀ L_t G_t)``, and the L2,1 term sums the
    stored rows of the row-sparse E_R (``E_R=None``, a state without an
    error matrix, contributes zero).

    Parameters
    ----------
    R_pairs:
        Mapping from ordered type-index pairs to relation blocks.
    state:
        A blocked :class:`~repro.core.state.FactorizationState`.
    L_blocks:
        Per-type ensemble Laplacian blocks (dense or CSR).  A
        delta-scheduled fit passes ``None`` for types it never smooths
        over (clean types) — their constant smoothness contribution is
        omitted from the trace.
    pairs:
        Active ordered pairs (defaults to
        :func:`~repro.core.updates.active_relation_pairs`, the set the
        update kernels visit: every relation block plus any block a
        warm-start E_R carries mass on).
    schedule, cache:
        Delta-evaluation mode: with a
        :class:`~repro.core.schedule.DeltaSchedule` and a (mutable) term
        cache, only the terms the schedule marks as moving — or that the
        cache has never seen — are recomputed; frozen blocks' terms are
        summed from the cache.  Either argument ``None`` runs the full
        evaluation exactly as before.
    products:
        The fit's :class:`~repro.core.rspace.ProductCache` (a private one
        when ``None``).  The pair residuals come from it (usually formed by
        the E step's screen at the same iterate); the cores they read serve
        the next S step, and the ``L_t^± G_t`` products formed here the
        next G step.
    """
    if pairs is None:
        pairs = active_relation_pairs(R_pairs, state.E_R, state.object_spec)
    if products is None:
        products = ProductCache()
    products.bind(R_pairs, pairs, state)
    G = state.G_blocks
    object_spec = state.object_spec

    def pair_error(pair) -> float:
        return products.reconstruction_error(
            pair, products.error_block(state.E_R, object_spec, pair))

    def smoothness(t: int) -> float:
        parts = products.laplacian_parts(t, L_blocks[t])
        return _smoothness(*products.laplacian_products(t, parts, G[t]),
                           G[t])

    def evaluate_terms(eval_pairs, eval_types):
        """Per-pair reconstruction and per-type smoothness term values."""
        return (_map(pair_error, eval_pairs, name="one_pair"),
                _map(smoothness, eval_types, name="one_type"))

    if schedule is None or cache is None:
        pair_values, type_values = evaluate_terms(
            list(pairs), list(range(object_spec.n_types)))
        reconstruction = float(sum(pair_values))
        smoothness = float(sum(type_values))
        error_sparsity = beta * _l21(state.E_R)
        return ObjectiveBreakdown(reconstruction=reconstruction,
                                  error_sparsity=float(error_sparsity),
                                  graph_smoothness=lam * smoothness)

    # Delta evaluation: recompute the moving (or never-seen) pair terms,
    # sum the frozen ones from the cache.  Only dirty types carry a
    # Laplacian block, and each of them moves, so every smoothness term
    # is recomputed.
    moving_pairs = schedule.objective_pairs
    eval_pairs = [pair for pair in pairs
                  if pair in moving_pairs or ("pair", pair) not in cache]
    pair_values, type_values = evaluate_terms(eval_pairs,
                                              schedule.laplacian_types)
    for pair, value in zip(eval_pairs, pair_values):
        cache[("pair", pair)] = float(value)
    reconstruction = float(sum(cache[("pair", pair)] for pair in pairs))
    smoothness = float(sum(type_values))
    source_types = {pair[0] for pair in pairs}
    if schedule.error_types >= source_types:
        # No row type with E_R mass is frozen (stored rows only exist on
        # source types of active pairs) — the one-shot global L2,1
        # reduction is both cheaper and bit-identical to the unscheduled
        # evaluation.
        error_sparsity = float(beta * _l21(state.E_R))
    else:
        for t in range(object_spec.n_types):
            if t in schedule.error_types or ("l21", t) not in cache:
                cache[("l21", t)] = _type_l21(state.E_R, object_spec, t)
        error_sparsity = float(beta * sum(cache[("l21", t)]
                                          for t in range(object_spec.n_types)))
    return ObjectiveBreakdown(reconstruction=reconstruction,
                              error_sparsity=error_sparsity,
                              graph_smoothness=lam * smoothness)
