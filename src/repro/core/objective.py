"""Evaluation of the RHCHME objective (Eq. 15) and its decomposition.

Keeping the objective evaluation separate from the update rules allows the
tests to assert the monotone-decrease property proved in the paper's
Theorem 1 and lets the convergence recorder log the contribution of each
term (reconstruction, sparsity, graph smoothness).

The evaluation is representation-agnostic: ``R`` may be dense or scipy
sparse and ``E_R`` dense or row-sparse.  Under the sparse representations
the reconstruction term ``‖R − G S Gᵀ − E_R‖²_F`` is expanded into pairwise
Frobenius inner products (see :func:`repro.core.rspace.reconstruction_error`)
so the dense ``G S Gᵀ`` product is never materialised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..linalg.norms import frobenius_norm, l21_norm, trace_quadratic
from ..linalg.rowsparse import RowSparseMatrix
from . import rspace

__all__ = ["ObjectiveBreakdown", "evaluate_objective",
           "evaluate_objective_blocks"]


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


def evaluate_objective(R, G: np.ndarray, S: np.ndarray,
                       E_R, L, *, lam: float,
                       beta: float) -> ObjectiveBreakdown:
    """Evaluate the three terms of Eq. 15 at the given factors.

    ``L`` may be dense or scipy sparse; the smoothness term only needs the
    product ``L @ G`` (see :func:`repro.linalg.norms.trace_quadratic`), so a
    sparse ensemble Laplacian is never densified.  Likewise ``R`` may be
    dense or CSR and ``E_R`` dense or a
    :class:`~repro.linalg.rowsparse.RowSparseMatrix`; any sparse operand
    routes the reconstruction term through the factored expansion instead
    of the dense residual.
    """
    if sp.issparse(R) or isinstance(E_R, RowSparseMatrix):
        reconstruction = rspace.reconstruction_error(R, G, S, E_R)
    else:
        residual = R - G @ S @ G.T - E_R
        reconstruction = frobenius_norm(residual) ** 2
    error_sparsity = beta * l21_norm(E_R)
    graph_smoothness = lam * trace_quadratic(G, L)
    return ObjectiveBreakdown(reconstruction=float(reconstruction),
                              error_sparsity=float(error_sparsity),
                              graph_smoothness=float(graph_smoothness))


# Module-level objective task kernels (pure functions of their item; see
# repro.core.updates for the convention).  Items are plain operand tuples.


def _pair_error_task(item) -> float:
    """``‖R_tu − G_t S_tu G_uᵀ − E_tu‖²_F`` of one relation pair."""
    R_tu, G_t, S_tu, G_u, E_tu = item
    return rspace.pair_reconstruction_error(R_tu, G_t, S_tu, G_u, E_tu)


def _smoothness_task(item) -> float:
    """``tr(G_tᵀ L_t G_t)`` of one type."""
    G_t, L_t = item
    return trace_quadratic(G_t, L_t)


def _type_l21(E_R, object_spec, t: int) -> float:
    """The L2,1 norm contribution of one row type's E_R rows."""
    if E_R is None:
        return 0.0
    rows = object_spec.slice(t)
    if isinstance(E_R, RowSparseMatrix):
        return float(l21_norm(E_R.block(rows, slice(0, E_R.shape[1]))))
    return float(l21_norm(np.asarray(E_R)[rows]))


def evaluate_objective_blocks(R_pairs, state, L_blocks, *, lam: float,
                              beta: float, pairs=None, pool=None,
                              schedule=None, sweep: bool = False,
                              cache=None) -> ObjectiveBreakdown:
    """Blockwise evaluation of Eq. 15 — no global matrix is ever assembled.

    Every term decomposes over the block structure: the reconstruction is a
    sum of per-pair residual norms ``‖R_tu − G_t S_tu G_uᵀ − E_tu‖²_F``
    (the diagonal blocks are structural zeros), the smoothness a sum of
    per-type traces ``tr(G_tᵀ L_t G_t)``, and the L2,1 term reads the
    global E_R representation directly.  Pair and type tasks are
    independent and fan out across ``pool``.

    Parameters
    ----------
    R_pairs:
        Mapping from ordered type-index pairs to relation blocks.
    state:
        A blocked :class:`~repro.core.state.FactorizationState`.
    L_blocks:
        Per-type ensemble Laplacian blocks (dense or CSR).  A
        delta-scheduled fit passes ``None`` for types it never smooths
        over (clean types without sweeps) — their constant smoothness
        contribution is omitted from the trace.
    pairs:
        Active ordered pairs (defaults to the keys of ``R_pairs``).
    schedule, sweep, cache:
        Delta-evaluation mode: with a
        :class:`~repro.core.schedule.DeltaSchedule` and a (mutable) term
        cache, only the terms the schedule marks as moving — or that the
        cache has never seen — are recomputed; frozen blocks' terms are
        summed from the cache.  ``sweep=True`` refreshes every cached
        term.  Either argument ``None`` runs the full evaluation exactly
        as before.
    """
    from .updates import _error_block, _map  # local: avoids an import cycle

    if pairs is None:
        pairs = sorted(R_pairs)
    G = state.G_blocks
    S = state.S
    object_spec = state.object_spec
    cluster_spec = state.cluster_spec

    def pair_item(pair):
        t, u = pair
        S_tu = S[cluster_spec.slice(t), cluster_spec.slice(u)]
        E_tu = _error_block(state.E_R, object_spec, t, u)
        return R_pairs.get(pair), G[t], S_tu, G[u], E_tu

    def evaluate_terms(eval_pairs, eval_types):
        """Per-pair reconstruction and per-type smoothness term values."""
        pair_values = _map(pool, _pair_error_task,
                           [pair_item(pair) for pair in eval_pairs],
                           labels=eval_pairs, name="one_pair")
        type_values = _map(pool, _smoothness_task,
                           [(G[t], L_blocks[t]) for t in eval_types],
                           labels=eval_types, name="one_type")
        return pair_values, type_values

    if schedule is None or cache is None:
        pair_values, type_values = evaluate_terms(
            list(pairs), list(range(object_spec.n_types)))
        reconstruction = float(sum(pair_values))
        smoothness = float(sum(type_values))
        error_sparsity = beta * l21_norm(state.E_R)
        return ObjectiveBreakdown(reconstruction=reconstruction,
                                  error_sparsity=float(error_sparsity),
                                  graph_smoothness=lam * smoothness)

    # Delta evaluation: recompute the moving (or never-seen) terms, sum
    # the frozen ones from the cache.
    moving_pairs = schedule.objective_pairs
    smooth_over = schedule.laplacian_types
    eval_pairs = [pair for pair in pairs
                  if sweep or pair in moving_pairs
                  or ("pair", pair) not in cache]
    eval_types = [t for t in smooth_over
                  if sweep or t in schedule.dirty_types
                  or ("smooth", t) not in cache]
    pair_values, type_values = evaluate_terms(eval_pairs, eval_types)
    for pair, value in zip(eval_pairs, pair_values):
        cache[("pair", pair)] = float(value)
    for t, value in zip(eval_types, type_values):
        cache[("smooth", t)] = float(value)
    reconstruction = float(sum(cache[("pair", pair)] for pair in pairs))
    smoothness = float(sum(cache[("smooth", t)] for t in smooth_over))
    source_types = {pair[0] for pair in pairs}
    if sweep or schedule.error_types >= source_types:
        # No row type with E_R mass is frozen (stored rows only exist on
        # source types of active pairs) — the one-shot global L2,1
        # reduction is both cheaper and bit-identical to the unscheduled
        # evaluation.
        error_sparsity = float(beta * l21_norm(state.E_R))
    else:
        for t in range(object_spec.n_types):
            if t in schedule.error_types or ("l21", t) not in cache:
                cache[("l21", t)] = _type_l21(state.E_R, object_spec, t)
        error_sparsity = float(beta * sum(cache[("l21", t)]
                                          for t in range(object_spec.n_types)))
    return ObjectiveBreakdown(reconstruction=reconstruction,
                              error_sparsity=error_sparsity,
                              graph_smoothness=lam * smoothness)
