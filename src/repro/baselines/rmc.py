"""RMC — Relational Multi-manifold Co-clustering baseline.

RMC (Li et al., 2013) replaces SNMTF's single p-NN Laplacian with a convex
combination of q pre-computed candidate Laplacians (Eq. 2 of the paper),
built by varying the neighbour size and the weighting scheme; the paper's
experiments use the six candidates ``p ∈ {5, 10}`` × {binary, Gaussian
kernel, cosine}.  Because every candidate is still a p-NN graph, the ensemble
is *homogeneous* — the property RHCHME improves on with its heterogeneous
(subspace + p-NN) ensemble.

The candidate weights start uniform and are refitted against the current
cluster membership every ``refit_every`` iterations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.state import FactorizationState
from ..graph.candidates import CandidateSpec
from ..manifold.homogeneous import HomogeneousCandidateEnsemble
from ..relational.dataset import MultiTypeRelationalData
from .base import BaseHOCC

__all__ = ["RMC"]


class RMC(BaseHOCC):
    """HOCC with a homogeneous ensemble of p-NN candidate Laplacians.

    Parameters
    ----------
    lam:
        Graph regularisation weight.
    candidate_specs:
        Candidate configurations; default is the paper's six-candidate grid.
        Every candidate is a ``D − W`` Laplacian.
    refit_every:
        Refit the ensemble weights every this many iterations (0 keeps the
        initial uniform weights — the "pre-given linear combination" reading
        of Eq. 2).
    ensemble_smoothing:
        Ridge of the weight-refit subproblem.
    Other parameters:
        See :class:`~repro.baselines.base.BaseHOCC`.
    """

    method_name = "RMC"

    def __init__(self, *, lam: float = 100.0,
                 candidate_specs: Sequence[CandidateSpec] | None = None,
                 refit_every: int = 5, ensemble_smoothing: float = 1.0,
                 max_iter: int = 100, tol: float = 1e-5,
                 init: str = "kmeans", random_state: int | None = None,
                 track_metrics_every: int = 1) -> None:
        super().__init__(lam=lam, max_iter=max_iter, tol=tol, init=init,
                         random_state=random_state,
                         track_metrics_every=track_metrics_every)
        self.refit_every = int(refit_every)
        self.ensemble = HomogeneousCandidateEnsemble(
            specs=candidate_specs, smoothing=ensemble_smoothing)

    def build_regularizer(self, data: MultiTypeRelationalData) -> list:
        """Build every candidate and return their uniform combination per type."""
        self.ensemble.build_candidates(data)
        self.ensemble.initial_weights()
        return self.ensemble.combine()

    def update_regularizer(self, L_blocks: list,
                           state: FactorizationState) -> list:
        """Periodically refit the candidate weights against the current G."""
        if self.refit_every <= 0 or state.iteration % self.refit_every != 0:
            return L_blocks
        self.ensemble.refit_weights(state.G_blocks)
        return self.ensemble.combine()

    @property
    def ensemble_weights_(self) -> np.ndarray | None:
        """Current candidate weights (None before fitting)."""
        return self.ensemble.weights_
