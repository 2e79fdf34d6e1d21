"""SNMTF — Symmetric Nonnegative Matrix Tri-Factorization baseline.

SNMTF (Wang et al., 2011) augments the collective factorisation with a
single p-NN graph Laplacian regulariser per object type (Eq. 1 of the paper
with ``L = D − W`` built from a p-nearest-neighbour graph).  The paper's
experiments use ``p = 5``; the weighting scheme is configurable (heat kernel
by default, which is the classic SNMTF choice).
"""

from __future__ import annotations

from ..graph.weights import WeightingScheme
from ..manifold.ensemble import HeterogeneousManifoldEnsemble
from ..relational.dataset import MultiTypeRelationalData
from .base import BaseHOCC

__all__ = ["SNMTF"]


class SNMTF(BaseHOCC):
    """Graph-regularised HOCC with a single p-NN Laplacian per type.

    Parameters
    ----------
    lam:
        Graph regularisation weight (the paper tunes it in [0.01, 1000]).
    p:
        Neighbour size of the p-NN graph (paper: 5).
    weighting:
        Edge weighting scheme of the p-NN graph.
    Other parameters:
        See :class:`~repro.baselines.base.BaseHOCC`.
    """

    method_name = "SNMTF"

    def __init__(self, *, lam: float = 100.0, p: int = 5,
                 weighting: WeightingScheme | str = WeightingScheme.HEAT_KERNEL,
                 max_iter: int = 100, tol: float = 1e-5,
                 init: str = "kmeans", random_state: int | None = None,
                 track_metrics_every: int = 1) -> None:
        super().__init__(lam=lam, max_iter=max_iter, tol=tol, init=init,
                         random_state=random_state,
                         track_metrics_every=track_metrics_every)
        self.p = int(p)
        self.weighting = WeightingScheme.coerce(weighting)

    def build_regularizer(self, data: MultiTypeRelationalData) -> list:
        """Per-type Laplacian blocks, one p-NN graph per type."""
        ensemble = HeterogeneousManifoldEnsemble(
            alpha=0.0, p=self.p, weighting=self.weighting,
            use_subspace=False, use_pnn=True)
        return ensemble.build_blocks(data)
