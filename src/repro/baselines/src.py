"""SRC — Spectral Relational Clustering (Long et al., 2006) baseline.

SRC performs collective factorisation of the inter-type relations only
(``Σ_ij ν_ij ‖R_ij − G_i S_ij G_jᵀ‖²_F``), i.e. the λ = 0 / no-Laplacian
special case of the shared HOCC skeleton.  It uses no intra-type
relationships, which is exactly why the paper expects it to be the weakest
HOCC method: it cannot exploit the geometric structure within each type.
"""

from __future__ import annotations

from ..relational.dataset import MultiTypeRelationalData
from .base import BaseHOCC

__all__ = ["SRC"]


class SRC(BaseHOCC):
    """Spectral Relational Clustering via collective NMTF (no intra-type term).

    Parameters
    ----------
    max_iter, tol, init, random_state, track_metrics_every:
        See :class:`~repro.baselines.base.BaseHOCC`.  The graph weight λ is
        fixed to zero because SRC has no graph regulariser.
    """

    method_name = "SRC"

    def __init__(self, *, max_iter: int = 100, tol: float = 1e-5,
                 init: str = "kmeans", random_state: int | None = None,
                 track_metrics_every: int = 1) -> None:
        super().__init__(lam=0.0, max_iter=max_iter, tol=tol, init=init,
                         random_state=random_state,
                         track_metrics_every=track_metrics_every)

    def build_regularizer(self, data: MultiTypeRelationalData) -> None:
        """SRC uses no intra-type relationships: no regulariser."""
        return None
