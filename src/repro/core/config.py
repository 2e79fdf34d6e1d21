"""Configuration object for the RHCHME estimator.

Collects every tunable of Algorithm 2 and of the heterogeneous manifold
ensemble in one validated dataclass so that experiment harnesses can sweep
parameters declaratively (the paper's Figure 2 sweeps λ, γ, α and β).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .._validation import check_positive_float, check_positive_int
from ..graph.weights import WeightingScheme
from ..linalg.backend import check_backend

__all__ = ["RHCHMEConfig"]


@dataclass(frozen=True)
class RHCHMEConfig:
    """Hyper-parameters of RHCHME.

    Both ensemble members use the ``D − W`` Laplacian, and every relation
    block of R is scaled to unit Frobenius norm.  Neither is a parameter:
    under the normalised Laplacian or unscaled relations the objective
    rises during the fit, against Theorem 1 (see README, "Deviations from
    the paper").

    Parameters
    ----------
    lam:
        Weight λ of the graph regulariser ``tr(Gᵀ L G)``; the paper finds a
        fairly large value (≈250) works best.
    gamma:
        Noise-tolerance weight γ of the multiple-subspace objective (Eq. 9);
        stable region [10, 50] in the paper.
    alpha:
        Ensemble trade-off α between the subspace Laplacian and the p-NN
        Laplacian (Eq. 12); stable region [0.25, 2].
    beta:
        Weight β of the L2,1 penalty on the sparse error matrix (Eq. 15);
        the paper reports 50 as the sweet spot.  The E step is the exact
        L2,1 prox, which keeps a row of E_R only where the residual row
        norm exceeds β/2.  Relation blocks are normalised to unit
        Frobenius norm, so at β = 50 no row survives and E_R stays empty;
        rows of corrupted objects survive at β ≈ 0.3.
    p:
        Neighbour size of the p-NN graph (paper: 5).
    weighting:
        Edge weighting scheme of the p-NN member (paper: cosine).
    max_iter:
        Maximum multiplicative-update iterations of Algorithm 2.
    tol:
        Relative objective-decrease tolerance for convergence.
    use_error_matrix:
        Ablation switch: disable the sparse error matrix E_R (reduces the
        objective to a graph-regularised SNMTF with ℓ1-normalised G).
    use_subspace_member, use_pnn_member:
        Ablation switches for the two ensemble members.
    init:
        ``"kmeans"`` (paper default) or ``"random"`` initialisation of G.
        The one-hot k-means labels are mixed with uniform mass
        (:data:`repro.core.state.INIT_SMOOTHING`) so the multiplicative
        updates can move every entry.
    random_state:
        Seed of the k-means initialisation (the subspace solve is exact and
        needs no seed).
    track_metrics_every:
        Record FScore/NMI against ground truth every this many iterations
        when labels are available (0 disables tracking); used to reproduce
        the convergence curves of Figure 3.  A type's values are recomputed
        only when its hard labels changed since they were last scored, and
        are identical to a recompute either way.
    backend:
        Compute backend for the graph pipeline: ``"dense"`` materialises the
        affinities and the ensemble Laplacian as numpy arrays (seed
        behaviour), ``"sparse"`` keeps them as scipy CSR matrices end to end
        (≤ 2p non-zeros per p-NN row, no ``O(n²)`` intermediates), and
        ``"auto"`` (default) selects by dataset size — see
        :func:`repro.linalg.backend.resolve_backend` — except that it stays
        dense while the subspace member is active.  The exact subspace
        affinity is already sparse (11–30 non-zeros per row on average on
        the paper presets), and ``"sparse"`` runs it as CSR, but the solve
        returns it as a dense array and the sparse path has not been
        measured against the dense one at the default config, so that rule
        stays.  Both backends produce the same labels and objective trace up
        to floating-point noise (dense/sparse parity is test-enforced at
        1e-8).
    diagnostics:
        Record fit-time health diagnostics (see
        :class:`repro.diagnostics.SpectralMonitor`): per-type spectral
        metrics of the ensemble Laplacian blocks plus per-iteration
        membership-churn trajectories, carried in the fit result's
        ``extras["diagnostics"]`` and persisted into the artifact
        sidecar.  Off by default; never changes the optimisation.  It is
        a run-time knob, not a model parameter, and is not persisted in
        artifacts.
    """

    lam: float = 250.0
    gamma: float = 25.0
    alpha: float = 1.0
    beta: float = 50.0
    p: int = 5
    weighting: WeightingScheme | str = WeightingScheme.COSINE
    max_iter: int = 100
    tol: float = 1e-5
    use_error_matrix: bool = True
    use_subspace_member: bool = True
    use_pnn_member: bool = True
    init: str = "kmeans"
    random_state: int | None = None
    track_metrics_every: int = 1
    backend: str = "auto"
    diagnostics: bool = False

    def __post_init__(self) -> None:
        check_positive_float(self.lam, name="lam", minimum=0.0, inclusive=True)
        check_positive_float(self.gamma, name="gamma")
        check_positive_float(self.alpha, name="alpha", minimum=0.0, inclusive=True)
        check_positive_float(self.beta, name="beta", minimum=0.0, inclusive=True)
        check_positive_int(self.p, name="p")
        check_positive_int(self.max_iter, name="max_iter")
        check_positive_float(self.tol, name="tol")
        if self.init not in {"kmeans", "random"}:
            raise ValueError(f"init must be 'kmeans' or 'random', got {self.init!r}")
        if self.track_metrics_every < 0:
            raise ValueError("track_metrics_every must be >= 0")
        check_backend(self.backend)
        if not isinstance(self.diagnostics, bool):
            raise ValueError(
                f"diagnostics must be a bool, got {self.diagnostics!r}")
        object.__setattr__(self, "weighting", WeightingScheme.coerce(self.weighting))

    def with_overrides(self, **overrides: Any) -> "RHCHMEConfig":
        """Return a copy with the given fields replaced (validated again)."""
        return replace(self, **overrides)

    def describe(self) -> dict[str, Any]:
        """Plain dictionary of the main tunables for experiment reports."""
        return {
            "lambda": self.lam,
            "gamma": self.gamma,
            "alpha": self.alpha,
            "beta": self.beta,
            "p": self.p,
            "weighting": self.weighting.value,
            "max_iter": self.max_iter,
            "init": self.init,
            "backend": self.backend,
        }
