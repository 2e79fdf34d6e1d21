"""RHCHME — the paper's primary contribution.

Robust High-order Co-clustering via Heterogeneous Manifold Ensemble solves

    min_{G ≥ 0, G 1_c = 1_n}  ‖R − G S Gᵀ − E_R‖²_F + β ‖E_R‖_{2,1}
                              + λ tr(Gᵀ L G)                       (Eq. 15)

by alternating closed-form / multiplicative updates for the association
matrix S (Eq. 18), the cluster membership matrix G (Eq. 21 + row-ℓ1
normalisation), and the sample-wise sparse error matrix E_R (the exact
L2,1 prox that Eq. 25–27 iterate towards), with ``L`` the heterogeneous
manifold ensemble of Eq. 12.

The solver core is *blocked*: G lives as per-type membership blocks, L as
per-type Laplacian blocks, R and E_R as per-pair cross-type blocks, and the
updates run as per-type / per-pair kernels.  No stacked ``(n, n)`` R or L
and no stacked ``(n, c)`` G is ever assembled.  It is the one solver path: the
NMTF baselines of :mod:`repro.baselines` run the same kernels.

* :mod:`repro.core.config` — :class:`RHCHMEConfig`, every tunable in one place.
* :mod:`repro.core.objective` — blockwise objective evaluation and its
  decomposition.
* :mod:`repro.core.updates` — the three blockwise update rules.
* :mod:`repro.core.rspace` — the per-pair R-space kernels of the blocked
  core (no backend materialises ``G_t S_tu G_uᵀ``) and the product cache
  the steps of one fit share.
* :mod:`repro.core.state` — blocked factorisation state and initialisation.
* :mod:`repro.core.schedule` — delta scheduling (:class:`DirtySet`): which
  blocks an incremental refit recomputes and which stay frozen.
* :mod:`repro.core.convergence` — iteration history bookkeeping.
* :mod:`repro.core.rhchme` — the :class:`RHCHME` estimator (Algorithm 2).
"""

from .config import RHCHMEConfig
from .convergence import IterationRecord, TraceRecorder
from .objective import ObjectiveBreakdown, evaluate_objective_blocks
from .rhchme import RHCHME, RHCHMEResult
from .schedule import DeltaSchedule, DirtySet
from .state import FactorizationState, initialize_state
from .updates import (update_association_blocks, update_error_matrix_blocks,
                      update_membership_blocks)

__all__ = [
    "DeltaSchedule",
    "DirtySet",
    "FactorizationState",
    "IterationRecord",
    "ObjectiveBreakdown",
    "RHCHME",
    "RHCHMEConfig",
    "RHCHMEResult",
    "TraceRecorder",
    "evaluate_objective_blocks",
    "initialize_state",
    "update_association_blocks",
    "update_error_matrix_blocks",
    "update_membership_blocks",
]
