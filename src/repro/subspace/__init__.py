"""Multiple-subspace learning for complete intra-type relationships.

The first stage of RHCHME (Section III.A of the paper) reconstructs each
object as a non-negative sparse combination of the other objects of its type,
``X_k ≈ X_k W_k`` with ``W_k ≥ 0`` and ``diag(W_k) = 0``, by minimising

    J2 = γ ‖X_k − X_k W_k‖²_F + ‖W_k W_kᵀ‖₁

with a Spectral Projected Gradient (SPG) method (Algorithm 1).  Objects from
the same low-dimensional subspace receive non-zero coefficients no matter how
far apart they are in Euclidean space — the "complete" intra-type
relationships the p-NN graph misses.

* :mod:`repro.subspace.spg` — generic non-monotone SPG solver on a convex set.
* :mod:`repro.subspace.representation` — the subspace representation problem
  and its solver wrapper (:class:`SubspaceRepresentation`).
* :mod:`repro.subspace.reference` — compact SSC/LRR-style reference solvers
  used as diagnostics and in ablation benchmarks.
"""

from .spg import SPGResult, spg_minimize
from .representation import (
    SubspaceRepresentation,
    SubspaceResult,
    learn_subspace_affinity,
    subspace_evaluator,
    subspace_objective,
    subspace_objective_gradient,
)
from .reference import lrr_shrinkage_affinity, ssc_affinity

__all__ = [
    "SPGResult",
    "SubspaceRepresentation",
    "SubspaceResult",
    "learn_subspace_affinity",
    "lrr_shrinkage_affinity",
    "spg_minimize",
    "ssc_affinity",
    "subspace_evaluator",
    "subspace_objective",
    "subspace_objective_gradient",
]
