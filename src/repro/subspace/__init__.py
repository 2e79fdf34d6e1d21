"""Multiple-subspace learning for complete intra-type relationships.

The first stage of RHCHME (Section III.A of the paper) reconstructs each
object as a non-negative sparse combination of the other objects of its type,
``X_k ≈ X_k W_k`` with ``W_k ≥ 0`` and ``diag(W_k) = 0``, by minimising

    J2 = γ ‖X_k − X_k W_k‖²_F + ‖W_k W_kᵀ‖₁

(Eq. 9).  The paper's Algorithm 1 uses SPG; :mod:`repro.subspace.representation`
solves the same objective exactly, as one non-negative least-squares problem
per column, by a batched Lawson–Hanson active set.  Objects from the same
low-dimensional subspace receive non-zero coefficients no matter how far
apart they are in Euclidean space — the "complete" intra-type relationships
the p-NN graph misses.
"""

from .representation import (
    SubspaceRepresentation,
    SubspaceResult,
    learn_subspace_affinity,
    subspace_objective,
    subspace_objective_gradient,
)

__all__ = [
    "SubspaceRepresentation",
    "SubspaceResult",
    "learn_subspace_affinity",
    "subspace_objective",
    "subspace_objective_gradient",
]
