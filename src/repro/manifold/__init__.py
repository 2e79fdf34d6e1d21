"""Manifold (graph Laplacian) ensembles.

The second stage of RHCHME (Section III.B of the paper) fuses two different
views of intra-type structure into one regulariser:

    L = α · L_S + L_E                                   (Eq. 12)

where ``L_S`` is the Laplacian of the subspace-membership affinity ``W^S``
and ``L_E`` is the Laplacian of the cosine-weighted p-NN affinity ``W^E``.
The RMC baseline instead combines a *homogeneous* grid of p-NN candidate
Laplacians with learnt convex weights (Eq. 2).

* :mod:`repro.manifold.ensemble` — the heterogeneous two-member ensemble.
* :mod:`repro.manifold.homogeneous` — the RMC-style candidate ensemble.
"""

from .ensemble import HeterogeneousManifoldEnsemble
from .homogeneous import HomogeneousCandidateEnsemble

__all__ = [
    "HeterogeneousManifoldEnsemble",
    "HomogeneousCandidateEnsemble",
]
