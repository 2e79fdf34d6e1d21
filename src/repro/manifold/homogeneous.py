"""Homogeneous candidate-Laplacian ensemble (the RMC baseline's regulariser).

RMC (Relational Multi-manifold Co-clustering, Li et al. 2013) builds, for
each object type, a set of q candidate p-NN graph Laplacians (varying the
neighbour size and the weighting scheme) and uses their convex combination
``L = Σ βᵢ L̂ᵢ`` with ``Σ βᵢ = 1, βᵢ > 0`` (Eq. 2 of the paper) as the graph
regulariser.  The weights can be uniform or refitted against the current
cluster membership by minimising ``Σᵢ βᵢ tr(Gᵀ L̂ᵢ G) + μ‖β‖²`` on the
simplex, which is how RMC adapts the ensemble during its iterations.

Every candidate is block diagonal by type, so it is kept as one list of
per-type blocks ``L̂ᵢ,t`` — the form the blocked solver core consumes — and
both the combination and the weight refit work type by type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .._validation import check_positive_float
from ..graph.candidates import CandidateSpec, candidate_laplacians, default_candidate_grid
from ..linalg.norms import trace_quadratic
from ..linalg.projections import project_simplex
from ..relational.dataset import MultiTypeRelationalData

__all__ = ["HomogeneousCandidateEnsemble"]


@dataclass
class HomogeneousCandidateEnsemble:
    """RMC-style ensemble of p-NN candidate Laplacians with learnable weights.

    Parameters
    ----------
    specs:
        Candidate configurations; defaults to the paper's grid of
        ``p ∈ {5, 10}`` × {binary, heat kernel, cosine}.
    smoothing:
        Ridge term μ of the weight-refit subproblem; keeps the learnt weights
        away from a degenerate single-candidate solution.

    Every candidate is a ``D − W`` Laplacian, and each type's candidates are
    divided by its object count, the same convention as
    :class:`~repro.manifold.ensemble.HeterogeneousManifoldEnsemble`.
    """

    specs: Sequence[CandidateSpec] | None = None
    smoothing: float = 1.0
    weights_: np.ndarray | None = field(default=None, init=False, repr=False)
    candidates_: list[list[np.ndarray]] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.specs is None:
            self.specs = default_candidate_grid()
        self.specs = list(self.specs)
        if not self.specs:
            raise ValueError("candidate ensemble needs at least one candidate spec")
        self.smoothing = check_positive_float(self.smoothing, name="smoothing")

    @property
    def n_candidates(self) -> int:
        """Number of candidate Laplacians per type."""
        return len(self.specs)

    def build_candidates(self, data: MultiTypeRelationalData) -> list[list[np.ndarray]]:
        """Build the per-type Laplacian blocks of every candidate spec.

        Returns one list per candidate holding that candidate's
        ``(n_t, n_t)`` block for every type, in type order.  Types without
        features contribute zero blocks to every candidate.
        """
        per_candidate_blocks: list[list[np.ndarray]] = [[] for _ in self.specs]
        for object_type in data.types:
            if object_type.features is None:
                zero = np.zeros((object_type.n_objects, object_type.n_objects))
                for blocks in per_candidate_blocks:
                    blocks.append(zero)
                continue
            laplacians = candidate_laplacians(object_type.features, self.specs)
            scale = 1.0 / float(object_type.n_objects)
            for blocks, candidate in zip(per_candidate_blocks, laplacians):
                blocks.append(candidate * scale)
        self.candidates_ = per_candidate_blocks
        return self.candidates_

    def initial_weights(self) -> np.ndarray:
        """Uniform simplex weights used before any refit."""
        weights = np.full(self.n_candidates, 1.0 / self.n_candidates)
        self.weights_ = weights
        return weights

    def combine(self, weights: np.ndarray | None = None) -> list[np.ndarray]:
        """Return the weighted combination of the candidates, per type."""
        if not self.candidates_:
            raise RuntimeError("call build_candidates() before combine()")
        if weights is None:
            weights = self.weights_ if self.weights_ is not None else self.initial_weights()
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.n_candidates,):
            raise ValueError(
                f"weights must have shape ({self.n_candidates},), got {weights.shape}")
        combined = [np.zeros_like(block) for block in self.candidates_[0]]
        for weight, candidate in zip(weights, self.candidates_):
            for total, block in zip(combined, candidate):
                total += weight * block
        return combined

    def refit_weights(self, G_blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Refit the candidate weights against the current membership blocks.

        Minimises ``Σᵢ βᵢ tr(Gᵀ L̂ᵢ G) + μ ‖β‖²`` subject to the simplex
        constraint, with ``tr(Gᵀ L̂ᵢ G) = Σ_t tr(G_tᵀ L̂ᵢ,t G_t)`` summed over
        the per-type membership blocks ``G_t``.  The closed-form
        unconstrained minimiser ``βᵢ = −tr(Gᵀ L̂ᵢ G) / (2μ)`` is projected
        onto the simplex, which down-weights candidates whose Laplacian
        penalises the current clustering most.
        """
        if not self.candidates_:
            raise RuntimeError("call build_candidates() before refit_weights()")
        penalties = np.array([sum(trace_quadratic(G_t, block)
                                  for G_t, block in zip(G_blocks, candidate))
                              for candidate in self.candidates_])
        raw = -penalties / (2.0 * self.smoothing)
        self.weights_ = project_simplex(raw)
        return self.weights_
