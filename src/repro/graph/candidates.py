"""Candidate Laplacian grids for the RMC baseline's homogeneous ensemble.

RMC (Li et al., 2013) pre-computes a set of candidate graph Laplacians
(``D − W``, like RHCHME's members) by varying the neighbour size ``p`` and
the edge weighting scheme, then learns a convex combination of them (Eq. 2
of the paper).  The paper's experiments use six candidates:
``p ∈ {5, 10}`` × {binary, Gaussian kernel, cosine}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .laplacian import laplacian
from .pnn import pnn_affinity
from .weights import WeightingScheme

__all__ = ["CandidateSpec", "default_candidate_grid", "candidate_laplacians"]


@dataclass(frozen=True)
class CandidateSpec:
    """One candidate intra-type relationship configuration.

    Attributes
    ----------
    p:
        Neighbour size of the p-NN graph.
    scheme:
        Edge weighting scheme.
    sigma:
        Heat-kernel bandwidth (ignored by binary/cosine schemes).
    """

    p: int
    scheme: WeightingScheme
    sigma: float = 1.0

    def describe(self) -> str:
        """Human-readable identifier, e.g. ``"p=5,cosine"``."""
        return f"p={self.p},{self.scheme.value}"


def default_candidate_grid(p_values: Sequence[int] = (5, 10),
                           schemes: Sequence[WeightingScheme | str] = (
                               WeightingScheme.BINARY,
                               WeightingScheme.HEAT_KERNEL,
                               WeightingScheme.COSINE),
                           *, sigma: float = 1.0) -> list[CandidateSpec]:
    """Return the paper's 6-candidate grid (or a custom cross product)."""
    grid = []
    for p in p_values:
        for scheme in schemes:
            grid.append(CandidateSpec(p=int(p), scheme=WeightingScheme.coerce(scheme),
                                      sigma=sigma))
    return grid


def candidate_laplacians(X: np.ndarray,
                         specs: Iterable[CandidateSpec] | None = None,
                         ) -> list[np.ndarray]:
    """Build the Laplacian for every candidate spec on data matrix ``X``."""
    if specs is None:
        specs = default_candidate_grid()
    laplacians = []
    for spec in specs:
        affinity = pnn_affinity(X, p=spec.p, scheme=spec.scheme, sigma=spec.sigma)
        laplacians.append(laplacian(affinity))
    return laplacians
