"""Nearest-neighbour graphs and graph Laplacians.

This package builds the Euclidean-distance-based intra-type relationship
matrix ``W^E`` of the paper (Eq. 3) and the graph Laplacians that turn an
affinity matrix into the regulariser used in the HOCC objectives:

* :mod:`repro.graph.neighbors` — brute-force and KD-tree p-nearest-neighbour
  search.
* :mod:`repro.graph.weights` — binary, heat-kernel and cosine edge weights.
* :mod:`repro.graph.pnn` — symmetric p-NN affinity graph construction.
* :mod:`repro.graph.laplacian` — the regulariser's ``D − W`` Laplacian
  and the symmetric-normalised one spectral clustering uses.
* :mod:`repro.graph.candidates` — the grid of candidate Laplacians used by
  the RMC baseline's homogeneous ensemble.
"""

from .neighbors import (
    QueryIndex,
    pairwise_cosine_similarity,
    pairwise_euclidean_distances,
    pnn_indices,
)
from .weights import (
    WeightingScheme,
    compute_edge_weights,
    compute_edge_weights_pairs,
    compute_edge_weights_query,
)
from .pnn import pnn_affinity
from .laplacian import (
    degree_vector,
    laplacian,
    normalized_laplacian,
    unnormalized_laplacian,
)
from .candidates import CandidateSpec, candidate_laplacians, default_candidate_grid

__all__ = [
    "CandidateSpec",
    "QueryIndex",
    "WeightingScheme",
    "candidate_laplacians",
    "compute_edge_weights",
    "compute_edge_weights_pairs",
    "compute_edge_weights_query",
    "default_candidate_grid",
    "degree_vector",
    "laplacian",
    "normalized_laplacian",
    "pairwise_cosine_similarity",
    "pairwise_euclidean_distances",
    "pnn_affinity",
    "pnn_indices",
    "unnormalized_laplacian",
]
