"""Graph Laplacians of intra-type affinity matrices.

The HOCC objectives regularise the cluster membership matrix with
``tr(Gᵀ L G)`` where ``L`` is a graph Laplacian of the intra-type affinity
``W``.  The paper's formulation uses ``L = D − W`` (with ``D`` the degree
matrix), and :func:`laplacian` is that builder: every regulariser of the
fit and of the baselines is built by it.  The symmetric-normalised variant
``I − D^{-1/2} W D^{-1/2}`` is kept for spectral clustering
(:mod:`repro.cluster.spectral`).  It is not an equivalent regulariser:
``L·1 ≠ 0`` unless every degree is equal, and with it the fit's objective
rises under Algorithm 2 (see README, "Deviations from the paper").

Every builder accepts either a dense ``numpy`` affinity or a scipy sparse
one and returns a Laplacian in the same representation: a p-NN affinity with
``O(p)`` non-zeros per row yields a CSR Laplacian with the same sparsity
(plus the diagonal), which the solvers consume purely as an operator.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import as_float_array, check_square, check_symmetric
from ..exceptions import ValidationError
from ..linalg.normalize import symmetric_normalize

__all__ = [
    "degree_vector",
    "unnormalized_laplacian",
    "normalized_laplacian",
    "laplacian",
]


def _coerce_sparse(affinity, *, name: str = "affinity") -> sp.csr_array:
    """Return a square, finite, float64 CSR view of a sparse affinity."""
    csr = affinity.tocsr().astype(np.float64, copy=False)
    check_square(csr, name=name)
    if csr.nnz and not np.all(np.isfinite(csr.data)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    return csr


def _check_sparse_affinity(affinity, *, name: str = "affinity") -> sp.csr_array:
    """Validate a sparse affinity as symmetric float64 CSR.

    Symmetry repair is delegated to the shared ``check_symmetric`` so that
    dense and sparse pipelines apply one tolerance policy.
    """
    return check_symmetric(_coerce_sparse(affinity, name=name),
                           name=name, fix=True).tocsr()


def degree_vector(affinity) -> np.ndarray:
    """Row-sum degree vector ``d_i = Σ_j W_ij`` of an affinity matrix."""
    if sp.issparse(affinity):
        csr = _coerce_sparse(affinity)
        return np.asarray(csr.sum(axis=1)).ravel()
    affinity = as_float_array(affinity, name="affinity", ndim=2)
    check_square(affinity, name="affinity")
    return np.sum(affinity, axis=1)


def unnormalized_laplacian(affinity):
    """Combinatorial Laplacian ``L = D − W``."""
    if sp.issparse(affinity):
        csr = _check_sparse_affinity(affinity)
        degrees = np.asarray(csr.sum(axis=1)).ravel()
        return (sp.diags_array(degrees) - csr).tocsr()
    affinity = as_float_array(affinity, name="affinity", ndim=2)
    affinity = check_symmetric(affinity, name="affinity", fix=True)
    laplacian_matrix = -affinity.copy()
    degrees = np.sum(affinity, axis=1)
    laplacian_matrix[np.diag_indices_from(laplacian_matrix)] += degrees
    return laplacian_matrix


def normalized_laplacian(affinity):
    """Symmetric-normalised Laplacian ``L = I − D^{-1/2} W D^{-1/2}``.

    Isolated vertices contribute a zero row/column of the normalised affinity
    and therefore a diagonal entry of 1 in the Laplacian.
    """
    if sp.issparse(affinity):
        csr = _check_sparse_affinity(affinity)
        normalised = symmetric_normalize(csr)
        return (sp.eye_array(csr.shape[0], format="csr") - normalised).tocsr()
    affinity = as_float_array(affinity, name="affinity", ndim=2)
    affinity = check_symmetric(affinity, name="affinity", fix=True)
    normalised = symmetric_normalize(affinity)
    laplacian_matrix = -normalised
    laplacian_matrix[np.diag_indices_from(laplacian_matrix)] += 1.0
    return laplacian_matrix


#: The regulariser's Laplacian ``L = D − W``: every ensemble member,
#: candidate graph and baseline regulariser is built by this name.
laplacian = unnormalized_laplacian
