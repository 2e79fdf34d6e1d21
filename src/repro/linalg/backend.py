"""Dense / sparse compute-backend selection and conversion helpers.

Every stage of the RHCHME pipeline — the p-NN affinity (Eq. 3), the ensemble
Laplacian (Eq. 12) and the regulariser terms of the updates and objective
(Eq. 15, 21) — only ever uses the graph Laplacian ``L`` as a linear operator
(``L @ G``) or through element-wise positive/negative splits.  Because the
p-NN graph has at most ``2p`` non-zeros per row, all of those stages can run
on :mod:`scipy.sparse` matrices without materialising any ``(n, n)`` dense
array.  This module centralises the backend vocabulary so the solvers stay
agnostic:

* ``"dense"`` — plain ``numpy`` arrays (the seed behaviour);
* ``"sparse"`` — CSR :class:`scipy.sparse` matrices for affinities and
  Laplacians;
* ``"auto"`` — pick per dataset: sparse once the object count crosses
  :data:`AUTO_SPARSE_THRESHOLD` (where the O(n²) dense intermediates start to
  dominate), dense below it (small problems are faster without CSR
  indirection).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import ensure_dense

__all__ = [
    "BACKENDS",
    "AUTO_SPARSE_THRESHOLD",
    "check_backend",
    "resolve_backend",
    "is_sparse",
    "as_csr",
    "to_dense",
    "to_backend",
    "topk_rows",
]

#: Valid values of the ``backend`` knob on :class:`repro.core.RHCHMEConfig`
#: and :class:`repro.manifold.HeterogeneousManifoldEnsemble`.
BACKENDS = ("auto", "dense", "sparse")

#: Object count at which ``backend="auto"`` switches to the sparse path.
#: Below this the dense kernels win on constant factors; above it the
#: O(n²) dense intermediates (pairwise weight matrices, Laplacian splits)
#: dominate both time and memory.
AUTO_SPARSE_THRESHOLD = 1024


def check_backend(backend: str) -> str:
    """Validate a backend name and return it."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {list(BACKENDS)}")
    return backend


def resolve_backend(backend: str, *, n_objects: int,
                    threshold: int = AUTO_SPARSE_THRESHOLD) -> str:
    """Resolve ``"auto"`` to a concrete backend for a problem of ``n_objects``.

    Parameters
    ----------
    backend:
        ``"auto"``, ``"dense"`` or ``"sparse"``.
    n_objects:
        Total number of objects (rows/columns of the assembled Laplacian).
    threshold:
        Object count at which ``"auto"`` switches away from dense.
    """
    check_backend(backend)
    if backend != "auto":
        return backend
    return "sparse" if n_objects >= threshold else "dense"


def is_sparse(matrix) -> bool:
    """True when ``matrix`` is any scipy sparse matrix/array."""
    return sp.issparse(matrix)


def as_csr(matrix) -> sp.csr_array:
    """Return ``matrix`` as a float64 CSR sparse array (copying only if needed)."""
    if sp.issparse(matrix):
        return matrix.tocsr().astype(np.float64, copy=False)
    return sp.csr_array(np.asarray(matrix, dtype=np.float64))


def to_dense(matrix) -> np.ndarray:
    """Return a dense float64 ndarray view of a dense or sparse matrix."""
    return ensure_dense(matrix)


def to_backend(matrix, backend: str):
    """Convert ``matrix`` to the numpy representation of a concrete backend."""
    check_backend(backend)
    if backend == "auto":
        raise ValueError("resolve 'auto' with resolve_backend() before converting")
    return as_csr(matrix) if backend == "sparse" else to_dense(matrix)


def topk_rows(matrix, k: int, *, symmetrize: bool = True) -> np.ndarray:
    """Threshold a dense affinity to its k largest entries per row.

    This is what lets a dense affinity array — the subspace member's, which
    the Eq. 9 solve returns dense although its exact optimum is sparse —
    participate in the sparse backend with a fixed budget: keeping only the
    k strongest similarities per row bounds the non-zero count at ``2k`` per
    row after symmetrisation, the same budget as a p-NN graph.  With
    ``symmetrize=True`` the row-wise selections are united by an
    element-wise maximum (the Eq. 3 rule for p-NN edges), so the result
    stays symmetric whenever the input is.

    ``k >= n - 1`` keeps every off-diagonal entry of a zero-diagonal affinity
    (the only droppable entry per row is then a row minimum, which for a
    non-negative zero-diagonal matrix is always a zero), so the thresholding
    degrades gracefully into an exact representation.
    """
    dense = to_dense(matrix)
    if dense.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {dense.shape}")
    n_rows, n_cols = dense.shape
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n_cols:
        return dense.copy()
    keep = np.argpartition(dense, n_cols - k, axis=1)[:, n_cols - k:]
    thresholded = np.zeros_like(dense)
    row_index = np.repeat(np.arange(n_rows), k)
    thresholded[row_index, keep.ravel()] = dense[row_index, keep.ravel()]
    if symmetrize and n_rows == n_cols:
        thresholded = np.maximum(thresholded, thresholded.T)
    return thresholded
