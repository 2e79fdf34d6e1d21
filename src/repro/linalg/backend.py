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
