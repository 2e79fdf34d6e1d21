"""Pairwise distances/similarities and p-nearest-neighbour search.

Objects of each type are column vectors ``x_k^i`` in the paper; here we adopt
the row-major numpy convention: a data matrix ``X`` has one object per row.
The p-NN graph of Eq. 3 needs, for each object, the indices of its ``p``
nearest neighbours in Euclidean space (excluding the object itself).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .._validation import as_float_array, check_positive_int

__all__ = [
    "pairwise_euclidean_distances",
    "pairwise_cosine_similarity",
    "pnn_indices",
    "QueryIndex",
]

_EPS = 1e-12


def pairwise_euclidean_distances(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Return the matrix of Euclidean distances between rows of ``X`` and ``Y``.

    With ``Y=None`` the distances are computed within ``X``.  Uses the
    expansion ``‖x − y‖² = ‖x‖² + ‖y‖² − 2 xᵀy`` and clips tiny negative
    values caused by floating-point cancellation.
    """
    X = as_float_array(X, name="X", ndim=2)
    Y = X if Y is None else as_float_array(Y, name="Y", ndim=2)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(
            f"X and Y must share a feature dimension, got {X.shape[1]} and {Y.shape[1]}")
    x_sq = np.sum(X * X, axis=1)[:, None]
    y_sq = np.sum(Y * Y, axis=1)[None, :]
    squared = x_sq + y_sq - 2.0 * (X @ Y.T)
    np.maximum(squared, 0.0, out=squared)
    if Y is X:
        np.fill_diagonal(squared, 0.0)
    return np.sqrt(squared)


def pairwise_cosine_similarity(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Return the matrix of cosine similarities between rows of ``X`` and ``Y``.

    Zero rows produce zero similarity rather than NaN.
    """
    X = as_float_array(X, name="X", ndim=2)
    Y = X if Y is None else as_float_array(Y, name="Y", ndim=2)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(
            f"X and Y must share a feature dimension, got {X.shape[1]} and {Y.shape[1]}")
    x_norms = np.linalg.norm(X, axis=1)
    y_norms = np.linalg.norm(Y, axis=1)
    denom = np.outer(np.where(x_norms > _EPS, x_norms, 1.0),
                     np.where(y_norms > _EPS, y_norms, 1.0))
    similarity = (X @ Y.T) / denom
    similarity[x_norms <= _EPS, :] = 0.0
    similarity[:, y_norms <= _EPS] = 0.0
    return np.clip(similarity, -1.0, 1.0)


def pnn_indices(X: np.ndarray, p: int, *, algorithm: str = "auto",
                query_points: np.ndarray | None = None) -> np.ndarray:
    """Return an ``(n, p)`` array of the p nearest-neighbour indices per object.

    The object itself is excluded.  ``algorithm`` selects between a KD-tree
    (``"kdtree"``, good for low dimensional data), dense brute force
    (``"brute"``), or an automatic choice based on dimensionality (``"auto"``).

    With ``query_points`` given, the search runs in *query mode*: ``X`` acts
    as a fixed reference set and the returned ``(n_queries, p)`` array holds,
    for each query row, the indices of its p nearest reference objects.  No
    self-exclusion is applied — a query identical to a reference point lists
    that point as its nearest neighbour, which is exactly what the
    out-of-sample extension wants — so ``p`` may go up to the reference size
    (instead of strictly below it).
    """
    X = as_float_array(X, name="X", ndim=2)
    n_objects = X.shape[0]
    p = check_positive_int(p, name="p")
    if algorithm not in {"auto", "kdtree", "brute"}:
        raise ValueError(f"unknown neighbour search algorithm {algorithm!r}")
    if algorithm == "auto":
        algorithm = "kdtree" if X.shape[1] <= 15 else "brute"
    if query_points is not None:
        return QueryIndex(X, algorithm=algorithm).query(query_points, p)
    if p >= n_objects:
        raise ValueError(
            f"p={p} must be smaller than the number of objects ({n_objects})")
    if algorithm == "kdtree":
        tree = cKDTree(X)
        # query p+1 because the closest hit is usually the point itself
        _, indices = tree.query(X, k=p + 1)
        indices = np.atleast_2d(np.asarray(indices, dtype=np.int64))
        # Drop exactly one candidate per row: the point itself where it
        # appears, otherwise the farthest candidate (duplicate points can push
        # `i` out of its own candidate list — the p+1 hits are then all valid
        # neighbours and the closest p are kept).
        self_hits = indices == np.arange(n_objects)[:, None]
        drop = np.where(self_hits.any(axis=1), self_hits.argmax(axis=1), p)
        keep = np.ones((n_objects, p + 1), dtype=bool)
        keep[np.arange(n_objects), drop] = False
        return indices[keep].reshape(n_objects, p)
    return _brute_force_indices(X, p)


#: Upper bound on the number of entries of one brute-force distance block;
#: keeps peak memory at ~32 MB regardless of n, so the sparse graph pipeline
#: never materialises a full (n, n) distance matrix even on high-dimensional
#: data where the KD-tree is not used.
_BRUTE_BLOCK_ENTRIES = 4_000_000


def _brute_force_indices(X: np.ndarray, p: int) -> np.ndarray:
    """Blocked brute-force p-NN search with O(block · n) peak memory.

    Processes rows in blocks, using ``argpartition`` to select the p nearest
    candidates of each row (excluding the row itself) and then ordering those
    p by actual distance.
    """
    n_objects = X.shape[0]
    block_rows = max(1, _BRUTE_BLOCK_ENTRIES // n_objects)
    neighbours = np.empty((n_objects, p), dtype=np.int64)
    for start in range(0, n_objects, block_rows):
        stop = min(start + block_rows, n_objects)
        distances = pairwise_euclidean_distances(X[start:stop], X)
        distances[np.arange(stop - start), np.arange(start, stop)] = np.inf
        if p < n_objects - 1:
            candidates = np.argpartition(distances, p, axis=1)[:, :p]
        else:
            candidates = np.argsort(distances, axis=1)[:, :p]
        candidate_distances = np.take_along_axis(distances, candidates, axis=1)
        order = np.argsort(candidate_distances, axis=1)
        neighbours[start:stop] = np.take_along_axis(candidates, order, axis=1)
    return neighbours


class QueryIndex:
    """Reusable query-mode p-NN search index over a fixed reference set.

    Building a KD-tree costs O(n log n); a micro-batched serving loop that
    called :func:`pnn_indices` in query mode per batch would pay that build
    for every batch.  This index constructs the search structure once and
    answers any number of query batches against it — the same results as
    ``pnn_indices(reference, p, query_points=...)``, which delegates here.

    Parameters
    ----------
    reference:
        ``(n, d)`` fixed reference set the queries are matched against.
    algorithm:
        ``"kdtree"``, ``"brute"`` (blocked, O(block · n) peak memory per
        query batch) or ``"auto"`` (KD-tree for d ≤ 15).

    Notes
    -----
    A built index is immutable and safe to share across threads: the KD-tree
    query releases the GIL, so one cached index can serve a whole worker
    pool (see :mod:`repro.runtime`).
    """

    def __init__(self, reference: np.ndarray, *, algorithm: str = "auto") -> None:
        reference = as_float_array(reference, name="reference", ndim=2)
        if algorithm not in {"auto", "kdtree", "brute"}:
            raise ValueError(f"unknown neighbour search algorithm {algorithm!r}")
        if algorithm == "auto":
            algorithm = "kdtree" if reference.shape[1] <= 15 else "brute"
        self.reference = reference
        self.algorithm = algorithm
        self._tree = cKDTree(reference) if algorithm == "kdtree" else None

    @property
    def n_reference(self) -> int:
        """Number of reference objects."""
        return self.reference.shape[0]

    def query(self, query_points: np.ndarray, p: int, *,
              workers: int = 1) -> np.ndarray:
        """Return the ``(n_queries, p)`` nearest reference indices per query.

        No self-exclusion is applied (queries are a separate object set), so
        ``p`` may go up to the reference size.  ``workers`` parallelises the
        KD-tree search across that many OS threads (``-1`` uses every core);
        the brute-force path ignores it — its inner products already use the
        BLAS thread pool.
        """
        queries = as_float_array(query_points, name="query_points", ndim=2)
        if queries.shape[1] != self.reference.shape[1]:
            raise ValueError(
                f"query_points must share the reference feature dimension, "
                f"got {queries.shape[1]} and {self.reference.shape[1]}")
        p = check_positive_int(p, name="p")
        if p > self.n_reference:
            raise ValueError(
                f"p={p} must not exceed the reference size ({self.n_reference})")
        if workers != -1:
            workers = check_positive_int(workers, name="workers")
        if self._tree is not None:
            _, indices = self._tree.query(queries, k=p, workers=workers)
            return np.asarray(indices, dtype=np.int64).reshape(queries.shape[0], p)
        return _brute_force_query_indices(self.reference, queries, p)


def _brute_force_query_indices(X: np.ndarray, queries: np.ndarray,
                               p: int) -> np.ndarray:
    """Blocked brute-force query-vs-reference p-NN search (no self-exclusion).

    Mirrors :func:`_brute_force_indices` but computes distances from query
    blocks to the full reference set; peak memory stays O(block · n) no
    matter how many queries arrive.
    """
    n_reference = X.shape[0]
    n_queries = queries.shape[0]
    block_rows = max(1, _BRUTE_BLOCK_ENTRIES // n_reference)
    neighbours = np.empty((n_queries, p), dtype=np.int64)
    for start in range(0, n_queries, block_rows):
        stop = min(start + block_rows, n_queries)
        distances = pairwise_euclidean_distances(queries[start:stop], X)
        if p < n_reference:
            candidates = np.argpartition(distances, p - 1, axis=1)[:, :p]
        else:
            candidates = np.argsort(distances, axis=1)[:, :p]
        candidate_distances = np.take_along_axis(distances, candidates, axis=1)
        order = np.argsort(candidate_distances, axis=1)
        neighbours[start:stop] = np.take_along_axis(candidates, order, axis=1)
    return neighbours
