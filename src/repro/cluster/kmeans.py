"""Lloyd's k-means with k-means++ seeding.

Used to initialise the cluster membership matrix ``G`` of the HOCC methods
(Algorithm 2 of the paper initialises G with k-means) and as the final
assignment step of spectral clustering and of the DRCC baseline.  Implemented
here because the execution environment has no scikit-learn.

``X`` may be a dense array or a scipy CSR matrix, and both take the same
path.  Every distance — the k-means++ seeding's and the assignment
step's — is evaluated through the expansion
``‖x − c‖² = ‖x‖² − 2 x·c + ‖c‖²``, and each Lloyd step forms all centre
sums as one product of the ``(k, n)`` CSR one-hot assignment matrix with
``X``, which adds each cluster's rows in row order.  The sparse path never
densifies the sample matrix, so one Lloyd iteration costs ``O(nnz·k)``
time and ``O(n + k·d)`` additional memory — this is what keeps the RHCHME
``init="kmeans"`` initialisation ``O(nnz)`` under the sparse backend, where
each type's relational profile is a CSR row block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .._validation import (
    as_float_array,
    check_positive_int,
    check_random_state,
)

__all__ = ["KMeansResult", "KMeans", "kmeans"]


@dataclass
class KMeansResult:
    """Outcome of one k-means fit.

    Attributes
    ----------
    labels:
        Cluster index per sample.
    centers:
        ``(n_clusters, d)`` centroid matrix (always dense — there are only
        ``k`` of them, and means of sparse rows are dense in substance).
    inertia:
        Sum of squared distances of samples to their assigned centroid.
    n_iterations:
        Lloyd iterations of the best restart.
    """

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    n_iterations: int


def _row_sq_norms(X) -> np.ndarray:
    """Per-row squared L2 norms for a dense or CSR sample matrix."""
    if sp.issparse(X):
        squared = X.multiply(X)
        return np.asarray(squared.sum(axis=1)).ravel()
    return np.sum(X * X, axis=1)


def _dense_row(X, index: int) -> np.ndarray:
    """One sample as a dense vector (centroids are always dense)."""
    if sp.issparse(X):
        return np.asarray(X[[index]].toarray()).ravel()
    return np.asarray(X[index], dtype=np.float64)


def _sq_distances(X, x_sq: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``‖x − c‖²`` of every sample to one centroid, by the expansion."""
    return np.maximum(x_sq - 2.0 * np.asarray(X @ center).ravel()
                      + float(center @ center), 0.0)


def _plus_plus_init(X, x_sq: np.ndarray, n_clusters: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to D²."""
    n_samples = X.shape[0]
    centers = np.empty((n_clusters, X.shape[1]), dtype=np.float64)
    first = int(rng.integers(n_samples))
    centers[0] = _dense_row(X, first)
    closest_sq = _sq_distances(X, x_sq, centers[0])
    for index in range(1, n_clusters):
        total = float(closest_sq.sum())
        if total <= 0.0:
            # All remaining points coincide with an existing centroid; fall
            # back to uniform sampling to avoid a zero-probability draw.
            choice = int(rng.integers(n_samples))
        else:
            probabilities = closest_sq / total
            choice = int(rng.choice(n_samples, p=probabilities))
        centers[index] = _dense_row(X, choice)
        np.minimum(closest_sq, _sq_distances(X, x_sq, centers[index]),
                   out=closest_sq)
    return centers


def _assign(X, x_sq: np.ndarray,
            centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (labels, squared distance to assigned centroid) for each sample."""
    c_sq = np.sum(centers * centers, axis=1)[None, :]
    cross = X @ centers.T
    if sp.issparse(X):  # pragma: no cover - sp.csr @ dense returns ndarray
        cross = np.asarray(cross)
    distances = x_sq[:, None] + c_sq - 2.0 * cross
    np.maximum(distances, 0.0, out=distances)
    labels = np.argmin(distances, axis=1)
    return labels, distances[np.arange(X.shape[0]), labels]


def _cluster_sums(X, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``(k, d)`` dense sums of each cluster's rows, added in row order.

    One product of the CSR one-hot matrix (row ``l`` holds cluster ``l``'s
    members in increasing order) with dense or CSR ``X``.
    """
    n_samples = labels.size
    indptr = np.concatenate(([0], np.cumsum(counts)))
    one_hot = sp.csr_array(
        (np.ones(n_samples), np.argsort(labels, kind="stable"), indptr),
        shape=(counts.size, n_samples))
    sums = one_hot @ X
    return sums.toarray() if sp.issparse(sums) else sums


class KMeans:
    """Lloyd's algorithm with k-means++ initialisation and restarts.

    ``X`` may be dense or CSR.  Each Lloyd step computes every centroid
    from one one-hot product with ``X`` and re-seeds an emptied cluster at
    the sample farthest from its centroid.

    Parameters
    ----------
    n_clusters:
        Number of clusters.
    n_init:
        Number of random restarts; the fit with the lowest inertia wins.
    max_iter:
        Maximum Lloyd iterations per restart.
    tol:
        Relative centroid-shift tolerance for early stopping.
    random_state:
        Seed for the restarts.
    """

    def __init__(self, n_clusters: int, *, n_init: int = 5, max_iter: int = 100,
                 tol: float = 1e-6, random_state=None) -> None:
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters")
        self.n_init = check_positive_int(n_init, name="n_init")
        self.max_iter = check_positive_int(max_iter, name="max_iter")
        self.tol = float(tol)
        self.random_state = random_state

    def fit(self, X) -> KMeansResult:
        """Cluster the rows of ``X`` (dense or CSR) and return the best restart."""
        if sp.issparse(X):
            # Same finiteness validation as the dense branch, CSR preserved.
            X = sp.csr_array(as_float_array(X, name="X", ndim=2,
                                            allow_sparse=True))
        else:
            X = as_float_array(X, name="X", ndim=2)
        n_samples = X.shape[0]
        if self.n_clusters > n_samples:
            raise ValueError(
                f"n_clusters ({self.n_clusters}) exceeds number of samples ({n_samples})")
        rng = check_random_state(self.random_state)
        x_sq = _row_sq_norms(X)
        best: KMeansResult | None = None
        for _ in range(self.n_init):
            result = self._single_run(X, x_sq, rng)
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        return best

    def fit_predict(self, X) -> np.ndarray:
        """Cluster the rows of ``X`` and return only the labels."""
        return self.fit(X).labels

    def _single_run(self, X, x_sq: np.ndarray,
                    rng: np.random.Generator) -> KMeansResult:
        centers = _plus_plus_init(X, x_sq, self.n_clusters, rng)
        labels, distances = _assign(X, x_sq, centers)
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            counts = np.bincount(labels, minlength=self.n_clusters)
            new_centers = (_cluster_sums(X, labels, counts)
                           / np.maximum(counts, 1)[:, None])
            for cluster in np.flatnonzero(counts == 0):
                # Re-seed an empty cluster at the point farthest from its
                # centroid to keep exactly n_clusters non-empty groups.
                farthest = int(np.argmax(distances))
                new_centers[cluster] = _dense_row(X, farthest)
                distances[farthest] = 0.0
            shift = float(np.linalg.norm(new_centers - centers))
            scale = max(float(np.linalg.norm(centers)), 1e-12)
            centers = new_centers
            labels, distances = _assign(X, x_sq, centers)
            if shift / scale < self.tol:
                break
        return KMeansResult(labels=labels.astype(np.int64), centers=centers,
                            inertia=float(distances.sum()), n_iterations=iteration)


def kmeans(X, n_clusters: int, *, n_init: int = 5,
           max_iter: int = 100, random_state=None) -> np.ndarray:
    """Functional wrapper returning only the label vector."""
    model = KMeans(n_clusters, n_init=n_init, max_iter=max_iter,
                   random_state=random_state)
    return model.fit_predict(X)
