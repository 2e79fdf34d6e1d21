"""Conversions between label vectors and cluster membership matrices.

The HOCC factorisations operate on soft membership matrices ``G`` whose rows
describe how strongly each object belongs to each cluster; evaluation
(FScore/NMI) and the k-means initialisation operate on hard label vectors.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_float_array, check_labels, check_positive_int, check_random_state

__all__ = [
    "membership_to_labels",
    "labels_to_membership",
    "one_hot_membership",
    "relabel_consecutive",
]


def membership_to_labels(membership: np.ndarray) -> np.ndarray:
    """Hard-assign each object to its highest-weight cluster (row argmax)."""
    membership = as_float_array(membership, name="membership", ndim=2)
    return np.argmax(membership, axis=1).astype(np.int64)


def one_hot_membership(labels: np.ndarray, n_clusters: int | None = None) -> np.ndarray:
    """Return the 0/1 membership matrix of a hard label vector."""
    labels = check_labels(labels, name="labels")
    if labels.min() < 0:
        raise ValueError("labels must be non-negative cluster indices")
    if n_clusters is None:
        n_clusters = int(labels.max()) + 1
    else:
        n_clusters = check_positive_int(n_clusters, name="n_clusters")
        if labels.max() >= n_clusters:
            raise ValueError(
                f"labels contain index {labels.max()} but n_clusters={n_clusters}")
    membership = np.zeros((labels.size, n_clusters), dtype=np.float64)
    membership[np.arange(labels.size), labels] = 1.0
    return membership


def labels_to_membership(labels: np.ndarray, n_clusters: int | None = None, *,
                         smoothing: float = 0.0, random_state=None) -> np.ndarray:
    """Return a (optionally smoothed) membership matrix for a label vector.

    ``smoothing > 0`` adds small positive random mass to every entry and
    re-normalises the rows.  Multiplicative update rules cannot move an entry
    away from exactly zero, so a smoothed initial G keeps all clusters
    reachable (this mirrors the standard practice for NMF-style updates).
    """
    membership = one_hot_membership(labels, n_clusters)
    if smoothing > 0.0:
        rng = check_random_state(random_state)
        membership = membership + smoothing * rng.uniform(
            0.5, 1.5, size=membership.shape)
        membership /= membership.sum(axis=1, keepdims=True)
    return membership


def relabel_consecutive(labels: np.ndarray) -> np.ndarray:
    """Map arbitrary label values onto consecutive integers 0..k-1.

    The mapping preserves the order of first appearance, which keeps the
    relabelling deterministic for reproducible tests.
    """
    labels = check_labels(labels, name="labels")
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    # ``np.unique`` numbers the values in sorted order; rank them by where
    # each first appears instead.
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]
