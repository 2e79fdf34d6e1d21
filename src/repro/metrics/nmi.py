"""Normalized Mutual Information (Eq. 39 of the paper).

The mutual information between the true class assignment and the predicted
cluster assignment, normalised by the geometric mean of the two entropies so
the score lies in [0, 1] (1 = identical partitions up to relabelling, 0 =
independent partitions).
"""

from __future__ import annotations

import numpy as np

from .contingency import contingency_matrix

__all__ = ["mutual_information", "normalized_mutual_information"]


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy (nats) of a count vector."""
    total = float(counts.sum())
    if total <= 0:
        return 0.0
    probabilities = counts[counts > 0] / total
    return float(-np.sum(probabilities * np.log(probabilities)))


def _mutual_information(table: np.ndarray) -> float:
    """Mutual information (nats) of a float contingency table."""
    total = float(table.sum())
    joint = table / total
    class_marginal = joint.sum(axis=1, keepdims=True)
    cluster_marginal = joint.sum(axis=0, keepdims=True)
    outer = class_marginal @ cluster_marginal
    mask = joint > 0
    return float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))


def mutual_information(labels_true, labels_pred) -> float:
    """Mutual information (nats) between two labelings."""
    return _mutual_information(
        contingency_matrix(labels_true, labels_pred).astype(np.float64))


def normalized_mutual_information(labels_true, labels_pred) -> float:
    """NMI normalised by the geometric mean of the two label entropies.

    A degenerate case where one of the partitions has a single group (zero
    entropy) returns 0 unless both partitions are single-group and identical,
    in which case 1 is returned.
    """
    table = contingency_matrix(labels_true, labels_pred).astype(np.float64)
    entropy_true = _entropy(table.sum(axis=1))
    entropy_pred = _entropy(table.sum(axis=0))
    if entropy_true == 0.0 and entropy_pred == 0.0:
        return 1.0
    if entropy_true == 0.0 or entropy_pred == 0.0:
        return 0.0
    value = _mutual_information(table) / np.sqrt(entropy_true * entropy_pred)
    return float(np.clip(value, 0.0, 1.0))
