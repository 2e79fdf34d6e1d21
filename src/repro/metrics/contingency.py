"""Contingency tables between true classes and predicted clusters."""

from __future__ import annotations

import numpy as np

from .._validation import check_labels
from ..cluster.assignments import _first_appearance_codes

__all__ = ["contingency_matrix", "validate_label_pair"]


def validate_label_pair(labels_true, labels_pred) -> tuple[np.ndarray, np.ndarray]:
    """Validate and align a pair of label vectors onto consecutive ids.

    Each vector is numbered by first appearance (see
    :func:`~repro.cluster.assignments.relabel_consecutive`).
    """
    labels_true = check_labels(labels_true, name="labels_true")
    labels_pred = check_labels(labels_pred, name="labels_pred",
                               n_samples=labels_true.size)
    return (_first_appearance_codes(labels_true),
            _first_appearance_codes(labels_pred))


def contingency_matrix(labels_true, labels_pred) -> np.ndarray:
    """Return the ``(n_classes, n_clusters)`` matrix of co-occurrence counts.

    Entry ``(j, l)`` counts the objects that belong to true class j and were
    assigned to predicted cluster l (the ``n_jl`` of Eq. 38/39).  Rows and
    columns follow each vector's first-appearance order, which FScore's
    class-order running sum and NMI's masked sum are evaluated in.
    """
    labels_true, labels_pred = validate_label_pair(labels_true, labels_pred)
    n_classes = int(labels_true.max()) + 1
    n_clusters = int(labels_pred.max()) + 1
    counts = np.bincount(labels_true * n_clusters + labels_pred,
                         minlength=n_classes * n_clusters)
    return counts.reshape(n_classes, n_clusters)
