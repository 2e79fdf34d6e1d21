"""Clustering FScore (Eq. 38 of the paper).

For every true class the best-matching cluster is found by the harmonic mean
of precision (``n_jl / n_l``) and recall (``n_jl / n_j``); the FScore is the
class-size-weighted average of those best matches.  This is the document
clustering FScore of Zhao & Karypis used throughout the HOCC literature.
"""

from __future__ import annotations

import numpy as np

from .contingency import contingency_matrix

__all__ = ["clustering_fscore", "pairwise_precision_recall"]


def clustering_fscore(labels_true, labels_pred) -> float:
    """Return the clustering FScore in [0, 1]; higher is better."""
    table = contingency_matrix(labels_true, labels_pred).astype(np.float64)
    n_total = float(table.sum())
    class_sizes = table.sum(axis=1, keepdims=True)
    cluster_sizes = table.sum(axis=0, keepdims=True)
    recalls = np.divide(table, class_sizes, out=np.zeros_like(table),
                        where=class_sizes > 0)
    precisions = np.divide(table, cluster_sizes, out=np.zeros_like(table),
                           where=cluster_sizes > 0)
    denominator = precisions + recalls
    f_values = np.divide(2.0 * precisions * recalls, denominator,
                         out=np.zeros_like(denominator), where=denominator > 0)
    best = f_values.max(axis=1)
    # Accumulate class by class, in class order, as a running float sum.
    score = 0.0
    for size, value in zip(class_sizes[:, 0], best):
        if size > 0:
            score += (size / n_total) * float(value)
    # The class weights sum to 1 only up to floating point; a perfect
    # clustering can otherwise accumulate to 1 + O(eps) and escape [0, 1].
    return float(min(score, 1.0))


def pairwise_precision_recall(labels_true, labels_pred) -> tuple[float, float]:
    """Pairwise precision and recall (pairs of objects grouped together).

    A complementary view of agreement used by the extended diagnostics: of
    all object pairs placed in the same predicted cluster, the fraction that
    truly share a class (precision), and of all truly co-classed pairs, the
    fraction recovered (recall).
    """
    table = contingency_matrix(labels_true, labels_pred).astype(np.float64)
    same_both = float(np.sum(table * (table - 1.0)) / 2.0)
    cluster_sizes = table.sum(axis=0)
    class_sizes = table.sum(axis=1)
    same_pred = float(np.sum(cluster_sizes * (cluster_sizes - 1.0)) / 2.0)
    same_true = float(np.sum(class_sizes * (class_sizes - 1.0)) / 2.0)
    precision = same_both / same_pred if same_pred > 0 else 0.0
    recall = same_both / same_true if same_true > 0 else 0.0
    return precision, recall
