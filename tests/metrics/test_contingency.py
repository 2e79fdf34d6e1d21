"""Tests for repro.metrics.contingency."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._validation import check_labels
from repro.cluster.assignments import relabel_consecutive
from repro.metrics.contingency import contingency_matrix
from repro.metrics.fscore import clustering_fscore
from repro.metrics.nmi import normalized_mutual_information

#: Label values with negatives and gaps, drawn in an order whose first
#: appearances are not sorted.
raw_values = st.sampled_from([-9, -2, 0, 3, 7, 40, 10**6])
label_pairs = st.integers(1, 60).flatmap(
    lambda n: st.tuples(st.lists(raw_values, min_size=n, max_size=n),
                        st.lists(raw_values, min_size=n, max_size=n)))


def contingency_by_add_at(labels_true, labels_pred) -> np.ndarray:
    """The implementation the single-check ``bincount`` table replaced."""
    labels_true = check_labels(labels_true, name="labels_true")
    labels_pred = check_labels(labels_pred, name="labels_pred",
                               n_samples=labels_true.size)
    labels_true = relabel_consecutive(labels_true)
    labels_pred = relabel_consecutive(labels_pred)
    n_classes = int(labels_true.max()) + 1
    n_clusters = int(labels_pred.max()) + 1
    table = np.zeros((n_classes, n_clusters), dtype=np.int64)
    np.add.at(table, (labels_true, labels_pred), 1)
    return table


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestContingencyMatrix:
    def test_identity_partition_is_diagonal(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        table = contingency_matrix(labels, labels)
        np.testing.assert_array_equal(table, 2 * np.eye(3, dtype=int))

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, size=50)
        b = rng.integers(0, 3, size=50)
        assert contingency_matrix(a, b).sum() == 50

    def test_arbitrary_label_values_handled(self):
        a = np.array([10, 10, 77, 77])
        b = np.array([3, 3, 5, 5])
        table = contingency_matrix(a, b)
        assert table.shape == (2, 2)
        np.testing.assert_array_equal(table, [[2, 0], [0, 2]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(Exception):
            contingency_matrix([0, 1], [0, 1, 2])

    def test_marginals_match_class_sizes(self):
        a = np.array([0, 0, 0, 1, 1])
        b = np.array([1, 0, 1, 0, 0])
        table = contingency_matrix(a, b)
        np.testing.assert_array_equal(table.sum(axis=1), [3, 2])

    def test_rows_and_columns_follow_first_appearance(self):
        table = contingency_matrix([5, -1, 5, 2], [7, 7, -3, -3])
        np.testing.assert_array_equal(table, [[1, 1], [1, 0], [0, 1]])


class TestMatchesAddAtReference:
    @settings(max_examples=80, deadline=None)
    @given(label_pairs)
    def test_tables_and_scores_identical(self, pair):
        labels_true, labels_pred = (np.asarray(v) for v in pair)
        table = contingency_matrix(labels_true, labels_pred)
        reference = contingency_by_add_at(labels_true, labels_pred)
        assert table.dtype == reference.dtype
        np.testing.assert_array_equal(table, reference)
        fscore = clustering_fscore(labels_true, labels_pred)
        nmi = normalized_mutual_information(labels_true, labels_pred)
        with mock.patch("repro.metrics.fscore.contingency_matrix",
                        contingency_by_add_at), \
                mock.patch("repro.metrics.nmi.contingency_matrix",
                           contingency_by_add_at):
            assert _bits(clustering_fscore(labels_true, labels_pred)) \
                == _bits(fscore)
            assert _bits(normalized_mutual_information(
                labels_true, labels_pred)) == _bits(nmi)
