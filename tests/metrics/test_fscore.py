"""Tests for repro.metrics.fscore (Eq. 38)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.noise import shuffle_fraction_of_labels
from repro.metrics.contingency import contingency_matrix
from repro.metrics.fscore import clustering_fscore, pairwise_precision_recall

label_pairs = st.integers(2, 5).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(0, k - 1), min_size=8, max_size=40),
        st.lists(st.integers(0, k - 1), min_size=8, max_size=40)))


def fscore_by_class_loop(labels_true, labels_pred) -> float:
    """The per-class loop ``clustering_fscore`` replaced."""
    table = contingency_matrix(labels_true, labels_pred).astype(np.float64)
    n_total = float(table.sum())
    class_sizes = table.sum(axis=1)
    cluster_sizes = table.sum(axis=0)
    score = 0.0
    for j in range(table.shape[0]):
        if class_sizes[j] == 0:
            continue
        recalls = table[j] / class_sizes[j]
        precisions = np.divide(table[j], cluster_sizes,
                               out=np.zeros_like(table[j]), where=cluster_sizes > 0)
        denominator = precisions + recalls
        f_values = np.divide(2.0 * precisions * recalls, denominator,
                             out=np.zeros_like(denominator), where=denominator > 0)
        score += (class_sizes[j] / n_total) * float(f_values.max())
    return float(min(score, 1.0))


class TestClusteringFScore:
    def test_perfect_clustering_scores_one(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert clustering_fscore(labels, labels) == pytest.approx(1.0)

    def test_permuted_cluster_ids_still_score_one(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        predicted = np.array([2, 2, 0, 0, 1, 1])
        assert clustering_fscore(true, predicted) == pytest.approx(1.0)

    def test_single_cluster_prediction(self):
        # Everything in one predicted cluster: recall 1, precision = class share.
        true = np.array([0, 0, 1, 1])
        predicted = np.zeros(4, dtype=int)
        expected_f = 2 * (0.5 * 1.0) / (0.5 + 1.0)
        assert clustering_fscore(true, predicted) == pytest.approx(expected_f)

    def test_known_hand_computed_value(self):
        true = np.array([0, 0, 0, 1, 1, 1])
        predicted = np.array([0, 0, 1, 1, 1, 1])
        # class 0: best cluster 0 -> P=1, R=2/3, F=0.8
        # class 1: best cluster 1 -> P=3/4, R=1, F=6/7
        expected = 0.5 * 0.8 + 0.5 * (6.0 / 7.0)
        assert clustering_fscore(true, predicted) == pytest.approx(expected)

    @given(label_pairs)
    @settings(max_examples=40, deadline=None)
    def test_bounded_between_zero_and_one(self, pair):
        true, predicted = pair
        n = min(len(true), len(predicted))
        value = clustering_fscore(np.array(true[:n]), np.array(predicted[:n]))
        assert 0.0 <= value <= 1.0 + 1e-12

    @given(label_pairs)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_class_loop(self, pair):
        true, predicted = pair
        n = min(len(true), len(predicted))
        true, predicted = np.array(true[:n]), np.array(predicted[:n])
        assert clustering_fscore(true, predicted) == fscore_by_class_loop(
            true, predicted)

    def test_degrades_with_label_noise(self):
        rng_labels = np.repeat(np.arange(4), 25)
        mild = shuffle_fraction_of_labels(rng_labels, fraction=0.1, random_state=0)
        heavy = shuffle_fraction_of_labels(rng_labels, fraction=0.8, random_state=0)
        assert clustering_fscore(rng_labels, mild) >= clustering_fscore(rng_labels, heavy)


class TestPairwisePrecisionRecall:
    def test_perfect_agreement(self):
        labels = np.array([0, 0, 1, 1])
        precision, recall = pairwise_precision_recall(labels, labels)
        assert precision == pytest.approx(1.0)
        assert recall == pytest.approx(1.0)

    def test_all_in_one_cluster_recall_one(self):
        true = np.array([0, 0, 1, 1])
        predicted = np.zeros(4, dtype=int)
        precision, recall = pairwise_precision_recall(true, predicted)
        assert recall == pytest.approx(1.0)
        assert precision == pytest.approx(2.0 / 6.0)

    def test_singletons_have_zero_predicted_pairs(self):
        true = np.array([0, 0, 1, 1])
        predicted = np.arange(4)
        precision, recall = pairwise_precision_recall(true, predicted)
        assert precision == 0.0
        assert recall == 0.0
