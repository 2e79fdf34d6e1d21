"""Tests for repro.cluster.assignments."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.assignments import (
    labels_to_membership,
    membership_to_labels,
    one_hot_membership,
    relabel_consecutive,
)

label_lists = st.lists(st.integers(0, 5), min_size=1, max_size=40)
#: Negative, sparse and large ids: arbitrary values, not cluster indices.
raw_label_lists = st.lists(
    st.one_of(st.integers(-7, 7), st.sampled_from([-(2**40), 10**6, 2**40])),
    min_size=1, max_size=60)


def relabel_by_loop(labels) -> np.ndarray:
    """The per-element dict loop ``relabel_consecutive`` replaced."""
    labels = np.asarray(labels, dtype=np.int64)
    mapping: dict[int, int] = {}
    out = np.empty_like(labels)
    for index, value in enumerate(labels):
        key = int(value)
        if key not in mapping:
            mapping[key] = len(mapping)
        out[index] = mapping[key]
    return out


class TestOneHot:
    def test_round_trip(self):
        labels = np.array([0, 2, 1, 2, 0])
        membership = one_hot_membership(labels)
        np.testing.assert_array_equal(membership_to_labels(membership), labels)

    def test_explicit_cluster_count(self):
        membership = one_hot_membership(np.array([0, 1]), n_clusters=4)
        assert membership.shape == (2, 4)

    def test_rows_sum_to_one(self):
        membership = one_hot_membership(np.array([0, 1, 1, 0]))
        np.testing.assert_allclose(membership.sum(axis=1), 1.0)

    def test_label_exceeding_cluster_count_rejected(self):
        with pytest.raises(ValueError):
            one_hot_membership(np.array([0, 3]), n_clusters=2)

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            one_hot_membership(np.array([-1, 0]))

    @given(label_lists)
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, labels):
        labels = np.asarray(labels)
        recovered = membership_to_labels(one_hot_membership(labels))
        np.testing.assert_array_equal(recovered, labels)


class TestSmoothedMembership:
    def test_smoothing_keeps_argmax(self):
        labels = np.array([0, 1, 2, 1])
        membership = labels_to_membership(labels, smoothing=0.1, random_state=0)
        np.testing.assert_array_equal(membership_to_labels(membership), labels)

    def test_smoothed_rows_sum_to_one(self):
        membership = labels_to_membership(np.array([0, 1]), smoothing=0.3,
                                          random_state=0)
        np.testing.assert_allclose(membership.sum(axis=1), 1.0)

    def test_smoothed_entries_strictly_positive(self):
        membership = labels_to_membership(np.array([0, 1, 0]), n_clusters=3,
                                          smoothing=0.2, random_state=0)
        assert np.all(membership > 0)

    def test_no_smoothing_equals_one_hot(self):
        labels = np.array([1, 0, 1])
        np.testing.assert_allclose(labels_to_membership(labels),
                                   one_hot_membership(labels))


class TestRelabelConsecutive:
    def test_consecutive_output(self):
        labels = np.array([10, 10, 3, 7, 3])
        relabelled = relabel_consecutive(labels)
        np.testing.assert_array_equal(relabelled, [0, 0, 1, 2, 1])

    def test_preserves_partition(self):
        labels = np.array([5, 9, 5, 2, 9])
        relabelled = relabel_consecutive(labels)
        for value in np.unique(labels):
            mask = labels == value
            assert len(np.unique(relabelled[mask])) == 1

    @given(raw_label_lists)
    @settings(max_examples=60, deadline=None)
    def test_matches_first_appearance_loop(self, labels):
        relabelled = relabel_consecutive(np.asarray(labels))
        expected = relabel_by_loop(labels)
        assert relabelled.dtype == expected.dtype
        np.testing.assert_array_equal(relabelled, expected)

    @given(label_lists)
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, labels):
        once = relabel_consecutive(np.asarray(labels))
        twice = relabel_consecutive(once)
        np.testing.assert_array_equal(once, twice)
