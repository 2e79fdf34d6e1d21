"""Tests for repro.core.state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import (FactorizationState, initialize_membership_blocks,
                              initialize_state, warm_start_state)
from repro.exceptions import ShapeError
from repro.linalg.rowsparse import RowSparseMatrix


class TestInitializeState:
    def test_shapes(self, tiny_dataset):
        R_pairs = tiny_dataset.relation_blocks()
        state = initialize_state(tiny_dataset, R_pairs, random_state=0)
        n = tiny_dataset.n_objects_total
        c = tiny_dataset.n_clusters_total
        assert len(state.G_blocks) == tiny_dataset.n_types
        assert state.S.shape == (c, c)
        assert state.E_R.shape == (n, n)

    def test_error_matrix_starts_at_zero(self, tiny_dataset):
        R_pairs = tiny_dataset.relation_blocks()
        state = initialize_state(tiny_dataset, R_pairs, random_state=0)
        np.testing.assert_allclose(state.E_R, 0.0)

    def test_G_is_block_diagonal(self, tiny_dataset):
        # G is stored as one (n_t, c_t) block per type: the stacked matrix's
        # off-diagonal blocks do not exist.
        R_pairs = tiny_dataset.relation_blocks()
        state = initialize_state(tiny_dataset, R_pairs, random_state=0)
        expected = [(t.n_objects, t.n_clusters) for t in tiny_dataset.types]
        assert [block.shape for block in state.G_blocks] == expected
        with pytest.raises(ShapeError):
            FactorizationState(G_blocks=state.G_blocks[::-1], S=state.S,
                               object_spec=state.object_spec,
                               cluster_spec=state.cluster_spec)

    def test_G_rows_l1_normalised(self, tiny_dataset):
        R_pairs = tiny_dataset.relation_blocks()
        state = initialize_state(tiny_dataset, R_pairs, random_state=0)
        for block in state.G_blocks:
            np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-9)

    def test_kmeans_init_blocks_strictly_positive_within_block(self, tiny_dataset):
        R_pairs = tiny_dataset.relation_blocks()
        blocks = initialize_membership_blocks(tiny_dataset, R_pairs,
                                              init="kmeans", smoothing=0.2,
                                              random_state=0)
        for block in blocks:
            assert np.all(block > 0)

    def test_random_init(self, tiny_dataset):
        R_pairs = tiny_dataset.relation_blocks()
        state = initialize_state(tiny_dataset, R_pairs, init="random",
                                 random_state=0)
        for block in state.G_blocks:
            assert np.all(block >= 0)
            np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_with_seed(self, tiny_dataset):
        R_pairs = tiny_dataset.relation_blocks()
        a = initialize_state(tiny_dataset, R_pairs, random_state=3)
        b = initialize_state(tiny_dataset, R_pairs, random_state=3)
        for block_a, block_b in zip(a.G_blocks, b.G_blocks):
            np.testing.assert_allclose(block_a, block_b)

    def test_labels_for_type(self, tiny_dataset):
        R_pairs = tiny_dataset.relation_blocks()
        state = initialize_state(tiny_dataset, R_pairs, random_state=0)
        labels = state.labels_for_type(0)
        assert labels.shape == (tiny_dataset.types[0].n_objects,)
        assert labels.max() < tiny_dataset.types[0].n_clusters

    def test_copy_is_independent(self, tiny_dataset):
        R_pairs = tiny_dataset.relation_blocks()
        state = initialize_state(tiny_dataset, R_pairs, random_state=0)
        clone = state.copy()
        for block in clone.G_blocks:
            block[:] = 0.0
        assert sum(block.sum() for block in state.G_blocks) > 0
        assert sum(block.sum() for block in clone.G_blocks) == 0.0


class TestRowSparseErrorMatrix:
    """E_R has one representation: row-sparse (or None), never dense."""

    def test_initial_error_matrix_stores_no_rows(self, tiny_dataset):
        for backend in ("dense", "sparse"):
            R_pairs = tiny_dataset.relation_blocks(backend=backend)
            state = initialize_state(tiny_dataset, R_pairs, random_state=0)
            assert isinstance(state.E_R, RowSparseMatrix)
            assert state.E_R.is_zero

    def test_warm_start_compresses_dense_error_matrix(self, tiny_dataset):
        n = tiny_dataset.n_objects_total
        dense = np.zeros((n, n))
        dense[[2, 7]] = np.arange(2 * n, dtype=float).reshape(2, n) + 1.0
        blocks = {t.name: np.ones((t.n_objects, t.n_clusters))
                  for t in tiny_dataset.types}
        state = warm_start_state(tiny_dataset, blocks, error_matrix=dense)
        assert isinstance(state.E_R, RowSparseMatrix)
        np.testing.assert_array_equal(state.E_R.rows, [2, 7])
        np.testing.assert_array_equal(state.E_R.to_dense(), dense)
        with pytest.raises(ShapeError):
            warm_start_state(tiny_dataset, blocks,
                             error_matrix=np.zeros((n, n + 1)))

    def test_assigned_dense_error_matrix_is_compressed(self, tiny_dataset):
        R_pairs = tiny_dataset.relation_blocks()
        state = initialize_state(tiny_dataset, R_pairs, random_state=0)
        n = tiny_dataset.n_objects_total
        dense = np.zeros((n, n))
        dense[4, 1] = 3.0
        state.E_R = dense
        assert isinstance(state.E_R, RowSparseMatrix)
        np.testing.assert_array_equal(state.E_R.rows, [4])
        state.E_R = None
        assert state.E_R is None

