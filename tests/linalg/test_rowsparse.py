"""Tests for repro.linalg.rowsparse (the row-sparse E_R representation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.norms import frobenius_norm, l21_norm, row_l2_norms
from repro.linalg.rowsparse import RowSparseMatrix


@pytest.fixture
def example(rng):
    """A (8, 5) matrix with three non-zero rows, in both representations."""
    dense = np.zeros((8, 5))
    rows = np.array([1, 4, 6])
    values = rng.normal(size=(3, 5))
    dense[rows] = values
    return RowSparseMatrix(rows, values, dense.shape), dense


class TestConstruction:
    def test_round_trips_to_dense(self, example):
        matrix, dense = example
        np.testing.assert_array_equal(matrix.to_dense(), dense)
        np.testing.assert_array_equal(np.asarray(matrix), dense)

    def test_from_dense_drops_zero_rows(self, example):
        _, dense = example
        compressed = RowSparseMatrix.from_dense(dense)
        assert compressed.n_stored_rows == 3
        np.testing.assert_array_equal(compressed.to_dense(), dense)

    def test_from_dense_tolerance_drops_small_rows(self, example):
        _, dense = example
        tiny = dense.copy()
        tiny[0] = 1e-12
        compressed = RowSparseMatrix.from_dense(tiny, tol=1e-6)
        assert 0 not in compressed.rows

    def test_zeros_has_no_rows(self):
        matrix = RowSparseMatrix.zeros((6, 4))
        assert matrix.is_zero
        assert matrix.nnz == 0
        np.testing.assert_array_equal(matrix.to_dense(), np.zeros((6, 4)))

    def test_copy_is_independent(self, example):
        matrix, _ = example
        clone = matrix.copy()
        clone.values[0, 0] += 1.0
        assert matrix.values[0, 0] != clone.values[0, 0]

    def test_rejects_unsorted_rows(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RowSparseMatrix([3, 1], np.ones((2, 4)), (5, 4))

    def test_rejects_out_of_range_rows(self):
        with pytest.raises(ValueError, match="row indices"):
            RowSparseMatrix([7], np.ones((1, 4)), (5, 4))

    def test_rejects_mismatched_values(self):
        with pytest.raises(ValueError, match="values"):
            RowSparseMatrix([1], np.ones((2, 4)), (5, 4))


class TestNorms:
    def test_row_norms_match_dense(self, example):
        matrix, dense = example
        np.testing.assert_allclose(matrix.row_norms(),
                                   np.linalg.norm(dense, axis=1))
        np.testing.assert_allclose(row_l2_norms(matrix),
                                   np.linalg.norm(dense, axis=1))

    def test_frobenius_and_l21_match_dense(self, example):
        matrix, dense = example
        np.testing.assert_allclose(frobenius_norm(matrix),
                                   np.linalg.norm(dense))
        np.testing.assert_allclose(l21_norm(matrix),
                                   float(np.sum(np.linalg.norm(dense, axis=1))))


class TestBlockSlicing:
    def test_block_matches_dense_slice(self, example):
        matrix, dense = example
        n_rows, n_cols = matrix.shape
        for rows, cols in [(slice(0, n_rows), slice(0, n_cols)),
                           (slice(1, n_rows - 1), slice(2, n_cols)),
                           (slice(0, 1), slice(0, 2))]:
            block = matrix.block(rows, cols)
            np.testing.assert_array_equal(np.asarray(block),
                                          dense[rows, cols])

    def test_block_shares_value_storage(self, example):
        matrix, _ = example
        block = matrix.block(slice(0, matrix.shape[0]),
                             slice(0, matrix.shape[1]))
        if block.values.size:
            assert np.shares_memory(block.values, matrix.values)

    def test_block_of_zero_matrix_is_zero(self):
        zero = RowSparseMatrix.zeros((6, 4))
        block = zero.block(slice(2, 5), slice(1, 3))
        assert block.shape == (3, 2)
        assert block.is_zero
