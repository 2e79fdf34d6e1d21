"""Tests for repro.linalg.projections."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg.projections import (
    project_box,
    project_nonnegative,
    project_nonnegative_zero_diagonal,
    project_simplex,
    project_simplex_rows,
)

vectors = arrays(np.float64, (6,), elements=st.floats(-10, 10, allow_nan=False))
square_matrices = arrays(np.float64, (5, 5),
                         elements=st.floats(-10, 10, allow_nan=False))


class TestNonnegativeProjections:
    def test_project_nonnegative_clips(self):
        np.testing.assert_allclose(project_nonnegative(np.array([-1.0, 2.0])), [0.0, 2.0])

    @given(square_matrices)
    @settings(max_examples=25, deadline=None)
    def test_zero_diag_projection_feasible(self, matrix):
        projected = project_nonnegative_zero_diagonal(matrix)
        assert np.all(projected >= 0)
        np.testing.assert_allclose(np.diag(projected), 0.0)

    @given(square_matrices)
    @settings(max_examples=25, deadline=None)
    def test_zero_diag_projection_idempotent(self, matrix):
        once = project_nonnegative_zero_diagonal(matrix)
        twice = project_nonnegative_zero_diagonal(once)
        np.testing.assert_allclose(once, twice)

    @given(square_matrices)
    @settings(max_examples=25, deadline=None)
    def test_zero_diag_projection_in_place(self, matrix):
        expected = project_nonnegative_zero_diagonal(matrix)
        buffer = matrix.copy()
        result = project_nonnegative_zero_diagonal(buffer, out=buffer)
        assert result is buffer
        np.testing.assert_array_equal(buffer, expected)

    def test_zero_diag_requires_square(self):
        with pytest.raises(ValueError):
            project_nonnegative_zero_diagonal(np.ones((2, 3)))


class TestBoxProjection:
    def test_clips_both_sides(self):
        result = project_box(np.array([-5.0, 0.5, 7.0]), 0.0, 1.0)
        np.testing.assert_allclose(result, [0.0, 0.5, 1.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            project_box(np.zeros(2), 1.0, 0.0)


class TestSimplexProjection:
    @given(vectors)
    @settings(max_examples=40, deadline=None)
    def test_result_on_simplex(self, vector):
        projected = project_simplex(vector)
        assert np.all(projected >= -1e-12)
        assert projected.sum() == pytest.approx(1.0, abs=1e-9)

    def test_already_on_simplex_unchanged(self):
        vector = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_simplex(vector), vector, atol=1e-12)

    def test_single_dominant_entry(self):
        projected = project_simplex(np.array([10.0, 0.0, 0.0]))
        np.testing.assert_allclose(projected, [1.0, 0.0, 0.0], atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([]))

    def test_rows_variant_projects_each_row(self):
        matrix = np.array([[2.0, 0.0], [0.0, 3.0]])
        projected = project_simplex_rows(matrix)
        np.testing.assert_allclose(projected.sum(axis=1), [1.0, 1.0])

    def test_rows_variant_accepts_vector(self):
        projected = project_simplex_rows(np.array([5.0, 1.0]))
        assert projected.sum() == pytest.approx(1.0)
