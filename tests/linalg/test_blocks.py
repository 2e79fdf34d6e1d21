"""Tests for repro.linalg.blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.blocks import BlockSpec


class TestBlockSpec:
    def test_offsets_and_total(self):
        spec = BlockSpec((3, 5, 2))
        assert spec.offsets == (0, 3, 8, 10)
        assert spec.total == 10
        assert spec.n_types == 3

    def test_slice(self):
        spec = BlockSpec((3, 5))
        assert spec.slice(1) == slice(3, 8)

    def test_slice_out_of_range(self):
        with pytest.raises(IndexError):
            BlockSpec((3,)).slice(1)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            BlockSpec((3, 0))
        with pytest.raises(ValueError):
            BlockSpec(())

    def test_type_of_index(self):
        spec = BlockSpec((2, 3))
        assert spec.type_of_index(0) == 0
        assert spec.type_of_index(1) == 0
        assert spec.type_of_index(2) == 1
        assert spec.type_of_index(4) == 1
        with pytest.raises(IndexError):
            spec.type_of_index(5)

    def test_block_extraction(self):
        spec = BlockSpec((2, 2))
        matrix = np.arange(16).reshape(4, 4)
        np.testing.assert_array_equal(spec.block(matrix, 0, 1), [[2, 3], [6, 7]])

    def test_block_extraction_shape_mismatch(self):
        spec = BlockSpec((2, 2))
        with pytest.raises(ValueError):
            spec.block(np.zeros((3, 3)), 0, 0)
