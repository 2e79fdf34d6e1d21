"""Tests for repro.linalg.backend."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg.backend import (
    AUTO_SPARSE_THRESHOLD,
    BACKENDS,
    as_csr,
    check_backend,
    is_sparse,
    resolve_backend,
    to_backend,
    to_dense,
)


class TestCheckBackend:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_valid_names_pass_through(self, name):
        assert check_backend(name) == name

    @pytest.mark.parametrize("name", ["csr", "numpy", "", "Dense", None])
    def test_invalid_names_raise(self, name):
        with pytest.raises(ValueError):
            check_backend(name)


class TestResolveBackend:
    def test_concrete_backends_unchanged_by_size(self):
        assert resolve_backend("dense", n_objects=10**6) == "dense"
        assert resolve_backend("sparse", n_objects=3) == "sparse"

    def test_auto_switches_at_threshold(self):
        assert resolve_backend("auto", n_objects=AUTO_SPARSE_THRESHOLD - 1) == "dense"
        assert resolve_backend("auto", n_objects=AUTO_SPARSE_THRESHOLD) == "sparse"

    def test_auto_custom_threshold(self):
        assert resolve_backend("auto", n_objects=10, threshold=5) == "sparse"
        assert resolve_backend("auto", n_objects=10, threshold=50) == "dense"


class TestConversions:
    def test_is_sparse(self):
        assert is_sparse(sp.csr_array(np.eye(3)))
        assert not is_sparse(np.eye(3))

    def test_as_csr_round_trip(self):
        dense = np.array([[0.0, 1.5], [2.0, 0.0]])
        csr = as_csr(dense)
        assert sp.issparse(csr)
        np.testing.assert_allclose(csr.toarray(), dense)
        # already-sparse input stays sparse and float64
        again = as_csr(sp.coo_array(dense))
        assert again.dtype == np.float64
        np.testing.assert_allclose(again.toarray(), dense)

    def test_to_dense(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(to_dense(sp.csr_array(dense)), dense)
        np.testing.assert_allclose(to_dense(dense), dense)

    def test_to_backend_dispatch(self):
        dense = np.eye(4)
        assert is_sparse(to_backend(dense, "sparse"))
        assert isinstance(to_backend(sp.csr_array(dense), "dense"), np.ndarray)

    def test_to_backend_rejects_auto(self):
        with pytest.raises(ValueError):
            to_backend(np.eye(2), "auto")
