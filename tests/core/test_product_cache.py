"""Tests for the per-fit product cache of repro.core.rspace.

A fit shares one :class:`ProductCache` across the S, G and E_R steps and
the objective; every kernel called without one builds a private cache.
Sharing must change nothing but the work done: factors stay bit-identical
to a fit whose every kernel call starts from an empty cache.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.rhchme as rhchme_module
from repro.core import RHCHME, DirtySet
from repro.core.rspace import ProductCache
from repro.data import make_dataset
from repro.graph.laplacian import unnormalized_laplacian
from repro.linalg.blocks import BlockSpec
from repro.linalg.rowsparse import RowSparseMatrix

KERNELS = ("update_association_blocks", "update_membership_blocks",
           "update_error_matrix_blocks", "evaluate_objective_blocks")


@pytest.fixture(scope="module")
def data():
    return make_dataset("multi5-small", random_state=0)


def _config(backend, regime):
    errors = ({"beta": 0.3} if regime == "beta-0.3"
              else {"use_error_matrix": False})
    return dict(max_iter=8, random_state=0, use_subspace_member=False,
                track_metrics_every=0, backend=backend, **errors)


def _fit(data, config, mode):
    """A cold fit, or a delta-scheduled refresh warm-started from one."""
    result = RHCHME(**config).fit(data)
    if mode == "cold":
        return result
    return RHCHME(**config).fit(
        data, warm_start=result.state,
        dirty=DirtySet(types={data.type_names[0]}))


def _without_shared_cache(monkeypatch):
    """Make every kernel call of a fit build its own private cache."""
    for name in KERNELS:
        kernel = getattr(rhchme_module, name)

        def private(*args, _kernel=kernel, products=None, **kwargs):
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(rhchme_module, name, private)


class TestSharedCacheParity:
    @pytest.mark.parametrize("mode", ["cold", "delta"])
    @pytest.mark.parametrize("regime", ["beta-0.3", "errors-off"])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_shared_fit_matches_private_caches(self, data, monkeypatch,
                                               backend, regime, mode):
        config = _config(backend, regime)
        shared = _fit(data, config, mode)
        with monkeypatch.context() as patch:
            _without_shared_cache(patch)
            private = _fit(data, config, mode)
        assert shared.extras["backend"] == backend
        for a, b in zip(shared.state.G_blocks, private.state.G_blocks):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(shared.state.S, private.state.S)
        E_shared, E_private = shared.state.E_R, private.state.E_R
        np.testing.assert_array_equal(E_shared.rows, E_private.rows)
        np.testing.assert_array_equal(E_shared.values, E_private.values)
        if regime == "beta-0.3":
            assert E_shared.n_stored_rows > 0
        np.testing.assert_allclose(shared.trace.objectives,
                                   private.trace.objectives, rtol=1e-10)


class TestRelationProductReuse:
    def test_frozen_block_product_computed_once_per_refresh(
            self, data, monkeypatch):
        caches = []

        class SpyCache(ProductCache):
            """Records the ``G_u`` of every ``R_tu G_u`` it computes."""

            def __init__(self):
                super().__init__()
                self.computed = []
                self.formed = {}  # id -> product, kept alive
                caches.append(self)

            def bind(self, R_pairs, pairs, state):
                self.state = state
                return super().bind(R_pairs, pairs, state)

            def relation_product(self, pair):
                product = super().relation_product(pair)
                if product is not None and id(product) not in self.formed:
                    self.formed[id(product)] = product
                    self.computed.append(
                        (pair, self.state.G_blocks[pair[1]]))
                return product

        config = _config("dense", "beta-0.3")
        base = RHCHME(**config).fit(data)
        monkeypatch.setattr(rhchme_module, "ProductCache", SpyCache)
        dirty = 0
        result = RHCHME(**config).fit(
            data, warm_start=base.state,
            dirty=DirtySet(types={data.type_names[dirty]}))
        (cache,) = caches
        by_pair: dict = {}
        for pair, G_u in cache.computed:
            by_pair.setdefault(pair, []).append(G_u)
        assert len(by_pair) == 6
        for (t, u), operands in by_pair.items():
            if u == dirty:
                # Replaced every G step: one product per G iterate.
                assert len(operands) == result.n_iterations + 1
                assert len({id(G_u) for G_u in operands}) == len(operands)
            else:
                # Frozen for the whole refresh: one product.
                assert len(operands) == 1
                assert operands[0] is result.state.G_blocks[u]


class TestProductCache:
    def test_empty_error_matrix_yields_no_views(self):
        spec = BlockSpec((3, 4))
        products = ProductCache()
        assert products.error_block(None, spec, (0, 1)) is None
        assert products.error_block(RowSparseMatrix.zeros((7, 7)), spec,
                                    (0, 1)) is None

    @pytest.mark.parametrize("sparse", [False, True])
    def test_laplacian_shortcuts_equal_the_matrix_product(self, rng, sparse):
        # A Laplacian's L⁺ takes the diagonal shortcut and its L⁻ the
        # matrix product; both parts of an all-zero L give None.
        affinity = rng.random((9, 9))
        affinity = (affinity + affinity.T) / 2
        np.fill_diagonal(affinity, 0.0)
        G_t = rng.random((9, 3))
        for index, L in enumerate((unnormalized_laplacian(affinity),
                                   np.zeros((9, 9)))):
            L = sp.csr_array(L) if sparse else L
            products = ProductCache()
            parts = products.laplacian_parts(index, L)
            for part, product in zip(parts, products.laplacian_products(
                    index, parts, G_t)):
                expected = np.asarray(part @ G_t)
                if product is None:
                    assert not expected.any()
                else:
                    np.testing.assert_array_equal(product, expected)
