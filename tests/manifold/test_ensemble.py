"""Tests for repro.manifold.ensemble (heterogeneous manifold ensemble)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.manifold.ensemble import HeterogeneousManifoldEnsemble


class TestHeterogeneousEnsemble:
    def test_block_diagonal_structure(self, tiny_dataset):
        # L is block diagonal by type: one (n_t, n_t) block per type, the
        # off-diagonal blocks never exist.
        ensemble = HeterogeneousManifoldEnsemble(alpha=1.0, gamma=10.0, p=3)
        L_blocks = ensemble.build_blocks(tiny_dataset)
        assert [L.shape for L in L_blocks] == [
            (t.n_objects, t.n_objects) for t in tiny_dataset.types]

    def test_symmetric_and_psd_blocks(self, tiny_dataset):
        ensemble = HeterogeneousManifoldEnsemble(alpha=0.5, gamma=10.0, p=3)
        for L in ensemble.build_blocks(tiny_dataset):
            np.testing.assert_allclose(L, L.T, atol=1e-8)
            eigenvalues = np.linalg.eigvalsh((L + L.T) / 2)
            assert eigenvalues.min() >= -1e-6

    def test_members_recorded_per_type(self, tiny_dataset):
        ensemble = HeterogeneousManifoldEnsemble(alpha=1.0, gamma=10.0, p=3)
        ensemble.build_blocks(tiny_dataset)
        assert len(ensemble.members_) == tiny_dataset.n_types
        for member in ensemble.members_:
            assert member.combined.shape[0] == member.combined.shape[1]
            assert member.subspace is not None
            assert member.pnn is not None

    def test_alpha_zero_equals_pnn_only(self, tiny_dataset):
        hetero = HeterogeneousManifoldEnsemble(alpha=0.0, p=3, use_subspace=True,
                                               use_pnn=True)
        pnn_only = HeterogeneousManifoldEnsemble(p=3, use_subspace=False)
        for alpha_zero, pnn in zip(hetero.build_blocks(tiny_dataset),
                                   pnn_only.build_blocks(tiny_dataset)):
            np.testing.assert_allclose(alpha_zero, pnn, atol=1e-10)

    def test_alpha_scales_subspace_member(self, tiny_dataset):
        small = HeterogeneousManifoldEnsemble(alpha=0.5, gamma=10.0, p=3)
        large = HeterogeneousManifoldEnsemble(alpha=2.0, gamma=10.0, p=3)
        # The pNN member is shared; the difference is (2.0 - 0.5) * L_S per type.
        for L_small, L_large in zip(small.build_blocks(tiny_dataset),
                                    large.build_blocks(tiny_dataset)):
            assert np.abs(L_large - L_small).sum() > 0

    def test_type_without_features_gets_zero_block(self):
        import numpy as np
        import scipy.sparse as sp
        from repro.relational.dataset import MultiTypeRelationalData
        from repro.relational.types import ObjectType, Relation
        rng = np.random.default_rng(0)
        docs = ObjectType("documents", n_objects=8, n_clusters=2,
                          features=rng.random((8, 4)))
        terms = ObjectType("terms", n_objects=5, n_clusters=2)  # no features
        data = MultiTypeRelationalData(
            [docs, terms], [Relation("documents", "terms", rng.random((8, 5)))])
        ensemble = HeterogeneousManifoldEnsemble(alpha=1.0, gamma=10.0, p=3)
        L_blocks = ensemble.build_blocks(data)
        # The zero block is CSR even under the dense backend.
        assert ensemble.resolved_backend_ == "dense"
        assert isinstance(L_blocks[1], sp.csr_array)
        np.testing.assert_allclose(L_blocks[1].toarray(), 0.0)
        assert L_blocks[1].shape == (5, 5)

    def test_featureless_type_allocates_no_square_array(self):
        # A dense (n, n) zero block would allocate n² doubles (32 MB here).
        n = 2000
        ensemble = HeterogeneousManifoldEnsemble(backend="dense")
        tracemalloc.start()
        try:
            member = ensemble.build_for_type("hub", None, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert member.combined.shape == (n, n)
        assert peak < n * n * 8 // 100, peak

    def test_featureless_type_spectral_summary_unchanged(self):
        # A diagnostics fit reports the featureless type exactly as it did
        # when the block was a dense array of zeros: the degenerate sentinel.
        from repro.core import RHCHME
        from repro.diagnostics import spectral_block_metrics
        from repro.relational.dataset import MultiTypeRelationalData
        from repro.relational.types import ObjectType, Relation
        rng = np.random.default_rng(0)
        docs = ObjectType("documents", n_objects=30, n_clusters=2,
                          features=rng.random((30, 4)))
        hub = ObjectType("hub", n_objects=12, n_clusters=2)  # no features
        data = MultiTypeRelationalData(
            [docs, hub], [Relation("documents", "hub", rng.random((30, 12)))])
        result = RHCHME(max_iter=3, random_state=0, diagnostics=True,
                        backend="dense", track_metrics_every=0).fit(data)
        spectral = result.extras["diagnostics"]["spectral"]
        assert spectral["hub"] == spectral_block_metrics(
            np.zeros((12, 12)), type_name="hub").as_dict()
        assert spectral["hub"]["degenerate"] is True
        assert spectral["documents"]["degenerate"] is False

    def test_both_members_disabled_rejected(self):
        with pytest.raises(ValueError):
            HeterogeneousManifoldEnsemble(use_subspace=False, use_pnn=False)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(Exception):
            HeterogeneousManifoldEnsemble(alpha=-1.0)


class TestEnsembleBackend:
    def test_sparse_build_matches_dense(self, tiny_dataset):
        import scipy.sparse as sp
        kwargs = dict(use_subspace=False, use_pnn=True, p=3)
        dense = HeterogeneousManifoldEnsemble(backend="dense", **kwargs
                                              ).build_blocks(tiny_dataset)
        sparse = HeterogeneousManifoldEnsemble(backend="sparse", **kwargs
                                               ).build_blocks(tiny_dataset)
        for sparse_block, dense_block in zip(sparse, dense):
            assert sp.issparse(sparse_block)
            np.testing.assert_allclose(sparse_block.toarray(), dense_block,
                                       atol=1e-12)

    def test_auto_backend_resolves_dense_for_tiny_data(self, tiny_dataset):
        import scipy.sparse as sp
        ensemble = HeterogeneousManifoldEnsemble(use_subspace=False, use_pnn=True,
                                                 p=3, backend="auto")
        assert not any(sp.issparse(L) for L in ensemble.build_blocks(tiny_dataset))

    def test_featureless_type_contributes_sparse_zero_block(self):
        import scipy.sparse as sp
        ensemble = HeterogeneousManifoldEnsemble(use_subspace=False, use_pnn=True,
                                                 backend="sparse")
        member = ensemble.build_for_type("no-features", None, 7)
        assert sp.issparse(member.combined)
        assert member.combined.shape == (7, 7)
        assert member.combined.nnz == 0

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            HeterogeneousManifoldEnsemble(backend="bogus")


class TestAutoBackendResolution:
    def test_auto_stays_dense_while_subspace_member_active(self):
        ensemble = HeterogeneousManifoldEnsemble(alpha=1.0, use_subspace=True,
                                                 use_pnn=True, backend="auto")
        assert ensemble.resolve(10_000) == "dense"

    def test_auto_goes_sparse_for_pnn_only_at_scale(self):
        ensemble = HeterogeneousManifoldEnsemble(use_subspace=False, use_pnn=True,
                                                 backend="auto")
        assert ensemble.resolve(10_000) == "sparse"
        assert ensemble.resolve(100) == "dense"

    def test_explicit_backend_wins_over_subspace_guard(self):
        ensemble = HeterogeneousManifoldEnsemble(alpha=1.0, use_subspace=True,
                                                 use_pnn=True, backend="sparse")
        assert ensemble.resolve(100) == "sparse"


class TestResolvedBackendRecording:
    def test_build_records_resolved_backend(self, tiny_dataset):
        ensemble = HeterogeneousManifoldEnsemble(use_subspace=False, use_pnn=True,
                                                 p=3, backend="auto")
        assert ensemble.resolved_backend_ is None
        ensemble.build_blocks(tiny_dataset)
        assert ensemble.resolved_backend_ == "dense"
