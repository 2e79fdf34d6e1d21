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
                                              init="kmeans", random_state=0)
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



def zero_padded_profile(R_pairs, object_spec, index):
    """The relational profile with R's zero columns, as the reference."""
    import scipy.sparse as sp
    use_sparse = any(sp.issparse(block) for block in R_pairs.values())
    pieces = []
    for other in range(object_spec.n_types):
        block = R_pairs.get((index, other))
        if block is None:
            shape = (object_spec.sizes[index], object_spec.sizes[other])
            pieces.append(sp.csr_array(shape, dtype=np.float64) if use_sparse
                          else np.zeros(shape))
        else:
            pieces.append(block)
    if use_sparse:
        return sp.csr_array(sp.hstack(pieces, format="csr"))
    return np.hstack(pieces)


def _lonely_type_dataset(seed):
    """Two related types plus one with no relation block at all."""
    from repro.relational import MultiTypeRelationalData, ObjectType, Relation
    rng = np.random.default_rng(seed)
    types = [ObjectType("a", n_objects=30, n_clusters=3),
             ObjectType("b", n_objects=20, n_clusters=2),
             ObjectType("lonely", n_objects=12, n_clusters=3)]
    matrix = rng.random((30, 20)) * (rng.random((30, 20)) < 0.3)
    return MultiTypeRelationalData(types, [Relation("a", "b", matrix)])


@pytest.mark.parametrize("backend", ["dense", "sparse"])
class TestProfileWithoutZeroBlocks:
    """k-means G0 is the G0 of the zero-padded profile, bit for bit."""

    def _assert_same_G0(self, data, backend, seed, monkeypatch):
        import repro.core.state as state_module
        R_pairs = data.relation_blocks(normalize=True, backend=backend)
        blocks = initialize_state(data, R_pairs, random_state=seed).G_blocks
        with monkeypatch.context() as patch:
            patch.setattr(state_module, "_relational_profile",
                          zero_padded_profile)
            reference = initialize_state(data, R_pairs,
                                         random_state=seed).G_blocks
        for block, expected in zip(blocks, reference):
            assert block.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("preset", ["multi5-small", "r-top10-small"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_presets(self, preset, seed, backend, monkeypatch):
        from repro.data import make_dataset
        self._assert_same_G0(make_dataset(preset, random_state=seed),
                             backend, seed, monkeypatch)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_type_with_no_relation_block(self, seed, backend, monkeypatch):
        self._assert_same_G0(_lonely_type_dataset(seed), backend, seed,
                             monkeypatch)

    def test_profile_drops_exactly_the_zero_columns(self, backend):
        import scipy.sparse as sp
        from repro.core.state import _relational_profile
        from repro.data import make_dataset
        data = make_dataset("multi5-small", random_state=0)
        R_pairs = data.relation_blocks(normalize=True, backend=backend)
        spec = data.object_block_spec()
        for index in range(spec.n_types):
            profile = _relational_profile(R_pairs, spec, index)
            assert sp.issparse(profile) == (backend == "sparse")
            padded = zero_padded_profile(R_pairs, spec, index)
            if backend == "sparse":
                profile, padded = profile.toarray(), padded.toarray()
            keep = np.concatenate([
                np.full(size, (index, other) in R_pairs)
                for other, size in enumerate(spec.sizes)])
            np.testing.assert_array_equal(profile, padded[:, keep])
            assert not padded[:, ~keep].any()

    def test_type_with_no_relation_block_has_one_zero_column(self, backend):
        from repro.core.state import _relational_profile
        data = _lonely_type_dataset(0)
        R_pairs = data.relation_blocks(normalize=True, backend=backend)
        profile = _relational_profile(R_pairs, data.object_block_spec(), 2)
        np.testing.assert_array_equal(profile, np.zeros((12, 1)))
