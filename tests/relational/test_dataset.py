"""Tests for repro.relational.dataset (MultiTypeRelationalData)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.relational.dataset import MultiTypeRelationalData
from repro.relational.types import ObjectType, Relation


@pytest.fixture
def three_type_data() -> MultiTypeRelationalData:
    rng = np.random.default_rng(0)
    docs = ObjectType("documents", n_objects=6, n_clusters=2,
                      labels=np.array([0, 0, 0, 1, 1, 1]))
    terms = ObjectType("terms", n_objects=4, n_clusters=2,
                       labels=np.array([0, 0, 1, 1]))
    concepts = ObjectType("concepts", n_objects=3, n_clusters=2,
                          labels=np.array([0, 1, 1]))
    relations = [
        Relation("documents", "terms", rng.random((6, 4))),
        Relation("documents", "concepts", rng.random((6, 3))),
        Relation("terms", "concepts", rng.random((4, 3))),
    ]
    return MultiTypeRelationalData([docs, terms, concepts], relations)


def _dense(block) -> np.ndarray:
    return block.toarray() if sp.issparse(block) else np.asarray(block)


class TestConstruction:
    def test_basic_properties(self, three_type_data):
        data = three_type_data
        assert data.n_types == 3
        assert data.n_objects_total == 13
        assert data.n_clusters_total == 6
        assert data.type_names == ["documents", "terms", "concepts"]

    def test_needs_two_types(self):
        docs = ObjectType("documents", n_objects=3, n_clusters=2)
        with pytest.raises(ValidationError):
            MultiTypeRelationalData([docs], [])

    def test_duplicate_type_names_rejected(self):
        a = ObjectType("documents", n_objects=3, n_clusters=2)
        b = ObjectType("documents", n_objects=4, n_clusters=2)
        with pytest.raises(ValidationError):
            MultiTypeRelationalData([a, b], [])

    def test_unknown_type_in_relation_rejected(self):
        docs = ObjectType("documents", n_objects=3, n_clusters=2)
        terms = ObjectType("terms", n_objects=4, n_clusters=2)
        bad = Relation("documents", "authors", np.ones((3, 2)))
        with pytest.raises(ValidationError):
            MultiTypeRelationalData([docs, terms], [bad])

    def test_relation_shape_mismatch_rejected(self):
        docs = ObjectType("documents", n_objects=3, n_clusters=2)
        terms = ObjectType("terms", n_objects=4, n_clusters=2)
        bad = Relation("documents", "terms", np.ones((3, 5)))
        with pytest.raises(ValidationError):
            MultiTypeRelationalData([docs, terms], [bad])

    def test_duplicate_relation_rejected(self):
        docs = ObjectType("documents", n_objects=3, n_clusters=2)
        terms = ObjectType("terms", n_objects=4, n_clusters=2)
        r = Relation("documents", "terms", np.ones((3, 4)))
        reverse = Relation("terms", "documents", np.ones((4, 3)))
        with pytest.raises(ValidationError):
            MultiTypeRelationalData([docs, terms], [r, reverse])

    def test_unknown_type_lookup(self, three_type_data):
        with pytest.raises(ValidationError):
            three_type_data.type_index("authors")


class TestMatrixAssembly:
    """The inter-type matrix R, as the per-pair blocks the solvers consume."""

    def test_relation_blocks_are_symmetric(self, three_type_data):
        for backend in ("dense", "sparse"):
            blocks = three_type_data.relation_blocks(normalize=True,
                                                     backend=backend)
            assert len(blocks) == 6
            for (t, u), block in blocks.items():
                np.testing.assert_allclose(_dense(blocks[(u, t)]),
                                           _dense(block).T, atol=1e-12)

    def test_inter_type_diagonal_blocks_zero(self, three_type_data):
        # R's diagonal blocks are structurally zero: no (t, t) block exists.
        for normalize in (False, True):
            blocks = three_type_data.relation_blocks(normalize=normalize)
            assert all(t != u for t, u in blocks)

    def test_inter_type_offdiagonal_matches_relations(self, three_type_data):
        data = three_type_data
        blocks = data.relation_blocks(normalize=False)
        doc_term = data.relation_between("documents", "terms")
        np.testing.assert_allclose(blocks[(0, 1)], doc_term.matrix)

    def test_normalized_blocks_have_unit_frobenius_norm(self, three_type_data):
        blocks = three_type_data.relation_blocks(normalize=True)
        assert np.linalg.norm(blocks[(0, 1)]) == pytest.approx(1.0)

    def test_missing_relation_gives_zero_block(self):
        docs = ObjectType("documents", n_objects=3, n_clusters=2)
        terms = ObjectType("terms", n_objects=4, n_clusters=2)
        concepts = ObjectType("concepts", n_objects=2, n_clusters=2)
        data = MultiTypeRelationalData(
            [docs, terms, concepts],
            [Relation("documents", "terms", np.ones((3, 4)))])
        # An unrelated pair's block is zero, so it is absent from R's blocks.
        assert sorted(data.relation_blocks()) == [(0, 1), (1, 0)]
        assert data.relation_between("documents", "concepts") is None

    def test_relation_between_orientation(self, three_type_data):
        forward = three_type_data.relation_between("documents", "terms")
        backward = three_type_data.relation_between("terms", "documents")
        np.testing.assert_allclose(forward.matrix, backward.matrix.T)

    def test_describe_mentions_all_types(self, three_type_data):
        text = three_type_data.describe()
        for name in three_type_data.type_names:
            assert name in text


class TestRelationBlocks:
    """The blocked solver's per-pair view of R."""

    def test_both_orientations_present(self, three_type_data):
        blocks = three_type_data.relation_blocks()
        for (t, u), block in blocks.items():
            assert t != u
            assert (u, t) in blocks
            np.testing.assert_allclose(blocks[(u, t)],
                                       np.asarray(block).T)

    def test_matches_global_assembly(self, three_type_data):
        # Test-local stacked R: each relation (scaled to unit Frobenius norm
        # when normalising) placed at (t, u) and its transpose at (u, t).
        data = three_type_data
        spec = data.object_block_spec()
        for normalize in (False, True):
            R = np.zeros((spec.total, spec.total))
            for relation in data.relations:
                t = data.type_index(relation.source)
                u = data.type_index(relation.target)
                matrix = np.asarray(relation.matrix) * relation.weight
                if normalize:
                    matrix = matrix / np.linalg.norm(relation.matrix)
                R[spec.slice(t), spec.slice(u)] = matrix
                R[spec.slice(u), spec.slice(t)] = matrix.T
            blocks = data.relation_blocks(normalize=normalize)
            for t in range(data.n_types):
                for u in range(data.n_types):
                    expected = R[spec.slice(t), spec.slice(u)]
                    if (t, u) in blocks:
                        np.testing.assert_allclose(blocks[(t, u)], expected,
                                                   atol=1e-12)
                    else:
                        np.testing.assert_allclose(expected, 0.0)

    def test_sparse_backend_yields_csr(self, three_type_data):
        blocks = three_type_data.relation_blocks(backend="sparse")
        dense_blocks = three_type_data.relation_blocks(backend="dense")
        assert blocks, "expected at least one relation pair"
        for key, block in blocks.items():
            assert sp.issparse(block)
            np.testing.assert_allclose(block.toarray(), dense_blocks[key],
                                       atol=1e-12)
