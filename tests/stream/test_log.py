"""Tests for the append-only object log (repro.stream.log)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ArtifactError, ValidationError
from repro.stream import ObjectLog


def _dense(matrix):
    return matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)


@pytest.fixture()
def log(stream_base, tmp_path):
    return ObjectLog.create(tmp_path / "log", stream_base)


class TestCreateAndReopen:
    def test_base_round_trips_exactly(self, log, stream_base):
        data = log.dataset()
        assert data.type_names == stream_base.type_names
        for object_type in stream_base.types:
            rebuilt = data.get_type(object_type.name)
            assert rebuilt.n_objects == object_type.n_objects
            assert rebuilt.n_clusters == object_type.n_clusters
            if object_type.features is None:
                assert rebuilt.features is None
            else:
                np.testing.assert_array_equal(rebuilt.features,
                                              object_type.features)
        for relation in stream_base.relations:
            rebuilt = data.relation_between(relation.source, relation.target)
            np.testing.assert_allclose(_dense(rebuilt.matrix),
                                       _dense(relation.matrix))
        assert log.version == 0
        assert log.sizes == {t.name: t.n_objects for t in stream_base.types}

    def test_reopen_from_disk_matches(self, log, star_factory):
        grown = star_factory({"docs": 72})
        log.append_objects("docs", grown.get_type("docs").features[60:])
        reopened = ObjectLog(log.directory)
        assert reopened.version == log.version
        assert reopened.sizes == log.sizes
        np.testing.assert_array_equal(
            reopened.dataset().get_type("docs").features,
            log.dataset().get_type("docs").features)

    def test_create_refuses_existing_log(self, log, stream_base):
        with pytest.raises(ArtifactError, match="already holds"):
            ObjectLog.create(log.directory, stream_base)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="no object log"):
            ObjectLog(tmp_path / "nowhere")

    def test_corrupt_manifest_raises(self, log):
        (log.directory / "manifest.json").write_text("{not json")
        with pytest.raises(ArtifactError, match="corrupt"):
            ObjectLog(log.directory)

    def test_foreign_manifest_raises(self, tmp_path):
        directory = tmp_path / "foreign"
        directory.mkdir()
        (directory / "manifest.json").write_text(json.dumps({"format": "x"}))
        with pytest.raises(ArtifactError, match="not an object-log"):
            ObjectLog(directory)

    def test_sparse_base_round_trips(self, star_factory, tmp_path):
        base = star_factory(sparse=True)
        log = ObjectLog.create(tmp_path / "sparse-log", base)
        rebuilt = log.dataset().relation_between("docs", "words").matrix
        assert sp.issparse(rebuilt)
        np.testing.assert_allclose(
            _dense(rebuilt),
            _dense(base.relation_between("docs", "words").matrix))


class TestAppendObjects:
    def test_features_grow_the_dataset_prefix_stably(self, log, stream_base,
                                                     star_factory):
        grown = star_factory({"docs": 72})
        new_rows = grown.get_type("docs").features[60:]
        version = log.append_objects("docs", new_rows)
        assert version == 1
        assert log.sizes["docs"] == 72
        features = log.dataset().get_type("docs").features
        np.testing.assert_array_equal(
            features[:60], stream_base.get_type("docs").features)
        np.testing.assert_array_equal(features[60:], new_rows)

    def test_relation_rows_of_new_objects_default_to_zero(self, log):
        log.append_objects("docs", np.random.default_rng(1).random((5, 6)))
        matrix = _dense(log.dataset().relation_between("docs",
                                                       "words").matrix)
        assert matrix.shape == (65, 48)
        np.testing.assert_array_equal(matrix[60:], 0.0)

    def test_featureless_type_appends_by_count(self, log):
        log.append_objects("venues", count=4)
        assert log.sizes["venues"] == 24
        assert log.dataset().get_type("venues").features is None

    def test_featureless_type_rejects_features(self, log):
        with pytest.raises(ValidationError, match="featureless"):
            log.append_objects("venues", np.zeros((2, 6)))

    def test_featureless_type_needs_count(self, log):
        with pytest.raises(ValidationError, match="count"):
            log.append_objects("venues")

    def test_feature_type_needs_features(self, log):
        with pytest.raises(ValidationError, match="carries features"):
            log.append_objects("docs", count=3)

    def test_width_mismatch_rejected(self, log):
        with pytest.raises(ValidationError, match="columns"):
            log.append_objects("docs", np.zeros((2, 7)))

    def test_count_feature_disagreement_rejected(self, log):
        with pytest.raises(ValidationError, match="does not match"):
            log.append_objects("docs", np.zeros((2, 6)), count=3)

    def test_unknown_type_rejected(self, log):
        with pytest.raises(ValidationError, match="unknown object type"):
            log.append_objects("movies", np.zeros((2, 6)))

    def test_empty_append_rejected(self, log):
        with pytest.raises(ValidationError, match="empty|at least one"):
            log.append_objects("docs", np.zeros((0, 6)))


class TestAppendEdges:
    def test_dense_entries_accumulate_duplicates(self, log, stream_base):
        before = _dense(stream_base.relation_between("docs",
                                                     "words").matrix).copy()
        log.append_edges("docs", "words", [3, 3, 5], [7, 7, 1],
                         [0.5, 0.25, 2.0])
        after = _dense(log.dataset().relation_between("docs",
                                                      "words").matrix)
        assert after[3, 7] == pytest.approx(before[3, 7] + 0.75)
        assert after[5, 1] == pytest.approx(before[5, 1] + 2.0)
        untouched = np.ones_like(before, dtype=bool)
        untouched[3, 7] = untouched[5, 1] = False
        np.testing.assert_array_equal(after[untouched], before[untouched])

    def test_reversed_orientation_is_canonicalised(self, log, stream_base):
        before = _dense(stream_base.relation_between("docs",
                                                     "words").matrix).copy()
        # caller speaks (words, docs): row = word index, col = doc index
        log.append_edges("words", "docs", [7], [3], [1.5])
        after = _dense(log.dataset().relation_between("docs",
                                                      "words").matrix)
        assert after[3, 7] == pytest.approx(before[3, 7] + 1.5)

    def test_sparse_entries_merge(self, star_factory, tmp_path):
        base = star_factory(sparse=True)
        log = ObjectLog.create(tmp_path / "sparse-log", base)
        before = _dense(base.relation_between("docs", "words").matrix)
        log.append_edges("docs", "words", [0, 0], [2, 2], [1.0, 1.0])
        after = log.dataset().relation_between("docs", "words").matrix
        assert sp.issparse(after)
        assert _dense(after)[0, 2] == pytest.approx(before[0, 2] + 2.0)

    def test_edges_into_appended_objects(self, log):
        log.append_objects("docs", np.random.default_rng(2).random((5, 6)))
        log.append_edges("docs", "words", [64], [0], [1.0])
        matrix = _dense(log.dataset().relation_between("docs",
                                                       "words").matrix)
        assert matrix[64, 0] == pytest.approx(1.0)

    def test_unlogged_pair_rejected(self, log):
        with pytest.raises(ValidationError, match="only extends relations"):
            log.append_edges("words", "authors", [0], [0], [1.0])

    def test_out_of_range_indices_rejected(self, log):
        with pytest.raises(ValidationError, match="out of range"):
            log.append_edges("docs", "words", [60], [0], [1.0])
        with pytest.raises(ValidationError, match="out of range"):
            log.append_edges("docs", "words", [0], [48], [1.0])

    def test_negative_values_rejected(self, log):
        with pytest.raises(ValidationError, match="non-negative"):
            log.append_edges("docs", "words", [0], [0], [-1.0])

    def test_length_mismatch_rejected(self, log):
        with pytest.raises(ValidationError, match="lengths differ"):
            log.append_edges("docs", "words", [0, 1], [0], [1.0])

    def test_empty_append_rejected(self, log):
        with pytest.raises(ValidationError, match="at least one"):
            log.append_edges("docs", "words", [], [], [])


class TestDeltaSince:
    def test_window_accounting(self, log, star_factory):
        grown = star_factory({"docs": 72})
        log.append_objects("docs", grown.get_type("docs").features[60:66])
        mid = log.version
        log.append_objects("docs", grown.get_type("docs").features[66:72])
        log.append_objects("venues", count=4)
        log.append_edges("docs", "words", [0], [0], [1.0])
        delta = log.delta_since(mid)
        assert delta.grown["docs"] == 6
        assert delta.grown["venues"] == 4
        assert delta.grown["words"] == 0
        assert delta.new_edges[("docs", "words")] == 1
        assert delta.n_new_objects == 10
        full = log.delta_since(0)
        assert full.grown["docs"] == 12

    def test_edge_only_append_dirties_both_endpoints(self, log):
        log.append_edges("docs", "authors", [0], [0], [1.0])
        delta = log.delta_since(0)
        assert delta.grown == {name: 0 for name in log.type_names}
        assert delta.dirty_types() == {"docs", "authors"}
        assert delta.dirty_set().types == frozenset({"docs", "authors"})
        assert not delta.is_empty

    def test_head_delta_is_empty(self, log):
        delta = log.delta_since(log.version)
        assert delta.is_empty
        assert delta.dirty_types() == set()

    def test_out_of_window_version_rejected(self, log):
        with pytest.raises(ValidationError, match="delta_since"):
            log.delta_since(log.version + 1)
        with pytest.raises(ValidationError, match="delta_since"):
            log.delta_since(-1)

    def test_describe_is_json_safe(self, log):
        log.append_edges("docs", "words", [0], [0], [1.0])
        document = log.delta_since(0).describe()
        json.dumps(document)
        assert document["dirty_types"] == ["docs", "words"]
        json.dumps(log.describe())


class TestRelationRebuilds:
    """An append rebuilds only the relations whose edges or sizes changed."""

    @staticmethod
    def _relations(log):
        data = log.dataset()
        return {(r.source, r.target): r for r in data.relations}

    def test_objects_append_keeps_untouched_relations(self, log):
        before = self._relations(log)
        log.append_objects("words", np.random.default_rng(1).random((3, 6)))
        after = self._relations(log)
        assert after[("docs", "words")] is not before[("docs", "words")]
        for pair in (("docs", "authors"), ("docs", "venues")):
            assert after[pair] is before[pair]
            assert after[pair].matrix is before[pair].matrix

    def test_edges_append_rebuilds_only_that_relation(self, log):
        before = self._relations(log)
        log.append_edges("docs", "authors", [0, 1], [2, 3], [0.5, 0.25])
        after = self._relations(log)
        assert after[("docs", "authors")] is not before[("docs", "authors")]
        for pair in (("docs", "words"), ("docs", "venues")):
            assert after[pair] is before[pair]

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_append_loads_only_the_new_segment_files(
            self, star_factory, tmp_path, monkeypatch, sparse):
        log = ObjectLog.create(tmp_path / "log", star_factory(sparse=sparse))
        log.dataset()
        loaded = []
        load = np.load

        def counting(file, *args, **kwargs):
            loaded.append(Path(file).name)
            return load(file, *args, **kwargs)

        monkeypatch.setattr(np, "load", counting)
        rng = np.random.default_rng(3)
        for _ in range(4):
            loaded.clear()
            objects = log.append_objects("words", rng.random((2, 6)))
            edges = log.append_edges("docs", "words", [0, 1], [48, 49],
                                     [1.0, 0.5])
            log.dataset()
            assert sorted(loaded) == [
                f"seg{objects:06d}.words.features.npy",
                f"seg{edges:06d}.docs__words.edges.npz"]

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_every_version_matches_a_fresh_log(self, star_factory, tmp_path,
                                               sparse):
        log = ObjectLog.create(tmp_path / "log", star_factory(sparse=sparse))
        rng = np.random.default_rng(2)
        appends = [
            lambda: log.append_objects("words", rng.random((3, 6))),
            lambda: log.append_edges("docs", "words", [0, 5], [48, 50],
                                     [1.0, 0.5]),
            lambda: log.append_objects("venues", count=2),
            lambda: log.append_edges("authors", "docs", [1, 1], [4, 4],
                                     [0.5, 0.5]),
            lambda: log.append_objects("docs", rng.random((4, 6))),
            lambda: log.append_edges("docs", "venues", [61, 63], [20, 21],
                                     [2.0, 1.0]),
        ]
        for append in [None] + appends:
            if append is not None:
                append()
            cached = self._relations(log)
            fresh = self._relations(ObjectLog(log.directory))
            assert cached.keys() == fresh.keys()
            for pair, relation in fresh.items():
                got, want = cached[pair].matrix, relation.matrix
                assert sp.issparse(got) == sp.issparse(want) == sparse
                if sparse:
                    for name in ("indptr", "indices", "data"):
                        np.testing.assert_array_equal(getattr(got, name),
                                                      getattr(want, name))
                        assert (getattr(got, name).dtype
                                == getattr(want, name).dtype)
                    assert got.shape == want.shape
                else:
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)
