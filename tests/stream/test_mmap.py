"""Tests for mmap-backed artifacts and lazy model views.

The ``per-type-mmap`` layout's contract: byte-identical arrays to the
other layouts, deterministic reader lifecycle (context manager, idempotent
close), byte-level residency accounting, copy-on-write promotion that
survives the artifact being rewritten, and refreshes through a lazy
:class:`ModelView` that match the eager path while never paging the clean
types' features.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ArtifactError, ValidationError
from repro.runtime import refresh_model
from repro.serve import (MMAP_LAYOUT, RHCHMEModel, ShardedModelReader,
                         open_model)
from repro.stream import DirtySet, open_model_view


class TestLayoutParity:
    def test_arrays_match_monolithic(self, stream_model, mmap_model_path,
                                     tmp_path):
        mono = RHCHMEModel.load(
            stream_model.save(tmp_path / "mono.npz"))
        mapped = RHCHMEModel.load(mmap_model_path)
        for name in mono.membership:
            np.testing.assert_array_equal(mapped.membership[name],
                                          mono.membership[name])
            np.testing.assert_array_equal(mapped.labels[name],
                                          mono.labels[name])
        for name in mono.features:
            np.testing.assert_array_equal(mapped.features[name],
                                          mono.features[name])
        np.testing.assert_array_equal(mapped.association, mono.association)

    def test_open_model_lazy_returns_reader(self, mmap_model_path):
        with open_model(mmap_model_path).reader as reader:
            assert isinstance(reader, ShardedModelReader)
            assert reader.cache_info()["layout"] == MMAP_LAYOUT


class TestReaderLifecycle:
    def test_close_is_deterministic_and_idempotent(self, mmap_model_path):
        reader = ShardedModelReader(mmap_model_path)
        reader.features("docs")
        reader.close()
        assert reader.closed
        reader.close()  # second close is a no-op
        with pytest.raises(ArtifactError, match="closed"):
            reader.features("docs")
        with pytest.raises(ArtifactError, match="closed"):
            reader.membership("words")

    def test_context_manager_closes(self, mmap_model_path):
        with ShardedModelReader(mmap_model_path) as reader:
            reader.membership("docs")
            assert not reader.closed
        assert reader.closed

    def test_featureless_type_raises(self, mmap_model_path):
        with ShardedModelReader(mmap_model_path) as reader:
            with pytest.raises(ValidationError, match="without features"):
                reader.features("venues")


class TestCacheInfo:
    def test_cold_to_mapped_to_resident(self, mmap_model_path):
        with ShardedModelReader(mmap_model_path) as reader:
            info = reader.cache_info()
            assert info["layout"] == MMAP_LAYOUT
            assert all(entry["mode"] == "cold"
                       for entry in info["arrays"].values())
            assert info["resident_bytes"] == info["mapped_bytes"] == 0
            assert info["total_bytes"] > 0

            reader.features("docs")
            info = reader.cache_info()
            assert info["arrays"]["features::docs"]["mode"] == "mapped"
            assert info["arrays"]["features::words"]["mode"] == "cold"
            assert 0 < info["mapped_bytes"] < info["total_bytes"]

            reader.promote("docs")
            info = reader.cache_info()
            assert info["arrays"]["features::docs"]["mode"] == "resident"
            assert info["promoted"] == ["docs"]
            assert info["resident_bytes"] > 0

    def test_loads_are_counted_per_file(self, mmap_model_path):
        with ShardedModelReader(mmap_model_path) as reader:
            reader.features("docs")
            reader.features("docs")  # cached: no second load
            reader.membership("docs")
            info = reader.cache_info()
            assert info["loads"]["docs"] == 2


class TestPromotion:
    def test_promoted_arrays_survive_artifact_rewrite(self, stream_model,
                                                      tmp_path):
        path = stream_model.save(tmp_path / "model.npz", shards=MMAP_LAYOUT)
        reader = ShardedModelReader(path)
        try:
            original = np.array(reader.features("docs"))
            reader.promote("docs")
            # rewrite the artifact underneath the open reader
            stream_model.save(path, shards=MMAP_LAYOUT)
            np.testing.assert_array_equal(reader.features("docs"), original)
        finally:
            reader.close()

    def test_promote_all_makes_everything_resident(self, mmap_model_path):
        with ShardedModelReader(mmap_model_path) as reader:
            reader.preload()
            info = reader.cache_info()
            assert info["mapped_bytes"] == 0
            assert info["resident_bytes"] == info["total_bytes"]


class TestModelView:
    def test_view_is_a_context_manager(self, mmap_model_path):
        with open_model_view(mmap_model_path) as view:
            assert view.model.membership["docs"].shape == (60, 3)
        with pytest.raises(ArtifactError, match="closed"):
            view.model.features["docs"]

    def test_refresh_through_view_leaves_clean_features_cold(
            self, mmap_model_path, stream_grown):
        dirty = DirtySet(types=frozenset({"docs", "venues"}))
        with open_model_view(mmap_model_path,
                             promote=sorted(dirty.types)) as view:
            outcome = refresh_model(view.model, stream_grown, dirty=dirty,
                                    validate="shapes", max_iter=5)
            info = view.cache_info()
        # the clean satellite types' feature files were never touched
        assert info["arrays"]["features::words"]["mode"] == "cold"
        assert info["arrays"]["features::authors"]["mode"] == "cold"
        assert outcome.types_touched == ["docs", "venues"]

    def test_refresh_through_view_matches_eager(self, stream_model,
                                                mmap_model_path,
                                                stream_grown):
        dirty = DirtySet(types=frozenset({"docs", "venues"}))
        eager = refresh_model(stream_model, stream_grown, dirty=dirty,
                              max_iter=5)
        with open_model_view(mmap_model_path) as view:
            lazy = refresh_model(view.model, stream_grown, dirty=dirty,
                                 validate="shapes", max_iter=5)
        for name in eager.model.membership:
            np.testing.assert_array_equal(lazy.model.membership[name],
                                          eager.model.membership[name])
            np.testing.assert_array_equal(lazy.model.labels[name],
                                          eager.model.labels[name])
        np.testing.assert_array_equal(lazy.model.association,
                                      eager.model.association)
        np.testing.assert_array_equal(lazy.model.error_matrix.rows,
                                      eager.model.error_matrix.rows)
        np.testing.assert_array_equal(lazy.model.error_matrix.values,
                                      eager.model.error_matrix.values)
