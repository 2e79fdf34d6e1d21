"""Tests for repro.data.datasets (the Table II presets)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import (
    DATASET_PRESETS,
    dataset_characteristics,
    list_datasets,
    make_dataset,
)
from repro.exceptions import DataGenerationError


class TestPresets:
    def test_all_paper_datasets_registered(self):
        names = list_datasets()
        for expected in ["multi5", "multi10", "r-min20max200", "r-top10"]:
            assert expected in names

    def test_small_variants_registered(self):
        names = list_datasets()
        for expected in ["multi5-small", "multi10-small",
                         "r-min20max200-small", "r-top10-small"]:
            assert expected in names

    def test_class_balance_profiles_match_paper(self):
        # Multi5/Multi10: balanced; D3: many small varied classes;
        # D4: few strongly imbalanced classes with the largest dataset.
        multi5 = DATASET_PRESETS["multi5"]
        multi10 = DATASET_PRESETS["multi10"]
        d3 = DATASET_PRESETS["r-min20max200"]
        d4 = DATASET_PRESETS["r-top10"]
        assert len(set(multi5.class_sizes)) == 1 and multi5.n_classes == 5
        assert len(set(multi10.class_sizes)) == 1 and multi10.n_classes == 10
        assert len(set(d3.class_sizes)) > 1 and d3.n_classes > 10
        assert max(d4.class_sizes) / min(d4.class_sizes) > 5
        assert d4.n_documents > multi5.n_documents


class TestMakeDataset:
    def test_three_types_with_relations(self):
        data = make_dataset("multi5-small", random_state=0)
        assert data.type_names == ["documents", "terms", "concepts"]
        assert len(data.relations) == 3

    def test_all_types_have_features_and_labels(self):
        data = make_dataset("multi5-small", random_state=0)
        for object_type in data.types:
            assert object_type.has_features
            assert object_type.has_labels

    def test_document_count_matches_spec(self):
        spec = DATASET_PRESETS["multi10-small"]
        data = make_dataset("multi10-small", random_state=0)
        assert data.get_type("documents").n_objects == spec.n_documents
        assert data.get_type("documents").n_clusters == spec.n_classes

    def test_paper_aliases(self):
        data = make_dataset("D1", random_state=0)
        assert data.get_type("documents").n_clusters == 5

    def test_unknown_dataset_rejected(self):
        with pytest.raises(DataGenerationError):
            make_dataset("newsgroups-full")

    def test_deterministic_with_seed(self):
        a = make_dataset("multi5-small", random_state=5)
        b = make_dataset("multi5-small", random_state=5)
        np.testing.assert_allclose(a.get_type("documents").features,
                                   b.get_type("documents").features)

    def test_different_seeds_differ(self):
        a = make_dataset("multi5-small", random_state=1)
        b = make_dataset("multi5-small", random_state=2)
        assert not np.allclose(a.get_type("documents").features,
                               b.get_type("documents").features)

    def test_corruption_override(self):
        clean = make_dataset("multi5-small", random_state=0,
                             corruption_fraction=0.0, noise_scale=0.0)
        corrupted = make_dataset("multi5-small", random_state=0,
                                 corruption_fraction=0.3, noise_scale=0.0)
        assert not np.allclose(clean.get_type("documents").features,
                               corrupted.get_type("documents").features)

    def test_corrupted_preset(self):
        data = make_dataset("corrupted-multi5", random_state=0)
        assert data.get_type("documents").n_objects == 150

    def test_relation_blocks_are_valid(self):
        data = make_dataset("multi5-small", random_state=0)
        blocks = data.relation_blocks(normalize=True)
        assert blocks
        for (t, u), block in blocks.items():
            assert np.all(np.isfinite(block))
            np.testing.assert_allclose(blocks[(u, t)], block.T, atol=1e-12)
            assert np.all(block >= 0)


class TestDatasetCharacteristics:
    def test_table2_rows(self):
        rows = dataset_characteristics()
        assert len(rows) == 4
        names = [row["dataset"] for row in rows]
        assert names == ["multi5", "multi10", "r-min20max200", "r-top10"]
        for row in rows:
            assert row["documents"] > 0
            assert row["terms"] > 0
            assert row["concepts"] > 0

    def test_balanced_flags(self):
        rows = {row["dataset"]: row for row in dataset_characteristics()}
        assert rows["multi5"]["balanced"]
        assert not rows["r-top10"]["balanced"]
