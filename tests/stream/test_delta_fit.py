"""Tests for delta-scheduled refresh edge cases.

The delta scheduler's contract: an all-dirty schedule is bit-identical to
the unscheduled full warm refit, clean types' blocks are frozen at their
fitted values (value equality — the solver copies its warm-start state),
featureless types can be the dirty ones, the row-sparse sparse-backend
``E_R`` crosses the dirty/clean boundary intact, and a delta refresh still
agrees with a cold refit on ≥90% of objects.

Frozen blocks are compared through the exported model, whose membership is
row-renormalised once more than the fitted artifact's — the solver state is
frozen bit-exactly, the export differs by at most 1 ULP, so clean-block
assertions use an ULP-level tolerance while labels stay exactly equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RHCHME
from repro.exceptions import ValidationError
from repro.metrics import cluster_alignment
from repro.runtime import refresh_model
from repro.stream import DirtySet


def _agreement(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    mapping = cluster_alignment(labels_a, labels_b)
    return float(np.mean(mapping[labels_b] == labels_a))


class TestAllDirtyBitParity:
    def test_all_dirty_matches_unscheduled_refit_bitwise(self, stream_model,
                                                         stream_grown):
        full = refresh_model(stream_model, stream_grown, dirty=None,
                             max_iter=6)
        all_dirty = DirtySet(types=frozenset(stream_model.type_names))
        delta = refresh_model(stream_model, stream_grown, dirty=all_dirty,
                              max_iter=6)
        assert not full.delta_scheduled
        assert delta.delta_scheduled
        for name in stream_model.type_names:
            np.testing.assert_array_equal(delta.model.membership[name],
                                          full.model.membership[name])
            np.testing.assert_array_equal(delta.model.labels[name],
                                          full.model.labels[name])
        np.testing.assert_array_equal(delta.model.association,
                                      full.model.association)

    def test_full_refit_deterministic(self, stream_model, stream_grown):
        first = refresh_model(stream_model, stream_grown, max_iter=6)
        second = refresh_model(stream_model, stream_grown, max_iter=6)
        for name in stream_model.type_names:
            np.testing.assert_array_equal(first.model.membership[name],
                                          second.model.membership[name])


class TestFrozenCleanBlocks:
    def test_clean_types_keep_fitted_values_exactly(self, stream_model,
                                                    star_factory):
        grown = star_factory({"docs": 72})  # only docs grows
        outcome = refresh_model(stream_model, grown,
                                dirty=DirtySet(types=frozenset({"docs"})),
                                max_iter=6)
        for name in ("words", "authors", "venues"):
            np.testing.assert_allclose(outcome.model.membership[name],
                                       stream_model.membership[name],
                                       rtol=1e-14, atol=0)
            np.testing.assert_array_equal(outcome.model.labels[name],
                                          stream_model.labels[name])
        # the dirty type did move: new rows exist and were optimised
        assert outcome.model.membership["docs"].shape == (72, 3)
        assert outcome.types_touched == ["docs"]
        assert outcome.grown == {"docs": 12, "words": 0, "authors": 0,
                                 "venues": 0}

    def test_auto_dirty_matches_growth(self, stream_model, star_factory):
        grown = star_factory({"docs": 72})
        outcome = refresh_model(stream_model, grown, dirty="auto",
                                max_iter=6)
        assert outcome.delta_scheduled
        assert outcome.types_touched == ["docs"]


class TestFeaturelessDirtyType:
    def test_featureless_type_can_be_the_dirty_one(self, stream_model,
                                                   star_factory):
        grown = star_factory({"venues": 24})  # featureless type grows
        outcome = refresh_model(stream_model, grown, dirty="auto",
                                max_iter=6)
        assert outcome.types_touched == ["venues"]
        assert outcome.model.membership["venues"].shape == (24, 3)
        assert outcome.model.labels["venues"].shape == (24,)
        for name in ("docs", "words", "authors"):
            np.testing.assert_allclose(outcome.model.membership[name],
                                       stream_model.membership[name],
                                       rtol=1e-14, atol=0)


class TestSparseErrorMatrixBoundary:
    @pytest.fixture(scope="class")
    def sparse_model(self, star_factory):
        base = star_factory(sparse=True)
        # A β below the residual row norms, so E_R stores rows on both
        # sides of the dirty boundary.
        estimator = RHCHME(max_iter=25, random_state=0, backend="sparse",
                           use_subspace_member=False, track_metrics_every=0,
                           beta=0.001)
        estimator.fit(base)
        return estimator.export_model(base)

    def test_row_sparse_error_matrix_across_dirty_boundary(
            self, sparse_model, star_factory):
        grown = star_factory({"docs": 72}, sparse=True)
        outcome = refresh_model(sparse_model, grown,
                                dirty=DirtySet(types=frozenset({"docs"})),
                                max_iter=6)
        assert sparse_model.error_matrix.n_stored_rows > 0
        assert outcome.model.error_matrix.n_stored_rows > 0
        assert outcome.model.membership["docs"].shape == (72, 3)
        for name in ("words", "authors", "venues"):
            np.testing.assert_allclose(outcome.model.membership[name],
                                       sparse_model.membership[name],
                                       rtol=1e-14, atol=0)

    def test_sparse_all_dirty_matches_unscheduled(self, sparse_model,
                                                  star_factory):
        grown = star_factory({"docs": 72}, sparse=True)
        full = refresh_model(sparse_model, grown, max_iter=6)
        delta = refresh_model(
            sparse_model, grown,
            dirty=DirtySet(types=frozenset(sparse_model.type_names)),
            max_iter=6)
        for name in sparse_model.type_names:
            np.testing.assert_array_equal(delta.model.membership[name],
                                          full.model.membership[name])


class TestAgreementWithColdFit:
    def test_delta_refresh_agrees_with_cold_refit(self, stream_model,
                                                  stream_grown):
        outcome = refresh_model(stream_model, stream_grown, dirty="auto",
                                max_iter=15)
        cold = RHCHME(max_iter=25, random_state=0, use_subspace_member=False,
                      track_metrics_every=0)
        cold.fit(stream_grown)
        for name in ("docs", "words", "authors"):
            agreement = _agreement(np.asarray(cold.labels_[name]),
                                   np.asarray(outcome.model.labels[name]))
            assert agreement >= 0.9, (name, agreement)
        assert outcome.agreement_proxy is not None
        assert outcome.agreement_proxy >= 0.8


class TestDirtyValidation:
    def test_bogus_string_rejected(self, stream_model, stream_grown):
        with pytest.raises(ValidationError, match="auto"):
            refresh_model(stream_model, stream_grown, dirty="everything")

    def test_wrong_type_rejected(self, stream_model, stream_grown):
        with pytest.raises(ValidationError, match="DirtySet"):
            refresh_model(stream_model, stream_grown, dirty=5)

    def test_bare_string_types_rejected(self):
        # A string is iterable: split into characters, "docs" would name
        # the types d, o, c and s.
        with pytest.raises(ValidationError, match=r"types=\{'docs'\}"):
            DirtySet(types="docs")

    def test_one_element_set_names_one_type(self, stream_model):
        dirty = DirtySet(types={"docs"})
        assert dirty.types == frozenset({"docs"})
        assert dirty.resolve(stream_model.type_names) == frozenset({0})

    def test_unknown_validate_mode_rejected(self, stream_model,
                                            stream_grown):
        with pytest.raises(ValidationError, match="validate"):
            refresh_model(stream_model, stream_grown, validate="trust-me")
