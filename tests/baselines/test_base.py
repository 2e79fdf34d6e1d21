"""Tests for repro.baselines.base (shared HOCC skeleton behaviour)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import BaseHOCC
from repro.baselines.snmtf import SNMTF


class TestBaseHOCC:
    def test_build_regularizer_abstract(self, tiny_dataset):
        with pytest.raises(NotImplementedError):
            BaseHOCC().build_regularizer(tiny_dataset)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(Exception):
            SNMTF(lam=-1.0)
        with pytest.raises(Exception):
            SNMTF(max_iter=0)
        with pytest.raises(Exception):
            SNMTF(tol=0.0)

    def test_error_matrix_stays_zero_for_baselines(self, tiny_dataset):
        # The NMTF baselines have no error matrix at all: the state carries
        # none and the objective's L2,1 term reads as zero.
        result = SNMTF(lam=1.0, p=3, max_iter=5, random_state=0).fit(tiny_dataset)
        assert result.state.E_R is None

    def test_fit_predict_named_type(self, tiny_dataset):
        model = SNMTF(lam=1.0, p=3, max_iter=5, random_state=0)
        labels = model.fit_predict(tiny_dataset, "terms")
        assert labels.shape == (tiny_dataset.get_type("terms").n_objects,)

    def test_track_metrics_disabled(self, tiny_dataset):
        result = SNMTF(lam=1.0, p=3, max_iter=5, random_state=0,
                       track_metrics_every=0).fit(tiny_dataset)
        series = result.trace.metric_series("fscore/documents")
        assert np.all(np.isnan(series))

    def test_G_nonnegative_throughout(self, tiny_dataset):
        result = SNMTF(lam=1.0, p=3, max_iter=10, random_state=0).fit(tiny_dataset)
        for G in result.state.G_blocks:
            assert np.all(G >= 0)
