"""Tests for repro.experiments.figures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RHCHMEConfig
from repro.experiments.figures import (
    PAPER_PARAMETER_GRIDS,
    figure1_neighbour_completeness,
    figure2_parameter_sensitivity,
    figure3_convergence_curves,
)


class TestFigure1:
    def test_metrics_structure_and_bounds(self):
        metrics = figure1_neighbour_completeness(n_per_circle=30, p=4,
                                                 random_state=0)
        for key, value in metrics.items():
            assert 0.0 <= value <= 1.0, key

    def test_subspace_coverage_exceeds_pnn_coverage(self):
        # The paper's Figure 1 argument: the subspace affinity reaches
        # within-manifold neighbours a small-p Euclidean graph cannot.
        metrics = figure1_neighbour_completeness(n_per_circle=40, p=4,
                                                 random_state=0)
        assert (metrics["subspace_neighbour_coverage"]
                > metrics["pnn_neighbour_coverage"])

    def test_admm_covers_fewer_than_algorithm1(self):
        # Eq. 9's optimum is sparse (at most three non-zeros per column on
        # 2-D points); the coverage above is Algorithm 1's dense iterate.
        metrics = figure1_neighbour_completeness(n_per_circle=40, p=4,
                                                 random_state=0)
        assert (metrics["exact_neighbour_coverage"]
                < metrics["subspace_neighbour_coverage"])


class TestFigure2:
    def test_paper_grids_defined_for_all_parameters(self):
        assert set(PAPER_PARAMETER_GRIDS) == {"lam", "gamma", "alpha", "beta"}
        for grid in PAPER_PARAMETER_GRIDS.values():
            assert len(grid) >= 5

    def test_sweep_over_custom_grid(self, small_dataset):
        curve = figure2_parameter_sensitivity(
            "lam", values=[1.0, 250.0], data=small_dataset,
            base_config=RHCHMEConfig(max_iter=5, random_state=0,
                                     track_metrics_every=0),
            max_iter=5, random_state=0)
        assert curve.parameter == "lam"
        assert curve.values == [1.0, 250.0]
        assert len(curve.fscore) == 2
        assert len(curve.nmi) == 2
        for value in curve.fscore + curve.nmi:
            assert 0.0 <= value <= 1.0

    def test_best_value_selection(self, small_dataset):
        curve = figure2_parameter_sensitivity(
            "beta", values=[10.0, 50.0], data=small_dataset,
            max_iter=4, random_state=0)
        assert curve.best_value("fscore") in {10.0, 50.0}

    def test_unknown_parameter_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            figure2_parameter_sensitivity("sigma", data=small_dataset)


class TestFigure3:
    def test_convergence_curves_structure(self):
        curves = figure3_convergence_curves(datasets=("multi5-small",),
                                            max_iter=5, random_state=0)
        assert set(curves) == {"multi5-small"}
        series = curves["multi5-small"]
        assert set(series) == {"fscore", "nmi", "objective"}
        # one record per iteration plus the initial state
        assert len(series["objective"]) == len(series["fscore"])
        assert len(series["objective"]) >= 2

    def test_objective_decreases_along_curve(self):
        curves = figure3_convergence_curves(datasets=("multi5-small",),
                                            max_iter=6, random_state=0)
        objective = np.array(curves["multi5-small"]["objective"])
        assert objective[-1] <= objective[0]

    def test_final_fscore_at_least_initial(self):
        curves = figure3_convergence_curves(datasets=("multi5-small",),
                                            max_iter=8, random_state=0)
        fscore = np.array(curves["multi5-small"]["fscore"])
        assert fscore[-1] >= fscore[0] - 0.05
