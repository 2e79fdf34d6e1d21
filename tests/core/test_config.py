"""Tests for repro.core.config."""

from __future__ import annotations

import pytest

from repro.core.config import RHCHMEConfig
from repro.graph.weights import WeightingScheme


class TestRHCHMEConfig:
    def test_paper_defaults(self):
        config = RHCHMEConfig()
        assert config.lam == 250.0
        assert config.gamma == 25.0
        assert config.alpha == 1.0
        assert config.beta == 50.0
        assert config.p == 5
        assert config.weighting is WeightingScheme.COSINE

    def test_weighting_coerced_from_string(self):
        config = RHCHMEConfig(weighting="binary")
        assert config.weighting is WeightingScheme.BINARY

    def test_with_overrides_returns_new_validated_config(self):
        config = RHCHMEConfig()
        updated = config.with_overrides(lam=500.0, beta=10.0)
        assert updated.lam == 500.0
        assert updated.beta == 10.0
        assert config.lam == 250.0  # original untouched

    def test_invalid_gamma_rejected(self):
        with pytest.raises(Exception):
            RHCHMEConfig(gamma=0.0)

    def test_invalid_init_rejected(self):
        with pytest.raises(ValueError):
            RHCHMEConfig(init="spectral")

    def test_negative_track_metrics_rejected(self):
        with pytest.raises(ValueError):
            RHCHMEConfig(track_metrics_every=-1)

    def test_zero_lambda_and_beta_allowed_for_ablation(self):
        config = RHCHMEConfig(lam=0.0, beta=0.0, alpha=0.0)
        assert config.lam == 0.0
        assert config.beta == 0.0
        assert config.alpha == 0.0

    def test_describe_contains_main_parameters(self):
        described = RHCHMEConfig().describe()
        assert described["lambda"] == 250.0
        assert described["weighting"] == "cosine"

    def test_frozen(self):
        config = RHCHMEConfig()
        with pytest.raises(Exception):
            config.lam = 1.0  # type: ignore[misc]


class TestBackendKnob:
    def test_default_is_auto(self):
        assert RHCHMEConfig().backend == "auto"

    def test_explicit_backends_accepted(self):
        assert RHCHMEConfig(backend="dense").backend == "dense"
        assert RHCHMEConfig(backend="sparse").backend == "sparse"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            RHCHMEConfig(backend="cuda")
        with pytest.raises(ValueError, match="unknown backend 'torch'"):
            RHCHMEConfig(backend="torch")

    def test_describe_includes_backend(self):
        assert RHCHMEConfig(backend="sparse").describe()["backend"] == "sparse"

    def test_with_overrides_revalidates_backend(self):
        config = RHCHMEConfig()
        assert config.with_overrides(backend="dense").backend == "dense"
        with pytest.raises(ValueError):
            config.with_overrides(backend="bogus")
