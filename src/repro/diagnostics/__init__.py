"""Model health diagnostics: spectral monitors and drift detection.

Two layers watch a model from fit to serving:

``repro.diagnostics.spectral``
    Fit-time health of the per-type Laplacian blocks ``L_t`` — spectral
    gap, Fiedler value and Laplacian energy (sparse-safe, with NaN-free
    sentinels for degenerate types) — plus per-iteration membership-churn
    trajectories, recorded alongside the objective trace and persisted
    into the artifact sidecar's ``diagnostics`` section.
``repro.diagnostics.drift``
    Serving-time covariate drift: a :class:`DriftDetector` builds per-type
    *fingerprints* of a model's stored training features (moment sketches,
    per-feature quantile histograms and a p-NN affinity-mass histogram)
    the first time it scores a type, and scores incoming query batches
    against them with population-stability-index (PSI) statistics at
    O(features · bins) per batch, independent of batch size.

Both only report: acting on a drift score (refreshing the model with
:meth:`repro.runtime.RuntimeServer.refresh`) is left to the caller.
"""

from .drift import (DriftDetector, DriftScore, FeatureFingerprint,
                    fingerprint_features, population_stability_index)
from .spectral import (DIAGNOSTICS_SCHEMA_VERSION, SpectralBlockMetrics,
                       SpectralMonitor, spectral_block_metrics)

__all__ = [
    "DIAGNOSTICS_SCHEMA_VERSION",
    "SpectralBlockMetrics",
    "SpectralMonitor",
    "spectral_block_metrics",
    "FeatureFingerprint",
    "fingerprint_features",
    "population_stability_index",
    "DriftDetector",
    "DriftScore",
]
