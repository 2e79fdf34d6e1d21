"""Fixtures for the diagnostics test suite.

A prefix-stable two-type blobs generator (same contract as the runtime
suite: ``diag_blobs(n)`` is an exact prefix of ``diag_blobs(m)`` for
``n < m``) plus one session-scoped fitted artifact with fit-time
diagnostics enabled, and a query-stream factory that draws *fresh*
samples from the training distribution — optionally shifted, which is the
injected covariate drift the detector must catch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RHCHME
from repro.relational.dataset import MultiTypeRelationalData
from repro.relational.types import ObjectType, Relation

N_CLUSTERS = 3
N_FEATURES = 6
_SEED = 0


def diag_blobs(n_points: int, *, n_pool: int = 150, n_anchors: int = 30,
               seed: int = _SEED) -> MultiTypeRelationalData:
    """Two-type blobs whose first ``n_points`` objects are seed-stable."""
    rng = np.random.default_rng(seed)
    point_labels = np.arange(n_pool) % N_CLUSTERS
    anchor_labels = np.arange(n_anchors) % N_CLUSTERS
    point_centers = rng.normal(scale=6.0, size=(N_CLUSTERS, N_FEATURES))
    anchor_centers = rng.normal(scale=6.0, size=(N_CLUSTERS, N_FEATURES))
    point_features = point_centers[point_labels] + rng.normal(
        size=(n_pool, N_FEATURES))
    anchor_features = anchor_centers[anchor_labels] + rng.normal(
        size=(n_anchors, N_FEATURES))
    co_cluster = point_labels[:, None] == anchor_labels[None, :]
    matrix = np.where(co_cluster, 1.0, 0.05) + 0.05 * rng.random(
        (n_pool, n_anchors))
    points = ObjectType("points", n_objects=n_points, n_clusters=N_CLUSTERS,
                        features=point_features[:n_points],
                        labels=point_labels[:n_points])
    anchors = ObjectType("anchors", n_objects=n_anchors,
                         n_clusters=N_CLUSTERS, features=anchor_features,
                         labels=anchor_labels)
    return MultiTypeRelationalData(
        [points, anchors],
        [Relation("points", "anchors", matrix[:n_points])])


def point_centers(seed: int = _SEED) -> np.ndarray:
    """The generative cluster centers of the ``points`` type."""
    return np.random.default_rng(seed).normal(
        scale=6.0, size=(N_CLUSTERS, N_FEATURES))


@pytest.fixture(scope="session")
def diag_blobs_factory():
    """The prefix-stable dataset generator, exposed to test modules."""
    return diag_blobs


@pytest.fixture(scope="session")
def diag_dataset() -> MultiTypeRelationalData:
    return diag_blobs(100)


@pytest.fixture(scope="session")
def diag_artifact(diag_dataset):
    model = RHCHME(max_iter=20, random_state=0, use_subspace_member=False,
                   track_metrics_every=0, diagnostics=True)
    model.fit(diag_dataset)
    return model.export_model(diag_dataset)


@pytest.fixture(scope="session")
def diag_model_path(diag_artifact, tmp_path_factory):
    return diag_artifact.save(
        tmp_path_factory.mktemp("diagnostics") / "model.npz")


@pytest.fixture(scope="session")
def query_stream():
    """Factory of fresh in-distribution (or shifted) ``points`` queries."""
    centers = point_centers()

    def _draw(n_rows: int, *, shift: float = 0.0,
              seed: int = 7) -> np.ndarray:
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, N_CLUSTERS, size=n_rows)
        return centers[labels] + rng.normal(
            size=(n_rows, N_FEATURES)) + shift

    return _draw
