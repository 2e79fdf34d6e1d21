"""Fixtures for the runtime test suite.

Builds one small fitted artifact on disk (both written layouts) plus a grown
variant of its training set for refresh tests.  The grown dataset shares
the fitted features as an exact prefix — the contract ``refresh_model``
validates — so the generator draws one feature pool and slices it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RHCHME
from repro.relational.dataset import MultiTypeRelationalData
from repro.relational.types import ObjectType, Relation


def touched_types(info: dict) -> list[str]:
    """Types with an array mapped or resident in a ``cache_info()``."""
    return sorted({entry["shard"] for entry in info["arrays"].values()
                   if entry["mode"] != "cold"} - {"global"})


def global_modes(info: dict) -> set[str]:
    """Residency modes of the global shard's arrays in a ``cache_info()``."""
    return {entry["mode"] for entry in info["arrays"].values()
            if entry["shard"] == "global"}


def blobs_prefix(n_points: int, *, n_pool: int = 120, n_anchors: int = 36,
                 n_clusters: int = 3, n_features: int = 6,
                 seed: int = 0) -> MultiTypeRelationalData:
    """Two-type blobs whose first ``n_points`` objects are seed-stable.

    All randomness is drawn for the full ``n_pool`` up front, so
    ``blobs_prefix(90)`` is exactly the first 90 rows of
    ``blobs_prefix(120)`` — the appended-objects shape an incremental
    refresh ingests.
    """
    rng = np.random.default_rng(seed)
    point_labels = np.arange(n_pool) % n_clusters
    anchor_labels = np.arange(n_anchors) % n_clusters
    point_centers = rng.normal(scale=6.0, size=(n_clusters, n_features))
    anchor_centers = rng.normal(scale=6.0, size=(n_clusters, n_features))
    point_features = point_centers[point_labels] + rng.normal(
        size=(n_pool, n_features))
    anchor_features = anchor_centers[anchor_labels] + rng.normal(
        size=(n_anchors, n_features))
    co_cluster = point_labels[:, None] == anchor_labels[None, :]
    matrix = np.where(co_cluster, 1.0, 0.05) + 0.05 * rng.random(
        (n_pool, n_anchors))
    points = ObjectType("points", n_objects=n_points, n_clusters=n_clusters,
                        features=point_features[:n_points],
                        labels=point_labels[:n_points])
    anchors = ObjectType("anchors", n_objects=n_anchors,
                         n_clusters=n_clusters, features=anchor_features,
                         labels=anchor_labels)
    return MultiTypeRelationalData(
        [points, anchors],
        [Relation("points", "anchors", matrix[:n_points])])


@pytest.fixture(scope="session")
def blobs_factory():
    """The prefix-stable dataset generator, exposed to test modules."""
    return blobs_prefix


@pytest.fixture(scope="session")
def runtime_dataset() -> MultiTypeRelationalData:
    return blobs_prefix(90)


@pytest.fixture(scope="session")
def grown_dataset() -> MultiTypeRelationalData:
    return blobs_prefix(120)


@pytest.fixture(scope="session")
def runtime_artifact(runtime_dataset):
    model = RHCHME(max_iter=25, random_state=0, use_subspace_member=False,
                   track_metrics_every=0)
    model.fit(runtime_dataset)
    return model.export_model(runtime_dataset)


@pytest.fixture(scope="session")
def runtime_model_path(runtime_artifact, tmp_path_factory):
    return runtime_artifact.save(
        tmp_path_factory.mktemp("runtime") / "model.npz")


@pytest.fixture(scope="session")
def sharded_model_path(runtime_artifact, tmp_path_factory):
    return runtime_artifact.save(
        tmp_path_factory.mktemp("runtime-sharded") / "model.npz",
        shards="per-type-mmap")


@pytest.fixture(scope="session")
def query_batch(runtime_dataset):
    rng = np.random.default_rng(7)
    reference = runtime_dataset.get_type("points").features
    picks = rng.integers(0, reference.shape[0], size=64)
    return reference[picks] + 0.05 * rng.normal(size=(64, reference.shape[1]))
