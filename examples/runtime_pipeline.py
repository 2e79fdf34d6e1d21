"""Runtime pipeline: fit → shard-save → concurrent predict → refresh.

This example walks the serving-at-scale lifecycle the ``repro.runtime``
subsystem adds on top of ``repro.serve``:

1. generate a two-type synthetic dataset and fit RHCHME on its first 90
   "points" (new objects will arrive later);
2. export the fitted model as a **per-type-mmap** artifact — one raw
   ``.npy`` per array, grouped per object type in a manifest sidecar;
3. serve a stream of batch-1 predict requests through a
   :class:`RuntimeServer` (micro-batching + thread worker pool) and show
   with manifest accounting that only the queried type's arrays were
   mapped;
4. compare against the serial batch-1 loop the runtime replaces;
5. **refresh**: 30 new points arrive — warm-start a refit from the fitted
   G/S/E_R blocks, hot-swap the refreshed model into the serving cache, and
   keep answering queries throughout.

Run with::

    PYTHONPATH=src python examples/runtime_pipeline.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import RHCHME
from repro.relational import MultiTypeRelationalData, ObjectType, Relation
from repro.runtime import RuntimeServer
from repro.serve import BatchPredictor


def make_growing_blobs(n_points: int, *, n_pool: int = 120,
                       seed: int = 0) -> MultiTypeRelationalData:
    """Two-type blobs whose first ``n_points`` objects are seed-stable.

    All randomness for the full pool is drawn up front, so the 90-point
    dataset is an exact prefix of the 120-point one — the shape a streaming
    ingest produces and the refresh path requires.
    """
    n_clusters, n_features, n_anchors = 3, 6, 36
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


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-runtime-"))

    # ------------------------------------------------------------- 1. fit
    initial = make_growing_blobs(90)
    print(f"1. fitting RHCHME on {initial.describe()}")
    model = RHCHME(max_iter=25, random_state=0, use_subspace_member=False,
                   track_metrics_every=0)
    model.fit(initial)

    # ------------------------------------------------- 2. sharded export
    artifact = model.export_model(initial)
    path = artifact.save(workdir / "model.npz", shards="per-type-mmap")
    shard_names = sorted(p.name for p in workdir.iterdir())
    print(f"2. exported per-type-mmap arrays: {shard_names}")

    # --------------------------------------- 3. concurrent micro-batching
    rng = np.random.default_rng(1)
    reference = initial.get_type("points").features
    stream = reference[rng.integers(0, reference.shape[0], 400)]
    stream = stream + 0.05 * rng.normal(size=stream.shape)

    with RuntimeServer(workers="thread", n_workers=4, max_batch_size=64,
                       max_delay_seconds=0.002) as runtime:
        start = time.perf_counter()
        futures = [runtime.submit(path=path, type_name="points", queries=row)
                   for row in stream]
        labels = np.array([f.result(timeout=60).labels[0] for f in futures])
        runtime_seconds = time.perf_counter() - start
        stats = runtime.stats
        print(f"3. runtime answered {stats.completed} batch-1 requests in "
              f"{stats.batches} coalesced batches "
              f"({stream.shape[0] / runtime_seconds:,.0f} objects/s, "
              f"mean batch {stats.mean_batch_rows:.1f} rows)")
        model = runtime.predictor.get_model(path)
        info = model.reader.cache_info()
        read = sorted({entry["shard"] for entry in info["arrays"].values()
                       if entry["mode"] != "cold"} - {"global"})
        assert read == ["points"]
        print(f"   shards read: {read} of {len(model.types)} types "
              f"({info['mapped_bytes']:,} of {info['total_bytes']:,} "
              "array bytes mapped, S and E_R included)")

    # ------------------------------------------------ 4. serial baseline
    predictor = BatchPredictor()
    predictor.predict(path=path, type_name="points", X_new=stream[:1])  # warm
    start = time.perf_counter()
    serial_labels = np.array(
        [predictor.predict(path=path, type_name="points",
                           X_new=row[None, :]).labels[0]
         for row in stream])
    serial_seconds = time.perf_counter() - start
    np.testing.assert_array_equal(labels, serial_labels)
    print(f"4. serial batch-1 loop: "
          f"{stream.shape[0] / serial_seconds:,.0f} objects/s -> "
          f"micro-batching is ×{serial_seconds / runtime_seconds:.1f} "
          "on this stream (identical labels)")

    # ----------------------------------------------------- 5. refresh
    grown = make_growing_blobs(120)
    print(f"5. 30 new points arrived: {grown.describe()}")
    with RuntimeServer(workers="thread", n_workers=2, max_batch_size=64,
                       max_delay_seconds=0.002) as runtime:
        in_flight = runtime.submit(path=path, type_name="points",
                                   queries=stream[:32])
        outcome = runtime.refresh(path, grown, max_iter=10)
        after = runtime.predict(path=path, type_name="points",
                                queries=stream[:32], timeout=60)
        print(f"   refresh refit {outcome.result.n_iterations} iterations "
              f"(warm start), grew {outcome.grown}, in-flight request "
              f"answered {in_flight.result(timeout=60).n_queries} queries, "
              f"post-refresh request answered {after.n_queries}")
        refreshed = runtime.predictor.get_model(path)
        print(f"   serving model now covers "
              f"{refreshed.type_info('points').n_objects} points "
              f"(was {artifact.type_info('points').n_objects})")


if __name__ == "__main__":
    main()
