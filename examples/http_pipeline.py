"""HTTP serving pipeline: fit → shard-save → serve → concurrent clients → drain.

This example walks the full network serving lifecycle the ``repro.net``
tier adds on top of ``repro.runtime``:

1. generate a two-type synthetic dataset and fit RHCHME on its first 90
   "points";
2. export the fitted model as a **per-type-mmap** artifact (one raw
   ``.npy`` per array, served lazily through memory maps);
3. boot the asyncio HTTP front-end (:class:`repro.net.NetServer`) on a
   loopback port, routing the model id ``points-model`` onto a shared
   micro-batching worker pool;
4. hit it with **concurrent closed-loop clients** speaking the versioned
   wire schema, and verify the HTTP answers are bit-identical to the
   in-process predict;
5. **hot-swap**: 30 new points arrive — warm-start-refresh the artifact
   through the running server while requests are in flight;
6. **drain**: stop admitting (new requests get HTTP 503 ``draining``),
   wait for in-flight requests to settle, shut down.

Everything is standard library — the server is asyncio, the clients are
``http.client``.  Run with::

    PYTHONPATH=src python examples/http_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import RHCHME
from repro.exceptions import ServerDrainingError
from repro.net import NetClient, NetServer, PredictRequest, run_closed_loop
from repro.relational import MultiTypeRelationalData, ObjectType, Relation
from repro.serve import BatchPredictor


def make_growing_blobs(n_points: int, *, n_pool: int = 120,
                       seed: int = 0) -> MultiTypeRelationalData:
    """Two-type blobs whose first ``n_points`` objects are seed-stable."""
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
    workdir = Path(tempfile.mkdtemp(prefix="repro-net-"))

    # ------------------------------------------------------------- 1. fit
    initial = make_growing_blobs(90)
    print(f"1. fitting RHCHME on {initial.describe()}")
    model = RHCHME(max_iter=25, random_state=0, use_subspace_member=False,
                   track_metrics_every=0)
    model.fit(initial)

    # ------------------------------------------------- 2. sharded export
    artifact = model.export_model(initial)
    path = artifact.save(workdir / "model.npz", shards="per-type-mmap")
    print(f"2. exported {sorted(p.name for p in workdir.iterdir())}")

    # ------------------------------------------------------ 3. serve HTTP
    handle = NetServer.launch(models={"points-model": str(path)},
                              workers="thread", n_workers=2,
                              max_batch_size=64, max_delay_seconds=0.002)
    print(f"3. serving 'points-model' on http://{handle.host}:{handle.port} "
          "(POST /v1/predict, GET /v1/models|stats|health, POST /v1/drain)")

    rng = np.random.default_rng(1)
    reference = initial.get_type("points").features
    stream = reference[rng.integers(0, reference.shape[0], 200)]
    stream = stream + 0.05 * rng.normal(size=stream.shape)

    # ------------------------------------- 4. concurrent clients + parity
    over_http = NetClient(handle.host, handle.port).predict(
        "points-model", "points", stream[:32])
    in_process = BatchPredictor().serve(PredictRequest(
        model=str(path), type_name="points", queries=stream[:32]))
    np.testing.assert_array_equal(over_http.labels, in_process.labels)
    np.testing.assert_array_equal(over_http.membership,
                                  in_process.membership)
    print("4. HTTP round trip is bit-identical to the in-process predict")

    report = run_closed_loop(handle.host, handle.port, model="points-model",
                             type_name="points", queries=stream,
                             n_clients=4, requests_per_client=50)
    print(f"   4 closed-loop clients: {report.requests_per_second:,.0f} "
          f"req/s sustained, p50 {report.p50_ms:.1f} ms / "
          f"p99 {report.p99_ms:.1f} ms, {report.rejected} shed")

    # --------------------------------------------------------- 5. refresh
    grown = make_growing_blobs(120)
    print("5. 30 new points arrived: refreshing through the live server")
    outcome = handle.refresh("points-model", grown, max_iter=10)
    with NetClient(handle.host, handle.port) as client:
        refreshed = client.predict("points-model", "points", stream[:8])
        stats = client.stats()
    print(f"   warm-start refit ({outcome.result.n_iterations} iterations), "
          f"hot-swapped; post-refresh request answered "
          f"{refreshed.n_queries} queries "
          f"(server refreshes={stats['runtime']['refreshes']})")

    # ----------------------------------------------------------- 6. drain
    with NetClient(handle.host, handle.port) as client:
        drained = client.drain(timeout_seconds=30)
        print(f"6. drained (in_flight={drained['in_flight']}); new requests "
              "are now shed:")
        try:
            client.predict("points-model", "points", stream[:1])
        except ServerDrainingError as exc:
            print(f"   HTTP 503 error[{exc.code}]: {exc}")
        print(f"   health: {client.health()['status']}")
    handle.close()
    print("   server stopped; bye")


if __name__ == "__main__":
    main()
