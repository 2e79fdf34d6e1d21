"""End-to-end tests of the asyncio HTTP front-end.

Every test boots a real server on a loopback port (via the ``launch``
fixture) and talks real HTTP through :class:`~repro.net.NetClient` or a
raw ``http.client`` connection — nothing is mocked, including the
acceptance-critical bit-identical parity between the HTTP round trip and
the in-process predict.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.exceptions import (ArtifactError, ModelNotFoundError,
                              QueueFullError, QuotaExceededError,
                              ServerDrainingError, ValidationError)
from repro.net import (NetClient, NetServer, PredictRequest,
                       WIRE_SCHEMA_VERSION, run_closed_loop)
from repro.serve.predictor import BatchPredictor


def _raw(host, port, method, path, document=None, *, timeout=30.0):
    """One raw HTTP exchange: ``(status, parsed_body, headers)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    body = None if document is None else json.dumps(document).encode("utf-8")
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        payload = response.read()
        return (response.status,
                json.loads(payload) if payload else {},
                dict(response.getheaders()))
    finally:
        conn.close()


def _wait_for_inflight(host, port, model, count, *, timeout=10.0):
    """Poll ``/v1/models`` until ``model`` shows ``count`` in flight."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, document, _ = _raw(host, port, "GET", "/v1/models")
        for route in document["models"]:
            if route["model"] == model and route["inflight"] >= count:
                return
        time.sleep(0.005)
    raise AssertionError(f"{model} never reached {count} in-flight requests")


# ------------------------------------------------------------------ parity
def test_http_roundtrip_bit_identical_to_in_process(launch, net_model_path,
                                                    net_queries):
    handle = launch()
    in_process = BatchPredictor().serve(PredictRequest(
        model=str(net_model_path), type_name="points", queries=net_queries))
    with NetClient(handle.host, handle.port) as client:
        over_http = client.predict("docs", "points", net_queries)
    np.testing.assert_array_equal(over_http.labels, in_process.labels)
    # Bit-identical, not allclose: float64 survives JSON because dumps
    # emits shortest-round-trip reprs.
    np.testing.assert_array_equal(over_http.membership,
                                  in_process.membership)


def test_response_echoes_public_model_id_and_request_id(launch, net_queries):
    handle = launch()
    with NetClient(handle.host, handle.port) as client:
        response = client.predict("docs", "points", net_queries[:2],
                                  request_id="corr-42")
    assert response.model == "docs"  # the id, never the artifact path
    assert response.request_id == "corr-42"
    assert response.seconds is not None and response.seconds > 0


def test_keep_alive_connection_reuse(launch, net_queries):
    handle = launch()
    with NetClient(handle.host, handle.port) as client:
        first = client.predict("docs", "points", net_queries[:1])
        second = client.predict("docs", "points", net_queries[1:2])
    assert first.n_queries == second.n_queries == 1


# ------------------------------------------------------------- error paths
def test_unknown_model_404(launch, net_queries):
    handle = launch()
    with NetClient(handle.host, handle.port) as client:
        with pytest.raises(ModelNotFoundError, match="not registered"):
            client.predict("nope", "points", net_queries[:1])
    status, document, _ = _raw(
        handle.host, handle.port, "POST", "/v1/predict",
        {"model": "nope", "type": "points",
         "queries": net_queries[:1].tolist()})
    assert status == 404
    assert document["code"] == "model_not_found"


def test_invalid_json_body_400(launch):
    handle = launch()
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
    try:
        conn.request("POST", "/v1/predict", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        document = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 400
    assert document["code"] == "invalid_request"


def test_missing_required_field_400(launch, net_queries):
    handle = launch()
    status, document, _ = _raw(
        handle.host, handle.port, "POST", "/v1/predict",
        {"model": "docs", "queries": net_queries[:1].tolist()})
    assert status == 400
    assert document["code"] == "invalid_request"
    assert "type" in document["message"]


def test_newer_schema_version_refused_400(launch, net_queries):
    handle = launch()
    status, document, _ = _raw(
        handle.host, handle.port, "POST", "/v1/predict",
        {"schema_version": WIRE_SCHEMA_VERSION + 1, "model": "docs",
         "type": "points", "queries": net_queries[:1].tolist()})
    assert status == 400
    assert document["code"] == "invalid_request"
    assert "newer" in document["message"]


def test_bad_type_name_maps_to_validation_error(launch, net_queries):
    handle = launch()
    with NetClient(handle.host, handle.port) as client:
        with pytest.raises(ValidationError):
            client.predict("docs", "not-a-type", net_queries[:1])


def test_unknown_route_404_and_method_405(launch):
    handle = launch()
    status, document, _ = _raw(handle.host, handle.port, "GET", "/nope")
    assert (status, document["code"]) == (404, "not_found")
    status, document, _ = _raw(handle.host, handle.port, "GET", "/v1/predict")
    assert (status, document["code"]) == (405, "invalid_request")
    status, document, _ = _raw(handle.host, handle.port, "POST", "/v1/health")
    assert status == 405


# -------------------------------------------------------------- inspection
def test_health_models_stats_endpoints(launch, net_queries):
    handle = launch()
    with NetClient(handle.host, handle.port) as client:
        client.predict("docs", "points", net_queries[:2])
        health = client.health()
        models = client.models()
        stats = client.stats()
    assert health["status"] == "ok"
    assert health["models"] == ["docs"]
    (route,) = models["models"]
    assert route["model"] == "docs"
    assert route["served"] == 1
    assert route["inflight"] == 0
    assert stats["runtime"]["completed"] == 1
    assert stats["predictor"]["requests"] == 1
    assert stats["draining"] is False
    assert stats["schema_version"] == WIRE_SCHEMA_VERSION


# -------------------------------------------------- admission and shedding
def test_quota_429_sheds_without_failing_inflight(launch, net_queries):
    # One admission slot; a long deadline flush keeps the accepted request
    # in flight while the second one arrives and must be shed.
    handle = launch(max_inflight_per_model=1, max_delay_seconds=0.6,
                    max_batch_size=4096)
    results = {}

    def _accepted():
        with NetClient(handle.host, handle.port) as client:
            results["response"] = client.predict("docs", "points",
                                                 net_queries[:1])

    thread = threading.Thread(target=_accepted)
    thread.start()
    try:
        _wait_for_inflight(handle.host, handle.port, "docs", 1)
        status, document, headers = _raw(
            handle.host, handle.port, "POST", "/v1/predict",
            {"model": "docs", "type": "points",
             "queries": net_queries[1:2].tolist()})
        assert status == 429
        assert document["code"] == "quota_exceeded"
        assert document["retryable"] is True
        assert "Retry-After" in headers
        with NetClient(handle.host, handle.port) as client:
            with pytest.raises(QuotaExceededError):
                client.predict("docs", "points", net_queries[1:2])
    finally:
        thread.join()
    # The accepted in-flight request survived the shedding.
    assert results["response"].n_queries == 1
    (route,) = _raw(handle.host, handle.port, "GET", "/v1/models")[1]["models"]
    assert route["rejected"] >= 2
    # The slot is free again: the next request is admitted.
    with NetClient(handle.host, handle.port) as client:
        assert client.predict("docs", "points",
                              net_queries[:1]).n_queries == 1


def test_queue_full_503_from_backpressure(launch, net_queries):
    # max_pending=1 row: one queued request saturates the global queue.
    handle = launch(max_pending=1, max_delay_seconds=0.6,
                    max_batch_size=4096)
    results = {}

    def _accepted():
        with NetClient(handle.host, handle.port) as client:
            results["response"] = client.predict("docs", "points",
                                                 net_queries[:1])

    thread = threading.Thread(target=_accepted)
    thread.start()
    try:
        _wait_for_inflight(handle.host, handle.port, "docs", 1)
        status, document, headers = _raw(
            handle.host, handle.port, "POST", "/v1/predict",
            {"model": "docs", "type": "points",
             "queries": net_queries[1:2].tolist()})
        assert status == 503
        assert document["code"] == "queue_full"
        assert "Retry-After" in headers
        with NetClient(handle.host, handle.port) as client:
            with pytest.raises(QueueFullError):
                client.predict("docs", "points", net_queries[1:2])
    finally:
        thread.join()
    assert results["response"].n_queries == 1


def test_request_larger_than_queue_400_not_retryable(launch, net_queries):
    # max_pending=1 row: a two-row request can never be admitted, so it
    # is refused as invalid instead of shed with a retry hint.
    handle = launch(max_pending=1)
    status, document, headers = _raw(
        handle.host, handle.port, "POST", "/v1/predict",
        {"model": "docs", "type": "points",
         "queries": net_queries[:2].tolist()})
    assert status == 400
    assert document["code"] == "invalid_request"
    assert document["retryable"] is False
    assert "Retry-After" not in headers
    runtime = _raw(handle.host, handle.port, "GET", "/v1/stats")[1]["runtime"]
    assert runtime["rejected"] == 0
    assert runtime["errors"] == {"invalid_request": 1}


@pytest.mark.parametrize("quota", [0, -1])
def test_non_positive_quota_refused(launch, net_model_path, quota):
    before = set(threading.enumerate())
    with pytest.raises(ValidationError, match="max_inflight_per_model"):
        NetServer(models={"docs": str(net_model_path)}, workers="serial",
                  max_inflight_per_model=quota)
    # Refused before the runtime (and its batcher thread) was built.
    assert set(threading.enumerate()) <= before
    handle = launch()
    with pytest.raises(ValidationError, match="max_inflight"):
        handle.server.register_model("other", net_model_path,
                                     max_inflight=quota)
    assert handle.server.models == ["docs"]


def test_failed_initial_registration_closes_owned_runtime(tmp_path):
    before = set(threading.enumerate())
    with pytest.raises(ArtifactError, match="not found"):
        NetServer(models={"docs": str(tmp_path / "missing.npz")},
                  workers="thread")
    # The runtime the constructor built is closed, batcher thread included.
    leaked = [thread.name for thread in set(threading.enumerate()) - before
              if thread.name == "repro-microbatcher"]
    assert leaked == []


# --------------------------------------------------------- drain lifecycle
def test_drain_completes_inflight_then_sheds_new(launch, net_queries):
    handle = launch(max_delay_seconds=0.4, max_batch_size=4096)
    results = {}

    def _accepted():
        with NetClient(handle.host, handle.port) as client:
            results["response"] = client.predict("docs", "points",
                                                 net_queries[:3])

    thread = threading.Thread(target=_accepted)
    thread.start()
    try:
        _wait_for_inflight(handle.host, handle.port, "docs", 1)
        # drain() blocks until the in-flight request settles...
        assert handle.drain(timeout=30.0) is True
    finally:
        thread.join()
    assert results["response"].n_queries == 3
    with NetClient(handle.host, handle.port) as client:
        # ...after which new admissions are shed with 503 draining
        with pytest.raises(ServerDrainingError):
            client.predict("docs", "points", net_queries[:1])
        assert client.health()["status"] == "draining"


def test_drain_endpoint_over_http(launch):
    handle = launch()
    with NetClient(handle.host, handle.port) as client:
        document = client.drain(timeout_seconds=10.0)
    assert document["drained"] is True
    assert document["in_flight"] == 0


def test_refresh_keeps_inflight_alive(launch, cloned_model_path,
                                      net_grown_dataset, net_queries):
    # Hot-swap the model while a request is queued mid-flight: the request
    # must complete (old immutable artifact), and post-swap requests serve
    # the refreshed model.
    handle = launch(models={"docs": str(cloned_model_path)},
                    max_delay_seconds=0.8, max_batch_size=4096)
    results = {}

    def _inflight():
        with NetClient(handle.host, handle.port) as client:
            results["response"] = client.predict("docs", "points",
                                                 net_queries[:4])

    thread = threading.Thread(target=_inflight)
    thread.start()
    try:
        _wait_for_inflight(handle.host, handle.port, "docs", 1)
        outcome = handle.refresh("docs", net_grown_dataset, max_iter=3)
        assert outcome is not None
    finally:
        thread.join()
    assert results["response"].n_queries == 4
    assert set(np.unique(results["response"].labels)) <= {0, 1, 2}
    with NetClient(handle.host, handle.port) as client:
        refreshed = client.predict("docs", "points", net_queries[:4])
        assert refreshed.n_queries == 4
        assert client.stats()["runtime"]["refreshes"] == 1


def test_refresh_unknown_model_raises(launch):
    handle = launch()
    with pytest.raises(ModelNotFoundError):
        handle.refresh("ghost", None)


# ----------------------------------------------------------------- loadgen
def test_closed_loop_loadgen_counters(launch, net_queries):
    handle = launch()
    report = run_closed_loop(handle.host, handle.port, model="docs",
                             type_name="points", queries=net_queries,
                             n_clients=3, requests_per_client=5,
                             rows_per_request=2)
    assert report.requests == 15
    assert report.completed == 15
    assert report.errors == 0
    assert report.rejected == 0
    assert report.objects == 30
    assert report.p50_ms > 0
    assert report.p99_ms >= report.p50_ms
    summary = report.as_dict()
    assert summary["requests_per_second"] > 0
    assert summary["n_clients"] == 3
