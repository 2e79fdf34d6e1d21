"""Shutdown cancellation semantics and the keyword-only serving adapters."""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest

from repro.exceptions import ServerClosedError
from repro.net.schema import PredictRequest, PredictResponse
from repro.runtime import MicroBatcher
from repro.runtime.server import RuntimeServer
from repro.serve.predictor import BatchPredictor


# ------------------------------------------------------- close cancellation
def test_close_without_drain_cancels_queued_futures():
    batcher = MicroBatcher(lambda key, batch: None, max_batch_size=1000,
                           max_delay_seconds=60.0)
    futures = [batcher.submit("k", np.zeros((1, 2))) for _ in range(3)]
    batcher.close(drain=False)
    for future in futures:
        with pytest.raises(ServerClosedError, match="cancelled"):
            future.result(timeout=1.0)
    assert batcher.flush_counts["cancelled"] >= 1


def test_close_settles_requests_a_stalled_drain_cannot_flush():
    # Key A's dispatch blocks the timer thread; key B stays queued behind
    # it.  close() must not orphan B: after the drain times out, B's
    # future settles with ServerClosedError.
    release = threading.Event()
    dispatched = threading.Event()

    def on_batch(key, batch):
        if key == "stall":
            dispatched.set()
            release.wait(timeout=10.0)

    batcher = MicroBatcher(on_batch, max_batch_size=1000,
                           max_delay_seconds=0.01)
    stalled = batcher.submit("stall", np.zeros((1, 2)))
    assert dispatched.wait(timeout=5.0)
    queued = batcher.submit("queued", np.zeros((1, 2)))
    batcher.close(timeout=0.2, drain=True)
    with pytest.raises(ServerClosedError):
        queued.result(timeout=1.0)
    release.set()
    assert not stalled.done() or stalled.exception() is None


def test_submit_after_close_raises_typed_error():
    batcher = MicroBatcher(lambda key, batch: None)
    batcher.close()
    with pytest.raises(ServerClosedError):
        batcher.submit("k", np.zeros((1, 2)))
    # ...and the typed error still satisfies pre-taxonomy except clauses
    with pytest.raises(RuntimeError):
        batcher.submit("k", np.zeros((1, 2)))


def test_runtime_server_close_cancels_queued_requests(runtime_model_path,
                                                      query_batch):
    server = RuntimeServer(workers="serial", max_batch_size=10_000,
                           max_delay_seconds=60.0)
    future = server.submit(path=str(runtime_model_path), type_name="points",
                           queries=query_batch[:4])
    server.close(drain=False)
    with pytest.raises(ServerClosedError):
        future.result(timeout=1.0)
    with pytest.raises(ServerClosedError):
        server.submit(path=str(runtime_model_path), type_name="points",
                      queries=query_batch[:4])


# ------------------------------------------------------ keyword-only adapters
def test_positional_predict_raises_type_error(runtime_model_path,
                                              query_batch):
    with RuntimeServer(workers="serial") as server:
        with pytest.raises(TypeError, match="positional"):
            server.predict(str(runtime_model_path), "points",
                           query_batch[:4])


def test_positional_submit_raises_type_error(runtime_model_path,
                                             query_batch):
    with RuntimeServer(workers="serial") as server:
        with pytest.raises(TypeError, match="positional"):
            server.submit(str(runtime_model_path), "points", query_batch[:4])


def test_keyword_predict_does_not_warn(runtime_model_path, query_batch):
    with RuntimeServer(workers="serial") as server:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            prediction = server.predict(path=str(runtime_model_path),
                                        type_name="points",
                                        queries=query_batch[:4])
    assert prediction.labels.shape == (4,)


def test_batch_predictor_positional_raises_type_error(runtime_model_path,
                                                     query_batch):
    predictor = BatchPredictor()
    with pytest.raises(TypeError, match="positional"):
        predictor.predict(str(runtime_model_path), "points", query_batch[:4])


def test_legacy_adapters_agree_with_schema_serve(runtime_model_path,
                                                 query_batch):
    # The keyword surface is an adapter, not a parallel code path: the
    # schema entry point and the keyword one must return identical arrays.
    predictor = BatchPredictor()
    request = PredictRequest(model=str(runtime_model_path),
                             type_name="points", queries=query_batch[:8])
    via_schema = predictor.serve(request)
    assert isinstance(via_schema, PredictResponse)
    via_legacy = predictor.predict(path=str(runtime_model_path),
                                   type_name="points",
                                   X_new=query_batch[:8])
    np.testing.assert_array_equal(via_schema.labels, via_legacy.labels)
    np.testing.assert_array_equal(via_schema.membership,
                                  via_legacy.membership)


def test_runtime_serve_roundtrips_schema_types(runtime_model_path,
                                               query_batch):
    with RuntimeServer(workers="serial") as server:
        request = PredictRequest(model=str(runtime_model_path),
                                 type_name="points", queries=query_batch[:8],
                                 request_id="x-1")
        response = server.serve(request)
    assert isinstance(response, PredictResponse)
    assert response.request_id == "x-1"
    assert response.model == str(runtime_model_path)
    assert response.seconds is not None and response.seconds > 0
    assert response.labels.shape == (8,)


def test_unknown_keyword_raises_type_error(runtime_model_path, query_batch):
    with RuntimeServer(workers="serial") as server:
        with pytest.raises(TypeError, match="unexpected keyword"):
            server.predict(path=str(runtime_model_path), type_name="points",
                           queries=query_batch[:2], bogus=1)


def test_missing_argument_raises_type_error():
    predictor = BatchPredictor()
    with pytest.raises(TypeError, match="missing"):
        predictor.predict(type_name="points")
