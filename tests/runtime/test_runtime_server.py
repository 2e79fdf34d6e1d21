"""Tests for the RuntimeServer worker-pool front-end (repro.runtime.server)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exceptions import QueueFullError, ValidationError
from repro.runtime import RuntimeServer

from .conftest import global_modes, touched_types

_WAIT = 30.0


@pytest.fixture(params=["serial", "thread"])
def server(request):
    with RuntimeServer(workers=request.param, n_workers=2, max_batch_size=16,
                       max_delay_seconds=0.005) as runtime:
        yield runtime


class TestCorrectness:
    def test_batch1_stream_matches_direct_predict(self, server,
                                                  runtime_model_path,
                                                  runtime_artifact,
                                                  query_batch):
        futures = [server.submit(path=runtime_model_path,
                                 type_name="points", queries=row)
                   for row in query_batch]
        labels = np.array([f.result(timeout=_WAIT).labels[0]
                           for f in futures])
        membership = np.vstack([f.result(timeout=_WAIT).membership
                                for f in futures])
        direct = runtime_artifact.predict("points", query_batch)
        np.testing.assert_array_equal(labels, direct.labels)
        np.testing.assert_allclose(membership, direct.membership,
                                   rtol=1e-12, atol=1e-15)

    def test_mixed_sizes_split_back_correctly(self, server,
                                              runtime_model_path,
                                              runtime_artifact, query_batch):
        chunks = [query_batch[:3], query_batch[3:4], query_batch[4:11]]
        futures = [server.submit(path=runtime_model_path,
                                 type_name="points", queries=chunk)
                   for chunk in chunks]
        results = [f.result(timeout=_WAIT) for f in futures]
        assert [r.n_queries for r in results] == [3, 1, 7]
        direct = runtime_artifact.predict("points", query_batch[:11])
        np.testing.assert_array_equal(
            np.concatenate([r.labels for r in results]), direct.labels)

    def test_single_vector_request_accepted(self, server, runtime_model_path):
        prediction = server.predict(path=runtime_model_path,
                                    type_name="points",
                                    queries=np.zeros(6), timeout=_WAIT)
        assert prediction.n_queries == 1

    def test_requests_coalesce_into_batches(self, server, runtime_model_path,
                                            query_batch):
        futures = [server.submit(path=runtime_model_path,
                                 type_name="points", queries=row)
                   for row in query_batch]
        for future in futures:
            future.result(timeout=_WAIT)
        stats = server.stats
        assert stats.submitted == len(query_batch)
        assert stats.completed == len(query_batch)
        assert stats.batches < len(query_batch)  # coalescing happened
        assert stats.mean_batch_rows > 1
        assert stats.objects == len(query_batch)

    def test_sharded_artifact_served_lazily(self, sharded_model_path,
                                            runtime_artifact, query_batch):
        with RuntimeServer(workers="serial", max_batch_size=16,
                           max_delay_seconds=0.005) as runtime:
            prediction = runtime.predict(path=sharded_model_path,
                                         type_name="points",
                                         queries=query_batch, timeout=_WAIT)
            direct = runtime_artifact.predict("points", query_batch)
            np.testing.assert_array_equal(prediction.labels, direct.labels)
            model = runtime.predictor.get_model(sharded_model_path)
            info = model.reader.cache_info()
            assert touched_types(info) == ["points"]
            # S and E_R are mapped at open; none of their bytes is resident
            assert global_modes(info) == {"mapped"}


class TestErrorRouting:
    def test_validation_error_lands_in_future(self, server,
                                              runtime_model_path):
        future = server.submit(path=runtime_model_path,
                               type_name="points", queries=np.ones((2, 2)))
        with pytest.raises(ValidationError, match="features"):
            future.result(timeout=_WAIT)
        assert server.stats.failed >= 1

    def test_unknown_type_lands_in_future(self, server, runtime_model_path):
        future = server.submit(path=runtime_model_path,
                               type_name="nope", queries=np.ones((1, 6)))
        with pytest.raises(ValidationError, match="unknown object type"):
            future.result(timeout=_WAIT)

    def test_failed_batch_does_not_poison_later_requests(
            self, server, runtime_model_path, runtime_artifact, query_batch):
        bad = server.submit(path=runtime_model_path,
                            type_name="points", queries=np.ones((1, 3)))
        with pytest.raises(ValidationError):
            bad.result(timeout=_WAIT)
        good = server.predict(path=runtime_model_path,
                              type_name="points", queries=query_batch,
                              timeout=_WAIT)
        np.testing.assert_array_equal(
            good.labels, runtime_artifact.predict("points", query_batch).labels)


class TestBackpressure:
    def test_queue_full_raises_and_counts(self, runtime_model_path):
        with RuntimeServer(workers="serial", max_batch_size=10**6,
                           max_delay_seconds=30.0, max_pending=8) as runtime:
            runtime.submit(path=runtime_model_path,
                           type_name="points", queries=np.zeros((8, 6)))
            with pytest.raises(QueueFullError):
                runtime.submit(path=runtime_model_path,
                               type_name="points", queries=np.zeros((1, 6)))
            assert runtime.stats.rejected == 1
            assert runtime.pending_rows == 8
            runtime.flush()
            assert runtime.pending_rows == 0

    def test_request_larger_than_queue_is_invalid_not_retryable(
            self, runtime_model_path):
        # No amount of waiting admits 9 rows into an 8-row queue, so the
        # request is refused as invalid rather than shed as backpressure.
        with RuntimeServer(workers="serial", max_pending=8) as runtime:
            with pytest.raises(ValidationError,
                               match="9 rows.*limit of 8") as excinfo:
                runtime.submit(path=runtime_model_path, type_name="points",
                               queries=np.zeros((9, 6)))
            assert excinfo.value.retryable is False
            assert runtime.pending_rows == 0
            stats = runtime.stats
            assert stats.rejected == 0
            assert stats.submitted == 0
            assert stats.errors == {"invalid_request": 1}


class TestConcurrentSubmitters:
    def test_parallel_clients_all_get_answers(self, runtime_model_path,
                                              runtime_artifact, query_batch):
        direct = runtime_artifact.predict("points", query_batch)
        errors: list[Exception] = []

        with RuntimeServer(workers="thread", n_workers=4, max_batch_size=32,
                           max_delay_seconds=0.002) as runtime:
            def client(worker_index: int) -> None:
                try:
                    for row_index, row in enumerate(query_batch):
                        prediction = runtime.predict(
                            path=runtime_model_path, type_name="points",
                            queries=row, timeout=_WAIT)
                        if prediction.labels[0] != direct.labels[row_index]:
                            raise AssertionError(
                                f"client {worker_index} row {row_index}: "
                                f"{prediction.labels[0]} != "
                                f"{direct.labels[row_index]}")
                except Exception as exc:  # noqa: BLE001 - rethrown below
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=_WAIT)
            assert not errors, errors[0]
            assert runtime.stats.completed == 4 * len(query_batch)


class TestCancelledFutures:
    def test_cancelled_future_does_not_strand_batchmates(
            self, runtime_model_path, runtime_artifact, query_batch):
        # Queue two requests, cancel the first before any flush, then let
        # the batch run: the surviving request must still get its answer.
        with RuntimeServer(workers="serial", max_batch_size=10**6,
                           max_delay_seconds=30.0) as runtime:
            doomed = runtime.submit(path=runtime_model_path,
                                    type_name="points",
                                    queries=query_batch[:1])
            survivor = runtime.submit(path=runtime_model_path,
                                      type_name="points",
                                      queries=query_batch[1:3])
            assert doomed.cancel()
            runtime.flush()
            prediction = survivor.result(timeout=_WAIT)
            direct = runtime_artifact.predict("points", query_batch[1:3])
            np.testing.assert_array_equal(prediction.labels, direct.labels)


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_new_work(self,
                                                      runtime_model_path):
        runtime = RuntimeServer(workers="serial", max_batch_size=4,
                                max_delay_seconds=0.005)
        runtime.close()
        runtime.close()
        with pytest.raises(RuntimeError, match="closed"):
            runtime.submit(path=runtime_model_path,
                           type_name="points", queries=np.zeros((1, 6)))

    def test_invalid_worker_mode_rejected(self):
        for workers in ("fibers", "process"):
            with pytest.raises(ValidationError, match="workers"):
                RuntimeServer(workers=workers)

    @pytest.mark.parametrize("workers", ["thread", "serial"])
    @pytest.mark.parametrize("n_workers", [0, -1])
    def test_non_positive_n_workers_rejected(self, workers, n_workers):
        with pytest.raises(ValidationError, match="n_workers"):
            RuntimeServer(workers=workers, n_workers=n_workers)
