"""End-to-end: a serving runtime scores its own query stream for drift.

A control stream of fresh in-distribution draws must score as healthy,
and scoring must never refresh the model by itself: a refresh runs only
when a caller asks for one (see ``tests/runtime/test_refresh.py``).
"""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.runtime import RuntimeServer

_WAIT = 30.0


@pytest.fixture
def drift_server(diag_artifact, tmp_path):
    """A serial-worker server scoring every batch for drift."""
    path = diag_artifact.save(tmp_path / "model.npz")
    server = RuntimeServer(workers="serial", max_batch_size=64,
                           max_delay_seconds=0.001,
                           diagnostics={"min_rows": 32})
    with server:
        yield server, path


class TestDriftRefreshEndToEnd:
    def test_undrifted_stream_never_triggers(self, drift_server,
                                             query_stream):
        server, path = drift_server
        for batch in range(6):
            server.predict(path=path, type_name="points",
                           queries=query_stream(64, seed=100 + batch),
                           timeout=_WAIT)
        assert server.stats.refreshes == 0
        # the detector saw the traffic and scored it as healthy
        (per_type,) = server.stats.drift.values()
        scores = per_type["points"]
        assert scores["rows"] >= 64
        assert scores["score"] < 1.0


class TestControlLoopValidation:
    def test_diagnostics_rejected_for_process_workers(self):
        with pytest.raises(ValidationError, match="process"):
            RuntimeServer(workers="process", n_workers=1, diagnostics=True)
