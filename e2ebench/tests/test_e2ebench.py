"""Tests of the benchmark harness itself (run: python -m pytest e2ebench/tests)."""

from __future__ import annotations

import json
import math
import random
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

import common
import grow_log
import serve_http
from layers import LAYER_METRICS
from stats import TAIL_BEYOND, TAIL_CAP, OpLog, tail

from repro.exceptions import QueueFullError, QuotaExceededError
from repro.net.schema import ErrorResponse, PredictResponse

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------- tail rule
@pytest.mark.parametrize("n", [1, 6, TAIL_BEYOND, 15, 2 * TAIL_BEYOND - 1])
def test_tail_under_twenty_samples_falls_back_to_the_median(n):
    result = tail(random.Random(n).sample(range(1, n + 1), n))
    assert (result.percentile, result.n) == (50.0, n)
    assert result.value == math.ceil(n / 2)
    assert result.beyond < TAIL_BEYOND and not result.rule_met


@pytest.mark.parametrize("n", [2 * TAIL_BEYOND, 37, 100, 399, 1000, 7919])
@pytest.mark.parametrize("cap", [TAIL_CAP, 100.0])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, cap):
    samples = random.Random(n).sample(range(10 * n), n)
    result = tail(samples, cap=cap)
    beyond = sum(x > result.value for x in samples)
    assert beyond == result.beyond >= TAIL_BEYOND
    assert result.n == n and result.rule_met
    assert result.percentile == min(cap, 100.0 * (n - TAIL_BEYOND) / n)
    if result.percentile < cap:
        assert beyond == TAIL_BEYOND


@pytest.mark.parametrize("cap, n, percentile, value", [
    (TAIL_CAP, 20, 50.0, 10), (TAIL_CAP, 40, 75.0, 30),
    (TAIL_CAP, 100, 90.0, 90), (TAIL_CAP, 7919, 90.0, 7128),
    (100.0, 1000, 99.0, 990), (100.0, 10000, 99.9, 9990)])
def test_tail_values(cap, n, percentile, value):
    result = tail(range(1, n + 1), cap=cap)
    assert (result.percentile, result.value) == (pytest.approx(percentile),
                                                 value)


def test_report_gives_tail_percentile_and_sample_count():
    ops = OpLog(timed_seconds=2.0)
    for latency in np.linspace(0.001, 0.1, 100):
        ops.record(float(latency))
    outcome = common.Outcome(setup_seconds=[1.0, 3.0, 2.0], ops=ops,
                             fscore=0.9, nmi=0.8, peak_rss_mb=100.0,
                             checks=common.Checks())
    metrics, notes = common.end_to_end(outcome)
    assert notes["op_tail_ms"] == {"percentile": 90.0, "beyond": 10,
                                   "n": 100, "rule_met": True}
    assert metrics["op_tail_ms"] == (pytest.approx(0.09 * 1e3), "ms")
    assert metrics["setup_s"] == (2.0, "s")
    assert metrics["ops_per_s"] == (50.0, "1/s")


# ------------------------------------------------------ failure counting
class _SheddingHandler(BaseHTTPRequestHandler):
    """Answers predicts with a repeating 200, 429, 503 cycle."""

    protocol_version = "HTTP/1.1"
    lock = threading.Lock()
    served: list = []

    def do_POST(self):  # noqa: N802 - http.server naming
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.lock:
            kind = len(self.served) % 3
            self.served.append(kind)
        if kind == 0:
            status, document = 200, PredictResponse(
                model=serve_http.MODEL_ID, type_name=serve_http.TYPE,
                labels=[0], membership=[[1.0]], n_batches=1).to_json_dict()
        else:
            error = (QuotaExceededError if kind == 1 else QueueFullError)("shed")
            response = ErrorResponse.from_exception(error)
            status, document = response.http_status, response.to_json_dict()
        body = json.dumps(document).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_sheds_count_as_failed(tmp_path):
    _SheddingHandler.served = []
    server = ThreadingHTTPServer((serve_http.HOST, 0), _SheddingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        ctx = common.Context(seed=0, seconds=0.3, workdir=tmp_path,
                             n_setups=1)
        ops = serve_http.closed_loop(server.server_address[1],
                                     np.ones((3, 2)), ctx)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    served = _SheddingHandler.served
    assert {1, 2} <= set(served)
    assert ops.attempted == len(served)
    assert ops.failed == sum(kind != 0 for kind in served)
    assert ops.completed == len(ops.latencies) == served.count(0)


# ------------------------------------------------------ grow-log cycles
def test_grow_log_ops_repeat_across_cycles(tmp_path):
    config = common.default_config(3)
    star = grow_log.make_star(3, n_total=200)
    ctx = common.Context(seed=3, seconds=0, workdir=tmp_path, n_setups=1)
    grow = grow_log.GrowLog(ctx, star, config)
    checks = common.Checks()
    cycles = []
    try:
        for cycle in range(2):
            if cycle:
                grow.restore()
            cycles.append([
                grow_log.check_op(checks, star, 3, grow.op(position),
                                  f"cycle {cycle} op {position}")
                for position in range(grow_log.CYCLE)])
    finally:
        grow.close()
    assert checks.ok, checks.failures
    first, second = cycles
    for one, two in zip(first, second):
        assert one["sizes"] == two["sizes"]
        assert one["iterations"] == two["iterations"]
    grown = [entry["sizes"][grow_log.GROWING] for entry in first]
    assert grown == [star.sizes[grow_log.GROWING] + (i + 1) * star.n_grow
                     for i in range(grow_log.CYCLE)]


# ---------------------------------------------------------- config gate
def test_config_gate_refuses_anything_but_the_seed():
    config = common.default_config(7)
    assert config.random_state == 7
    with pytest.raises(common.ConfigError):
        common.checked_config(replace(config, track_metrics_every=0), 7)
    with pytest.raises(common.ConfigError):
        common.checked_config(config, 8)
    assert common.config_hash(config) == common.config_hash(
        common.default_config(8))


# ------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        "fit-text", "grow-log", "serve-http"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        ("setup_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
        ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"), ("fscore", "ratio"),
        ("nmi", "ratio")]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in LAYER_METRICS]
