"""Tests of the Prometheus ``/v1/metrics`` endpoint and its CLI surfaces.

The session artifact is fit with diagnostics enabled, so every booted
server can expose the fit-time spectral gauges; drift gauges appear once
diagnostics are turned on at launch.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.net import NetClient
from repro.net.metrics import CONTENT_TYPE

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _raw_get(host, port, path, *, method="GET", timeout=30.0):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        conn.close()


def _sample_lines(text: str) -> dict[str, float]:
    """Parse exposition samples into ``{name{labels}: value}``."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples


class TestMetricsEndpoint:
    def test_content_type_and_core_series(self, launch, net_queries):
        handle = launch()
        with NetClient(handle.host, handle.port) as client:
            client.predict("docs", "points", net_queries)
        status, payload, headers = _raw_get(handle.host, handle.port,
                                            "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        text = payload.decode("utf-8")
        samples = _sample_lines(text)
        assert samples["repro_runtime_completed_total"] >= 1.0
        assert samples['repro_model_served_total{model="docs"}'] >= 1.0
        assert samples['repro_model_inflight{model="docs"}'] == 0.0
        # HELP/TYPE discipline: exactly one header pair per metric family
        help_lines = [line for line in text.splitlines()
                      if line.startswith("# HELP repro_model_served_total")]
        assert len(help_lines) == 1

    def test_spectral_gauges_from_fit_diagnostics(self, launch):
        handle = launch()
        status, payload, _ = _raw_get(handle.host, handle.port, "/v1/metrics")
        assert status == 200
        samples = _sample_lines(payload.decode("utf-8"))
        # well-separated blobs make a disconnected p-NN graph — exactly the
        # condition the connectivity gauge exists to surface
        for type_name in ("points", "anchors"):
            labels = f'{{model="docs",type="{type_name}"}}'
            assert samples[f"repro_model_spectral_gap{labels}"] >= 0.0
            assert samples[f"repro_model_fiedler_value{labels}"] >= 0.0
            assert samples[f"repro_model_graph_connected{labels}"] in (0.0,
                                                                       1.0)
            assert samples[f"repro_model_spectral_degenerate{labels}"] == 0.0
            assert samples[f"repro_model_laplacian_energy{labels}"] > 0.0

    def test_drift_gauges_appear_with_diagnostics_on(self, launch,
                                                     net_queries):
        handle = launch(diagnostics={"min_rows": 16})
        with NetClient(handle.host, handle.port) as client:
            client.predict("docs", "points", net_queries)
        _, payload, _ = _raw_get(handle.host, handle.port, "/v1/metrics")
        samples = _sample_lines(payload.decode("utf-8"))
        drift = {key: value for key, value in samples.items()
                 if key.startswith("repro_drift_score")}
        (score,) = drift.values()
        assert np.isfinite(score)
        assert any(key.startswith("repro_drift_rows") for key in samples)

    def test_post_method_rejected(self, launch):
        handle = launch()
        status, payload, _ = _raw_get(handle.host, handle.port,
                                      "/v1/metrics", method="POST")
        assert status == 405
        assert json.loads(payload)["code"] == "invalid_request"

    def test_client_metrics_helper_returns_text(self, launch):
        handle = launch()
        with NetClient(handle.host, handle.port) as client:
            text = client.metrics()
        assert isinstance(text, str)
        assert "# TYPE repro_model_inflight gauge" in text

    def test_models_endpoint_reports_has_diagnostics(self, launch):
        handle = launch()
        status, payload, _ = _raw_get(handle.host, handle.port, "/v1/models")
        assert status == 200
        (route,) = json.loads(payload)["models"]
        assert route["has_diagnostics"] is True

    def test_stats_endpoint_carries_drift(self, launch, net_queries):
        handle = launch(diagnostics={"min_rows": 16})
        with NetClient(handle.host, handle.port) as client:
            client.predict("docs", "points", net_queries)
            stats = client.stats()
        runtime = stats["runtime"]
        (per_type,) = runtime["drift"].values()
        assert per_type["points"]["rows"] >= len(net_queries)


class TestLoadgenReport:
    def test_cli_report_flag_writes_summary_json(self, launch, net_queries,
                                                 tmp_path):
        handle = launch()
        queries_path = tmp_path / "queries.npy"
        np.save(queries_path, net_queries[:4])
        report_path = tmp_path / "report.json"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.net", "loadgen",
             "--host", handle.host, "--port", str(handle.port),
             "--model", "docs", "--type", "points",
             "--queries", str(queries_path),
             "--clients", "2", "--requests-per-client", "3",
             "--report", str(report_path)],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"})
        assert completed.returncode == 0, completed.stderr
        document = json.loads(report_path.read_text())
        assert document["completed"] == 6
        assert document["errors"] == 0
        assert document["requests_per_second"] > 0
        # stdout carries the same summary for the terminal
        assert json.loads(completed.stdout)["completed"] == 6
