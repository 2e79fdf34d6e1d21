"""Smoke test for the network serving benchmark runner."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "bench_net.py"


def test_runner_produces_report(tmp_path):
    output = tmp_path / "bench.json"
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "120", "--requests", "48",
         "--clients", "2", "--workers", "2", "--fit-max-iter", "2",
         "--output", str(output), "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    report = json.loads(output.read_text())
    assert report["benchmark"] == "rhchme-net"
    assert report["sizes"] == [120]
    entry = report["results"][0]
    frontends = {t["frontend"]: t for t in entry["frontends"]}
    assert set(frontends) == {"serial-http-batch1", "concurrent-static"}
    for timing in frontends.values():
        assert timing["requests_per_second"] > 0
        assert timing["p99_ms"] > 0
    summary = report["summary"]
    assert summary["largest_n"] == 120
    assert summary["http_concurrency_ratio"] > 0
    # the exported artifact really landed in the workdir
    assert (tmp_path / "bench_net_model_120.npz").exists()
