"""Smoke test for the two-engine backend benchmark runner."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "bench_backend.py"


def test_runner_produces_report(tmp_path):
    output = tmp_path / "bench.json"
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "60", "120",
         "--iters", "1", "--output", str(output)],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    report = json.loads(output.read_text())
    assert report["sizes"] == [60, 120]
    assert {entry["n_total"] for entry in report["results"]} == {60, 120}
    assert report["engines"] == ["dense", "sparse"]
    for entry in report["results"]:
        assert entry["dense"]["representation"] == "ndarray"
        assert entry["dense"]["engine"] == "dense"
        assert entry["sparse"]["representation"] == "csr"
        assert entry["sparse"]["engine"] == "sparse"
        assert entry["sparse"]["laplacian_density"] < 0.5
        assert entry["speedup_pipeline"] > 0
        # Blocked hot-loop sweep: one timing per engine, tagged with its name.
        assert [e["engine"] for e in entry["engines"]] == report["engines"]
        for engine_entry in entry["engines"]:
            assert engine_entry["update_total_seconds"] > 0
    summary = report["summary"]
    assert summary["largest_n"] == 120
    assert "meets_3x_target" in summary
    assert summary["sparse_peak_memory_growth_exponent_vs_n"] is not None
    assert summary["fastest_engine_at_largest"] in report["engines"]
    assert set(summary["engine_update_seconds_at_largest"]) == set(
        report["engines"])
