"""Smoke test for the dense-vs-sparse R-space benchmark runner."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "bench_rspace.py"


def test_runner_produces_report(tmp_path):
    output = tmp_path / "bench.json"
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "80", "160",
         "--output", str(output)],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    report = json.loads(output.read_text())
    assert report["sizes"] == [80, 160]
    assert {entry["n_total"] for entry in report["results"]} == {80, 160}
    for entry in report["results"]:
        assert entry["memory_dense"]["r_representation"] == "ndarray"
        assert entry["memory_sparse"]["r_representation"] == "csr"
        # one E_R representation on both backends
        assert entry["fit_sparse"]["error_matrix_representation"] == "row-sparse"
        assert entry["fit_dense"]["error_matrix_representation"] == "row-sparse"
        # parity is enforced inside the runner; re-assert the recorded gap
        assert entry["objective_parity_gap"] <= 1e-6
        assert entry["speedup_fit"] > 0
    summary = report["summary"]
    assert summary["largest_n"] == 160
    assert "meets_3x_target" in summary
    assert summary["sparse_peak_memory_growth_exponent_vs_n"] is not None
