"""Argument handling of ``python -m repro.net``."""

from __future__ import annotations

from repro.net.__main__ import main


def test_serve_rejects_non_positive_n_workers(net_model_path, capsys):
    exit_code = main(["serve", "--model", f"docs={net_model_path}",
                      "--port", "0", "--n-workers", "0"])
    assert exit_code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("[net] error[invalid_request]: n_workers")


def test_serve_rejects_non_positive_max_inflight_per_model(net_model_path,
                                                           capsys):
    exit_code = main(["serve", "--model", f"docs={net_model_path}",
                      "--port", "0", "--max-inflight-per-model", "0"])
    assert exit_code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "[net] error[invalid_request]: max_inflight_per_model")
