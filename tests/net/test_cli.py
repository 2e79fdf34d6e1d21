"""Argument handling of ``python -m repro.net`` (and of the query loader it
shares with ``python -m repro.serve``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.__main__ import main
from repro.serve.cli import main as serve_main

#: Each CLI's ``predict`` command up to its ``--queries`` flag.  Both read
#: the query file through one shared loader before they open a model or a
#: socket, so neither argument list needs a live artifact or server.
_PREDICT_COMMANDS = {
    "serve": (serve_main, ["predict", "--model", "model.npz",
                           "--type", "docs"]),
    "net": (main, ["predict", "--port", "1", "--model", "docs",
                   "--type", "docs"]),
}


@pytest.mark.parametrize("cli", sorted(_PREDICT_COMMANDS))
def test_predict_rejects_unreadable_query_files(cli, tmp_path, capsys):
    entry, args = _PREDICT_COMMANDS[cli]
    missing = tmp_path / "absent.npy"
    assert entry([*args, "--queries", str(missing)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line == f"[{cli}] error[internal]: query file not found: {missing}"

    bundle = tmp_path / "bundle.npz"
    np.savez(bundle, a=np.ones((2, 3)), b=np.zeros((2, 3)))
    assert entry([*args, "--queries", str(bundle)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line == (f"[{cli}] error[internal]: {bundle} holds 2 arrays "
                    "(['a', 'b']); store the query matrix alone or pass a "
                    ".npy file")


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
