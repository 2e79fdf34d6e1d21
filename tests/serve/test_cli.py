"""End-to-end tests of the ``python -m repro.serve`` CLI."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_dataset
from repro.serve import SCHEMA_VERSION

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def run_cli(*args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "repro.serve", *map(str, args)],
        capture_output=True, text=True, timeout=timeout,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"})


@pytest.fixture(scope="module")
def cli_artifact(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    model_path = tmp / "model.npz"
    completed = run_cli("fit-save", "--dataset", "multi5-small",
                        "--output", model_path, "--max-iter", "5",
                        "--no-subspace", "--random-state", "0")
    assert completed.returncode == 0, completed.stderr
    return tmp, model_path, completed


class TestFitSave:
    def test_writes_artifact_and_sidecar(self, cli_artifact):
        _, model_path, completed = cli_artifact
        assert model_path.exists()
        assert model_path.with_suffix(".json").exists()
        assert "wrote" in completed.stdout


class TestPredict:
    def test_predict_writes_labels_and_membership(self, cli_artifact):
        tmp, model_path, _ = cli_artifact
        data = make_dataset("multi5-small", random_state=1)
        queries_path = tmp / "queries.npy"
        np.save(queries_path, data.get_type("documents").features[:8])
        out_path = tmp / "predictions.npz"
        completed = run_cli("predict", "--model", model_path,
                            "--type", "documents", "--queries", queries_path,
                            "--output", out_path, "--batch-size", "3")
        assert completed.returncode == 0, completed.stderr
        assert "predicted 8" in completed.stdout
        with np.load(out_path) as arrays:
            assert arrays["labels"].shape == (8,)
            assert arrays["membership"].shape == (8, 5)
            np.testing.assert_allclose(arrays["membership"].sum(axis=1), 1.0)

    def test_missing_query_file_fails_cleanly(self, cli_artifact):
        tmp, model_path, _ = cli_artifact
        completed = run_cli("predict", "--model", model_path,
                            "--type", "documents",
                            "--queries", tmp / "absent.npy")
        assert completed.returncode == 1
        assert "error" in completed.stderr

    def test_unknown_type_fails_cleanly(self, cli_artifact):
        tmp, model_path, _ = cli_artifact
        queries_path = tmp / "queries.npy"
        if not queries_path.exists():
            np.save(queries_path, np.ones((2, 3)))
        completed = run_cli("predict", "--model", model_path,
                            "--type", "nope", "--queries", queries_path)
        assert completed.returncode == 2  # invalid_request exit code
        assert "error[invalid_request]" in completed.stderr
        assert "unknown object type" in completed.stderr


class TestInfo:
    def test_info_prints_sidecar_json(self, cli_artifact):
        _, model_path, _ = cli_artifact
        completed = run_cli("info", "--model", model_path)
        assert completed.returncode == 0, completed.stderr
        info = json.loads(completed.stdout)
        assert info["format"] == "rhchme-model"
        assert info["schema_version"] == SCHEMA_VERSION
        assert [t["name"] for t in info["types"]] == ["documents", "terms",
                                                      "concepts"]

    def test_info_on_missing_model_fails_cleanly(self, tmp_path):
        completed = run_cli("info", "--model", tmp_path / "absent.npz")
        assert completed.returncode == 3  # artifact_error exit code
        assert "error[artifact_error]" in completed.stderr
        assert "not found" in completed.stderr


class TestJsonOutput:
    def test_predict_json_is_machine_readable(self, cli_artifact):
        tmp, model_path, _ = cli_artifact
        data = make_dataset("multi5-small", random_state=1)
        queries_path = tmp / "json_queries.npy"
        np.save(queries_path, data.get_type("documents").features[:6])
        completed = run_cli("predict", "--model", model_path,
                            "--type", "documents", "--queries", queries_path,
                            "--json", "--batch-size", "4")
        assert completed.returncode == 0, completed.stderr
        document = json.loads(completed.stdout)  # stdout is pure JSON
        assert document["type"] == "documents"
        assert document["n_queries"] == 6
        assert len(document["labels"]) == 6
        assert document["seconds"] > 0
        assert document["objects_per_second"] > 0
        assert sum(document["label_histogram"]) == 6
        assert document["output"] is None

    def test_predict_json_with_output_file(self, cli_artifact):
        tmp, model_path, _ = cli_artifact
        queries_path = tmp / "json_queries.npy"
        if not queries_path.exists():
            data = make_dataset("multi5-small", random_state=1)
            np.save(queries_path, data.get_type("documents").features[:6])
        out_path = tmp / "json_predictions.npz"
        completed = run_cli("predict", "--model", model_path,
                            "--type", "documents", "--queries", queries_path,
                            "--json", "--output", out_path)
        assert completed.returncode == 0, completed.stderr
        document = json.loads(completed.stdout)
        assert document["output"] == str(out_path)
        with np.load(out_path) as arrays:
            np.testing.assert_array_equal(arrays["labels"],
                                          np.asarray(document["labels"]))


class TestShardedCli:
    @pytest.fixture(scope="class")
    def sharded_artifact(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli-sharded")
        model_path = tmp / "model.npz"
        completed = run_cli("fit-save", "--dataset", "multi5-small",
                            "--output", model_path, "--max-iter", "3",
                            "--no-subspace", "--shards", "per-type-mmap")
        assert completed.returncode == 0, completed.stderr
        return tmp, model_path

    def test_fit_save_writes_per_type_shards(self, sharded_artifact):
        tmp, model_path = sharded_artifact
        names = sorted(f.name for f in tmp.iterdir())
        assert names == sorted(
            ["model.json", "model.global.association.npy",
             "model.global.error_matrix_rows.npy",
             "model.global.error_matrix_values.npy"]
            + [f"model.{name}.{kind}.npy"
               for name in ("concepts", "documents", "terms")
               for kind in ("features", "labels", "membership")])

    def test_info_reports_shard_layout(self, sharded_artifact):
        _, model_path = sharded_artifact
        completed = run_cli("info", "--model", model_path)
        assert completed.returncode == 0, completed.stderr
        info = json.loads(completed.stdout)
        assert info["layout"] == "per-type-mmap"
        assert sorted(info["shards"]["types"]) == ["concepts", "documents",
                                                   "terms"]

    def test_info_reports_monolithic_layout(self, cli_artifact):
        _, model_path, _ = cli_artifact
        completed = run_cli("info", "--model", model_path)
        info = json.loads(completed.stdout)
        assert info["layout"] == "monolithic"
        # Featured types can be drift-scored; the fit kept no health record.
        assert info["diagnostics_available"] == ["drift"]
        assert "fingerprints" not in info["diagnostics"]

    def test_predict_serves_from_shards(self, sharded_artifact):
        tmp, model_path = sharded_artifact
        data = make_dataset("multi5-small", random_state=1)
        queries_path = tmp / "queries.npy"
        np.save(queries_path, data.get_type("documents").features[:5])
        completed = run_cli("predict", "--model", model_path,
                            "--type", "documents", "--queries", queries_path,
                            "--json")
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout)["n_queries"] == 5


class TestArtifactErrorExit:
    def test_corrupt_sidecar_exits_nonzero_without_traceback(self,
                                                             tmp_path):
        model_path = tmp_path / "model.npz"
        model_path.write_bytes(b"whatever")
        model_path.with_suffix(".json").write_text("{broken")
        completed = run_cli("info", "--model", model_path)
        assert completed.returncode == 3  # artifact_error exit code
        assert "error[artifact_error]" in completed.stderr
        assert "Traceback" not in completed.stderr

    def test_corrupt_arrays_exit_nonzero_without_traceback(self,
                                                           cli_artifact,
                                                           tmp_path):
        tmp, model_path, _ = cli_artifact
        broken = tmp_path / "broken.npz"
        broken.write_bytes(b"not an npz")
        broken.with_suffix(".json").write_text(
            model_path.with_suffix(".json").read_text())
        queries_path = tmp_path / "queries.npy"
        np.save(queries_path, np.ones((2, 3)))
        completed = run_cli("predict", "--model", broken,
                            "--type", "documents", "--queries", queries_path)
        assert completed.returncode == 3  # artifact_error exit code
        assert "error[artifact_error]" in completed.stderr
        assert "corrupt" in completed.stderr
        assert "Traceback" not in completed.stderr
