"""``serve-http``: batch-1 predicts against a ``NetServer`` process.

Two keep-alive clients (one per core) in this process drive a closed
loop: each sends its next ``POST /v1/predict`` once the previous reply
arrives.  The server runs in its own process, started with ``python -m
repro.net serve --n-workers 1`` (thread workers, default batching), over
a default model fitted on Multi5 with 20% of the documents held out and
saved ``per-type-mmap``.  Each op predicts one held-out document, cycling
through them.

Only the read path runs in the timed phase: HTTP parse, micro-batch
queue, out-of-sample p-NN extension over 520-wide text features, and
wire encode.  A fit change may move ``setup_s`` here but not the ops.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.core import RHCHME
from repro.data import make_dataset
from repro.exceptions import ReproError
from repro.metrics import clustering_fscore, normalized_mutual_information
from repro.net import NetClient
from repro.net.schema import PredictRequest
from repro.serve import RHCHMEModel, holdout_split

from common import (Checks, Context, Outcome, checked_config, default_config,
                    fresh_dir, remove_dir, repeated_setup)
from stats import OpLog

DATASET = "multi5"
TYPE = "documents"
HOLDOUT = 0.2
MODEL_ID = "docs"
HOST = "127.0.0.1"
N_CLIENTS = 2
READY_SECONDS = 60.0
STOP_SECONDS = 15.0
#: Floors on the held-out documents' predicted labels, which score
#: F 0.72-0.75 and NMI 0.80-0.82 over seeds 0-9.
FSCORE_FLOOR = 0.5
NMI_FLOOR = 0.4
#: Server stage histogram -> per-layer metric (mean ms per stage event).
STAGES = {"http.parse": "net.http_parse_ms",
          "wire.encode": "net.wire_encode_ms",
          "queue.wait": "runtime.queue_wait_ms",
          "batch.assemble": "runtime.batch_assemble_ms",
          "compute.predict": "runtime.compute_predict_ms"}


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((HOST, 0))
        return int(probe.getsockname()[1])


class ServerProcess:
    """``python -m repro.net serve`` in a child process."""

    def __init__(self, artifact: Path, workdir: Path) -> None:
        self.port = _free_port()
        src = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        self.log_path = workdir / "server.log"
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.net", "serve",
             "--model", f"{MODEL_ID}={artifact}", "--host", HOST,
             "--port", str(self.port), "--n-workers", "1"],
            env=env, stdout=self._log, stderr=subprocess.STDOUT)
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_SECONDS
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: "
                    f"{self.log_path.read_text(errors='replace')[-2000:]}")
            try:
                with NetClient(HOST, self.port, timeout=1.0,
                               retries=0) as client:
                    if client.health().get("status") == "ok":
                        return
            except ReproError:
                time.sleep(0.05)
        raise RuntimeError(f"server not ready within {READY_SECONDS}s")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` (peak resident set) of the server process."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stats(self) -> dict:
        with NetClient(HOST, self.port, timeout=10.0) as client:
            return client.stats()

    def stop(self) -> None:
        """SIGTERM (the server drains), then kill if it will not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_SECONDS)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=STOP_SECONDS)
        self._log.close()


def _client_loop(port: int, queries: np.ndarray, client_index: int,
                 deadline: float, ctx: Context, log: OpLog) -> None:
    """One closed-loop caller; a shed (429/503) or error counts as failed."""
    with NetClient(HOST, port, timeout=30.0) as client:
        index = 0
        while time.perf_counter() < deadline:
            row = queries[(client_index + N_CLIENTS * index) % len(queries)]
            traced = ctx.traces_op(index)
            began = time.perf_counter()
            try:
                with ctx.span("net.request", traced, client=client_index):
                    client.predict(MODEL_ID, TYPE, row[None, :])
                latency = time.perf_counter() - began
            except ReproError:
                latency = None
            log.record(latency, traced)
            index += 1


def closed_loop(port: int, queries: np.ndarray, ctx: Context) -> OpLog:
    """Drive the server with :data:`N_CLIENTS` callers for ``ctx.seconds``."""
    logs = [OpLog() for _ in range(N_CLIENTS)]
    began = time.perf_counter()
    threads = [threading.Thread(target=_client_loop,
                                args=(port, queries, index,
                                      began + ctx.seconds, ctx, logs[index]))
               for index in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = OpLog(timed_seconds=time.perf_counter() - began)
    for log in logs:
        merged.merge(log)
    return merged


def _stage_totals(stats: dict) -> dict[str, tuple[int, float]]:
    """``{stage: (count, seconds)}`` summed over the models keying it."""
    totals: dict[str, tuple[int, float]] = {}
    for per_stage in (stats.get("runtime", {}).get("stages") or {}).values():
        for stage, snapshot in per_stage.items():
            count, seconds = totals.get(stage, (0, 0.0))
            totals[stage] = (count + int(snapshot.get("count", 0)),
                             seconds + float(snapshot.get("sum_seconds", 0.0)))
    return totals


def layer_extra(before: dict, after: dict, ops: OpLog,
                queries: np.ndarray) -> dict[str, float]:
    """Server stage means diffed over the run, plus client-side timing."""
    start, end = _stage_totals(before), _stage_totals(after)
    extra = {}
    server_ms = 0.0
    for stage, metric in STAGES.items():
        count = end.get(stage, (0, 0.0))[0] - start.get(stage, (0, 0.0))[0]
        seconds = end.get(stage, (0, 0.0))[1] - start.get(stage, (0, 0.0))[1]
        extra[metric] = seconds / count * 1e3 if count else 0.0
        server_ms += extra[metric]
    batches = after["runtime"]["batches"] - before["runtime"]["batches"]
    objects = after["runtime"]["objects"] - before["runtime"]["objects"]
    mean_ms = float(np.mean(ops.latencies)) * 1e3
    request_bytes = [len(json.dumps(PredictRequest(
        model=MODEL_ID, type_name=TYPE, queries=row[None, :]).to_json_dict()))
        for row in queries]
    extra.update({
        "runtime.mean_batch_rows": objects / batches if batches else 0.0,
        "net.request_kb": float(np.mean(request_bytes)) / 1024.0,
        "net.client_ms": mean_ms - server_ms,
        "trace.coverage_ratio": server_ms / mean_ms,
    })
    return extra


def run(ctx: Context) -> Outcome:
    checks = Checks()
    config = default_config(ctx.seed)

    def build():
        root = fresh_dir(ctx.workdir, "serve-")
        with ctx.span("setup"), ctx.layers():
            data = make_dataset(DATASET, random_state=ctx.seed)
            split = holdout_split(data, TYPE, fraction=HOLDOUT,
                                  random_state=ctx.seed)
            result = RHCHME(config).fit(split.train)
            artifact = result.to_model(split.train, config).save(
                root / "model.npz", shards="per-type-mmap")
            with ctx.span("net.launch"):
                server = ServerProcess(artifact, root)
        try:
            with NetClient(HOST, server.port, timeout=30.0) as client:
                client.predict(MODEL_ID, TYPE, split.query_features[:1])
        except BaseException:
            server.stop()
            raise
        return root, split, artifact, server

    def dispose(kept):
        root, _, _, server = kept
        server.stop()
        remove_dir(root)

    kept, setup_seconds = repeated_setup(ctx.n_setups, build, dispose)
    root, split, artifact, server = kept
    try:
        queries = np.asarray(split.query_features)
        before = server.stats() if ctx.tracer is not None else None
        ops = closed_loop(server.port, queries, ctx)
        extra = {}
        if ctx.tracer is not None:
            extra = layer_extra(before, server.stats(), ops, queries)

        # Every held-out document once more, checked bit for bit against
        # in-process predict on the same artifact (untimed).
        model = RHCHMEModel.load(artifact)
        checked_config(model.config, ctx.seed)
        labels = []
        with NetClient(HOST, server.port, timeout=30.0) as client:
            for index, row in enumerate(queries):
                served = client.predict(MODEL_ID, TYPE, row[None, :])
                local = model.predict(TYPE, row[None, :])
                checks(f"query {index}: HTTP answer bit-identical to "
                       "in-process predict",
                       np.array_equal(served.labels, local.labels)
                       and np.array_equal(served.membership, local.membership))
                labels.append(int(served.labels[0]))
        rss = server.peak_rss_mb()
    finally:
        dispose(kept)

    truth = np.asarray(split.query_labels)
    fscore = clustering_fscore(truth, np.asarray(labels))
    nmi = normalized_mutual_information(truth, np.asarray(labels))
    checks(f"fscore >= {FSCORE_FLOOR}", fscore >= FSCORE_FLOOR, f"{fscore}")
    checks(f"nmi >= {NMI_FLOOR}", nmi >= NMI_FLOOR, f"{nmi}")
    return Outcome(setup_seconds=setup_seconds, ops=ops, fscore=fscore,
                   nmi=nmi, peak_rss_mb=rss, checks=checks, layer_extra=extra,
                   details={"n_queries": int(len(queries)),
                            "n_clients": N_CLIENTS})
