"""Shared plumbing for the benchmark runners.

Every runner in this directory follows the same shape: a standard argument
set (``--sizes`` / ``--seed`` / ``--smoke`` / ``--output``, optionally
``--check`` and ``--workdir``), a ``src`` tree inserted on ``sys.path`` so
the scripts run straight from a checkout, environment metadata stamped into
the report, and a JSON report written next to the repository root.  That
boilerplate lives here once, with the synthetic workload the serving
runners share (:func:`make_synthetic`, :func:`make_queries`,
:func:`fit_and_save`) and the alternating off/on timing pairs the
overhead runners share (:func:`paired_seconds`,
:func:`paired_stream_loss`); the runners keep only their measurement code
and their runner-specific flags.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The object type the serving runners query.
QUERY_TYPE = "rows"

#: Alternating off/on timing pairs of an overhead measurement.
PAIRS = 10
#: Each side of a pair runs for at least this long.
MIN_SIDE_SECONDS = 0.25


def bootstrap_sys_path() -> None:
    """Make ``repro`` (and sibling benchmark modules) importable.

    Call before importing anything from ``repro`` in a runner executed as a
    script (``python benchmarks/bench_x.py``).
    """
    for path in (REPO_ROOT / "src", REPO_ROOT / "benchmarks"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def make_parser(doc: str | None, default_output: str, *,
                sizes_help: str = "total object counts to benchmark",
                with_check: str | None = None,
                with_workdir: bool = False) -> argparse.ArgumentParser:
    """Parser with the flags every runner shares.

    Parameters
    ----------
    doc:
        The runner's module docstring; its first line becomes the
        description.
    default_output:
        File name of the JSON report (written under the repository root).
    with_check:
        When given, adds a ``--check`` flag with this help text (the runner
        decides what the gate means and returns a non-zero exit on a miss).
    with_workdir:
        Adds the ``--workdir`` flag used by runners that write artifacts.
    """
    description = doc.splitlines()[0] if doc else None
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--sizes", type=int, nargs="+", default=None,
                        help=sizes_help)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="quick CI run on the runner's smoke sizes")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / default_output)
    if with_check is not None:
        parser.add_argument("--check", action="store_true", help=with_check)
    if with_workdir:
        parser.add_argument("--workdir", type=Path, default=None,
                            help="where model artifacts are written "
                                 "(default: next to --output)")
    return parser


def select_sizes(args: argparse.Namespace, default_sizes, smoke_sizes) -> list[int]:
    """The size sweep implied by ``--sizes`` / ``--smoke`` (sorted)."""
    if args.sizes:
        return sorted(int(n) for n in args.sizes)
    return sorted(int(n) for n in (smoke_sizes if args.smoke else default_sizes))


def environment_metadata() -> dict:
    """Interpreter / machine fields stamped into every report."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def emit_report(report: dict, args: argparse.Namespace) -> None:
    """Stamp the smoke flag, write the JSON report and announce the path."""
    report["smoke"] = bool(getattr(args, "smoke", False))
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench] wrote {args.output}")


def resolve_workdir(args: argparse.Namespace) -> Path:
    """The artifact directory implied by ``--workdir`` (created if needed)."""
    workdir = args.workdir if args.workdir else args.output.parent
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def paired_seconds(run) -> tuple[dict[bool, list[float]], int]:
    """Seconds of ``PAIRS`` alternating off/on sides of one workload.

    ``run(on, passes)`` performs ``passes`` repetitions of the workload
    with the measured feature off (``False``) or on (``True``) and returns
    the seconds they took.  One untimed calibration pass of the off side
    sizes ``passes`` so that a side runs for at least ``MIN_SIDE_SECONDS``;
    both sides run that many.  The side that runs first alternates from
    pair to pair, so drift within a pair (CPU frequency, page cache)
    favours neither, and a median over the pairs discards the pairs an
    outside burst hit.  Returns the per-side seconds, pair by pair, and
    ``passes``.
    """
    calibration = run(False, 1)
    passes = max(1, math.ceil(MIN_SIDE_SECONDS / calibration))
    seconds: dict[bool, list[float]] = {False: [], True: []}
    for pair in range(PAIRS):
        for on in ((False, True) if pair % 2 == 0 else (True, False)):
            seconds[on].append(run(on, passes))
    return seconds, passes


def paired_stream_loss(model_path: Path, queries: np.ndarray, *,
                       batch_rows: int, feature: str) -> dict:
    """Median per-pair throughput loss of one ``RuntimeServer`` feature.

    The batched query stream is replayed through two serial-worker
    runtimes with the boolean ``RuntimeServer`` keyword ``feature``
    (``tracing``, ``diagnostics``) off and on, in the alternating pairs of
    :func:`paired_seconds`.  Returns the per-side medians, the pass count,
    the per-pair losses and their median, ``loss_fraction``.
    """
    from repro.runtime import RuntimeServer

    batches = [queries[start:start + batch_rows]
               for start in range(0, queries.shape[0], batch_rows)]
    runtimes = {on: RuntimeServer(workers="serial", max_batch_size=batch_rows,
                                  max_delay_seconds=0.0005, **{feature: on})
                for on in (False, True)}

    def replay(on: bool, passes: int) -> float:
        start = time.perf_counter()
        for _ in range(passes):
            for batch in batches:
                runtimes[on].predict(path=model_path, type_name=QUERY_TYPE,
                                     queries=batch, timeout=600)
        return time.perf_counter() - start

    try:
        for runtime in runtimes.values():  # warm the model caches
            runtime.predict(path=model_path, type_name=QUERY_TYPE,
                            queries=queries[:1])
        seconds, passes = paired_seconds(replay)
    finally:
        for runtime in runtimes.values():
            runtime.close()
    # Both sides serve the same rows, so the throughput ratio of a pair is
    # the inverse ratio of its seconds.
    losses = [1.0 - off / on for off, on in zip(seconds[False], seconds[True])]
    n_objects = queries.shape[0] * passes

    def side(on: bool) -> dict:
        median = float(np.median(seconds[on]))
        return {feature: on, "median_seconds": round(median, 6),
                "objects_per_second": round(n_objects / median, 3)}

    return {"off": side(False), "on": side(True),
            "n_batches": len(batches), "passes": passes, "pairs": PAIRS,
            "pair_losses": [round(loss, 4) for loss in losses],
            "loss_fraction": round(float(np.median(losses)), 4)}


def gate(passed: bool, message: str) -> int:
    """Exit code for a ``--check`` gate, printing the failure to stderr."""
    if passed:
        return 0
    print(f"[bench] FAIL: {message}", file=sys.stderr)
    return 1


# ``repro`` is imported inside the workload helpers: runners import this
# module before ``bootstrap_sys_path`` has put the src tree on the path.
def make_synthetic(n_total: int, *, n_features: int = 10, n_clusters: int = 5,
                   relation_density: float = 0.05, seed: int = 0):
    """Two-type dataset (2:1 split) with Gaussian blob features.

    The inter-type relation is a sparse non-negative co-occurrence matrix;
    features carry the cluster structure so the p-NN graph is meaningful.
    """
    from repro.relational.dataset import MultiTypeRelationalData
    from repro.relational.types import ObjectType, Relation

    rng = np.random.default_rng(seed)
    n_a = max((2 * n_total) // 3, 2)
    n_b = max(n_total - n_a, 2)
    n_clusters = max(1, min(n_clusters, n_b, n_a))
    types = []
    assignments = {}
    for name, n_objects in (("rows", n_a), ("cols", n_b)):
        centers = rng.normal(scale=4.0, size=(n_clusters, n_features))
        labels = rng.integers(0, n_clusters, size=n_objects)
        features = centers[labels] + rng.normal(size=(n_objects, n_features))
        assignments[name] = labels
        types.append(ObjectType(name, n_objects=n_objects, n_clusters=n_clusters,
                                features=features, labels=labels))
    co_cluster = (assignments["rows"][:, None] == assignments["cols"][None, :])
    matrix = np.where(co_cluster & (rng.random((n_a, n_b)) < 4 * relation_density),
                      rng.random((n_a, n_b)), 0.0)
    background = rng.random((n_a, n_b)) < relation_density
    matrix = np.maximum(matrix, np.where(background, rng.random((n_a, n_b)), 0.0))
    return MultiTypeRelationalData(types, [Relation("rows", "cols", matrix)])


def make_queries(data, n_queries: int, *, seed: int) -> np.ndarray:
    """Perturbed resamples of the training features (realistic query traffic)."""
    rng = np.random.default_rng(seed)
    reference = data.get_type(QUERY_TYPE).features
    picks = rng.integers(0, reference.shape[0], size=n_queries)
    return reference[picks] + 0.1 * rng.normal(size=(n_queries,
                                                     reference.shape[1]))


def fit_and_save(data, path: Path, *, seed: int, fit_max_iter: int) -> dict:
    from repro.core import RHCHME

    model = RHCHME(use_subspace_member=False, max_iter=fit_max_iter,
                   init="random", track_metrics_every=0, random_state=seed)
    start = time.perf_counter()
    result = model.fit(data)
    fit_seconds = time.perf_counter() - start
    artifact = model.export_model(data)
    artifact.save(path)
    return {"fit_seconds": round(fit_seconds, 6),
            "n_iterations": result.n_iterations,
            "backend_fit": result.extras["backend"]}
