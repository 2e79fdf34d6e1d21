"""Streaming growth benchmark: delta-refresh speedup and mmap residency.

Three questions, one gated number each:

* **Delta speedup** — when 1 of 4 types grows, how much faster is the
  delta-scheduled refresh (clean types frozen, clean pair kernels
  skipped) than the full warm-start refit?  Gate: ≥ 3× at the full size
  (≥ 1.3× under ``--smoke``, where fixed per-call overheads dominate the
  solver work being skipped).
* **Agreement** — does the delta refresh still track a cold refit?  The
  delta-refreshed labels must agree with a from-scratch fit on ≥ 90% of
  objects (same bar as the serving extension and the warm refresh).
* **Mmap residency** — refreshing one dirty type through a
  ``per-type-mmap`` artifact must read or promote < 25% of the artifact's
  array bytes (accounted via the reader's ``cache_info``: resident +
  mapped), and the mmap-path refresh must match the in-memory refresh to
  1e-6.

Usage::

    PYTHONPATH=src python benchmarks/bench_stream.py            # full run
    PYTHONPATH=src python benchmarks/bench_stream.py --smoke --check

Writes ``BENCH_stream.json`` (see ``--output``).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from common import (bootstrap_sys_path, emit_report, environment_metadata,
                    gate, make_parser, resolve_workdir, select_sizes)

bootstrap_sys_path()

from repro.core import RHCHME  # noqa: E402
from repro.metrics import cluster_alignment  # noqa: E402
from repro.relational.dataset import MultiTypeRelationalData  # noqa: E402
from repro.relational.types import ObjectType, Relation  # noqa: E402
from repro.runtime import refresh_model  # noqa: E402
from repro.serve import MMAP_LAYOUT  # noqa: E402
from repro.stream import DirtySet, open_model_view  # noqa: E402

DEFAULT_SIZES = (3000,)
SMOKE_SIZES = (300,)

#: Hub takes half the objects and the dirty satellite is the smallest
#: type: the streaming scenario is one small type growing under a large
#: clean corpus, so both the per-iteration work and the artifact bytes a
#: delta refresh touches are a small slice of the whole.
SPLIT = (0.5, 0.1, 0.2, 0.2)
TYPE_NAMES = ("docs", "words", "authors", "venues")
DIRTY_TYPE = "words"

N_CLUSTERS = 4
N_FEATURES = 64
GROW_FRACTION = 0.04      # dirty-type growth per refresh
FIT_ITER = 30             # cold fits (baseline model and agreement probe)
REFRESH_ITER = 10         # both refresh variants (same budget)
REFRESH_TOL = 1e-12       # disable early exit: compare per-iteration work

SPEEDUP_GATE = 3.0
SMOKE_SPEEDUP_GATE = 1.3  # fixed overheads dominate at smoke sizes
AGREEMENT_GATE = 0.90
TOUCHED_BYTES_GATE = 0.25
MMAP_PARITY_TOL = 1e-6


def type_sizes(n_total: int) -> dict[str, int]:
    sizes = {name: int(round(n_total * fraction))
             for name, fraction in zip(TYPE_NAMES, SPLIT)}
    sizes[TYPE_NAMES[0]] += n_total - sum(sizes.values())
    return sizes


def make_stream_pair(n_total: int, seed: int):
    """Base dataset plus its grown extension (dirty satellite only).

    All randomness is drawn at the grown sizes up front, so the base is an
    exact prefix of the grown dataset — the append-only contract.  Star
    relations around the hub are thresholded co-cluster matrices stored as
    CSR, which keeps the sparse backend's ``E_R`` row-sparse and the
    artifact dominated by the feature blocks the mmap gate accounts.
    """
    rng = np.random.default_rng(seed)
    base_sizes = type_sizes(n_total)
    n_grow = max(8, int(round(base_sizes[DIRTY_TYPE] * GROW_FRACTION)))
    pool_sizes = dict(base_sizes)
    pool_sizes[DIRTY_TYPE] += n_grow
    labels = {name: np.arange(count) % N_CLUSTERS
              for name, count in pool_sizes.items()}
    features = {}
    for name in TYPE_NAMES:
        centers = rng.normal(scale=6.0, size=(N_CLUSTERS, N_FEATURES))
        features[name] = (centers[labels[name]]
                          + rng.normal(size=(pool_sizes[name], N_FEATURES)))
    hub = TYPE_NAMES[0]
    relations = {}
    for other in TYPE_NAMES[1:]:
        co_cluster = labels[hub][:, None] == labels[other][None, :]
        dense = np.where(
            co_cluster, 1.0,
            np.where(rng.random((pool_sizes[hub],
                                 pool_sizes[other])) < 0.02, 0.5, 0.0))
        relations[(hub, other)] = sp.csr_matrix(dense)

    def materialise(sizes: dict[str, int]) -> MultiTypeRelationalData:
        types = [ObjectType(name, n_objects=sizes[name],
                            n_clusters=N_CLUSTERS,
                            features=features[name][: sizes[name]])
                 for name in TYPE_NAMES]
        rels = [Relation(source, target,
                         matrix[: sizes[source], : sizes[target]])
                for (source, target), matrix in relations.items()]
        return MultiTypeRelationalData(types, rels)

    return materialise(base_sizes), materialise(pool_sizes), n_grow


def aligned_agreement(reference: np.ndarray, candidate: np.ndarray) -> float:
    mapping = cluster_alignment(reference, candidate)
    return float(np.mean(mapping[candidate] == reference))


def run_size(n_total: int, seed: int, workdir) -> dict:
    base, grown, n_grow = make_stream_pair(n_total, seed)
    # use_error_matrix=False: the E step re-solves every row type of a
    # dirty pair, which on this star includes the hub, so with E_R on the
    # delta refresh skips much less of the full refresh's work (2.0x
    # against 2.9x at the full size on a 2-core x86_64 host) and the gate
    # would measure the hub instead of the delta schedule.
    estimator = RHCHME(max_iter=FIT_ITER, random_state=seed,
                       backend="sparse", use_error_matrix=False,
                       use_subspace_member=False, track_metrics_every=0)
    start = time.perf_counter()
    estimator.fit(base)
    fit_seconds = time.perf_counter() - start
    model = estimator.export_model(base)
    dirty = DirtySet(types=frozenset({DIRTY_TYPE}))

    # Both refresh variants run the same fixed iteration budget
    # (tol tightened below the warm-start convergence point): a warm
    # start on a slightly-grown corpus converges almost immediately, and
    # an early exit would reduce the comparison to per-call fixed costs
    # instead of the per-iteration work the delta schedule skips.
    budget = dict(max_iter=REFRESH_ITER, tol=REFRESH_TOL)
    start = time.perf_counter()
    full = refresh_model(model, grown, dirty=None, **budget)
    full_seconds = time.perf_counter() - start

    start = time.perf_counter()
    delta = refresh_model(model, grown, dirty=dirty, **budget)
    delta_seconds = time.perf_counter() - start
    speedup = full_seconds / delta_seconds if delta_seconds else float("inf")

    cold = RHCHME(max_iter=FIT_ITER, random_state=seed, backend="sparse",
                  use_error_matrix=False, use_subspace_member=False,
                  track_metrics_every=0)
    cold.fit(grown)
    agreement = {}
    for name in TYPE_NAMES:
        agreement[name] = aligned_agreement(
            np.asarray(cold.labels_[name]),
            np.asarray(delta.model.labels[name]))
    worst_agreement = min(agreement.values())

    # --- mmap path: one dirty type through a per-type-mmap artifact -----
    path = model.save(workdir / f"stream-{n_total}.npz", shards=MMAP_LAYOUT)
    with open_model_view(path, promote=[DIRTY_TYPE]) as view:
        mapped = refresh_model(view.model, grown, dirty=dirty,
                               validate="shapes", **budget)
        info = view.cache_info()
    touched = info["resident_bytes"] + info["mapped_bytes"]
    touched_fraction = touched / info["total_bytes"]
    parity = max(
        float(np.max(np.abs(np.asarray(mapped.model.membership[name])
                            - np.asarray(delta.model.membership[name]))))
        for name in TYPE_NAMES)

    return {
        "n_total": n_total,
        "sizes": type_sizes(n_total),
        "dirty_type": DIRTY_TYPE,
        "n_grown_objects": n_grow,
        "fit_seconds": round(fit_seconds, 4),
        "full_refresh_seconds": round(full_seconds, 4),
        "delta_refresh_seconds": round(delta_seconds, 4),
        "speedup": round(speedup, 3),
        "agreement": {name: round(value, 4)
                      for name, value in agreement.items()},
        "worst_agreement": round(worst_agreement, 4),
        "agreement_proxy": (None if delta.agreement_proxy is None
                            else round(delta.agreement_proxy, 4)),
        "mmap": {
            "total_bytes": info["total_bytes"],
            "resident_bytes": info["resident_bytes"],
            "mapped_bytes": info["mapped_bytes"],
            "touched_fraction": round(touched_fraction, 4),
            "membership_max_abs_diff": parity,
        },
    }


def main() -> int:
    parser = make_parser(__doc__, "BENCH_stream.json",
                         sizes_help="total object counts across all types",
                         with_check="gate on delta speedup, cold-refit "
                                    "agreement and mmap touched bytes",
                         with_workdir=True)
    args = parser.parse_args()
    workdir = resolve_workdir(args)
    sizes = select_sizes(args, DEFAULT_SIZES, SMOKE_SIZES)
    speedup_gate = SMOKE_SPEEDUP_GATE if args.smoke else SPEEDUP_GATE

    results = []
    for n_total in sizes:
        print(f"[bench] streaming refresh at N={n_total} ...")
        entry = run_size(n_total, args.seed, workdir)
        print(f"[bench]   full {entry['full_refresh_seconds']}s, delta "
              f"{entry['delta_refresh_seconds']}s ({entry['speedup']}x), "
              f"worst agreement {entry['worst_agreement']}, mmap touched "
              f"{entry['mmap']['touched_fraction']}")
        results.append(entry)

    failures = []
    for entry in results:
        n_total = entry["n_total"]
        if entry["speedup"] < speedup_gate:
            failures.append(
                f"N={n_total}: delta speedup {entry['speedup']}x < "
                f"{speedup_gate}x")
        if entry["worst_agreement"] < AGREEMENT_GATE:
            failures.append(
                f"N={n_total}: agreement {entry['worst_agreement']} < "
                f"{AGREEMENT_GATE}")
        if entry["mmap"]["touched_fraction"] >= TOUCHED_BYTES_GATE:
            failures.append(
                f"N={n_total}: mmap touched fraction "
                f"{entry['mmap']['touched_fraction']} >= "
                f"{TOUCHED_BYTES_GATE}")
        if entry["mmap"]["membership_max_abs_diff"] > MMAP_PARITY_TOL:
            failures.append(
                f"N={n_total}: mmap refresh diverges from in-memory by "
                f"{entry['mmap']['membership_max_abs_diff']}")
    report = {
        "benchmark": "stream",
        "environment": environment_metadata(),
        "config": {
            "n_clusters": N_CLUSTERS,
            "n_features": N_FEATURES,
            "split": list(SPLIT),
            "refresh_iter": REFRESH_ITER,
            "refresh_tol": REFRESH_TOL,
            "fit_iter": FIT_ITER,
            "grow_fraction": GROW_FRACTION,
        },
        "gates": {
            "speedup_min": speedup_gate,
            "agreement_min": AGREEMENT_GATE,
            "touched_fraction_max": TOUCHED_BYTES_GATE,
            "mmap_parity_tol": MMAP_PARITY_TOL,
        },
        "results": results,
        # Gate misses are recorded whether or not --check enforces them.
        "failures": failures,
    }
    emit_report(report, args)
    if not getattr(args, "check", False):
        return 0
    return gate(not failures, "; ".join(failures))


if __name__ == "__main__":
    raise SystemExit(main())
