"""Diagnostics overhead benchmark: fit-time monitor and serving detector.

Two questions, one number each:

* **Monitor overhead** — what does ``diagnostics=True`` add to a fit?
  The spectral metrics are computed once per fit (the ``L_t`` blocks are
  fixed), so the per-iteration cost is only the O(n) membership-churn
  update; the gate holds the total at ≤ 5% over an identical fit with
  diagnostics off (best-of-``--repeats`` on both sides).
* **Detector overhead** — what does per-batch drift scoring add to the
  serving runtime?  The same query stream is replayed through a
  serial-worker :class:`repro.runtime.RuntimeServer` with diagnostics off
  and on; the gate holds the throughput loss at ≤ 3%.

Usage::

    PYTHONPATH=src python benchmarks/bench_diagnostics.py            # full
    PYTHONPATH=src python benchmarks/bench_diagnostics.py --smoke --check

Writes ``BENCH_diagnostics.json`` (see ``--output``).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import (QUERY_TYPE, bootstrap_sys_path, emit_report,
                    environment_metadata, gate, make_parser, make_queries,
                    make_synthetic, resolve_workdir, select_sizes)

bootstrap_sys_path()

from repro.core import RHCHME  # noqa: E402
from repro.runtime import RuntimeServer  # noqa: E402

DEFAULT_SIZES = (1000, 3000)
SMOKE_SIZES = (300,)

MONITOR_GATE = 0.05   # fit-time overhead ceiling (fraction)
DETECTOR_GATE = 0.03  # serving throughput loss ceiling (fraction)


def time_fits(data, *, seed: int, max_iter: int, repeats: int) -> tuple:
    """Interleaved best-of-``repeats`` timings of plain vs monitored fits.

    Alternating the two sides inside one loop decorrelates environmental
    drift (CPU frequency, page cache) from the comparison — timing all
    plain fits first and all monitored fits second folds that drift
    straight into the overhead estimate.
    """
    best = {False: float("inf"), True: float("inf")}
    iterations = {}
    for _ in range(repeats):
        for diagnostics in (False, True):
            model = RHCHME(max_iter=max_iter, random_state=seed,
                           init="random", use_subspace_member=False,
                           track_metrics_every=0, diagnostics=diagnostics)
            start = time.perf_counter()
            result = model.fit(data)
            best[diagnostics] = min(best[diagnostics],
                                    time.perf_counter() - start)
            iterations[diagnostics] = result.n_iterations
    return tuple({"diagnostics": diagnostics,
                  "best_seconds": round(best[diagnostics], 6),
                  "n_iterations": int(iterations[diagnostics])}
                 for diagnostics in (False, True))


def time_stream(model_path: Path, queries: np.ndarray, *, diagnostics,
                batch_rows: int, repeats: int) -> dict:
    """Best-of-``repeats`` throughput of a batched serial predict stream."""
    batches = [queries[start:start + batch_rows]
               for start in range(0, queries.shape[0], batch_rows)]
    best = float("inf")
    with RuntimeServer(workers="serial", max_batch_size=batch_rows,
                       max_delay_seconds=0.0005,
                       diagnostics=diagnostics) as runtime:
        runtime.predict(path=model_path, type_name=QUERY_TYPE,
                        queries=queries[:1])  # warm the model cache
        for _ in range(repeats):
            start = time.perf_counter()
            for batch in batches:
                runtime.predict(path=model_path, type_name=QUERY_TYPE,
                                queries=batch, timeout=600)
            best = min(best, time.perf_counter() - start)
    return {"diagnostics": bool(diagnostics) or isinstance(diagnostics, dict),
            "best_seconds": round(best, 6),
            "objects_per_second": round(queries.shape[0] / best, 3),
            "n_batches": len(batches)}


def run(sizes, *, n_queries: int, batch_rows: int, seed: int,
        fit_max_iter: int, repeats: int, workdir: Path) -> dict:
    results = []
    for n_total in sizes:
        data = make_synthetic(n_total, seed=seed)
        print(f"[bench] N={n_total}: timing fits "
              f"(best of {repeats}, interleaved) ...", flush=True)
        plain, monitored = time_fits(data, seed=seed, max_iter=fit_max_iter,
                                     repeats=repeats)
        monitor_overhead = (monitored["best_seconds"] / plain["best_seconds"]
                            - 1.0)
        print(f"[bench] N={n_total} fit: plain {plain['best_seconds']:.3f}s, "
              f"monitored {monitored['best_seconds']:.3f}s "
              f"({monitor_overhead:+.1%})", flush=True)

        model = RHCHME(max_iter=fit_max_iter, random_state=seed,
                       init="random", use_subspace_member=False,
                       track_metrics_every=0, diagnostics=True)
        model.fit(data)
        model_path = workdir / f"bench_diag_model_{n_total}.npz"
        model.export_model(data).save(model_path)
        queries = make_queries(data, n_queries, seed=seed + 1)
        off = time_stream(model_path, queries, diagnostics=False,
                          batch_rows=batch_rows, repeats=repeats)
        on = time_stream(model_path, queries, diagnostics=True,
                         batch_rows=batch_rows, repeats=repeats)
        detector_loss = 1.0 - (on["objects_per_second"]
                               / off["objects_per_second"])
        print(f"[bench] N={n_total} stream: off "
              f"{off['objects_per_second']:,.0f} objects/s, on "
              f"{on['objects_per_second']:,.0f} objects/s "
              f"(loss {detector_loss:+.1%})", flush=True)
        results.append({
            "n_total": int(n_total),
            "fit": {"plain": plain, "monitored": monitored,
                    "monitor_overhead_fraction": round(monitor_overhead, 4)},
            "stream": {"off": off, "on": on,
                       "detector_loss_fraction": round(detector_loss, 4)},
        })

    largest = results[-1]
    return {
        "benchmark": "rhchme-diagnostics",
        **environment_metadata(),
        "sizes": [int(n) for n in sizes],
        "gates": {"monitor_overhead_max": MONITOR_GATE,
                  "detector_loss_max": DETECTOR_GATE},
        "results": results,
        "summary": {
            "largest_n": largest["n_total"],
            "monitor_overhead_fraction": largest["fit"][
                "monitor_overhead_fraction"],
            "detector_loss_fraction": largest["stream"][
                "detector_loss_fraction"],
        },
    }


def main(argv=None) -> int:
    parser = make_parser(
        __doc__, "BENCH_diagnostics.json",
        sizes_help=f"training object counts (default {DEFAULT_SIZES})",
        with_check="gate: monitor overhead ≤ 5% of the fit and detector "
                   "throughput loss ≤ 3% at the largest size",
        with_workdir=True)
    parser.add_argument("--queries", type=int, default=4096,
                        help="rows replayed through the serving stream")
    parser.add_argument("--batch-rows", type=int, default=256,
                        help="rows per predict request in the stream (the "
                             "runtime's default max_batch_size)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats for each timed side")
    parser.add_argument("--fit-max-iter", type=int, default=5)
    args = parser.parse_args(argv)

    sizes = select_sizes(args, DEFAULT_SIZES, SMOKE_SIZES)
    n_queries = (min(args.queries, 1024) if args.smoke
                 and args.queries == 4096 else args.queries)
    report = run(sizes, n_queries=n_queries, batch_rows=args.batch_rows,
                 seed=args.seed, fit_max_iter=args.fit_max_iter,
                 repeats=args.repeats, workdir=resolve_workdir(args))
    emit_report(report, args)
    summary = report["summary"]
    print(f"[bench] largest N={summary['largest_n']}: monitor "
          f"{summary['monitor_overhead_fraction']:+.1%} of fit, detector "
          f"{summary['detector_loss_fraction']:+.1%} of throughput")
    if getattr(args, "check", False):
        monitor_ok = (summary["monitor_overhead_fraction"] <= MONITOR_GATE)
        detector_ok = (summary["detector_loss_fraction"] <= DETECTOR_GATE)
        return gate(
            monitor_ok and detector_ok,
            f"monitor overhead {summary['monitor_overhead_fraction']:+.1%} "
            f"(gate ≤{MONITOR_GATE:.0%}) or detector loss "
            f"{summary['detector_loss_fraction']:+.1%} "
            f"(gate ≤{DETECTOR_GATE:.0%}) missed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
