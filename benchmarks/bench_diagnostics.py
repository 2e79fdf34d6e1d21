"""Diagnostics overhead benchmark: fit-time monitor and serving detector.

Two questions, one number each, both timed in ``PAIRS`` alternating
off/on pairs whose first side alternates and whose sides run for at least
``MIN_SIDE_SECONDS`` (see :func:`common.paired_seconds`):

* **Monitor overhead** — what does ``diagnostics=True`` add to a fit?
  The spectral metrics are computed once per fit (the ``L_t`` blocks are
  fixed), so the per-iteration cost is only the O(n) membership-churn
  update; the gate holds the median per-pair fit-time overhead at ≤ 5%
  over an identical fit with diagnostics off.
* **Detector overhead** — what does per-batch drift scoring add to the
  serving runtime?  The same query stream is replayed through two
  serial-worker :class:`repro.runtime.RuntimeServer` instances,
  diagnostics off and on; the gate holds the median per-pair throughput
  loss at ≤ 3%.

Usage::

    PYTHONPATH=src python benchmarks/bench_diagnostics.py            # full
    PYTHONPATH=src python benchmarks/bench_diagnostics.py --smoke --check

Writes ``BENCH_diagnostics.json`` (see ``--output``).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import (PAIRS, bootstrap_sys_path, emit_report,
                    environment_metadata, gate, make_parser, make_queries,
                    make_synthetic, paired_seconds, paired_stream_loss,
                    resolve_workdir, select_sizes)

bootstrap_sys_path()

from repro.core import RHCHME  # noqa: E402

DEFAULT_SIZES = (1000, 3000)
SMOKE_SIZES = (300,)

MONITOR_GATE = 0.05   # fit-time overhead ceiling (fraction)
DETECTOR_GATE = 0.03  # serving throughput loss ceiling (fraction)


def time_fits(data, *, seed: int, max_iter: int) -> dict:
    """Median per-pair fit-time overhead of the monitor.

    A side is ``passes`` identical fits, diagnostics off or on.
    """
    iterations = {}

    def fits(diagnostics: bool, passes: int) -> float:
        start = time.perf_counter()
        for _ in range(passes):
            result = RHCHME(max_iter=max_iter, random_state=seed,
                            init="random", use_subspace_member=False,
                            track_metrics_every=0,
                            diagnostics=diagnostics).fit(data)
        iterations[diagnostics] = result.n_iterations
        return time.perf_counter() - start

    seconds, passes = paired_seconds(fits)
    overheads = [on / off - 1.0
                 for off, on in zip(seconds[False], seconds[True])]

    def side(diagnostics: bool) -> dict:
        return {"diagnostics": diagnostics,
                "median_seconds": round(float(np.median(seconds[diagnostics])), 6),
                "n_iterations": int(iterations[diagnostics])}

    return {"plain": side(False), "monitored": side(True),
            "fits_per_side": passes, "pairs": PAIRS,
            "pair_overheads": [round(value, 4) for value in overheads],
            "monitor_overhead_fraction": round(float(np.median(overheads)), 4)}


def run(sizes, *, n_queries: int, batch_rows: int, seed: int,
        fit_max_iter: int, workdir: Path) -> dict:
    results = []
    for n_total in sizes:
        data = make_synthetic(n_total, seed=seed)
        print(f"[bench] N={n_total}: timing fits "
              f"({PAIRS} alternating pairs) ...", flush=True)
        fit = time_fits(data, seed=seed, max_iter=fit_max_iter)
        print(f"[bench] N={n_total} fit: plain "
              f"{fit['plain']['median_seconds']:.3f}s, monitored "
              f"{fit['monitored']['median_seconds']:.3f}s per "
              f"{fit['fits_per_side']} fits (median pair overhead "
              f"{fit['monitor_overhead_fraction']:+.1%})", flush=True)

        model = RHCHME(max_iter=fit_max_iter, random_state=seed,
                       init="random", use_subspace_member=False,
                       track_metrics_every=0, diagnostics=True)
        model.fit(data)
        model_path = workdir / f"bench_diag_model_{n_total}.npz"
        model.export_model(data).save(model_path)
        queries = make_queries(data, n_queries, seed=seed + 1)
        stream = paired_stream_loss(model_path, queries,
                                    batch_rows=batch_rows,
                                    feature="diagnostics")
        stream["detector_loss_fraction"] = stream.pop("loss_fraction")
        print(f"[bench] N={n_total} stream: off "
              f"{stream['off']['objects_per_second']:,.0f} objects/s, on "
              f"{stream['on']['objects_per_second']:,.0f} objects/s "
              f"({stream['passes']} passes per side; median pair loss "
              f"{stream['detector_loss_fraction']:+.1%})", flush=True)
        results.append({"n_total": int(n_total), "fit": fit,
                        "stream": stream})

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
        with_check="gate: median per-pair monitor overhead ≤ 5% of the "
                   "fit and detector throughput loss ≤ 3% at the largest "
                   "size",
        with_workdir=True)
    parser.add_argument("--queries", type=int, default=4096,
                        help="rows replayed through the serving stream")
    parser.add_argument("--batch-rows", type=int, default=256,
                        help="rows per predict request in the stream (the "
                             "runtime's default max_batch_size)")
    parser.add_argument("--fit-max-iter", type=int, default=5)
    args = parser.parse_args(argv)

    sizes = select_sizes(args, DEFAULT_SIZES, SMOKE_SIZES)
    n_queries = (min(args.queries, 1024) if args.smoke
                 and args.queries == 4096 else args.queries)
    report = run(sizes, n_queries=n_queries, batch_rows=args.batch_rows,
                 seed=args.seed, fit_max_iter=args.fit_max_iter,
                 workdir=resolve_workdir(args))
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
