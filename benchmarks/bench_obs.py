"""Observability overhead benchmark: tracing tax and trace fidelity.

Three questions, one number each:

* **Tracing overhead** — what does ``tracing=True`` cost the serving
  runtime?  The same batched query stream is replayed through two
  serial-worker :class:`repro.runtime.RuntimeServer` instances, tracing
  off and on, in ``PAIRS`` pairs whose first side alternates; each side
  of a pair replays the stream for at least ``MIN_SIDE_SECONDS``.  The
  gate holds the median per-pair throughput loss at ≤ 2% (≤ 10% under
  ``--smoke``, where the smaller model puts timing noise closer to the
  effect being measured).
* **Trace fidelity** — does the span tree actually explain a request's
  latency?  A traced HTTP server is driven with real traffic, the
  slowest retained trace is pulled from ``GET /v1/traces``, and its
  stage durations (``http.parse`` + ``queue.wait`` + ``compute.predict``
  + ``wire.encode``) must sum to within 10% of the request's wall clock.
* **Export cost** — how long does one Prometheus scrape of the stage
  histograms take with traffic behind it?  Reported (mean ms per
  ``GET /v1/metrics``), not gated.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py            # full run
    PYTHONPATH=src python benchmarks/bench_obs.py --smoke --check

Writes ``BENCH_obs.json`` (see ``--output``).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import (PAIRS, QUERY_TYPE, bootstrap_sys_path, emit_report,
                    environment_metadata, fit_and_save, gate, make_parser,
                    make_queries, make_synthetic, paired_stream_loss,
                    resolve_workdir, select_sizes)

bootstrap_sys_path()

from repro.net import NetClient, NetServer  # noqa: E402

DEFAULT_SIZES = (1000, 3000)
SMOKE_SIZES = (300,)

MODEL_ID = "bench"
TRACING_GATE = 0.02        # serving throughput loss ceiling (fraction)
SMOKE_TRACING_GATE = 0.10  # ceiling on short smoke runs (timing noise)
FIDELITY_GATE = 0.10       # |1 - stage_sum/wall_clock| ceiling
STAGE_NAMES = ("http.parse", "queue.wait", "compute.predict", "wire.encode")


def stage_sum_seconds(trace: dict) -> float:
    """Total duration of the named stage children of one span tree."""
    return sum(child.get("duration_seconds", 0.0)
               for child in trace.get("children", [])
               if child.get("name") in STAGE_NAMES)


def check_trace_fidelity(model_path: Path, queries: np.ndarray, *,
                         n_requests: int, rows_per_request: int) -> dict:
    """Drive a traced HTTP server; audit its slowest retained trace.

    The slowest trace is exactly the one an operator pulls when chasing a
    latency regression, so that is the one whose stage attribution must
    hold up: the named stages have to account for the request's wall
    clock (within ``FIDELITY_GATE``), or the tree is decoration.
    """
    handle = NetServer.launch(models={MODEL_ID: str(model_path)},
                              workers="thread", tracing=True)
    try:
        n_rows = queries.shape[0]
        with NetClient(handle.host, handle.port) as client:
            client.predict(MODEL_ID, QUERY_TYPE, queries[:1])  # warm cache
            for i in range(n_requests):
                offset = (i * rows_per_request) % n_rows
                rows = queries[offset:offset + rows_per_request]
                if rows.shape[0] == 0:
                    rows = queries[:rows_per_request]
                client.predict(MODEL_ID, QUERY_TYPE, rows,
                               trace_id=f"bench-obs-{i:06d}")
            scrape_times = []
            for _ in range(5):
                t0 = time.perf_counter()
                exposition = client.metrics()
                scrape_times.append(time.perf_counter() - t0)
            dump = client.traces()
    finally:
        handle.close(drain=True)
    traces = [t for t in dump.get("traces", [])
              if t.get("status") == "ok" and t.get("name") == "request"]
    if not traces:
        raise RuntimeError("flight recorder retained no completed "
                           "request traces")
    slowest = max(traces, key=lambda t: t.get("duration_seconds", 0.0))
    wall = slowest["duration_seconds"]
    covered = stage_sum_seconds(slowest)
    return {
        "requests": int(n_requests),
        "rows_per_request": int(rows_per_request),
        "retained_traces": len(traces),
        "slowest_trace_id": slowest.get("trace_id"),
        "wall_clock_seconds": round(wall, 6),
        "stage_sum_seconds": round(covered, 6),
        "stage_coverage_fraction": round(covered / wall, 4) if wall else None,
        "stages": sorted({child.get("name")
                          for child in slowest.get("children", [])}),
        "metrics_scrape_mean_ms": round(
            sum(scrape_times) / len(scrape_times) * 1000.0, 3),
        "metrics_scrape_bytes": len(exposition.encode("utf-8")),
    }


def run(sizes, *, n_queries: int, batch_rows: int, n_requests: int,
        rows_per_request: int, seed: int, fit_max_iter: int,
        workdir: Path) -> dict:
    results = []
    for n_total in sizes:
        data = make_synthetic(n_total, seed=seed)
        model_path = workdir / f"bench_obs_model_{n_total}.npz"
        print(f"[bench] N={n_total}: fitting + exporting ...", flush=True)
        fit_info = fit_and_save(data, model_path, seed=seed,
                                fit_max_iter=fit_max_iter)
        queries = make_queries(data, n_queries, seed=seed + 1)

        print(f"[bench] N={n_total}: timing streams "
              f"({PAIRS} alternating pairs) ...", flush=True)
        stream = paired_stream_loss(model_path, queries,
                                    batch_rows=batch_rows, feature="tracing")
        stream["tracing_loss_fraction"] = stream.pop("loss_fraction")
        print(f"[bench] N={n_total} stream: off "
              f"{stream['off']['objects_per_second']:,.0f} objects/s, on "
              f"{stream['on']['objects_per_second']:,.0f} objects/s "
              f"({stream['passes']} passes per side; median pair loss "
              f"{stream['tracing_loss_fraction']:+.1%})", flush=True)

        fidelity = check_trace_fidelity(model_path, queries,
                                        n_requests=n_requests,
                                        rows_per_request=rows_per_request)
        print(f"[bench] N={n_total} fidelity: slowest trace "
              f"{fidelity['slowest_trace_id']} covers "
              f"{fidelity['stage_coverage_fraction']:.1%} of its "
              f"{fidelity['wall_clock_seconds'] * 1000:.2f} ms wall clock; "
              f"scrape {fidelity['metrics_scrape_mean_ms']:.2f} ms",
              flush=True)
        results.append({
            "n_total": int(n_total), **fit_info,
            "stream": stream,
            "fidelity": fidelity,
        })

    largest = results[-1]
    return {
        "benchmark": "rhchme-obs",
        **environment_metadata(),
        "sizes": [int(n) for n in sizes],
        "gates": {"tracing_loss_max": TRACING_GATE,
                  "tracing_loss_max_smoke": SMOKE_TRACING_GATE,
                  "stage_coverage_tolerance": FIDELITY_GATE},
        "results": results,
        "summary": {
            "largest_n": largest["n_total"],
            "tracing_loss_fraction": largest["stream"][
                "tracing_loss_fraction"],
            "stage_coverage_fraction": largest["fidelity"][
                "stage_coverage_fraction"],
            "metrics_scrape_mean_ms": largest["fidelity"][
                "metrics_scrape_mean_ms"],
        },
    }


def main(argv=None) -> int:
    parser = make_parser(
        __doc__, "BENCH_obs.json",
        sizes_help=f"training object counts (default {DEFAULT_SIZES})",
        with_check="gate: median per-pair tracing throughput loss ≤ 2% "
                   "(10% under --smoke) and the slowest retained trace's "
                   "stage durations sum to within 10% of its wall clock",
        with_workdir=True)
    parser.add_argument("--queries", type=int, default=4096,
                        help="rows replayed through the serving stream")
    parser.add_argument("--batch-rows", type=int, default=256,
                        help="rows per predict request in the stream (the "
                             "runtime's default max_batch_size)")
    parser.add_argument("--requests", type=int, default=120,
                        help="HTTP requests driven through the traced server")
    parser.add_argument("--rows-per-request", type=int, default=64,
                        help="rows per HTTP request in the fidelity check "
                             "(large enough that compute dominates)")
    parser.add_argument("--fit-max-iter", type=int, default=5)
    args = parser.parse_args(argv)

    sizes = select_sizes(args, DEFAULT_SIZES, SMOKE_SIZES)
    n_queries = (min(args.queries, 1024) if args.smoke
                 and args.queries == 4096 else args.queries)
    n_requests = (min(args.requests, 40) if args.smoke
                  and args.requests == 120 else args.requests)
    report = run(sizes, n_queries=n_queries, batch_rows=args.batch_rows,
                 n_requests=n_requests,
                 rows_per_request=args.rows_per_request, seed=args.seed,
                 fit_max_iter=args.fit_max_iter,
                 workdir=resolve_workdir(args))
    emit_report(report, args)
    summary = report["summary"]
    print(f"[bench] largest N={summary['largest_n']}: tracing "
          f"{summary['tracing_loss_fraction']:+.1%} of throughput, slowest "
          f"trace covers {summary['stage_coverage_fraction']:.1%} of wall "
          f"clock, scrape {summary['metrics_scrape_mean_ms']:.2f} ms")
    if getattr(args, "check", False):
        loss_gate = SMOKE_TRACING_GATE if args.smoke else TRACING_GATE
        failures = []
        if summary["tracing_loss_fraction"] > loss_gate:
            failures.append(
                f"tracing throughput loss "
                f"{summary['tracing_loss_fraction']:+.1%} > {loss_gate:.0%}")
        coverage = summary["stage_coverage_fraction"]
        if coverage is None or abs(1.0 - coverage) > FIDELITY_GATE:
            failures.append(
                f"stage coverage {coverage} outside "
                f"1±{FIDELITY_GATE:.0%} of wall clock")
        return gate(not failures, "; ".join(failures))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
