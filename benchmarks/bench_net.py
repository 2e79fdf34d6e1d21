"""Network serving benchmark: what micro-batching buys over HTTP.

Fits one RHCHME model per training size N, boots the asyncio HTTP
front-end (:class:`repro.net.NetServer`) on a loopback port with the
runtime's default micro-batching knobs and replays batch-1 predict
traffic through two configurations:

* **serial-http-batch1** — one keep-alive client issuing one request at a
  time: what a naive service integration does, paying the micro-batch
  deadline on every request;
* **concurrent-static** — the closed-loop multi-client generator:
  concurrent requests coalesce per flush window, which is the throughput
  case the tier is built for.

Headline metric (gated by ``--check``): ``http_concurrency_ratio`` —
concurrent-static throughput over the serial batch-1 HTTP loop, must be
≥ 3x at the largest N.

Usage::

    PYTHONPATH=src python benchmarks/bench_net.py            # full run
    PYTHONPATH=src python benchmarks/bench_net.py --smoke    # CI smoke

Writes ``BENCH_net.json`` (see ``--output``).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import (QUERY_TYPE, bootstrap_sys_path, emit_report,
                    environment_metadata, fit_and_save, gate, make_parser,
                    make_queries, make_synthetic, resolve_workdir,
                    select_sizes)

bootstrap_sys_path()

from repro.net import NetClient, NetServer, run_closed_loop  # noqa: E402

DEFAULT_SIZES = (1000, 3000)
SMOKE_SIZES = (300,)

MODEL_ID = "bench"


def time_serial_http(handle, queries: np.ndarray, n_requests: int) -> dict:
    """The baseline: one request at a time over one keep-alive connection."""
    n_rows = queries.shape[0]
    with NetClient(handle.host, handle.port) as client:
        client.predict(MODEL_ID, QUERY_TYPE, queries[:1])  # warm the cache
        latencies = []
        start = time.perf_counter()
        for i in range(n_requests):
            t0 = time.perf_counter()
            client.predict(MODEL_ID, QUERY_TYPE, queries[i % n_rows][None, :])
            latencies.append(time.perf_counter() - t0)
        seconds = time.perf_counter() - start
    return {
        "frontend": "serial-http-batch1",
        "requests": int(n_requests),
        "seconds": round(seconds, 6),
        "requests_per_second": round(n_requests / seconds, 3),
        "p50_ms": round(float(np.percentile(latencies, 50)) * 1000, 3),
        "p99_ms": round(float(np.percentile(latencies, 99)) * 1000, 3),
    }


def time_concurrent(handle, queries: np.ndarray, *, n_clients: int,
                    n_requests: int) -> dict:
    """Closed-loop multi-client load against one server.

    An unmeasured warm-up loop runs first — cache warm, worker threads
    spun up — so the measured numbers are steady state, not start-up
    transients.
    """
    with NetClient(handle.host, handle.port) as client:
        client.predict(MODEL_ID, QUERY_TYPE, queries[:1])  # warm the cache
    run_closed_loop(
        handle.host, handle.port, model=MODEL_ID, type_name=QUERY_TYPE,
        queries=queries, n_clients=n_clients,
        requests_per_client=max(1, n_requests // (2 * n_clients)),
        rows_per_request=1)
    report = run_closed_loop(
        handle.host, handle.port, model=MODEL_ID, type_name=QUERY_TYPE,
        queries=queries, n_clients=n_clients,
        requests_per_client=max(1, n_requests // n_clients),
        rows_per_request=1)
    if report.errors:
        raise RuntimeError(f"{report.errors} concurrent requests errored")
    stats = handle.server.runtime.stats
    summary = report.as_dict()
    summary.update({
        "frontend": "concurrent-static",
        "mean_batch_rows": round(stats.mean_batch_rows, 3),
        "batches": stats.batches,
    })
    return summary


def launch_server(model_path: Path, *, n_workers: int, max_batch_size: int):
    return NetServer.launch(
        models={MODEL_ID: str(model_path)}, workers="thread",
        n_workers=n_workers, max_batch_size=max_batch_size,
        max_pending=1_000_000)


def run(sizes, *, n_requests: int, n_clients: int, n_workers: int,
        max_batch_size: int, seed: int, fit_max_iter: int,
        workdir: Path) -> dict:
    results = []
    for n_total in sizes:
        data = make_synthetic(n_total, seed=seed)
        model_path = workdir / f"bench_net_model_{n_total}.npz"
        print(f"[bench] N={n_total}: fitting + exporting ...", flush=True)
        fit_info = fit_and_save(data, model_path, seed=seed,
                                fit_max_iter=fit_max_iter)
        queries = make_queries(data, max(n_requests, 64), seed=seed + 1)
        n_serial = max(50, n_requests // 4)
        entry = {"n_total": int(n_total), "n_requests": int(n_requests),
                 "n_clients": int(n_clients), **fit_info, "frontends": []}

        frontends = (
            lambda handle: time_serial_http(handle, queries, n_serial),
            lambda handle: time_concurrent(handle, queries,
                                           n_clients=n_clients,
                                           n_requests=n_requests))
        for measure in frontends:
            handle = launch_server(model_path, n_workers=n_workers,
                                   max_batch_size=max_batch_size)
            try:
                timing = measure(handle)
            finally:
                handle.close(drain=True)
            entry["frontends"].append(timing)
            print(f"[bench] N={n_total} {timing['frontend']}: "
                  f"{timing['requests_per_second']:,.0f} req/s, "
                  f"p99 {timing['p99_ms']:.1f} ms", flush=True)
        results.append(entry)

    largest = results[-1]
    by_frontend = {t["frontend"]: t for t in largest["frontends"]}
    serial_rps = by_frontend["serial-http-batch1"]["requests_per_second"]
    static = by_frontend["concurrent-static"]
    return {
        "benchmark": "rhchme-net",
        **environment_metadata(),
        "sizes": [int(n) for n in sizes],
        "results": results,
        "summary": {
            "largest_n": largest["n_total"],
            "serial_http_requests_per_second": serial_rps,
            "concurrent_static_requests_per_second":
                static["requests_per_second"],
            "http_concurrency_ratio": round(
                static["requests_per_second"] / serial_rps, 3),
            "static_p99_ms": static["p99_ms"],
        },
    }


def main(argv=None) -> int:
    parser = make_parser(
        __doc__, "BENCH_net.json",
        sizes_help=f"training object counts (default {DEFAULT_SIZES})",
        with_check="gate: concurrent HTTP throughput >= 3x the serial "
                   "batch-1 loop",
        with_workdir=True)
    parser.add_argument("--requests", type=int, default=600,
                        help="requests of the concurrent run")
    parser.add_argument("--clients", type=int, default=8,
                        help="closed-loop client threads")
    parser.add_argument("--workers", type=int, default=4,
                        help="thread-pool size of the runtime behind HTTP")
    parser.add_argument("--max-batch-size", type=int, default=256)
    parser.add_argument("--fit-max-iter", type=int, default=5)
    args = parser.parse_args(argv)

    sizes = select_sizes(args, DEFAULT_SIZES, SMOKE_SIZES)
    n_requests = (min(args.requests, 240) if args.smoke
                  and args.requests == 600 else args.requests)
    report = run(sizes, n_requests=n_requests, n_clients=args.clients,
                 n_workers=args.workers, max_batch_size=args.max_batch_size,
                 seed=args.seed, fit_max_iter=args.fit_max_iter,
                 workdir=resolve_workdir(args))
    emit_report(report, args)
    summary = report["summary"]
    print(f"[bench] largest N={summary['largest_n']}: concurrent HTTP "
          f"x{summary['http_concurrency_ratio']} the serial batch-1 loop "
          f"(static p99 {summary['static_p99_ms']:.1f} ms)")
    if getattr(args, "check", False):
        return gate(summary["http_concurrency_ratio"] >= 3.0,
                    f"concurrent/serial HTTP throughput ratio "
                    f"{summary['http_concurrency_ratio']} < 3.0")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
