"""Command line interface of the network serving tier.

Four subcommands::

    python -m repro.net serve   --model docs=model.npz [--model ...] \\
                                --host 127.0.0.1 --port 8080 --tracing
    python -m repro.net predict --host 127.0.0.1 --port 8080 \\
                                --model docs --type documents \\
                                --queries queries.npy [--json]
    python -m repro.net loadgen --host 127.0.0.1 --port 8080 \\
                                --model docs --type documents \\
                                --queries queries.npy --clients 8
    python -m repro.net traces  --host 127.0.0.1 --port 8080 [--limit 3]

``serve`` boots a :class:`~repro.net.NetServer` over the shared runtime
(micro-batching worker pool) and blocks until SIGTERM/SIGINT, draining
in-flight requests before exit.  ``predict`` sends one wire-schema
request and prints the result; ``loadgen`` runs the closed-loop
multi-client generator and prints the :class:`~repro.net.LoadReport`;
``traces`` dumps the flight recorder's retained span trees (slowest and
errored requests) from a server started with ``--tracing``.

Failures follow the shared taxonomy: one ``[net] error[<code>]: ...``
line on stderr and the code's dedicated process exit code — identical
semantics to ``python -m repro.serve``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..exceptions import ReproError, ValidationError
from ..serve.cli import load_queries
from .client import NetClient
from .loadgen import run_closed_loop
from .server import NetServer

__all__ = ["main"]


def _parse_model_spec(spec: str) -> tuple[str, str]:
    model_id, sep, path = spec.partition("=")
    if not sep or not model_id or not path:
        raise ValidationError(
            f"--model expects <id>=<artifact-path>, got {spec!r}")
    return model_id, path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Serve RHCHME predictions over HTTP and drive the server")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="boot the asyncio HTTP front-end (blocks until SIGTERM)")
    serve.add_argument("--model", action="append", required=True,
                       metavar="ID=PATH", dest="models",
                       help="register a model route (repeatable)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 picks a free port)")
    serve.add_argument("--workers", default="thread",
                       choices=["thread", "serial"])
    serve.add_argument("--n-workers", type=int, default=None)
    serve.add_argument("--max-batch-size", type=int, default=256)
    serve.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="micro-batch flush deadline in milliseconds")
    serve.add_argument("--max-inflight-per-model", type=int, default=None,
                       help="per-model admission quota (sheds HTTP 429)")
    serve.add_argument("--diagnostics", action="store_true",
                       help="score served batches for covariate drift "
                            "against the models' training fingerprints "
                            "(exported via /v1/metrics and /v1/stats)")
    serve.add_argument("--tracing", action="store_true",
                       help="build a span tree per request and retain the "
                            "slowest/errored ones in the flight recorder "
                            "(GET /v1/traces; stage histograms are always "
                            "on)")

    traces = commands.add_parser(
        "traces", help="dump a running server's flight recorder "
                       "(GET /v1/traces)")
    traces.add_argument("--host", default="127.0.0.1")
    traces.add_argument("--port", type=int, required=True)
    traces.add_argument("--timeout", type=float, default=60.0)
    traces.add_argument("--limit", type=int, default=None,
                        help="print only the N slowest retained traces")

    predict = commands.add_parser(
        "predict", help="send one predict request to a running server")
    _add_client_args(predict)
    predict.add_argument("--batch-size", type=int, default=None)
    predict.add_argument("--output", type=Path, default=None,
                         help="write labels + membership to this .npz")
    predict.add_argument("--json", action="store_true",
                         help="print the wire-schema response document "
                              "(membership elided) instead of the human log")

    loadgen = commands.add_parser(
        "loadgen", help="closed-loop multi-client load generation")
    _add_client_args(loadgen)
    loadgen.add_argument("--clients", type=int, default=4)
    loadgen.add_argument("--requests-per-client", type=int, default=50)
    loadgen.add_argument("--rows-per-request", type=int, default=1)
    loadgen.add_argument("--report", type=Path, default=None,
                         help="also write the summary to this JSON file")
    loadgen.add_argument("--trace-ids", action="store_true",
                         help="stamp deterministic loadgen-<client>-<i> "
                              "trace ids on every request (look slow ones "
                              "up in GET /v1/traces)")
    return parser


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--model", required=True,
                        help="registered model id on the server")
    parser.add_argument("--type", required=True, dest="type_name")
    parser.add_argument("--queries", required=True, type=Path,
                        help=".npy (or single-array .npz) query matrix")
    parser.add_argument("--timeout", type=float, default=60.0)


def _cmd_serve(args: argparse.Namespace) -> int:
    models = dict(_parse_model_spec(spec) for spec in args.models)
    server = NetServer(models=models, host=args.host, port=args.port,
                       max_inflight_per_model=args.max_inflight_per_model,
                       workers=args.workers, n_workers=args.n_workers,
                       max_batch_size=args.max_batch_size,
                       max_delay_seconds=args.max_delay_ms / 1000.0,
                       diagnostics=args.diagnostics,
                       tracing=args.tracing)
    print(f"[net] serving {sorted(models)} on {args.host}:{args.port} "
          f"(workers={args.workers}, "
          f"diagnostics={args.diagnostics}, tracing={args.tracing}); "
          "SIGTERM drains and exits")
    server.serve_forever()
    print("[net] drained; bye")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    queries = load_queries(args.queries)
    with NetClient(args.host, args.port, timeout=args.timeout) as client:
        response = client.predict(args.model, args.type_name, queries,
                                  batch_size=args.batch_size)
    counts = np.bincount(response.labels,
                         minlength=response.membership.shape[1])
    if args.output is not None:
        np.savez_compressed(args.output, labels=response.labels,
                            membership=response.membership)
    if args.json:
        document = response.to_json_dict()
        document.pop("membership")
        document.update({
            "n_queries": response.n_queries,
            "label_histogram": counts.tolist(),
            "output": str(args.output) if args.output is not None else None,
        })
        print(json.dumps(document, indent=2))
        return 0
    seconds = response.seconds or 0.0
    rate = response.n_queries / seconds if seconds > 0 else 0.0
    print(f"[net] predicted {response.n_queries} {args.type_name!r} objects "
          f"against {args.model!r} in {seconds:.4f}s server-side "
          f"({rate:.0f} objects/s, {response.n_batches} batches)")
    print(f"[net] label histogram: {counts.tolist()}")
    if args.output is not None:
        print(f"[net] wrote {args.output}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    queries = load_queries(args.queries)
    report = run_closed_loop(
        args.host, args.port, model=args.model, type_name=args.type_name,
        queries=queries, n_clients=args.clients,
        requests_per_client=args.requests_per_client,
        rows_per_request=args.rows_per_request, timeout=args.timeout,
        trace_ids=args.trace_ids)
    print(json.dumps(report.as_dict(), indent=2))
    if args.report is not None:
        report.write(args.report)
        print(f"[net] wrote {args.report}", file=sys.stderr)
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    with NetClient(args.host, args.port, timeout=args.timeout) as client:
        document = client.traces()
    if args.limit is not None:
        document["traces"] = document.get("traces", [])[:max(0, args.limit)]
    print(json.dumps(document, indent=2))
    if not document.get("tracing"):
        print("[net] tracing is disabled on the server; start it with "
              "--tracing to retain span trees", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    """Entry point of ``python -m repro.net``."""
    args = _build_parser().parse_args(argv)
    handlers = {"serve": _cmd_serve, "predict": _cmd_predict,
                "loadgen": _cmd_loadgen, "traces": _cmd_traces}
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        print("[net] interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"[net] error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
