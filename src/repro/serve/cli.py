"""Command line interface of the serving subsystem.

Three subcommands cover the fit→persist→serve lifecycle::

    python -m repro.serve fit-save --dataset multi5-small --output model.npz
    python -m repro.serve predict  --model model.npz --type documents \\
                                   --queries queries.npy --output predictions.npz
    python -m repro.serve info     --model model.npz

``fit-save`` fits RHCHME on a registered synthetic dataset preset and writes
the artifact (``--shards per-type-mmap`` for one raw ``.npy`` per array,
served lazily through memory maps); ``predict`` opens an artifact the way
its layout says and batch-predicts a ``.npy`` / ``.npz`` query matrix,
writing hard labels and soft membership scores (``--json`` for a
machine-readable result document on stdout); ``info`` prints the artifact's
sidecar metadata — including its shard layout — without loading the arrays.

``predict`` is an adapter over the canonical serving schema
(:class:`repro.net.schema.PredictRequest` /
:class:`~repro.net.schema.PredictResponse`): the ``--json`` document is
the wire-schema response (membership elided for stdout brevity — pass
``--output`` for the arrays) extended with histogram/throughput fields.

Every failure path surfaces as a one-line
``[serve] error[<code>]: ...`` on stderr — ``<code>`` being the stable
machine-readable code from :mod:`repro.exceptions` — and the process
exits with that code's ``exit_code``, so scripts can branch on the same
taxonomy the wire schema uses (artifact errors, validation errors and
load shedding all get distinct exit codes; tracebacks never escape).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from ..core.config import RHCHMEConfig
from ..core.rhchme import RHCHME
from ..data.datasets import list_datasets, make_dataset
from ..exceptions import ReproError
from ..net.schema import PredictRequest
from .artifact import MMAP_LAYOUT, RHCHMEModel, SHARD_LAYOUTS, artifact_layout
from .predictor import BatchPredictor

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Persist fitted RHCHME models and serve out-of-sample predictions")
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser(
        "fit-save", help="fit RHCHME on a dataset preset and save the artifact")
    fit.add_argument("--dataset", default="multi5-small",
                     help=f"dataset preset (one of: {', '.join(list_datasets())})")
    fit.add_argument("--output", required=True, type=Path,
                     help="artifact path (.npz; a .json sidecar lands next to it)")
    fit.add_argument("--random-state", type=int, default=0)
    fit.add_argument("--max-iter", type=int, default=30)
    fit.add_argument("--backend", default="auto",
                     choices=["auto", "dense", "sparse"])
    fit.add_argument("--no-subspace", action="store_true",
                     help="disable the subspace ensemble member (faster fits)")
    fit.add_argument("--shards", default="monolithic",
                     choices=list(SHARD_LAYOUTS),
                     help="artifact layout: one npz, or one raw .npy per "
                          "array grouped per object type (served lazily "
                          "through memory maps)")
    fit.add_argument("--diagnostics", action="store_true",
                     help="record fit-time health diagnostics (per-type "
                          "spectral metrics + membership churn) into the "
                          "artifact sidecar")

    predict = commands.add_parser(
        "predict", help="batch-predict new objects against a saved artifact")
    predict.add_argument("--model", required=True, type=Path)
    predict.add_argument("--type", required=True, dest="type_name",
                         help="object type the queries belong to")
    predict.add_argument("--queries", required=True, type=Path,
                         help=".npy (or single-array .npz) query feature matrix")
    predict.add_argument("--output", type=Path, default=None,
                         help="write labels + membership to this .npz")
    predict.add_argument("--batch-size", type=int, default=256)
    predict.add_argument("--json", action="store_true",
                         help="print a machine-readable JSON result document "
                              "(labels + timings) instead of the human log")

    info = commands.add_parser("info", help="print artifact metadata")
    info.add_argument("--model", required=True, type=Path)
    return parser


def load_queries(path: Path) -> np.ndarray:
    """Read a query matrix from a ``.npy`` or single-array ``.npz`` file.

    Shared by the ``python -m repro.serve`` and ``python -m repro.net``
    CLIs; a missing file or a multi-array ``.npz`` raises
    :class:`~repro.exceptions.ReproError`.
    """
    if not path.exists():
        raise ReproError(f"query file not found: {path}")
    loaded = np.load(path)
    if isinstance(loaded, np.lib.npyio.NpzFile):
        names = loaded.files
        if len(names) != 1:
            raise ReproError(
                f"{path} holds {len(names)} arrays ({names}); store the query "
                "matrix alone or pass a .npy file")
        return np.asarray(loaded[names[0]])
    return np.asarray(loaded)


def _cmd_fit_save(args: argparse.Namespace) -> int:
    config = RHCHMEConfig(max_iter=args.max_iter, random_state=args.random_state,
                          backend=args.backend,
                          use_subspace_member=not args.no_subspace,
                          diagnostics=args.diagnostics)
    data = make_dataset(args.dataset, random_state=args.random_state)
    print(f"[serve] fitting {args.dataset}: {data.describe()}")
    model = RHCHME(config)
    start = time.perf_counter()
    result = model.fit(data)
    print(f"[serve] fit done in {time.perf_counter() - start:.2f}s "
          f"({result.n_iterations} iterations, converged={result.converged}, "
          f"backend={result.extras['backend']})")
    artifact = result.to_model(data, model.config)
    if args.diagnostics:
        spectral = (artifact.diagnostics or {}).get("fit", {}).get("spectral", {})
        for type_name, entry in spectral.items():
            print(f"[serve] diagnostics {type_name}: "
                  f"spectral_gap={entry['spectral_gap']:.4g} "
                  f"laplacian_energy={entry['laplacian_energy']:.4g} "
                  f"connected={entry['connected']}")
    written = artifact.save(args.output, shards=args.shards)
    if args.shards == MMAP_LAYOUT:
        array_files = RHCHMEModel.shard_paths(
            written, RHCHMEModel.read_metadata(written))
        print(f"[serve] wrote {len(array_files)} array files "
              f"({', '.join(sorted(p.name for p in array_files.values()))}) "
              f"+ {written.with_suffix('.json').name}")
    else:
        print(f"[serve] wrote {written} (+ {written.with_suffix('.json').name})")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    request = PredictRequest(model=str(args.model), type_name=args.type_name,
                             queries=load_queries(args.queries),
                             batch_size=args.batch_size)
    predictor = BatchPredictor(default_batch_size=args.batch_size)
    response = predictor.serve(request)
    stats = predictor.stats
    counts = np.bincount(response.labels,
                         minlength=response.membership.shape[1])
    if args.output is not None:
        np.savez_compressed(args.output, labels=response.labels,
                            membership=response.membership)
    if args.json:
        # Machine-readable result document: the wire-schema response
        # (membership elided — use --output for the arrays) extended with
        # histogram/throughput fields.  One JSON object on stdout.
        document = response.to_json_dict()
        document.pop("membership")
        document.update({
            "n_queries": response.n_queries,
            "batch_size": args.batch_size,
            "seconds": round(response.seconds, 6),
            "objects_per_second": round(stats.objects_per_second, 3),
            "label_histogram": counts.tolist(),
            "output": str(args.output) if args.output is not None else None,
        })
        print(json.dumps(document, indent=2))
        return 0
    print(f"[serve] predicted {response.n_queries} {args.type_name!r} objects "
          f"in {stats.last_latency_seconds:.4f}s "
          f"({stats.objects_per_second:.0f} objects/s, "
          f"{response.n_batches} batches)")
    print(f"[serve] label histogram: {counts.tolist()}")
    if args.output is not None:
        print(f"[serve] wrote {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    # Metadata lives in the JSON sidecar; validating and printing it never
    # decompresses the (potentially huge) arrays.
    metadata = RHCHMEModel.read_metadata(args.model)
    # Computed convenience keys so scripts need not infer the layout from
    # the manifest or walk the sidecar for availability.  Any featured
    # type can be drift-scored: the server fingerprints its stored
    # features on the first scored batch.
    metadata["layout"] = artifact_layout(metadata)
    available = {"drift": any(entry.get("n_features") is not None
                              for entry in metadata.get("types", ())),
                 "fit": bool((metadata.get("diagnostics") or {}).get("fit"))}
    metadata["diagnostics_available"] = sorted(
        key for key, present in available.items() if present)
    print(json.dumps(metadata, indent=2))
    return 0


def main(argv=None) -> int:
    """Entry point of ``python -m repro.serve``."""
    args = _build_parser().parse_args(argv)
    handlers = {"fit-save": _cmd_fit_save, "predict": _cmd_predict,
                "info": _cmd_info}
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        # Stable taxonomy on both channels: the machine-readable code in
        # the message and the code's dedicated process exit code.
        print(f"[serve] error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
