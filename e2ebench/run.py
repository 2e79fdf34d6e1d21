"""End-to-end benchmark of RHCHME at its default settings.

Run from the repository root::

    python3 e2ebench/run.py --workload fit-text --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json``): ``fit-text`` (cold fits),
``grow-log`` (log append -> delta refresh -> save -> reopen) and
``serve-http`` (batch-1 predicts over HTTP).  Every workload runs
``RHCHMEConfig()`` with only ``random_state`` set and refuses any other
config.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
the same workload with every other op traced and prints the per-layer
metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full report,
spans included, goes to ``.e2ebench/``.  The exit code is 1 when an
output check fails and 2 when the library sources are missing.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy loads: one thread keeps fit times steady
# (two threads spread by 11% on a 2-core box), and keeps each workload's
# busy threads within the core count.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")
for _name in BLAS_VARIABLES:
    os.environ[_name] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench"
WORKLOADS = ("fit-text", "grow-log", "serve-http")

#: Set-ups per untraced run; ``setup_s`` is their median.
N_SETUPS = 3


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` (no git process)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library():
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"[e2ebench] library sources not found under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"[e2ebench] imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _stamp(args, config) -> dict:
    import numpy
    import scipy

    from common import config_hash
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace),
            "config_sha256": config_hash(config), "config_is_default": True,
            "nproc": os.cpu_count(),
            "blas_threads": {name: os.environ[name] for name in BLAS_VARIABLES},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": _git_commit(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an exception, so the finally blocks stop the
    # serve-http server process and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        print("[e2ebench] --seconds must be positive", file=sys.stderr)
        return 2
    _import_library()

    import common
    from layers import LAYER_METRICS, layer_values, setup_breakdown
    from tracer import solver_outcomes

    runner = importlib.import_module(args.workload.replace("-", "_"))
    stamp = _stamp(args, common.default_config(args.seed))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    workdir = common.fresh_dir(OUT, f"work-{args.workload}-")
    ctx = common.Context(seed=args.seed, seconds=args.seconds,
                         workdir=workdir, tracer=tracer,
                         n_setups=1 if args.trace else N_SETUPS)
    started = time.perf_counter()
    try:
        outcome = runner.run(ctx)
    finally:
        common.remove_dir(workdir)
    report = {"stamp": stamp, "wall_seconds": time.perf_counter() - started,
              "attempted": outcome.ops.attempted,
              "failed": outcome.ops.failed,
              "check_failures": outcome.checks.failures,
              "checks_passed": outcome.checks.passed,
              "details": outcome.details,
              "latencies_s": outcome.ops.latencies}

    metrics, notes = common.end_to_end(outcome)
    report["end_to_end"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}
    report["notes"] = notes
    if tracer is not None:
        extra = {"trace.overhead_ratio": outcome.ops.overhead_ratio(),
                 **outcome.layer_extra}
        values = layer_values(tracer, extra)
        units = {metric.name: metric.unit for metric in LAYER_METRICS}
        metrics = {name: (value, units[name]) for name, value in values.items()}
        children = tracer.children()
        report["per_layer"] = {
            metric.name: {"value": values[metric.name], "unit": metric.unit,
                          "moves": [f"{m} on {w}" for m, w in metric.moves]}
            for metric in LAYER_METRICS}
        report["setup_layers_s"] = setup_breakdown(tracer)
        report["solver_outcomes"] = {
            f"{root.name}-{root.attrs.get('index', 0)}":
                solver_outcomes(root, children)
            for root in tracer.roots("setup") + tracer.roots("op")}
        report["spans"] = [span.as_dict() for span in tracer.spans]

    correct = outcome.checks.ok
    OUT.mkdir(parents=True, exist_ok=True)
    report_path = OUT / (f"report-{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"[e2ebench] {args.workload} seed={args.seed} "
          f"config_sha256={stamp['config_sha256'][:16]} nproc={stamp['nproc']}"
          f" blas_threads={BLAS_THREADS} python={stamp['python']} "
          f"numpy={stamp['numpy']} scipy={stamp['scipy']} "
          f"commit={stamp['git_commit'][:12]}")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "op_tail_ms":
            note, full = notes[name], notes["op_tail_uncapped_ms"]
            extra = (f"  (p{note['percentile']:g} of n={note['n']}, "
                     f"{note['beyond']} beyond; uncapped "
                     f"p{full['percentile']:g} {full['value']:.3f} ms)")
        print(f"[e2ebench]   {name:28s} {value:14.6f} {unit}{extra}")
    for root, fits in list(report.get("solver_outcomes", {}).items())[:3]:
        for fit in fits:
            spg = ", ".join(
                f"{name} {o['iterations']} it conv={o['converged']} "
                f"obj={o['objective']:.6g}" for name, o in fit["spg"].items())
            print(f"[e2ebench] solver {root}: outer {fit['outer']['iterations']}"
                  f" it conv={fit['outer']['converged']}; SPG {spg or 'none'}")
    for failure in outcome.checks.failures:
        print(f"[e2ebench] CHECK FAILED {failure}")
    print(f"[e2ebench] report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct,
                      "attempted": outcome.ops.attempted,
                      "failed": outcome.ops.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
