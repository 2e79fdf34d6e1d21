"""Pieces every workload shares: the config gate, checks, timing loops."""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core import RHCHMEConfig

from stats import OpLog, median, tail
from tracer import Tracer

#: Theorem 1 tolerance, the same one the library's own tests apply to an
#: objective trace: a step may rise by at most 1e-6 relative + 1e-8
#: absolute (floating-point noise), never more.
MONOTONE_RTOL = 1e-6
MONOTONE_ATOL = 1e-8


class ConfigError(RuntimeError):
    """The effective config is not ``RHCHMEConfig()`` plus a seed."""


def default_config(seed: int) -> RHCHMEConfig:
    return checked_config(RHCHMEConfig(random_state=seed), seed)


def checked_config(config: RHCHMEConfig, seed: int) -> RHCHMEConfig:
    """Refuse any config that differs from the default beyond its seed."""
    if replace(config, random_state=None) != RHCHMEConfig():
        differing = {name: value for name, value in asdict(config).items()
                     if name != "random_state"
                     and value != getattr(RHCHMEConfig(), name)}
        raise ConfigError(f"config differs from RHCHMEConfig() in {differing}")
    if config.random_state != seed:
        raise ConfigError(f"config random_state {config.random_state} is not "
                          f"the workload seed {seed}")
    return config


def config_hash(config: RHCHMEConfig) -> str:
    """SHA-256 of every config field except the seed."""
    fields = asdict(replace(config, random_state=None))
    fields["weighting"] = config.weighting.value
    blob = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Checks:
    """Named pass/fail output checks; any failure marks the run incorrect."""

    failures: list = field(default_factory=list)
    passed: int = 0

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        if ok:
            self.passed += 1
        elif len(self.failures) < 50:
            self.failures.append(f"{name}: {detail}" if detail else name)
        else:
            self.failures[-1] = "... (more failures elided)"
        return bool(ok)

    @property
    def ok(self) -> bool:
        return not self.failures


def monotone(objectives) -> bool:
    values = np.asarray(objectives, dtype=np.float64)
    rises = np.diff(values)
    return bool(np.all(rises <= np.abs(values[:-1]) * MONOTONE_RTOL
                       + MONOTONE_ATOL))


def labels_complete(labels, n_objects: int, n_clusters: int) -> bool:
    labels = np.asarray(labels)
    return bool(labels.shape == (n_objects,) and labels.size
                and labels.min() >= 0 and labels.max() < n_clusters)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_seconds: list
    ops: OpLog
    fscore: float
    nmi: float
    peak_rss_mb: float
    checks: Checks
    layer_extra: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


@dataclass
class Context:
    """One workload run's parameters.

    ``tracer`` is set on traced runs only.  A traced run sets up once,
    inside a ``setup`` span, and traces every other op, so the untraced
    ops in between give the tracing overhead from the same run.
    """

    seed: int
    seconds: float
    workdir: Path
    n_setups: int
    tracer: Tracer | None = None

    def traces_op(self, index: int) -> bool:
        return self.tracer is not None and index % 2 == 1

    @contextmanager
    def layers(self, on: bool = True):
        """Wrap the library's layer boundaries while the block runs."""
        if self.tracer is None or not on:
            yield
            return
        with self.tracer.installed():
            yield

    @contextmanager
    def span(self, name: str, on: bool = True, **attrs):
        if self.tracer is None or not on:
            yield None
            return
        with self.tracer.span(name, **attrs) as span:
            yield span


def single_caller(ctx: Context, op, *, after=None, pause=None,
                  trace_group=lambda index: index) -> tuple[OpLog, list]:
    """Closed loop with one caller, run for ``ctx.seconds`` of op time.

    ``op(index)`` is the timed op; ``after(index, result, span)`` checks
    its output (``span`` is the op's span, ``None`` when untraced) and
    ``pause(index)`` runs before it, both with the clock stopped.  On
    traced runs every other ``trace_group(index)`` is traced.  A raised
    error counts the op as failed and the loop goes on.
    """
    ops = OpLog()
    errors = []
    index = 0
    while ops.timed_seconds < ctx.seconds:
        if pause is not None:
            pause(index)
        traced = ctx.traces_op(trace_group(index))
        span = None
        with ctx.layers(traced):
            start = time.perf_counter()
            try:
                with ctx.span("op", traced, index=index) as span:
                    result = op(index)
                latency = time.perf_counter() - start
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                latency = None
                errors.append(f"op {index}: {exc!r}")
            ops.timed_seconds += time.perf_counter() - start
        ops.record(latency, traced)
        if latency is not None and after is not None:
            after(index, result, span)
        index += 1
    return ops, errors


def end_to_end(outcome: Outcome) -> tuple[dict, dict]:
    """``{name: (value, unit)}`` of the end-to-end metrics, plus notes.

    The notes give the tail's percentile, its sample count and how many
    samples lie beyond it, and every set-up reading behind ``setup_s``.
    """
    if not outcome.ops.latencies:
        raise RuntimeError("no op completed in the timed phase")
    op_tail = tail(outcome.ops.latencies)
    uncapped = tail(outcome.ops.latencies, cap=100.0)
    metrics = {
        "setup_s": (median(outcome.setup_seconds), "s"),
        "op_p50_ms": (median(outcome.ops.latencies) * 1e3, "ms"),
        "op_tail_ms": (op_tail.value * 1e3, "ms"),
        "ops_per_s": (outcome.ops.ops_per_second(), "1/s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "fscore": (outcome.fscore, "ratio"),
        "nmi": (outcome.nmi, "ratio"),
    }
    notes = {"op_tail_ms": {"percentile": op_tail.percentile,
                            "beyond": op_tail.beyond, "n": op_tail.n,
                            "rule_met": op_tail.rule_met},
             "op_tail_uncapped_ms": {"value": uncapped.value * 1e3,
                                     "percentile": uncapped.percentile,
                                     "beyond": uncapped.beyond},
             "setup_s": {"samples": list(outcome.setup_seconds)}}
    return metrics, notes


def repeated_setup(count: int, build, dispose):
    """Run ``build()`` ``count`` times; keep the last, dispose the others.

    Returns ``(kept, seconds)`` with one wall-clock reading per set-up.
    """
    seconds = []
    kept = None
    for _ in range(count):
        if kept is not None:
            dispose(kept)
        start = time.perf_counter()
        kept = build()
        seconds.append(time.perf_counter() - start)
    return kept, seconds


def fresh_dir(parent: Path, prefix: str) -> Path:
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
