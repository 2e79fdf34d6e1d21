"""Per-layer metrics of the traced run, and what each one should move.

Each metric is named ``<module>.<metric>`` after the ``src/repro`` module
whose public calls it times.  ``moves`` names the end-to-end metric and
workload a change to that layer should show up in; later issues cite the
pair by name.  ``BENCHMARK.json`` lists the same names (its schema has no
room for the targets, so they live here and in the traced report).

Values are means per traced op.  A layer the workload's op never calls
reads 0, and a ratio with no attempts reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import Tracer, descendants, outermost, uncovered_seconds

MB = float(2 ** 20)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: tuple[tuple[str, str], ...]


def _m(name, unit, better, *moves):
    return LayerMetric(name, unit, better, tuple(moves))


FIT, GROW, SERVE = "fit-text", "grow-log", "serve-http"
P50, TAIL, RATE, RSS, SETUP = (
    "op_p50_ms", "op_tail_ms", "ops_per_s", "peak_rss_mb", "setup_s")

LAYER_METRICS = (
    _m("subspace.fit_s", "s", "lower", (P50, FIT), (SETUP, GROW),
       (SETUP, SERVE), (P50, GROW)),
    _m("subspace.spg_iters", "count", "lower", (P50, FIT)),
    _m("subspace.converged_ratio", "ratio", "higher", (P50, FIT)),
    _m("subspace.objective_calls", "count", "lower", (P50, FIT)),
    _m("subspace.objective_s", "s", "lower", (P50, FIT)),
    _m("subspace.gradient_calls", "count", "lower", (P50, FIT)),
    _m("subspace.gradient_s", "s", "lower", (P50, FIT)),
    _m("subspace.gflop", "GFLOP", "lower", (P50, FIT)),
    _m("graph.pnn_s", "s", "lower", (P50, FIT)),
    _m("graph.laplacian_s", "s", "lower", (P50, FIT)),
    _m("manifold.build_s", "s", "lower", (P50, FIT)),
    _m("manifold.self_s", "s", "lower", (P50, FIT)),
    _m("core.init_s", "s", "lower", (P50, FIT), (P50, GROW)),
    _m("core.s_update_s", "s", "lower", (P50, GROW), (P50, FIT)),
    _m("core.g_update_s", "s", "lower", (P50, GROW), (P50, FIT)),
    _m("core.e_update_s", "s", "lower", (P50, GROW), (P50, FIT)),
    _m("core.objective_s", "s", "lower", (P50, GROW), (P50, FIT)),
    _m("core.iterations", "count", "lower", (P50, FIT), (P50, GROW)),
    _m("core.converged_ratio", "ratio", "higher", (P50, FIT), (P50, GROW)),
    _m("core.e_mb", "MB", "lower", (RSS, GROW)),
    _m("metrics.track_s", "s", "lower", (P50, FIT)),
    _m("serve.export_s", "s", "lower", (P50, GROW)),
    _m("serve.save_s", "s", "lower", (P50, GROW), (SETUP, SERVE)),
    _m("serve.save_mb", "MB", "lower", (P50, GROW), (SETUP, SERVE)),
    _m("serve.open_s", "s", "lower", (P50, GROW), (SETUP, SERVE)),
    _m("serve.touched_ratio", "ratio", "lower", (P50, GROW), (RSS, GROW)),
    _m("serve.extension_s", "s", "lower", (P50, GROW)),
    _m("stream.append_s", "s", "lower", (P50, GROW)),
    _m("stream.append_mb", "MB", "lower", (P50, GROW)),
    _m("stream.dataset_s", "s", "lower", (P50, GROW)),
    _m("stream.refresh_s", "s", "lower", (P50, GROW)),
    _m("net.http_parse_ms", "ms", "lower", (P50, SERVE), (TAIL, SERVE),
       (RATE, SERVE)),
    _m("net.wire_encode_ms", "ms", "lower", (P50, SERVE), (TAIL, SERVE),
       (RATE, SERVE)),
    _m("runtime.queue_wait_ms", "ms", "lower", (P50, SERVE), (TAIL, SERVE),
       (RATE, SERVE)),
    _m("runtime.batch_assemble_ms", "ms", "lower", (P50, SERVE),
       (TAIL, SERVE), (RATE, SERVE)),
    _m("runtime.compute_predict_ms", "ms", "lower", (P50, SERVE),
       (TAIL, SERVE), (RATE, SERVE)),
    _m("runtime.mean_batch_rows", "rows", "higher", (RATE, SERVE)),
    _m("net.request_kb", "KB", "lower", (RATE, SERVE), (P50, SERVE)),
    _m("net.client_ms", "ms", "lower", (P50, SERVE)),
    _m("trace.coverage_ratio", "ratio", "higher"),
    _m("trace.overhead_ratio", "ratio", "lower"),
)

#: Span name -> ``<name>_s`` metric for layers reported as plain seconds.
_SECONDS = ("subspace.fit", "subspace.objective", "subspace.gradient",
            "graph.pnn", "graph.laplacian", "manifold.build", "core.init",
            "core.s_update", "core.g_update", "core.e_update",
            "core.objective", "metrics.track", "serve.export", "serve.save",
            "serve.open", "serve.extension", "stream.append",
            "stream.dataset", "stream.refresh")


def _ratio(hits: int, attempts: int) -> float:
    return hits / attempts if attempts else 0.0


def layer_values(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Per-op layer metrics from the traced ops, overridden by ``extra``.

    ``extra`` carries what the spans cannot see: the serving stages of an
    out-of-process server, and the traced/untraced overhead ratio.
    """
    children = tracer.children()
    ops = tracer.roots("op")
    n_ops = max(len(ops), 1)
    seconds: dict[str, float] = dict.fromkeys(_SECONDS, 0.0)
    calls: dict[str, int] = {}
    flop = 0.0
    spg = []
    fits = []
    saved = appended = 0
    manifold_children = 0.0
    uncovered = total = 0.0
    touched = []
    for op in ops:
        total += op.seconds
        uncovered += uncovered_seconds(op, children)
        if "touched_ratio" in op.attrs:
            touched.append(op.attrs["touched_ratio"])
        for span in outermost(op, children):
            seconds[span.name] = seconds.get(span.name, 0.0) + span.seconds
        for span in descendants(op, children):
            calls[span.name] = calls.get(span.name, 0) + 1
            flop += span.attrs.get("flop", 0)
            if span.name == "subspace.fit":
                spg.append(span.attrs)
            elif span.name == "core.fit":
                fits.append(span.attrs)
            elif span.name == "serve.save":
                saved += span.attrs.get("bytes", 0)
            elif span.name == "stream.append":
                appended += span.attrs.get("bytes", 0)
            elif span.name == "manifold.build":
                manifold_children += sum(
                    inner.seconds for inner in outermost(span, children)
                    if inner.name in ("subspace.fit", "graph.pnn",
                                      "graph.laplacian"))

    values = {f"{name}_s": seconds[name] / n_ops for name in _SECONDS}
    values.update({
        "subspace.spg_iters": sum(s["iterations"] for s in spg) / n_ops,
        "subspace.converged_ratio": _ratio(
            sum(bool(s["converged"]) for s in spg), len(spg)),
        "subspace.objective_calls": calls.get("subspace.objective", 0) / n_ops,
        "subspace.gradient_calls": calls.get("subspace.gradient", 0) / n_ops,
        "subspace.gflop": flop / 1e9 / n_ops,
        "manifold.self_s": (seconds["manifold.build"] - manifold_children)
        / n_ops,
        "core.iterations": sum(f["iterations"] for f in fits) / n_ops,
        "core.converged_ratio": _ratio(
            sum(bool(f["converged"]) for f in fits), len(fits)),
        "core.e_mb": (sum(f["e_bytes"] for f in fits) / len(fits) / MB
                      if fits else 0.0),
        "serve.save_mb": saved / MB / n_ops,
        "serve.touched_ratio": sum(touched) / len(touched) if touched else 0.0,
        "stream.append_mb": appended / MB / n_ops,
        "trace.coverage_ratio": 1.0 - uncovered / total if total else 0.0,
    })
    for metric in LAYER_METRICS:
        values.setdefault(metric.name, 0.0)
    values.update(extra)
    unknown = set(values) - {metric.name for metric in LAYER_METRICS}
    if unknown:
        raise KeyError(f"layer values outside the catalogue: {sorted(unknown)}")
    return {metric.name: float(values[metric.name]) for metric in LAYER_METRICS}


def setup_breakdown(tracer: Tracer) -> dict[str, float]:
    """Seconds per layer inside the traced set-up (where it was traced)."""
    children = tracer.children()
    totals: dict[str, float] = {}
    for root in tracer.roots("setup"):
        for span in outermost(root, children):
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
    return totals
