"""Prometheus text exposition of the serving stack's health signals.

:func:`render_prometheus` flattens one :class:`~repro.net.NetServer`'s
state — runtime counters, predictor counters, per-model routing/admission
state, stage latencies, drift scores, refresh telemetry and the fitted
models' spectral diagnostics — into the Prometheus text format
(``text/plain; version=0.0.4``), served by ``GET /v1/metrics``.

Everything is rendered from state the server already keeps; a scrape
never triggers prediction, artifact IO beyond cached sidecars, or any
numerics.  Metric names are stable API (documented in the README's
"Watching a deployed model" table); labels carry the public model id
where one is routed and the artifact path otherwise.
"""

from __future__ import annotations

from ..obs import BUCKET_BOUNDS

__all__ = ["CONTENT_TYPE", "render_prometheus"]

#: The exposition-format content type ``/v1/metrics`` responds with.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _labels(pairs: dict[str, str]) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"'
                    for name, value in pairs.items())
    return "{" + body + "}"


def _number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    number = float(value)
    if number != number:  # NaN never reaches the exposition
        return "0"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _Exposition:
    """Accumulates samples grouped by metric, emitting HELP/TYPE once."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._seen: set[str] = set()

    def sample(self, name: str, kind: str, help_text: str, value,
               labels: dict[str, str] | None = None) -> None:
        if value is None:
            return
        if name not in self._seen:
            self._seen.add(name)
            self._lines.append(f"# HELP {name} {help_text}")
            self._lines.append(f"# TYPE {name} {kind}")
        self._lines.append(f"{name}{_labels(labels or {})} {_number(value)}")

    def histogram(self, name: str, help_text: str, snapshot: dict,
                  bounds, labels: dict[str, str]) -> None:
        """Emit one Prometheus histogram series (cumulative buckets).

        ``snapshot`` is a :meth:`repro.obs.LatencyHistogram.snapshot`
        document — raw per-bucket counts, which are cumulated here into
        the ``_bucket{le=...}`` convention; the ``+Inf`` bucket equals
        ``_count`` by construction (it absorbs the overflow bucket).
        """
        if name not in self._seen:
            self._seen.add(name)
            self._lines.append(f"# HELP {name} {help_text}")
            self._lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, count in zip(bounds, snapshot["bucket_counts"]):
            cumulative += count
            bucket_labels = _labels({**labels, "le": _number(bound)})
            self._lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
        inf_labels = _labels({**labels, "le": "+Inf"})
        self._lines.append(f"{name}_bucket{inf_labels} "
                           f"{snapshot['count']}")
        self._lines.append(f"{name}_sum{_labels(labels)} "
                           f"{_number(snapshot['sum_seconds'])}")
        self._lines.append(f"{name}_count{_labels(labels)} "
                           f"{snapshot['count']}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def _model_label(routes_by_path: dict[str, str], path: str) -> str:
    """Public model id when the path is routed, the path itself otherwise."""
    return routes_by_path.get(path, path)


def _runtime_section(out: _Exposition, stats: dict) -> None:
    counters = (
        ("submitted", "Requests accepted by the runtime queue."),
        ("completed", "Requests whose futures settled successfully."),
        ("failed", "Requests whose futures settled with an error."),
        ("rejected", "Requests shed by queue backpressure."),
        ("batches", "Coalesced micro-batches dispatched."),
        ("objects", "Query rows served through dispatched batches."),
        ("refreshes", "Model refreshes."),
    )
    for name, help_text in counters:
        out.sample(f"repro_runtime_{name}_total", "counter", help_text,
                   stats.get(name))
    out.sample("repro_runtime_max_batch_rows", "gauge",
               "Largest coalesced batch dispatched so far.",
               stats.get("max_batch_rows"))
    out.sample("repro_runtime_mean_batch_rows", "gauge",
               "Mean rows per dispatched batch.",
               stats.get("mean_batch_rows"))
    for reason, count in (stats.get("flush_counts") or {}).items():
        out.sample("repro_runtime_flushes_total", "counter",
                   "Batch flushes by trigger reason.", count,
                   {"reason": reason})


def _predictor_section(out: _Exposition, stats: dict) -> None:
    counters = (
        ("requests", "Predict calls served by the batch predictor."),
        ("objects", "Query rows predicted."),
        ("cache_hits", "Model-cache hits."),
        ("cache_misses", "Model-cache misses (artifact loads)."),
        ("cache_evictions", "Models evicted from the LRU cache."),
    )
    for name, help_text in counters:
        out.sample(f"repro_predictor_{name}_total", "counter", help_text,
                   stats.get(name))
    out.sample("repro_predictor_seconds_total", "counter",
               "Wall-clock seconds spent inside predict calls.",
               stats.get("seconds"))
    out.sample("repro_predictor_last_latency_seconds", "gauge",
               "Latency of the most recent predict call.",
               stats.get("last_latency_seconds"))
    for type_name, count in (stats.get("per_type_objects") or {}).items():
        out.sample("repro_predictor_type_objects_total", "counter",
                   "Query rows predicted per object type.", count,
                   {"type": type_name})


def _routes_section(out: _Exposition, routes) -> None:
    for route in routes:
        labels = {"model": route.model_id}
        out.sample("repro_model_inflight", "gauge",
                   "Requests currently in flight per routed model.",
                   route.inflight, labels)
        out.sample("repro_model_served_total", "counter",
                   "Requests served per routed model.", route.served, labels)
        out.sample("repro_model_rejected_total", "counter",
                   "Requests shed by the per-model admission quota.",
                   route.rejected, labels)


def _stages_section(out: _Exposition, stages: dict,
                    routes_by_path: dict[str, str]) -> None:
    # Runtime-recorded stages are keyed by resolved artifact path, the
    # front-end's parse/encode stages by public model id; stage names are
    # disjoint between the two, so mapping paths onto ids here never
    # collides two series onto one label set.
    for key, per_stage in (stages or {}).items():
        model = _model_label(routes_by_path, key)
        for stage in sorted(per_stage):
            out.histogram(
                "repro_stage_duration_seconds",
                "Per-stage request latency (http.parse, queue.wait, "
                "batch.assemble, compute.predict, wire.encode).",
                per_stage[stage], BUCKET_BOUNDS,
                {"model": model, "stage": stage})


def _errors_section(out: _Exposition, errors: dict) -> None:
    for code, count in sorted((errors or {}).items()):
        out.sample("repro_request_errors_total", "counter",
                   "Requests failed or shed, per stable error code.",
                   count, {"code": code})


def _drift_section(out: _Exposition, drift: dict,
                   routes_by_path: dict[str, str]) -> None:
    for path, per_type in (drift or {}).items():
        model = _model_label(routes_by_path, path)
        for type_name, entry in per_type.items():
            labels = {"model": model, "type": type_name}
            out.sample("repro_drift_rows", "gauge",
                       "Query rows accumulated in the drift window.",
                       entry.get("rows"), labels)
            out.sample("repro_drift_score", "gauge",
                       "Scalar drift score (max of feature-PSI mean and "
                       "affinity-mass PSI).",
                       entry.get("score"), labels)
            out.sample("repro_drift_feature_psi_max", "gauge",
                       "Worst single-feature population stability index.",
                       entry.get("feature_psi_max"), labels)
            out.sample("repro_drift_mass_psi", "gauge",
                       "PSI of the query-affinity-mass distribution.",
                       entry.get("mass_psi"), labels)


def _refresh_section(out: _Exposition, refresh: dict,
                     routes_by_path: dict[str, str]) -> None:
    for path, entry in ((refresh or {}).get("models") or {}).items():
        labels = {"model": _model_label(routes_by_path, path)}
        out.sample("repro_refresh_last_seconds", "gauge",
                   "Wall-clock seconds of the model's most recent refresh.",
                   entry.get("seconds"), labels)
        out.sample("repro_refresh_last_iterations", "gauge",
                   "Solver iterations the most recent refresh ran.",
                   entry.get("iterations"), labels)
        out.sample("repro_refresh_types_touched", "gauge",
                   "Object types the most recent refresh re-optimised "
                   "(all types on a full warm refit).",
                   entry.get("n_types_touched"), labels)
        out.sample("repro_refresh_agreement_proxy", "gauge",
                   "Fraction of pre-refresh objects keeping their cluster "
                   "assignment through the refresh.",
                   entry.get("agreement_proxy"), labels)
        out.sample("repro_refresh_new_objects", "gauge",
                   "Objects appended to the corpus by the most recent "
                   "refresh.", entry.get("n_new_objects"), labels)
        out.sample("repro_refresh_delta_scheduled", "gauge",
                   "1 when the most recent refresh ran under a delta "
                   "schedule (clean types frozen).",
                   entry.get("delta"), labels)


def _spectral_section(out: _Exposition, server) -> None:
    for route in server._routes.values():
        document = route.diagnostics
        cached = server.runtime.predictor.peek_model(route.path)
        if cached is not None:
            # A refreshed model was hot-swapped into the cache: its sidecar
            # section (spectral metrics of the refit's Laplacian blocks)
            # supersedes the one stashed at registration time.
            document = cached.diagnostics or document
        spectral = ((document or {}).get("fit") or {}).get("spectral") or {}
        for type_name, entry in spectral.items():
            labels = {"model": route.model_id, "type": type_name}
            out.sample("repro_model_spectral_gap", "gauge",
                       "Spectral gap of the type's ensemble Laplacian "
                       "block at fit time.", entry.get("spectral_gap"),
                       labels)
            out.sample("repro_model_fiedler_value", "gauge",
                       "Algebraic connectivity (second-smallest Laplacian "
                       "eigenvalue) at fit time.",
                       entry.get("fiedler_value"), labels)
            out.sample("repro_model_laplacian_energy", "gauge",
                       "Laplacian energy of the type's block at fit time.",
                       entry.get("laplacian_energy"), labels)
            out.sample("repro_model_graph_connected", "gauge",
                       "1 when the type's affinity graph was connected at "
                       "fit time.", entry.get("connected"), labels)
            out.sample("repro_model_spectral_degenerate", "gauge",
                       "1 when the type was too small or ill-posed for "
                       "spectral metrics (sentinel values reported).",
                       entry.get("degenerate"), labels)


def render_prometheus(server) -> str:
    """Render one :class:`~repro.net.NetServer`'s state as Prometheus text."""
    out = _Exposition()
    routes = list(server._routes.values())
    routes_by_path = {route.path: route.model_id for route in routes}
    out.sample("repro_server_draining", "gauge",
               "1 while the server is draining (no new predicts admitted).",
               server.draining)
    runtime_stats = server.runtime.stats
    _runtime_section(out, runtime_stats.as_dict())
    _predictor_section(out, server.runtime.predictor.stats.as_dict())
    _routes_section(out, routes)
    _stages_section(out, runtime_stats.stages, routes_by_path)
    _errors_section(out, runtime_stats.errors)
    _drift_section(out, runtime_stats.drift, routes_by_path)
    _refresh_section(out, runtime_stats.refresh, routes_by_path)
    _spectral_section(out, server)
    return out.render()
