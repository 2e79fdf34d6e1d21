"""The asyncio HTTP front-end (:class:`NetServer`).

Puts :class:`repro.runtime.RuntimeServer` on the wire with a small,
dependency-free HTTP/1.1 implementation on asyncio streams:

* ``POST /v1/predict`` — a :class:`~repro.net.schema.PredictRequest`
  JSON document in, a :class:`~repro.net.schema.PredictResponse` (or
  :class:`~repro.net.schema.ErrorResponse`) document out;
* ``GET /v1/models`` / ``GET /v1/stats`` / ``GET /v1/health`` —
  routing table, cumulative counters (runtime, predictor, per-model)
  and liveness;
* ``POST /v1/drain`` — stop admitting, wait for in-flight requests to
  settle, respond when drained.

**Multi-model routing**: requests name a registered model id; the server
maps it to that model's artifact path and everything funnels into *one*
shared worker pool and micro-batcher.  **Admission control** is
per-model: an in-flight quota sheds excess load for one hot model with
HTTP 429 (``quota_exceeded``) while other models keep being served;
global saturation surfaces as HTTP 503 (``queue_full``) straight from
the runtime's bounded-queue backpressure.  Every shed response carries a
``Retry-After`` hint and the stable error code, so clients back off on
the same taxonomy the exceptions use.

**Lifecycle**: :meth:`NetServer.drain` stops admitting new predicts
(503 ``draining``) and waits for accepted requests to finish; SIGTERM in
:meth:`serve_forever` drains before exit.  :meth:`NetServer.refresh`
hot-swaps a model in place — in-flight requests keep serving the old
immutable artifact and complete normally (the guarantee the runtime
already makes in-process, preserved over the wire).

The event loop never runs numerics: predicts are awaited through the
runtime's worker-pool futures via ``asyncio.wrap_future``, so the loop
stays free to admit, shed and answer health checks under load.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import threading
import time
from dataclasses import dataclass, replace

from .._validation import check_positive_int
from ..exceptions import (ModelNotFoundError, QuotaExceededError,
                          ServerDrainingError, ValidationError)
from ..runtime.server import RuntimeServer
from ..serve.artifact import RHCHMEModel
from . import metrics
from .schema import (WIRE_SCHEMA_VERSION, ErrorResponse, PredictRequest)

__all__ = ["ModelRoute", "NetServer", "NetServerHandle"]

_MODEL_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


@dataclass
class ModelRoute:
    """One registered model: public id → artifact path + admission state."""

    model_id: str
    path: str
    max_inflight: int | None = None
    inflight: int = 0
    served: int = 0
    rejected: int = 0
    # The artifact sidecar's ``diagnostics`` section, stashed at
    # registration so ``/v1/metrics`` can expose fit-time spectral gauges
    # without re-reading the sidecar per scrape.
    diagnostics: dict | None = None

    def as_dict(self) -> dict:
        return {
            "model": self.model_id,
            "path": self.path,
            "max_inflight": self.max_inflight,
            "inflight": self.inflight,
            "served": self.served,
            "rejected": self.rejected,
            "has_diagnostics": self.diagnostics is not None,
        }


class NetServer:
    """Asyncio HTTP front-end routing model ids onto one shared runtime.

    Parameters
    ----------
    runtime:
        The :class:`~repro.runtime.RuntimeServer` to serve through.  When
        omitted, one is constructed from ``runtime_kwargs`` (e.g.
        ``workers=\"thread\"``, ``max_delay_seconds=0.002``) and owned —
        closed when the server shuts down.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    models:
        Initial routing table, ``{model_id: artifact_path}``.
    max_inflight_per_model:
        Default per-model admission quota, a positive integer (``None`` =
        unlimited); overridable per model via :meth:`register_model`.
    max_body_bytes:
        Upper bound on accepted request bodies (HTTP 413 beyond it).
    """

    def __init__(self, *, runtime: RuntimeServer | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 models: dict | None = None,
                 max_inflight_per_model: int | None = None,
                 max_body_bytes: int = 64 * 1024 * 1024,
                 **runtime_kwargs) -> None:
        # A quota below one would shed every request as retryable, forever.
        # Check it before the runtime exists: its threads would outlive a
        # constructor that raises.
        if max_inflight_per_model is not None:
            check_positive_int(max_inflight_per_model,
                               name="max_inflight_per_model")
        if runtime is None:
            runtime = RuntimeServer(**runtime_kwargs)
            self._owns_runtime = True
        elif runtime_kwargs:
            raise ValidationError(
                "runtime_kwargs are only accepted when the server constructs "
                f"its own runtime, got {sorted(runtime_kwargs)}")
        else:
            self._owns_runtime = False
        self.runtime = runtime
        self.host = host
        self._requested_port = int(port)
        self.max_inflight_per_model = max_inflight_per_model
        self.max_body_bytes = int(max_body_bytes)
        self._routes: dict[str, ModelRoute] = {}
        self._draining = False
        self._server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._bound_port: int | None = None
        try:
            for model_id, path in (models or {}).items():
                self.register_model(model_id, path)
        except BaseException:
            # Nothing is left to close an owned runtime whose batcher
            # thread is already running once the constructor raises.
            if self._owns_runtime:
                runtime.close()
            raise

    # ---------------------------------------------------------------- routing
    def register_model(self, model_id: str, path, *,
                       max_inflight: int | None = None) -> ModelRoute:
        """Route ``model_id`` to the artifact at ``path``.

        Validates the id and resolves the artifact (missing/corrupt
        artifacts fail here, not on the first request).  ``max_inflight``
        must be a positive integer; it defaults to the server-wide
        ``max_inflight_per_model``.
        """
        if not isinstance(model_id, str) or not _MODEL_ID.match(model_id):
            raise ValidationError(
                f"model id must match {_MODEL_ID.pattern}, got {model_id!r}")
        if max_inflight is not None:
            check_positive_int(max_inflight, name="max_inflight")
        resolved = str(RHCHMEModel.resolve_path(path))
        sidecar = RHCHMEModel.read_metadata(resolved)
        if max_inflight is None:
            max_inflight = self.max_inflight_per_model
        route = ModelRoute(model_id=model_id, path=resolved,
                           max_inflight=max_inflight,
                           diagnostics=sidecar.get("diagnostics"))
        self._routes[model_id] = route
        return route

    @property
    def models(self) -> list[str]:
        return sorted(self._routes)

    def refresh(self, model_id: str, data, *, save: bool = True, **overrides):
        """Warm-start-refresh a routed model and hot-swap it in place.

        Thin adapter over :meth:`RuntimeServer.refresh`: in-flight HTTP
        requests keep their reference to the old immutable model and
        complete; requests admitted after the swap see the new one.
        """
        route = self._routes.get(model_id)
        if route is None:
            raise ModelNotFoundError(f"model {model_id!r} is not registered")
        return self.runtime.refresh(route.path, data, save=save, **overrides)

    # -------------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._bound_port is None:
            raise RuntimeError("server is not started")
        return self._bound_port

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Bind the listener; returns once the port is accepting."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port)
        self._bound_port = self._server.sockets[0].getsockname()[1]

    async def drain(self, *, timeout: float | None = None,
                    poll_seconds: float = 0.005) -> bool:
        """Stop admitting predicts and wait for in-flight ones to settle.

        Returns ``True`` once no request is in flight, ``False`` if
        ``timeout`` elapsed first (the server stays draining either way).
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while any(route.inflight for route in self._routes.values()):
            if deadline is not None and loop.time() >= deadline:
                return False
            await asyncio.sleep(poll_seconds)
        return True

    async def stop(self, *, drain: bool = True,
                   timeout: float | None = None) -> None:
        """Drain (optionally), close the listener and release the loop."""
        if drain:
            await self.drain(timeout=timeout)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._stop_event is not None:
            self._stop_event.set()

    async def _run(self, started: threading.Event | None = None,
                   *, install_signals: bool = False) -> None:
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        signum,
                        lambda: asyncio.ensure_future(self.stop(drain=True)))
                except (NotImplementedError, RuntimeError):
                    # Not the main thread, or a platform without signal
                    # support on the loop; lifecycle stays API-driven.
                    break
        if started is not None:
            started.set()
        await self._stop_event.wait()
        if self._owns_runtime:
            self.runtime.close()

    def serve_forever(self) -> None:
        """Blocking entry point: serve until SIGTERM/SIGINT, drain, exit."""
        asyncio.run(self._run(install_signals=True))

    @classmethod
    def launch(cls, *, ready_timeout: float = 30.0,
               **kwargs) -> "NetServerHandle":
        """Start a server on a background thread and return its handle.

        The handle exposes the bound ``host``/``port`` plus thread-safe
        ``drain()`` / ``refresh()`` / ``close()`` — the shape tests,
        examples and benchmarks embed the server with.
        """
        server = cls(**kwargs)
        started = threading.Event()
        failures: list[BaseException] = []

        def _serve() -> None:
            try:
                asyncio.run(server._run(started))
            except BaseException as exc:  # noqa: BLE001 - reported to starter
                failures.append(exc)
                started.set()

        thread = threading.Thread(target=_serve, name="repro-net-server",
                                  daemon=True)
        thread.start()
        started.wait(ready_timeout)
        if failures:
            raise failures[0]
        if server._bound_port is None:
            raise RuntimeError("NetServer failed to start within "
                               f"{ready_timeout}s")
        return NetServerHandle(server, thread)

    # ------------------------------------------------------------------- HTTP
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, target, headers, body, parse_error = parsed
                if parse_error is not None:
                    await self._write_json(writer, *parse_error,
                                           keep_alive=False)
                    break
                keep_alive = headers.get(
                    "connection", "keep-alive").lower() != "close"
                status, document, extra = await self._route_request(
                    method, target, body)
                await self._write_json(writer, status, document,
                                       keep_alive=keep_alive, extra=extra)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError, asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request; ``None`` on clean EOF.

        Returns ``(method, target, headers, body, parse_error)`` where
        ``parse_error`` is a prebuilt ``(status, document)`` pair for
        malformed requests (answered, then the connection closes).
        """
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return "", "", {}, b"", self._error_payload(ValidationError(
                "malformed HTTP request line"))
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line:
                return None
            if line in (b"\r\n", b"\n"):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return method, target, headers, b"", self._error_payload(
                ValidationError("invalid Content-Length header"))
        if length > self.max_body_bytes:
            return method, target, headers, b"", (413, ErrorResponse(
                code="invalid_request",
                message=f"request body of {length} bytes exceeds the "
                        f"{self.max_body_bytes}-byte limit").to_json_dict())
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body, None

    @staticmethod
    def _error_payload(exc: BaseException, *,
                       request_id: str | None = None):
        error = ErrorResponse.from_exception(exc, request_id=request_id)
        return error.http_status, error.to_json_dict()

    async def _write_json(self, writer: asyncio.StreamWriter, status: int,
                          document, *, keep_alive: bool,
                          extra: dict | None = None) -> None:
        # ``document`` is normally a JSON-able dict; a plain string is sent
        # verbatim as a Prometheus text exposition (``/v1/metrics``), and
        # ``bytes`` as pre-encoded JSON (the predict path encodes inside
        # its timed wire.encode stage).
        if isinstance(document, str):
            body = document.encode("utf-8")
            content_type = metrics.CONTENT_TYPE
        elif isinstance(document, (bytes, bytearray)):
            body = bytes(document)
            content_type = "application/json"
        else:
            body = json.dumps(document).encode("utf-8")
            content_type = "application/json"
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra or {}).items():
            headers.append(f"{name}: {value}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()

    # ----------------------------------------------------------- dispatching
    async def _route_request(self, method: str, target: str, body: bytes):
        path = target.split("?", 1)[0]
        if path == "/v1/predict":
            if method != "POST":
                return self._method_not_allowed(method, path)
            return await self._handle_predict(body)
        if path == "/v1/drain":
            if method != "POST":
                return self._method_not_allowed(method, path)
            return await self._handle_drain(body)
        if method != "GET" and path in ("/v1/models", "/v1/stats",
                                        "/v1/health", "/v1/metrics",
                                        "/v1/traces"):
            return self._method_not_allowed(method, path)
        if path == "/v1/metrics":
            # Rendering walks every histogram bucket under the metrics
            # lock; keep it off the event loop so a wide scrape never
            # stalls request admission.
            rendered = await asyncio.get_running_loop().run_in_executor(
                None, metrics.render_prometheus, self)
            return 200, rendered, None
        if path == "/v1/traces":
            return 200, {"schema_version": WIRE_SCHEMA_VERSION,
                         **self.runtime.obs.dump_traces()}, None
        if path == "/v1/models":
            return 200, {"schema_version": WIRE_SCHEMA_VERSION,
                         "models": [route.as_dict() for _, route in
                                    sorted(self._routes.items())]}, None
        if path == "/v1/stats":
            return 200, self._stats_document(), None
        if path == "/v1/health":
            return 200, {"schema_version": WIRE_SCHEMA_VERSION,
                         "status": "draining" if self._draining else "ok",
                         "models": self.models}, None
        error = ErrorResponse(code="not_found",
                              message=f"no route for {method} {path}")
        return error.http_status, error.to_json_dict(), None

    def _method_not_allowed(self, method: str, path: str):
        return 405, ErrorResponse(
            code="invalid_request",
            message=f"method {method} not allowed on {path}").to_json_dict(), \
            None

    def _stats_document(self) -> dict:
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "draining": self._draining,
            "runtime": self.runtime.stats.as_dict(),
            "predictor": self.runtime.predictor.stats.as_dict(),
            "models": {route.model_id: route.as_dict()
                       for route in self._routes.values()},
        }

    async def _handle_drain(self, body: bytes):
        timeout = 30.0
        if body:
            try:
                document = json.loads(body)
                timeout = float(document.get("timeout_seconds", timeout))
            except (json.JSONDecodeError, TypeError, ValueError, AttributeError):
                return self._error_payload(ValidationError(
                    "drain body must be a JSON object with an optional "
                    "numeric 'timeout_seconds'")) + (None,)
        drained = await self.drain(timeout=timeout)
        inflight = sum(route.inflight for route in self._routes.values())
        return 200, {"schema_version": WIRE_SCHEMA_VERSION,
                     "drained": drained, "in_flight": inflight}, None

    async def _handle_predict(self, body: bytes):
        obs = self.runtime.obs
        request_id = None
        trace_id = None
        trace = None
        route = None
        # Errors the runtime already saw (backpressure, batch failures)
        # are counted by the runtime's own hub; the front-end counts only
        # the ones it sheds before the hand-off (parse, admission).
        reached_runtime = False
        parse_start = time.perf_counter()
        try:
            try:
                document = json.loads(body)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"request body is not valid JSON: {exc}") from exc
            request = PredictRequest.from_json_dict(document)
            parse_end = time.perf_counter()
            request_id = request.request_id
            trace_id = request.trace_id
            obs.observe_stage(request.model, "http.parse",
                              parse_end - parse_start)
            # The front-end owns the request's span tree: the root opens
            # at parse begin so http.parse and wire.encode tile the same
            # timeline as the runtime's queue/compute children.
            trace = obs.start_request(
                model=request.model, type_name=request.type_name,
                trace_id=request.trace_id, request_id=request.request_id,
                start=parse_start)
            if trace is not None:
                trace_id = trace.trace_id
                trace.record("http.parse", parse_start, parse_end,
                             bytes=len(body))
            if self._draining:
                raise ServerDrainingError(
                    "server is draining; no new requests are admitted")
            route = self._routes.get(request.model)
            if route is None:
                raise ModelNotFoundError(
                    f"model {request.model!r} is not registered "
                    f"(available: {self.models})")
            if route.max_inflight is not None \
                    and route.inflight >= route.max_inflight:
                route.rejected += 1
                raise QuotaExceededError(
                    f"model {request.model!r} is at its admission quota "
                    f"({route.max_inflight} in flight); retry later")
            route.inflight += 1
            try:
                # The runtime keys batches by artifact path, so aliases of
                # one artifact coalesce; the response echoes the public id.
                inner = replace(request, model=route.path)
                reached_runtime = True
                response = await asyncio.wrap_future(
                    self.runtime.submit_request(inner, trace=trace))
            finally:
                route.inflight -= 1
            route.served += 1
            encode_start = time.perf_counter()
            document = response.to_json_dict()
            document["model"] = request.model
            encoded = json.dumps(document).encode("utf-8")
            encode_end = time.perf_counter()
            obs.observe_stage(request.model, "wire.encode",
                              encode_end - encode_start)
            if trace is not None:
                trace.record("wire.encode", encode_start, encode_end,
                             bytes=len(encoded))
            obs.finish(trace)
            return 200, encoded, None
        except BaseException as exc:  # noqa: BLE001 - mapped onto the wire
            error = ErrorResponse.from_exception(exc, request_id=request_id,
                                                 trace_id=trace_id)
            if not reached_runtime:
                obs.count_error(error.code)
            obs.finish(trace, error=exc)
            extra = {"Retry-After": "1"} if error.http_status in (429, 503) \
                else None
            return error.http_status, error.to_json_dict(), extra


class NetServerHandle:
    """Thread-safe handle of a background :meth:`NetServer.launch` server."""

    def __init__(self, server: NetServer, thread: threading.Thread) -> None:
        self.server = server
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def runtime(self) -> RuntimeServer:
        return self.server.runtime

    def refresh(self, model_id: str, data, *, save: bool = True, **overrides):
        """Hot-swap a routed model (safe to call from any thread)."""
        return self.server.refresh(model_id, data, save=save, **overrides)

    def drain(self, *, timeout: float | None = None) -> bool:
        """Run :meth:`NetServer.drain` on the server's loop; block on it."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(timeout=timeout), self.server._loop)
        return future.result()

    def close(self, *, drain: bool = True,
              timeout: float | None = 30.0) -> None:
        """Stop the server (optionally draining first) and join its thread."""
        loop = self.server._loop
        if loop is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(drain=drain, timeout=timeout), loop)
            future.result(timeout=None if timeout is None else timeout + 10.0)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "NetServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
