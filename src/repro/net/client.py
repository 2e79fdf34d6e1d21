"""Synchronous HTTP client of the network serving tier (:class:`NetClient`).

Speaks the versioned wire schema of :mod:`repro.net.schema` over a
keep-alive ``http.client`` connection — no third-party dependency.  A
successful predict returns the same :class:`~repro.net.schema.PredictResponse`
the in-process API produces (bit-identical float64 arrays: JSON floats are
written with shortest-round-trip repr); failures raise the *typed*
exception the server's :class:`~repro.net.schema.ErrorResponse` document
round-trips to, so ``except QuotaExceededError`` works identically whether
the predictor is in-process or across the network.

One client wraps one connection and is **not** thread-safe; give each
thread its own (see :func:`repro.net.loadgen.run_closed_loop`).
"""

from __future__ import annotations

import http.client
import json
import socket

from ..exceptions import ReproError
from .schema import ErrorResponse, PredictRequest, PredictResponse

__all__ = ["NetClient"]


class NetClient:
    """A keep-alive JSON client of one :class:`~repro.net.NetServer`.

    Parameters
    ----------
    host, port:
        The server's bound address (e.g. from ``NetServer.launch()``).
    timeout:
        Socket timeout in seconds for connect/read.
    retries:
        Transparent reconnect attempts when the kept-alive connection was
        closed under us (server restart, idle timeout) — a new connection
        is opened and the request re-sent.  Only connection-level failures
        are retried; HTTP-level errors never are.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0,
                 retries: int = 1) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------- transport
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def _request_raw(self, method: str, path: str,
                     document: dict | None = None) -> tuple[int, bytes]:
        """One HTTP round trip; returns ``(status, raw body bytes)``."""
        body = None
        headers = {"Connection": "keep-alive"}
        if document is not None:
            body = json.dumps(document).encode("utf-8")
            headers["Content-Type"] = "application/json"
        last_exc: Exception | None = None
        for attempt in range(self.retries + 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
                status = response.status
                break
            except (http.client.HTTPException, ConnectionError,
                    BrokenPipeError, socket.timeout, OSError) as exc:
                self.close()
                last_exc = exc
                if attempt >= self.retries:
                    raise ReproError(
                        f"HTTP request to {self.host}:{self.port} failed "
                        f"after {attempt + 1} attempt(s): {exc}") from exc
        else:  # pragma: no cover - loop always breaks or raises
            raise ReproError(f"HTTP request failed: {last_exc}")
        return status, payload

    def _request(self, method: str, path: str,
                 document: dict | None = None) -> tuple[int, dict]:
        status, payload = self._request_raw(method, path, document)
        try:
            parsed = json.loads(payload) if payload else {}
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"server returned non-JSON payload (HTTP {status}): "
                f"{payload[:200]!r}") from exc
        return status, parsed

    def _raise_error(self, status: int, document: dict) -> None:
        """Raise the typed exception an error document round-trips to."""
        if isinstance(document, dict) and "code" in document:
            raise ErrorResponse.from_json_dict(document).to_exception()
        raise ReproError(f"HTTP {status}: {document!r}")

    def _get(self, path: str) -> dict:
        status, document = self._request("GET", path)
        if status != 200:
            self._raise_error(status, document)
        return document

    # -------------------------------------------------------------- endpoints
    def predict(self, model: str, type_name: str, queries, *,
                batch_size: int | None = None,
                request_id: str | None = None,
                trace_id: str | None = None) -> PredictResponse:
        """Predict ``queries`` of ``type_name`` against a registered model.

        ``trace_id`` propagates the caller's trace context: the server
        adopts it for the request's span tree (when tracing is on) and
        echoes it on the response — and on error documents — so a slow or
        failed request can be looked up in ``GET /v1/traces``.

        Raises the typed taxonomy exceptions on failure —
        :class:`~repro.exceptions.ModelNotFoundError` (404),
        :class:`~repro.exceptions.QuotaExceededError` (429),
        :class:`~repro.exceptions.QueueFullError` /
        :class:`~repro.exceptions.ServerDrainingError` (503), or
        :class:`~repro.exceptions.ValidationError` (400).
        """
        request = PredictRequest(model=model, type_name=type_name,
                                 queries=queries, batch_size=batch_size,
                                 request_id=request_id, trace_id=trace_id)
        return self.serve(request)

    def serve(self, request: PredictRequest) -> PredictResponse:
        """Send a prebuilt :class:`~repro.net.schema.PredictRequest`.

        Mirrors the in-process ``serve(request)`` entry points — code can
        swap a :class:`~repro.serve.BatchPredictor` for a
        :class:`NetClient` without touching its request construction.
        """
        status, document = self._request("POST", "/v1/predict",
                                         request.to_json_dict())
        if status != 200:
            self._raise_error(status, document)
        return PredictResponse.from_json_dict(document)

    def health(self) -> dict:
        """``GET /v1/health`` — ``{"status": "ok" | "draining", ...}``."""
        return self._get("/v1/health")

    def models(self) -> dict:
        """``GET /v1/models`` — the routing table with admission counters."""
        return self._get("/v1/models")

    def stats(self) -> dict:
        """``GET /v1/stats`` — runtime/predictor/per-model counters."""
        return self._get("/v1/stats")

    def traces(self) -> dict:
        """``GET /v1/traces`` — the flight recorder's retained span trees.

        ``{"tracing": false, "traces": []}`` when the runtime was built
        without ``tracing=True``; otherwise the slowest/errored/latest
        completed trees as JSON span documents.
        """
        return self._get("/v1/traces")

    def metrics(self) -> str:
        """``GET /v1/metrics`` — the Prometheus text exposition, verbatim.

        The one non-JSON endpoint; the decoded text is returned as-is so
        callers can hand it to a scraper or grep a metric line.
        """
        status, payload = self._request_raw("GET", "/v1/metrics")
        if status != 200:
            try:
                document = json.loads(payload) if payload else {}
            except json.JSONDecodeError:
                document = {"raw": payload[:200].decode("utf-8", "replace")}
            self._raise_error(status, document)
        return payload.decode("utf-8")

    def drain(self, *, timeout_seconds: float = 30.0) -> dict:
        """``POST /v1/drain`` — blocks until in-flight requests settled."""
        status, document = self._request(
            "POST", "/v1/drain", {"timeout_seconds": timeout_seconds})
        if status != 200:
            self._raise_error(status, document)
        return document

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
