"""JSON-over-HTTP front-end for the serving subsystem.

A thin shim over :class:`~repro.serve.client.Client` built on
``http.server.ThreadingHTTPServer`` — one OS thread per connection,
each blocking in ``server.spmv(...)``: a handler that finds a worker
idle runs its request itself, and the vectors of handlers that find
every worker busy coalesce into shared ``spmm`` batches.

The vectors are the bulk of every ``/v1`` body, and coding them with
the stdlib ``json`` module costs several kernel calls (the HTTP analogue
of the paper's PCIe term, Eq. 2), under the GIL the handler threads
share with the scheduler workers.  So requests are parsed, and vectors
written, with ``orjson``.  The wire contract (``docs/serving.md``):

* a reply envelope has ``json.dumps``'s layout (key order, ``", "`` and
  ``": "`` separators), so an untraced ``/v1/spmv`` reply ends in
  ``"seconds": <float>}``;
* every ndarray is cast to contiguous float64 and written as a compact
  array, which parses (with any JSON parser) to exactly its doubles — a
  float32 result as its float64 values;
* an array with a NaN/inf entry is written by ``json.dumps``, with its
  ``NaN``/``Infinity`` tokens (orjson would write ``null``);
* a body orjson rejects is re-parsed with ``json.loads``, so the stdlib's
  extensions (``NaN`` tokens, numbers that overflow a double) are
  accepted, and a malformed body gets a 400.

Endpoints
---------
``GET /healthz``
    Liveness: ``{"status": "ok", "uptime_s": ..., "queue_depth": ...}``.
``GET /statz``
    Full scheduler + registry snapshot (see ``SpMVServer.stats``);
    ``GET /statz?format=prometheus`` returns the
    :mod:`repro.obs` text exposition instead (requires ``obs.enable()``).
``POST /v1/spmv``
    Body ``{"matrix": name, "x": [...], "deadline_ms"?: float}`` →
    ``{"y": [...]}``.  Errors map to the taxonomy's status codes
    (404 unknown matrix, 503 overloaded, 504 deadline).
``POST /v1/solve``
    Body ``{"matrix": name, "b": [...], "method"?: "cg"|"lanczos",
    "tol"?: float, "max_iter"?: int, "num_eigenvalues"?: int}``.
``GET /sloz``
    Burn-rate state of the attached :class:`~repro.obs.slo.SLOMonitor`
    (404 when the server runs without one).
``GET /fleetz``
    Fleet topology: per-shard liveness/queue depth and block placement
    per matrix (404 when the backend is a single server, not a
    :class:`~repro.serve.router.FleetRouter`).

The backend may be a single-process :class:`~repro.serve.client.Client`
or a :class:`~repro.serve.router.FleetRouter` — both expose the same
``spmv``/``solve``/``eigsh``/``stats``/``health``/``names``/``close``
surface, so every endpoint serves either unchanged.

Tracing: with instrumentation enabled, each ``POST`` opens a trace
root (honouring a caller-supplied ``X-Trace-Id`` header, minting a
fresh id otherwise); the id is echoed in the ``X-Trace-Id`` response
header and a ``trace_id`` payload field — success *and* error — so a
caller can always ask ``repro obs trace <id>`` what happened.  The root
span also carries the codec's own time as ``decode_s``/``encode_s``
attributes, observed into ``serve_http_stage_seconds{stage}`` too.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

import numpy as np
import orjson

from repro import obs
from repro.serve.client import Client
from repro.serve.errors import ServeError

__all__ = ["make_http_server", "run_http_server"]

_MAX_BODY = 64 * 2**20  # 64 MiB: a ~4M-row float64 vector


def _dumps_value(value) -> bytes:
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value, dtype=np.float64)
        if np.isfinite(arr).all():
            return orjson.dumps(arr, option=orjson.OPT_SERIALIZE_NUMPY)
        value = arr.tolist()  # keep the NaN/Infinity tokens orjson nulls
    return json.dumps(value).encode()


def _dumps(payload: dict) -> bytes:
    """``json.dumps(payload)``'s layout, with ndarray values by orjson."""
    return b"{" + b", ".join(
        json.dumps(key).encode() + b": " + _dumps_value(value)
        for key, value in payload.items()
    ) + b"}"


def _record_stage(stage: str, t0: float) -> None:
    """Record a codec stage that started at ``t0`` (obs is on)."""
    seconds = time.perf_counter() - t0
    obs.observe_summary("serve_http_stage_seconds", seconds, stage=stage)
    obs.annotate_current(**{f"{stage}_s": seconds})  # the open http.* root


def _loads(raw: bytes):
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        # NaN/Infinity tokens and out-of-range numbers parse in stdlib only
        return json.loads(raw)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    #: trace id of the in-flight request (set per-POST, echoed in replies)
    _trace_id: str | None = None

    # injected by make_http_server via the server instance
    @property
    def client(self) -> Client:
        return self.server.serve_client  # type: ignore[attr-defined]

    @property
    def slo_monitor(self):
        return getattr(self.server, "slo_monitor", None)

    # -- plumbing ----------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: D102 - stdlib signature
        if obs.enabled():
            obs.inc("serve_http_log_lines_total", 1)

    def _send_body(self, status: int, content_type: str, body: bytes) -> None:
        """Write the head and the body in one send.

        Two writes would put a small body in a segment of its own, which
        Nagle holds until the client acknowledges the head; on a
        keep-alive connection that waits out the client's delayed ACK.
        """
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id:
            self.send_header("X-Trace-Id", self._trace_id)
        # end_headers() would flush the head alone: queue the blank
        # line and the body behind it and flush once
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _send_json(self, status: int, payload: dict) -> None:
        # a trace id means obs is on and this is a /v1 request
        t0 = time.perf_counter() if self._trace_id else None
        if self._trace_id and "trace_id" not in payload:
            payload = {**payload, "trace_id": self._trace_id}
        body = _dumps(payload)
        if t0 is not None:
            _record_stage("encode", t0)
        self._send_body(status, "application/json", body)
        if obs.enabled():
            obs.inc(
                "serve_http_requests_total",
                1,
                path=urlparse(self.path).path,
                status=str(status),
            )

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("request body required")
        if length > _MAX_BODY:
            raise ValueError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length)
        t0 = time.perf_counter() if self._trace_id else None
        blob = _loads(raw)
        if t0 is not None:
            _record_stage("decode", t0)
        if not isinstance(blob, dict):
            raise ValueError("request body must be a JSON object")
        return blob

    # -- routes ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._trace_id = None  # not the one of this connection's last POST
        path = urlparse(self.path)
        if path.path == "/healthz":
            health = self.client.health()
            health["uptime_s"] = round(
                time.monotonic() - self.server.started_at, 3  # type: ignore[attr-defined]
            )
            self._send_json(200, health)
        elif path.path == "/statz":
            if "format=prometheus" in (path.query or ""):
                self._send_body(
                    200, "text/plain; version=0.0.4",
                    obs.prometheus_text().encode(),
                )
            else:
                stats = self.client.stats()
                mon = self.slo_monitor
                if mon is not None:
                    stats["slo"] = mon.state()
                self._send_json(200, stats)
        elif path.path == "/sloz":
            mon = self.slo_monitor
            if mon is None:
                self._send_json(
                    404,
                    {"error": "no SLO monitor attached; start with --slo"},
                )
            else:
                self._send_json(200, mon.state())
        elif path.path == "/fleetz":
            stats = self.client.stats()
            if not stats.get("fleet"):
                self._send_json(
                    404,
                    {"error": "not a fleet; start with serve --fleet N"},
                )
            else:
                self._send_json(200, stats)
        else:
            self._send_json(404, {"error": f"no such endpoint {path.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = urlparse(self.path).path
        self._trace_id = None
        root = {"/v1/spmv": "http.spmv", "/v1/solve": "http.solve"}.get(path)
        try:
            if root is None:
                self._send_json(404, {"error": f"no such endpoint {path!r}"})
                return
            with obs.trace_root(
                root, trace_id=self.headers.get("X-Trace-Id") or None
            ):
                self._trace_id = obs.current_trace()
                if path == "/v1/spmv":
                    self._spmv()
                else:
                    self._solve()
        except ServeError as exc:
            exc.with_trace(self._trace_id)
            self._send_json(
                exc.http_status,
                {"error": str(exc), "type": type(exc).__name__},
            )
        except (ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": str(exc), "type": type(exc).__name__})

    def _spmv(self) -> None:
        req = self._read_json()
        name = req["matrix"]
        x = np.asarray(req["x"], dtype=np.float64)
        deadline_ms = req.get("deadline_ms")
        t0 = time.perf_counter()
        y = self.client.spmv(name, x, deadline_ms=deadline_ms)
        self._send_json(
            200,
            {
                "matrix": name,
                "y": y,
                "n": int(y.shape[0]),
                "seconds": round(time.perf_counter() - t0, 6),
            },
        )

    def _solve(self) -> None:
        req = self._read_json()
        name = req["matrix"]
        method = req.get("method", "cg")
        if method == "cg":
            res = self.client.solve(
                name,
                np.asarray(req["b"], dtype=np.float64),
                tol=float(req.get("tol", 1e-8)),
                max_iter=req.get("max_iter"),
            )
        elif method == "lanczos":
            res = self.client.eigsh(
                name,
                num_eigenvalues=int(req.get("num_eigenvalues", 1)),
                tol=float(req.get("tol", 1e-8)),
                max_iter=int(req.get("max_iter", 200)),
            )
        else:
            raise ValueError(f"unknown method {method!r}; use 'cg' or 'lanczos'")
        res["matrix"] = name
        res["method"] = method
        self._send_json(200, res)


def make_http_server(
    client: Client,
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    slo=None,
) -> ThreadingHTTPServer:
    """Build (but do not run) the HTTP front-end; ``port=0`` auto-picks.

    ``slo`` (a :class:`~repro.obs.slo.SLOMonitor`) wires ``/sloz`` and
    the ``slo`` section of ``/statz``; the caller owns its lifecycle
    (``start``/``stop``).
    """
    httpd = ThreadingHTTPServer((host, port), _Handler)
    httpd.daemon_threads = True
    httpd.serve_client = client  # type: ignore[attr-defined]
    httpd.slo_monitor = slo  # type: ignore[attr-defined]
    httpd.started_at = time.monotonic()  # type: ignore[attr-defined]
    return httpd


def run_http_server(
    client: Client,
    host: str = "127.0.0.1",
    port: int = 8000,
    out=None,
    *,
    slo=None,
):
    """Blocking serve loop (the ``repro serve`` CLI entry point).

    Owns ``client`` and ``slo`` from the call on: both are closed when
    the loop ends, and when the listening socket cannot be opened.
    """
    try:
        httpd = make_http_server(client, host, port, slo=slo)
    except BaseException:
        if slo is not None:
            slo.stop()
        client.close()
        raise
    if out is not None:
        print(
            f"repro serve listening on http://{host}:{httpd.server_address[1]} "
            f"(matrices: {', '.join(client.names()) or '<none>'})",
            file=out,
        )
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        httpd.shutdown()
        httpd.server_close()
        if slo is not None:
            slo.stop()
        client.close()
    return 0
