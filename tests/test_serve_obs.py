"""Serve-layer observability: HTTP trace propagation, degraded mode.

Exercises the request-scoped tracing contract at the serving boundary
(X-Trace-Id honored and echoed, ``trace_id`` stamped into every JSON
payload including errors, front-end → request → linked batch tree) and
the degraded-mode instrumentation (counter, ``degraded`` label on the
latency summary, span attribution).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.faults import FaultPlan
from repro.faults.plan import FaultEvent
from repro.formats import CSRMatrix, convert
from repro.matrices import poisson2d
from repro.serve import Client, MatrixRegistry, SpMVServer, make_http_server
from repro.serve import http as serve_http

from _test_common import random_coo

VARIANT = "csr_scipy"


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset_all()
    yield
    obs.disable()
    obs.reset_all()


def make_csr(n=60, seed=3, max_row=7):
    return CSRMatrix.from_coo(random_coo(n, seed=seed, max_row=max_row))


def _post(base, path, payload, headers=None):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read())


def _front_end_roots(trace_id, timeout=5.0):
    """``build_trace(trace_id)`` once the handler's root span has ended.

    The handler writes its reply inside the ``http.*`` root span, so a
    caller can hold the reply a moment before that span is finished.
    """
    deadline = time.monotonic() + timeout
    while True:
        roots = obs.build_trace(trace_id)
        if any(r.span.name.startswith("http.") for r in roots):
            return roots
        if time.monotonic() > deadline:
            return roots
        time.sleep(0.005)


@pytest.fixture()
def traced_endpoint():
    """HTTP endpoint with obs enabled."""
    obs.enable()
    reg = MatrixRegistry(tune=False)
    reg.register("A", matrix=make_csr(), variant=VARIANT)
    reg.register("poisson", matrix=convert(poisson2d(6), "CRS"))
    server = SpMVServer(reg, workers=1)
    httpd = make_http_server(Client(server), port=0)
    t = threading.Thread(target=httpd.serve_forever, daemon=True)
    t.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield base
    httpd.shutdown()
    httpd.server_close()
    t.join(timeout=10)
    server.close()


@pytest.fixture()
def bare_endpoint():
    """Obs off — the pre-tracing behavior."""
    reg = MatrixRegistry(tune=False)
    reg.register("A", matrix=make_csr(), variant=VARIANT)
    server = SpMVServer(reg, workers=1)
    httpd = make_http_server(Client(server), port=0)
    t = threading.Thread(target=httpd.serve_forever, daemon=True)
    t.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield base
    httpd.shutdown()
    httpd.server_close()
    t.join(timeout=10)
    server.close()


@pytest.mark.usefixtures("no_leaks")
class TestHTTPTracing:
    def test_response_carries_trace_id(self, traced_endpoint):
        status, headers, body = _post(
            traced_endpoint, "/v1/spmv", {"matrix": "A", "x": [1.0] * 60}
        )
        assert status == 200
        tid = body["trace_id"]
        assert len(tid) == 16 and int(tid, 16) >= 0
        assert headers["X-Trace-Id"] == tid

    def test_incoming_trace_id_is_honored(self, traced_endpoint):
        given = "beef" * 4
        _, headers, body = _post(
            traced_endpoint,
            "/v1/spmv",
            {"matrix": "A", "x": [1.0] * 60},
            headers={"X-Trace-Id": given},
        )
        assert body["trace_id"] == given
        assert headers["X-Trace-Id"] == given
        _front_end_roots(given)
        names = {
            s.name for s in obs.get_tracer().finished()
            if s.trace_id == given
        }
        assert "http.spmv" in names and "serve.request" in names

    def test_error_payload_carries_trace_id(self, traced_endpoint):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(traced_endpoint, "/v1/spmv", {"matrix": "Z", "x": [1.0]})
        assert exc.value.code == 404
        body = json.loads(exc.value.read())
        assert body["type"] == "MatrixNotFound"
        assert len(body["trace_id"]) == 16
        assert exc.value.headers["X-Trace-Id"] == body["trace_id"]

    def test_trace_tree_front_end_to_batch(self, traced_endpoint):
        _, _, body = _post(
            traced_endpoint, "/v1/spmv", {"matrix": "A", "x": [1.0] * 60}
        )
        tid = body["trace_id"]
        roots = _front_end_roots(tid)
        assert len(roots) == 1 and roots[0].span.name == "http.spmv"
        text = obs.render_trace(tid)
        # request parents under the front-end; the executing batch span
        # lives in its own trace and is grafted in via link (~ marker)
        assert "serve.request" in text
        assert "serve.batch" in text and "~" in text

    def test_codec_stages_are_recorded(self, traced_endpoint):
        for path, payload, root_name in (
            ("/v1/spmv", {"matrix": "A", "x": [1.0] * 60}, "http.spmv"),
            ("/v1/solve", {"matrix": "poisson", "b": [1.0] * 36}, "http.solve"),
        ):
            _, _, body = _post(traced_endpoint, path, payload)
            (root,) = _front_end_roots(body["trace_id"])
            assert root.span.name == root_name
            assert 0 < root.span.attrs["decode_s"] < root.span.duration
            assert 0 < root.span.attrs["encode_s"] < root.span.duration
        stages = obs.get_registry().get("serve_http_stage_seconds")
        assert stages.labels(stage="decode").count == 2
        assert stages.labels(stage="encode").count == 2
        text = obs.prometheus_text()
        assert 'serve_http_stage_seconds_count{stage="encode"} 2' in text

    def test_no_stage_timing_when_obs_is_off(self, bare_endpoint, monkeypatch):
        calls = []
        monkeypatch.setattr(serve_http, "_record_stage", lambda *a: calls.append(a))
        status, _, body = _post(
            bare_endpoint, "/v1/spmv", {"matrix": "A", "x": [1.0] * 60}
        )
        assert status == 200 and "trace_id" not in body
        assert calls == []


class TestDegradedInstrumentation:
    def test_degraded_requests_are_counted_and_labeled(self):
        obs.enable()
        inj = FaultPlan(
            (FaultEvent("worker_crash", 0.1, layer="serve",
                        target={"worker": 0}),)
        ).injector()
        reg = MatrixRegistry(tune=False)
        reg.register("A", matrix=make_csr(), variant=VARIANT)
        server = SpMVServer(
            reg, workers=1, faults=inj,
        )
        try:
            # first request takes the crash; retry until the fallback
            # loop owns the queue
            deadline = time.monotonic() + 10.0
            while not server.degraded and time.monotonic() < deadline:
                try:
                    server.spmv("A", np.ones(60), timeout=10)
                except Exception:
                    pass
            assert server.degraded
            with obs.trace_root("test.request") as root:
                y = server.spmv("A", np.ones(60), timeout=10)
            assert y.shape == (60,)

            stats = server.stats()
            assert stats["degraded"] is True
            assert stats["degraded_requests"] >= 1
            assert stats["per_matrix"]["A"]["degraded"] >= 1
            assert stats["latency_degraded_ms"]["count"] >= 1

            text = obs.prometheus_text()
            assert "serve_degraded_entries_total 1" in text
            assert 'serve_degraded_requests_total{matrix="A"}' in text
            # latency summary carries the degraded label on both paths
            assert 'degraded="true",matrix="A"' in text

            spans = obs.get_tracer().finished()
            dspans = [
                s for s in spans
                if s.name == "serve.degraded"
                and s.trace_id == root.trace_id
            ]
            assert dspans, "degraded execution span missing from the trace"
            reqs = [
                s for s in spans
                if s.name == "serve.request"
                and s.trace_id == root.trace_id
            ]
            assert reqs and reqs[0].attrs.get("degraded") is True
        finally:
            server.close()

