"""``serve-http``: closed loop over two keep-alive HTTP/1.1 connections.

The target is ``make_http_server`` over a ``Client`` serving DLR1 at
scale 64 (n=4,350, Nnzr about 152), where JSON encode/decode costs as
much as the kernel: the HTTP analogue of the paper's PCIe term.  Bodies
are encoded before the timed window; raw responses are verified after.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import threading
import time

import numpy as np

import harness
import serve_common as sc

NAME = "serve-http"
KEY = "DLR1"
CONNECTIONS = 2
SETUP_REPS = 5
PATH = "/v1/spmv"
HEADERS = {"Content-Type": "application/json"}


def split_seconds(body: bytes) -> tuple[bytes, float]:
    """A reply without its trailing ``seconds`` field, and that field.

    The handler's own timing is the only part of a reply that differs
    between identical answers, so the rest is what gets verified.
    """
    i = body.rfind(b'"seconds": ')
    return body[:i], float(body[i + 11:].rstrip(b"} \n"))


class Workload:
    name = NAME

    def prepare(self, seed: int, tracer) -> None:
        rng = np.random.default_rng(seed)
        with tracer.span("matrices.generate"):
            self.inp = sc.SuiteInputs(KEY, sc.SCALE, rng)
        self.bodies = [
            json.dumps({"matrix": KEY, "x": x.tolist()}).encode()
            for x in self.inp.xs
        ]
        self.rng = rng

    def _start(self):
        from repro.matrices.cache import TunerCache
        from repro.serve import Client, MatrixRegistry, SpMVServer, make_http_server

        t0 = time.perf_counter()
        reg = MatrixRegistry(tuner_cache=TunerCache(persist=False))
        reg.register_suite(KEY, fmt=sc.FMT, scale=sc.SCALE)
        reg.acquire(KEY).release()  # load on this thread, not in a worker's arena
        client = Client(SpMVServer(reg))
        httpd = make_http_server(client, port=0)
        thread = threading.Thread(
            target=httpd.serve_forever, name="bench-http", daemon=True
        )
        thread.start()
        conns = [
            http.client.HTTPConnection("127.0.0.1", httpd.server_address[1], timeout=30)
            for _ in range(CONNECTIONS)
        ]
        conns[0].request("POST", PATH, self.bodies[0], HEADERS)
        resp = conns[0].getresponse()
        body = resp.read()
        ok = resp.status == 200 and self.inp.close_enough(
            np.asarray(json.loads(body)["y"]), 0
        )
        return time.perf_counter() - t0, (client, httpd, thread, conns), not ok

    @staticmethod
    def _stop(server) -> None:
        client, httpd, thread, conns = server
        for c in conns:
            c.close()
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        client.close()

    def _caller(self, conn, order, deadline, rec) -> None:
        k = 0
        while time.perf_counter() < deadline:
            i = int(order[k % len(order)])
            k += 1
            body = self.bodies[i]
            t0 = time.perf_counter()
            try:
                conn.request("POST", PATH, body, HEADERS)
                resp = conn.getresponse()
                raw = resp.read()
            except (OSError, http.client.HTTPException):
                rec["failed"] += 1
                continue
            rt = time.perf_counter() - t0
            if resp.status != 200:
                rec["refused" if resp.status in (503, 429) else "failed"] += 1
                continue
            answer, handler_s = split_seconds(raw)
            rec["rt"].append(rt)
            rec["server"].append(handler_s)
            rec["resp_bytes"].append(len(raw))
            rec["req_bytes"].append(len(body))
            digest = (i, hashlib.sha1(answer).digest())
            if digest not in rec["raw"]:
                rec["raw"][digest] = raw

    def run(self, seconds: float, tracer) -> dict:
        rss0 = harness.reset_peak_rss()
        before = harness.hygiene_snapshot()
        # spans cover set-up too: its registry loads are this workload's
        # only registry write path (load, convert, bind)
        sc.wrap_serve_layers(tracer)
        setups, wrong, server = [], 0, None
        for _ in range(SETUP_REPS):
            if server is not None:
                self._stop(server)
                server = None
                gc.collect()
            dt, server, bad = self._start()
            setups.append(dt)
            wrong += bad
        srv = server[0].server
        stats0 = sc.scheduler_counts(srv.stats())
        recs = [
            {"rt": [], "server": [], "resp_bytes": [], "req_bytes": [], "raw": {},
             "failed": 0, "refused": 0}
            for _ in range(CONNECTIONS)
        ]
        orders = [self.rng.integers(0, sc.NVEC, 4096) for _ in range(CONNECTIONS)]
        t0 = time.perf_counter()
        deadline = t0 + seconds
        threads = [
            threading.Thread(
                target=self._caller, args=(conn, orders[j], deadline, recs[j]),
                name=f"bench-http-caller-{j}",
            )
            for j, conn in enumerate(server[3])
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            window = time.perf_counter() - t0
        finally:
            tracer.unwrap()
        stats1 = sc.scheduler_counts(srv.stats())
        rss = harness.peak_rss_mb(rss0)
        workers = srv.num_workers
        variant = {
            e["name"]: e["variant"] for e in srv.registry.stats()["resident"]
        }
        self._stop(server)
        server = srv = None
        leaks = harness.hygiene_leaks(before)

        # verify every distinct raw reply after the window
        for (i, _), raw in {k: v for r in recs for k, v in r["raw"].items()}.items():
            wrong += not self.inp.close_enough(np.asarray(json.loads(raw)["y"]), i)
        rt = [x for r in recs for x in r["rt"]]
        server_s = [x for r in recs for x in r["server"]]
        lat = harness.summarize_ms(rt)
        codec_ms = [(a - b) * 1e3 for a, b in zip(rt, server_s)]
        server_ms_p50 = float(np.percentile(server_s, 50)) * 1e3
        layers = {
            **sc.scheduler_layers(sc.delta(stats1, stats0)),
            "http.codec_ms_p50": float(np.percentile(codec_ms, 50)),
            "http.server_ms_p50": server_ms_p50,
            "http.request_kb": np.mean([x for r in recs for x in r["req_bytes"]]) / 1024,
            "http.response_kb": np.mean([x for r in recs for x in r["resp_bytes"]]) / 1024,
            **sc.traced_layers(tracer, window, workers, server_ms_p50),
        }
        failures = {
            "failed": sum(r["failed"] for r in recs),
            "refused": sum(r["refused"] for r in recs),
            "wrong": wrong,
            "leaks": sum(leaks.values()),
        }
        attempted = len(rt) + failures["failed"] + failures["refused"] + SETUP_REPS
        return {
            "e2e": {
                "setup_s": float(np.median(setups)),
                "p50_ms": lat["p50"],
                "throughput_rps": len(rt) / window,
                "peak_rss_mb": rss,
            },
            "attempted": attempted,
            "failures": failures,
            "layers": layers,
            "info": {
                "latency_ms": lat,
                "setup_s": setups,
                "distinct_replies": sum(len(r["raw"]) for r in recs),
                "leaks": leaks,
                "variants": variant,
                "working_set_bytes": self.inp.nbytes,
            },
        }
