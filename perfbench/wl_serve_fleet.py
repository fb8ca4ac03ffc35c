"""``serve-fleet``: closed loop of two callers on a two-process fleet.

``Fleet(2, mode="process")`` with one replica per block, real kernels
and no pacing, serving sAMG at scale 64 through ``FleetRouter.spmv``.
It is the only workload that runs the router's scatter/gather and the
pipe/pickle shard transport.  Every answer must equal the single-server
``csr_scipy`` product bit for bit.  Its layer metrics come from
``FleetRouter.stats()``, which reads the shard processes' own counters;
the benchmark wraps nothing here.
"""

from __future__ import annotations

import threading
import time

import numpy as np

import harness
import serve_common as sc

NAME = "serve-fleet"
KEY = "sAMG"
SHARDS = 2
CALLERS = 2
SETUP_REPS = 5


class Workload:
    name = NAME

    def prepare(self, seed: int, tracer) -> None:
        from repro.engine import bind
        from repro.formats import convert

        rng = np.random.default_rng(seed)
        with tracer.span("matrices.generate"):
            self.inp = sc.SuiteInputs(KEY, sc.SCALE, rng)
        single = bind(convert(self.inp.coo, "CRS"), variant="csr_scipy")
        #: bitwise reference: one server, the fleet's pinned kernel
        self.exact = [single.spmv(x).copy() for x in self.inp.xs]
        self.rng = rng

    def _start(self):
        from repro.serve import Fleet, FleetRouter

        t0 = time.perf_counter()
        router = FleetRouter(Fleet(SHARDS, mode="process"), replicas=1)
        router.register(KEY, self.inp.coo)
        wrong = not np.array_equal(router.spmv(KEY, self.inp.xs[0]), self.exact[0])
        return time.perf_counter() - t0, router, wrong

    def _caller(self, router, order, deadline, rec) -> None:
        k = 0
        while time.perf_counter() < deadline:
            i = int(order[k % len(order)])
            k += 1
            t0 = time.perf_counter()
            try:
                y = router.spmv(KEY, self.inp.xs[i])
            except Exception as exc:  # noqa: BLE001 - counted, not raised
                rec[sc.failure_kind(exc)] += 1
                continue
            rec["rt"].append(time.perf_counter() - t0)
            if not np.array_equal(y, self.exact[i]):
                rec["wrong"] += 1

    def run(self, seconds: float, tracer) -> dict:
        rss0 = harness.reset_peak_rss()
        before = harness.hygiene_snapshot()
        setups, wrong, router = [], 0, None
        for _ in range(SETUP_REPS):
            if router is not None:
                router.close()
            dt, router, bad = self._start()
            setups.append(dt)
            wrong += bad
        shard0 = [sc.scheduler_counts(s) for s in router.stats()["shards"]]
        recs = [
            {"rt": [], "failed": 0, "refused": 0, "expired": 0, "wrong": 0}
            for _ in range(CALLERS)
        ]
        orders = [self.rng.integers(0, sc.NVEC, 4096) for _ in range(CALLERS)]
        t0 = time.perf_counter()
        deadline = t0 + seconds
        threads = [
            threading.Thread(
                target=self._caller, args=(router, orders[j], deadline, recs[j]),
                name=f"bench-fleet-caller-{j}",
            )
            for j in range(CALLERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window = time.perf_counter() - t0
        stats = router.stats()
        pl = router.placement(KEY)
        rss = harness.peak_rss_mb(rss0, harness.child_pids())
        router.close()
        router = None
        leaks = harness.hygiene_leaks(before)

        rt = [x for r in recs for x in r["rt"]]
        lat = harness.summarize_ms(rt)
        shards = stats["shards"]
        d = sc.delta(
            {k: sum(sc.scheduler_counts(s)[k] for s in shards) for k in shard0[0]},
            {k: sum(s[k] for s in shard0) for k in shard0[0]},
        )
        shard_p50 = float(np.mean([s["latency_ms"]["p50"] for s in shards]))
        n = pl.shape[0]
        layers = {
            **sc.scheduler_layers(d),
            "router.overhead_ms_p50": stats["latency_ms"]["0.5"] - shard_p50,
            "fleet.shard_p50_ms": shard_p50,
            # computed: x ships whole to every block, each block ships its rows back
            "fleet.transport_kb_per_req": (pl.nblocks * n * 8 + n * 8) / 1024,
            "fleet.hedges": stats["hedges"],
            "fleet.failovers": stats["failovers"],
        }
        failures = {
            k: sum(r[k] for r in recs) for k in ("failed", "refused", "expired", "wrong")
        }
        failures["wrong"] += wrong
        failures["leaks"] = sum(leaks.values())
        attempted = len(rt) + sum(r[k] for r in recs for k in ("failed", "refused", "expired"))
        attempted += SETUP_REPS
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
                "router_latency_ms": stats["latency_ms"],
                "shard_latency_ms": [s["latency_ms"] for s in shards],
                "leaks": leaks,
                "variants": {KEY: pl.variant},
                "working_set_bytes": self.inp.nbytes,
            },
        }
