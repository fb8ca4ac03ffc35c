"""Closed-loop load benchmark of the repro.serve micro-batcher.

The serving claim is the paper's Eq. (1) argument applied to traffic:
SpMV is bandwidth-bound, so *k* concurrent requests coalesced into one
``spmm`` cost nearly the same memory traffic as a single request.  This
benchmark measures it end to end — a pool of closed-loop clients (each
issues its next request only after the previous one returned) hammers
one :class:`~repro.serve.scheduler.SpMVServer`, once with coalescing
disabled (``max_batch=1``, the per-request baseline) and once with the
micro-batcher on.

Run as a script (``python benchmarks/bench_serve.py``) to produce
``BENCH_serve.json``: one record per configuration with throughput,
latency quantiles (p50/p95/p99), achieved batch sizes and spmm-call
counts, plus a ``summary`` record with the batched-vs-baseline
throughput ratio — the number the CI serve-smoke step asserts on.

Fleet scaling (``--fleet``) drives the same closed loop through the
sharded :class:`~repro.serve.router.FleetRouter` at 1/2/4 shards and
writes ``BENCH_fleet.json``.  Shard kernels run in **modeled-device
mode** (``mode: "modeled-device"`` in the artifact): each shard paces
its spmm to the paper's Eq. (1) time for a device whose bandwidth is
calibrated from ``--service-ms``, exactly like the repo's other
model-driven scaling studies (``bench_fig5_scaling.py``).  The sleeps
release the GIL, so shards overlap the way real devices would, while
the router, pipes, batching, hedging and gather all run for real —
the measured scaling is the *system's*, only the kernel speed is
modeled (mandatory honesty on hosts with fewer cores than shards;
answers are still computed exactly and checked against a
single-server reference before each timed run).
"""

import threading
import time

import numpy as np

from _gates import GateSet, write_artifact


def _closed_loop(server, name, n, *, clients, requests_per_client, seed=0):
    """Run the closed loop; returns (elapsed_s, per-request latencies)."""
    start = threading.Barrier(clients + 1)
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[Exception] = []

    def client(cid: int) -> None:
        rng = np.random.default_rng(seed + cid)
        x = rng.standard_normal(n)
        start.wait()
        try:
            for _ in range(requests_per_client):
                t0 = time.perf_counter()
                server.spmv(name, x, timeout=120)
                latencies[cid].append(time.perf_counter() - t0)
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(c,), daemon=True)
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return elapsed, [v for lat in latencies for v in lat]


def _quantiles_ms(latencies) -> dict:
    data = np.sort(np.asarray(latencies))
    if data.size == 0:
        return {"p50": None, "p95": None, "p99": None}
    pick = lambda q: float(data[min(int(np.ceil(q * data.size)) - 1, data.size - 1)])  # noqa: E731
    return {
        "p50": round(pick(0.50) * 1e3, 4),
        "p95": round(pick(0.95) * 1e3, 4),
        "p99": round(pick(0.99) * 1e3, 4),
    }


def run_serve_bench(
    scale=64,
    *,
    matrix="sAMG",
    fmt="pJDS",
    clients=8,
    requests_per_client=50,
    batch_sizes=(1, 16),
    workers=2,
    seed=0,
):
    """Benchmark the server at each ``max_batch``; batch 1 is the baseline.

    Every configuration serves the *same* bound matrix (loaded once,
    outside the timed region) so the comparison isolates the scheduler.
    """
    from repro.formats import convert
    from repro.matrices import generate
    from repro.serve import MatrixRegistry, SpMVServer

    mat = convert(generate(matrix, scale=scale, seed=seed), fmt)
    n = mat.ncols
    records = []
    for max_batch in batch_sizes:
        registry = MatrixRegistry(tune=False)
        registry.register("bench", matrix=mat)
        server = SpMVServer(
            registry,
            max_batch=max_batch,
            max_queue=max(256, clients * 4),
            workers=workers,
        )
        try:
            # warm up: load + bind the matrix and the worker clones
            server.spmv("bench", np.ones(n), timeout=120)
            elapsed, latencies = _closed_loop(
                server,
                "bench",
                n,
                clients=clients,
                requests_per_client=requests_per_client,
                seed=seed,
            )
            stats = server.stats()
        finally:
            server.close()
        total = clients * requests_per_client
        records.append(
            {
                "matrix": matrix,
                "format": fmt,
                "scale": scale,
                "nrows": mat.nrows,
                "nnz": mat.nnz,
                "max_batch": max_batch,
                "clients": clients,
                "workers": workers,
                "requests": total,
                "seconds": round(elapsed, 6),
                "throughput_rps": round(total / elapsed, 3),
                "spmm_calls": stats["spmm_calls"],
                "mean_batch_size": stats["mean_batch_size"],
                "latency_ms": _quantiles_ms(latencies),
            }
        )
    base = next(r for r in records if r["max_batch"] == 1)
    batched = [r for r in records if r["max_batch"] > 1] or [base]
    best = max(batched, key=lambda r: r["throughput_rps"])
    summary = {
        "summary": True,
        "baseline_rps": base["throughput_rps"],
        "best_rps": best["throughput_rps"],
        "best_max_batch": best["max_batch"],
        "batched_speedup": round(
            best["throughput_rps"] / base["throughput_rps"], 4
        ),
    }
    return records + [summary]


def run_fleet_bench(
    scale=512,
    *,
    matrix="sAMG",
    shard_counts=(1, 2, 4),
    clients=16,
    requests_per_client=40,
    service_ms=8.0,
    mode="process",
    replicas=1,
    workers=1,
    max_batch=16,
    seed=0,
):
    """Closed-loop load through the fleet router at each shard count.

    ``service_ms`` calibrates the modeled device: it is the Eq. (1)
    single-vector sweep time of the *whole* matrix on one shard, and
    the derived bandwidth paces every shard's kernels — so S shards
    each pace their ~1/S-nnz row block proportionally faster, exactly
    the per-device speedup the paper's row-block distribution buys.
    The device streams its matrix block once **per vector**
    (``per_request`` pacing) on every shard count alike, so the
    measurement isolates scatter/gather scaling from batch-formation
    noise.  Before each timed run the sharded answer is checked
    bitwise against a single-server reference (same ``csr_scipy``
    kernel).
    """
    from repro.formats import convert
    from repro.matrices import generate
    from repro.serve import Fleet, FleetRouter, MatrixRegistry
    from repro.serve.fleet import eq1_spmm_seconds

    csr = convert(generate(matrix, scale=scale, seed=seed), "CRS")
    n = csr.ncols
    bandwidth = (
        eq1_spmm_seconds(csr.nnz, csr.nrows, 1, 1.0) / (service_ms / 1e3)
    )
    # bitwise reference: the same pinned kernel, one process, no pacing
    ref_registry = MatrixRegistry(tune=False)
    ref_registry.register("bench", matrix=csr, variant="csr_scipy")
    rng = np.random.default_rng(seed)
    x_check = rng.standard_normal(n)
    with ref_registry.acquire("bench") as lease:
        y_ref = lease.clone_for("ref").spmv(x_check)

    records = []
    for nshards in shard_counts:
        fleet = Fleet(
            nshards,
            mode=mode,
            workers=workers,
            max_batch=max_batch,
            max_queue=max(256, clients * 4),
            pace={"bandwidth_bytes": bandwidth, "per_request": True},
        )
        router = FleetRouter(fleet, replicas=min(replicas, nshards))
        try:
            router.register("bench", csr, blocks=nshards)
            # warm up (bind every block) + bitwise parity gate
            router.spmv("bench", np.ones(n), timeout=120)
            exact = bool(
                np.array_equal(router.spmv("bench", x_check), y_ref)
            )
            elapsed, latencies = _closed_loop(
                router,
                "bench",
                n,
                clients=clients,
                requests_per_client=requests_per_client,
                seed=seed,
            )
            stats = router.stats()
        finally:
            router.close()
        total = clients * requests_per_client
        records.append(
            {
                "mode": "modeled-device",
                "transport": mode,
                "matrix": matrix,
                "scale": scale,
                "nrows": csr.nrows,
                "nnz": csr.nnz,
                "shards": nshards,
                "replicas": min(replicas, nshards),
                "workers": workers,
                "clients": clients,
                "service_ms": service_ms,
                "model_bandwidth_bytes": round(bandwidth, 1),
                "requests": total,
                "seconds": round(elapsed, 6),
                "throughput_rps": round(total / elapsed, 3),
                "latency_ms": _quantiles_ms(latencies),
                "bitwise_equal": exact,
                "hedges": stats["hedges"],
                "failovers": stats["failovers"],
            }
        )
    base = next(r for r in records if r["shards"] == min(shard_counts))
    summary = {
        "summary": True,
        "mode": "modeled-device",
        "service_ms": service_ms,
        "baseline_shards": base["shards"],
        "baseline_rps": base["throughput_rps"],
        "scaling": {
            str(r["shards"]): round(
                r["throughput_rps"] / base["throughput_rps"], 4
            )
            for r in records
        },
        "bitwise_equal": all(r["bitwise_equal"] for r in records),
    }
    return records + [summary]


# ---------------------------------------------------------------------------
# pytest smoke (collected because pytest python_files includes bench_*.py)
# ---------------------------------------------------------------------------
def test_bench_serve_smoke():
    """Tiny closed loop: records well-formed, batching actually happened."""
    records = run_serve_bench(
        scale=512, clients=4, requests_per_client=10, batch_sizes=(1, 8)
    )
    rows = [r for r in records if not r.get("summary")]
    assert {r["max_batch"] for r in rows} == {1, 8}
    for r in rows:
        assert r["requests"] == 40
        assert r["throughput_rps"] > 0
        assert r["latency_ms"]["p50"] is not None
    base = next(r for r in rows if r["max_batch"] == 1)
    batched = next(r for r in rows if r["max_batch"] == 8)
    # baseline executes one spmm per request; batched coalesces
    assert base["spmm_calls"] >= base["requests"]
    assert batched["spmm_calls"] <= batched["requests"]
    assert records[-1]["summary"] and records[-1]["batched_speedup"] > 0


def test_bench_fleet_smoke():
    """Tiny fleet loop: records well-formed, answers bitwise-exact."""
    records = run_fleet_bench(
        scale=512,
        shard_counts=(1, 2),
        clients=4,
        requests_per_client=5,
        service_ms=2.0,
        mode="inproc",
    )
    rows = [r for r in records if not r.get("summary")]
    assert {r["shards"] for r in rows} == {1, 2}
    for r in rows:
        assert r["mode"] == "modeled-device"
        assert r["requests"] == 20
        assert r["throughput_rps"] > 0
        assert r["bitwise_equal"]
        assert r["latency_ms"]["p50"] is not None
    assert records[-1]["summary"] and records[-1]["bitwise_equal"]
    assert records[-1]["scaling"]["1"] == 1.0


def _main_fleet(args):
    records = run_fleet_bench(
        args.scale,
        matrix=args.matrix,
        shard_counts=tuple(args.fleet_shards),
        clients=args.clients,
        requests_per_client=args.requests,
        service_ms=args.service_ms,
        mode=args.fleet_transport,
        replicas=args.replicas,
        workers=args.workers,
    )
    write_artifact(args.out, records)
    print(
        f"{'shards':>6s} {'rps':>10s} {'scaling':>8s} "
        f"{'p50ms':>8s} {'p99ms':>8s} {'exact':>6s}"
    )
    summary = records[-1]
    for r in records:
        if r.get("summary"):
            continue
        lat = r["latency_ms"]
        print(
            f"{r['shards']:6d} {r['throughput_rps']:10.1f} "
            f"{summary['scaling'][str(r['shards'])]:8.2f} "
            f"{lat['p50']:8.3f} {lat['p99']:8.3f} "
            f"{str(r['bitwise_equal']):>6s}"
        )
    print(
        f"modeled-device fleet scaling (service_ms={args.service_ms:g}): "
        + ", ".join(
            f"{s} shards = {v:.2f}x" for s, v in summary["scaling"].items()
        )
    )
    print(f"wrote {args.out} ({len(records)} records)")
    gates = GateSet()
    gates.require(summary["bitwise_equal"], "sharded answers not bitwise")
    top = str(max(int(s) for s in summary["scaling"]))
    gates.at_least(
        summary["scaling"][top], args.min_scaling,
        f"throughput scaling at {top} shards",
    )
    return gates.exit_code()


def main(argv=None):
    import argparse

    from repro.scenarios import axis_values

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=int, default=64)
    ap.add_argument("--matrix", default="sAMG",
                    choices=axis_values("suite-matrix"))
    ap.add_argument("--format", default="pJDS",
                    choices=axis_values("format"))
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--requests", type=int, default=50,
                    help="requests per client")
    ap.add_argument("--batches", type=int, nargs="+", default=[1, 4, 16],
                    help="max_batch values to sweep (include 1 as baseline)")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--out", default=None,
                    help="artifact path (default BENCH_serve.json, or "
                         "BENCH_fleet.json with --fleet)")
    ap.add_argument("--fleet", action="store_true",
                    help="benchmark the sharded fleet router instead "
                         "(modeled-device pacing; writes BENCH_fleet.json)")
    ap.add_argument("--fleet-shards", type=int, nargs="+", default=[1, 2, 4])
    ap.add_argument("--fleet-transport", choices=("process", "inproc"),
                    default="process")
    ap.add_argument("--replicas", type=int, default=1)
    ap.add_argument("--service-ms", type=float, default=8.0,
                    help="modeled Eq. (1) whole-matrix sweep time on one "
                         "shard (calibrates the device bandwidth)")
    ap.add_argument("--min-batched-speedup", type=float, default=None,
                    help="fail (exit 1) when the batched-vs-baseline "
                         "throughput ratio is below this (CI smoke: 1.0)")
    ap.add_argument("--min-scaling", type=float, default=None,
                    help="fail (exit 1) when --fleet throughput scaling at "
                         "the largest shard count is below this")
    args = ap.parse_args(argv)
    if args.fleet:
        args.out = args.out or "BENCH_fleet.json"
        if args.workers == 2:
            args.workers = 1  # one modeled device per shard
        if args.scale == 64:
            args.scale = 512  # small vectors: keep IPC out of the signal
        if args.clients == 8:
            args.clients = 16
        if args.requests == 50:
            args.requests = 40
        return _main_fleet(args)
    args.out = args.out or "BENCH_serve.json"
    if 1 not in args.batches:
        args.batches = [1, *args.batches]
    records = run_serve_bench(
        args.scale,
        matrix=args.matrix,
        fmt=args.format,
        clients=args.clients,
        requests_per_client=args.requests,
        batch_sizes=tuple(args.batches),
        workers=args.workers,
    )
    write_artifact(args.out, records)
    hdr = (
        f"{'max_batch':>9s} {'rps':>10s} {'mean_bs':>8s} "
        f"{'spmm':>6s} {'p50ms':>8s} {'p95ms':>8s} {'p99ms':>8s}"
    )
    print(hdr)
    for r in records:
        if r.get("summary"):
            continue
        lat = r["latency_ms"]
        print(
            f"{r['max_batch']:9d} {r['throughput_rps']:10.1f} "
            f"{r['mean_batch_size']:8.2f} {r['spmm_calls']:6d} "
            f"{lat['p50']:8.3f} {lat['p95']:8.3f} {lat['p99']:8.3f}"
        )
    summary = records[-1]
    print(
        f"batched speedup: {summary['batched_speedup']:.2f}x "
        f"(max_batch={summary['best_max_batch']}, "
        f"{summary['best_rps']:.1f} vs {summary['baseline_rps']:.1f} rps)"
    )
    print(f"wrote {args.out} ({len(records)} records)")
    gates = GateSet()
    gates.at_least(
        summary["batched_speedup"], args.min_batched_speedup,
        "batched speedup",
    )
    return gates.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
