"""Closed-loop load benchmark of the repro.serve micro-batcher.

The serving claim is the paper's Eq. (1) argument applied to traffic:
SpMV is bandwidth-bound, so *k* concurrent requests coalesced into one
``spmm`` cost nearly the same memory traffic as a single request.  This
benchmark measures it end to end — a pool of closed-loop clients (each
issues its next request only after the previous one returned) hammers
one :class:`~repro.serve.scheduler.SpMVServer`, once with coalescing
disabled (``max_batch=1``, the per-request baseline) and once with the
micro-batcher on.

The configurations are timed in alternation, not one after the other:
every server is started and warmed with one untimed closed loop, then
``ROUNDS`` rounds time each configuration once, reversing the order
every round so each configuration leads equally often.  The gated
number is the median of the per-round batched-vs-baseline throughput
ratios, so neither a configuration's place in the process nor one slow
round decides it.

Run as a script (``python benchmarks/bench_serve.py``) to produce
``BENCH_serve.json``: one record per configuration with throughput
(median over rounds), latency quantiles (p50/p95/p99 over every timed
request), achieved batch sizes and spmm-call counts, plus a
``summary`` record with the per-round ratios and their median — the
number the CI serve gate asserts on.
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


#: timed rounds per configuration (even, so the alternating order lets
#: every configuration lead equally often)
ROUNDS = 10


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

    Every configuration serves the *same* matrix from its own server;
    all of them are warmed before the first timed loop, and the timed
    rounds alternate their order (see the module docstring).  Counts
    and latencies cover the timed rounds only.
    """
    from repro.formats import convert
    from repro.matrices import generate
    from repro.serve import MatrixRegistry, SpMVServer

    mat = convert(generate(matrix, scale=scale, seed=seed), fmt)
    n = mat.ncols
    total = clients * requests_per_client

    def loop(server):
        return _closed_loop(
            server, "bench", n,
            clients=clients, requests_per_client=requests_per_client,
            seed=seed,
        )

    servers = {}
    try:
        for max_batch in batch_sizes:
            registry = MatrixRegistry(tune=False)
            registry.register("bench", matrix=mat)
            servers[max_batch] = SpMVServer(
                registry,
                max_batch=max_batch,
                max_queue=max(256, clients * 4),
                workers=workers,
            )
        # warm up: load + bind the matrix and the worker clones, and
        # run each configuration once untimed
        for server in servers.values():
            loop(server)
        warm_calls = {b: s.stats()["spmm_calls"] for b, s in servers.items()}
        rps = {b: [] for b in servers}
        latencies = {b: [] for b in servers}
        order = list(servers)
        for rnd in range(ROUNDS):
            for b in order if rnd % 2 == 0 else order[::-1]:
                elapsed, lat = loop(servers[b])
                rps[b].append(total / elapsed)
                latencies[b] += lat
        calls = {
            b: s.stats()["spmm_calls"] - warm_calls[b]
            for b, s in servers.items()
        }
    finally:
        for server in servers.values():
            server.close()
    timed = total * ROUNDS
    records = [
        {
            "matrix": matrix,
            "format": fmt,
            "scale": scale,
            "nrows": mat.nrows,
            "nnz": mat.nnz,
            "max_batch": b,
            "clients": clients,
            "workers": workers,
            "requests": timed,
            "throughput_rps": round(float(np.median(rps[b])), 3),
            "round_rps": [round(v, 3) for v in rps[b]],
            "spmm_calls": calls[b],
            "mean_batch_size": round(timed / max(calls[b], 1), 4),
            "latency_ms": _quantiles_ms(latencies[b]),
        }
        for b in servers
    ]
    ratios = {b: [v / r1 for v, r1 in zip(rps[b], rps[1])] for b in servers}
    batched = [b for b in servers if b > 1] or [1]
    best = max(batched, key=lambda b: np.median(ratios[b]))
    summary = {
        "summary": True,
        "rounds": ROUNDS,
        "baseline_rps": round(float(np.median(rps[1])), 3),
        "best_rps": round(float(np.median(rps[best])), 3),
        "best_max_batch": best,
        "round_ratios": [round(v, 4) for v in ratios[best]],
        "batched_speedup": round(float(np.median(ratios[best])), 4),
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
        assert r["requests"] == 40 * ROUNDS
        assert len(r["round_rps"]) == ROUNDS
        assert r["throughput_rps"] > 0
        assert r["latency_ms"]["p50"] is not None
    base = next(r for r in rows if r["max_batch"] == 1)
    batched = next(r for r in rows if r["max_batch"] == 8)
    # baseline executes one spmm per request; batched coalesces
    assert base["spmm_calls"] >= base["requests"]
    assert batched["spmm_calls"] <= batched["requests"]
    summary = records[-1]
    assert summary["summary"] and summary["batched_speedup"] > 0
    assert len(summary["round_ratios"]) == ROUNDS


def main(argv=None):
    import argparse

    from repro.formats import available_formats
    from repro.matrices import SUITE_KEYS

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=int, default=64)
    ap.add_argument("--matrix", default="sAMG", choices=SUITE_KEYS)
    ap.add_argument("--format", default="pJDS", choices=available_formats())
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--requests", type=int, default=50,
                    help="requests per client")
    ap.add_argument("--batches", type=int, nargs="+", default=[1, 4, 16],
                    help="max_batch values to sweep (include 1 as baseline)")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--out", default="BENCH_serve.json")
    ap.add_argument("--min-batched-speedup", type=float, default=None,
                    help="fail (exit 1) when the median per-round "
                         "batched-vs-baseline throughput ratio is below this")
    args = ap.parse_args(argv)
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
        f"(median of {summary['rounds']} rounds: "
        + " ".join(f"{v:.2f}" for v in summary["round_ratios"])
        + f"; max_batch={summary['best_max_batch']}, "
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
