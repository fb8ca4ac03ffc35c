"""Repository benchmark: one workload, timed end to end or per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-cg --seed 1 --seconds 30 --trace 0

Workloads: ``solve-cg``, ``serve-http``, ``serve-fleet``.
With ``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it carries
every per-layer metric (an untraced half-run and a traced half-run, so
``trace.overhead_pct`` compares the two).  The full record, with
provenance, lands in ``.bench_build/results/`` and the spans of a traced
run in ``.bench_build/traces/``.

The package is imported from ``src/`` of the checkout and nothing is
installed.  Thread-count environment variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def _bootstrap() -> float:
    """Put the checkout's package on the path; warm the compiled tier.

    Returns the seconds the first import of the kernel tiers took: the
    once-per-machine C build on a fresh cache, a plain load after.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {ROOT / 'src' / 'repro'}")
    os.environ["REPRO_CACHE_DIR"] = str(BUILD / "repro-cache")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import repro
    from repro.ops import kernel_tiers

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")
    kernel_tiers()
    return time.perf_counter() - t0


def _workloads() -> dict:
    import wl_serve_fleet
    import wl_serve_http
    import wl_solve_cg

    return {m.NAME: m.Workload for m in (wl_solve_cg, wl_serve_http, wl_serve_fleet)}


def _bandwidth_layers(res: dict, llc: int) -> dict:
    """Host copy bandwidth at the working set and at 4x LLC; Eq.-1 score."""
    from repro.obs.profile import measure_host_bandwidth

    ws = res["info"]["working_set_bytes"]
    # measure_host_bandwidth allocates a source and a destination of
    # ``nbytes`` each, so the footprint is twice the argument
    bw_ws = measure_host_bandwidth(nbytes=max(ws // 2, 1 << 20), reps=5)
    bw_dram = measure_host_bandwidth(nbytes=max(2 * llc, 1 << 26), reps=3)
    out = {"perfmodel.bw_ws_gbs": bw_ws, "perfmodel.bw_4llc_gbs": bw_dram}
    eq1 = res.get("eq1")  # workloads whose blocking kernel is an spmv
    if eq1:
        out["perfmodel.spmv_measured_over_eq1"] = eq1["spmv_s_p50"] / (
            eq1["bytes"] / (bw_ws * 1e9)
        )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cnative_s = _bootstrap()

    import harness
    from tracing import NullTracer, Tracer

    workloads = _workloads()
    if args.workload not in workloads:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; one of {sorted(workloads)}"
        )
    wl = workloads[args.workload]()
    prep_tracer = Tracer() if args.trace else NullTracer()
    wl.prepare(args.seed, prep_tracer)

    if not args.trace:
        res = wl.run(args.seconds, NullTracer())
        runs = [res]
        wanted = spec["end_to_end"]
        values = dict(res["e2e"])
    else:
        base = wl.run(args.seconds / 2, NullTracer())
        tracer = Tracer()
        res = wl.run(args.seconds / 2, tracer)
        runs = [base, res]
        values = {
            **res["layers"],
            **_bandwidth_layers(res, harness.llc_bytes()),
            "hygiene.leaks": sum(r["failures"].get("leaks", 0) for r in runs),
            "trace.overhead_pct": 100.0 * (res["e2e"]["p50_ms"] / base["e2e"]["p50_ms"] - 1.0),
        }
        values["matrices.generate_s"] = prep_tracer.named("matrices.generate")[0].duration
        wanted = spec["per_layer"]
        BUILD.joinpath("traces").mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(
            BUILD / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        )

    attempted = sum(r["attempted"] for r in runs)
    failures: dict = {}
    for r in runs:
        for k, v in r["failures"].items():
            failures[k] = failures.get(k, 0) + int(v)
    failed = sum(failures.values())
    values.setdefault("errors.error_rate", failed / attempted)
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    missing = [m["name"] for m in spec["end_to_end"] if not args.trace and m["name"] not in values]
    if missing:
        raise SystemExit(f"error: workload reported no {missing}")

    prov = harness.provenance(ROOT, cnative_s)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failures": failures,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "runs": [{k: r[k] for k in ("e2e", "layers", "info")} for r in runs],
        "provenance": {
            **prov,
            "variants": res["info"]["variants"],
            "working_set_bytes": res["info"]["working_set_bytes"],
            "working_set_over_llc": (
                res["info"]["working_set_bytes"] / prov["llc_bytes"]
                if prov["llc_bytes"] else None
            ),
        },
    }
    BUILD.joinpath("results").mkdir(parents=True, exist_ok=True)
    out_path = BUILD / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
