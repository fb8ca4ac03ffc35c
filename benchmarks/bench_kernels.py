"""Wall-clock benchmarks of the registered spMVM kernels.

These are *host* measurements (the GPU numbers come from the device
model), but the relative shape is informative: pJDS sweeps fewer
padded slots than ELLPACK, so on strongly irregular matrices the
column-sweep kernel family orders the same way as on the device.

Run as a script (``python benchmarks/bench_kernels.py``) to produce
``BENCH_kernels.json``: engine-bound (autotuned + workspace) kernels
vs the seed kernels, and batched SpMM vs the per-column loop — the
numbers the CI bench-smoke step uploads.  See
``docs/performance.md`` for how to read the fields.
"""

import numpy as np
import pytest

from repro.formats import available_formats
from repro.perfmodel.shootout import shootout, table
from repro.utils import Stopwatch, gflops

from _bench_common import SCALE, TABLE1_KEYS, emit_table
from _gates import EXIT_OK, GateSet, split_summary, write_artifact

FORMATS = ("CRS", "ELLPACK", "ELLPACK-R", "JDS", "pJDS", "SELL-C-sigma")


@pytest.fixture(scope="module")
def vectors(suite_coo):
    rng = np.random.default_rng(0)
    return {k: rng.normal(size=suite_coo[k].ncols) for k in TABLE1_KEYS}


@pytest.mark.parametrize("key", TABLE1_KEYS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_bench_spmv(benchmark, suite_formats, vectors, key, fmt):
    m = suite_formats(key, fmt)
    x = vectors[key]
    out = np.zeros(m.nrows)
    benchmark(m.spmv, x, out=out)
    rate = gflops(m.nnz, benchmark.stats["mean"])
    benchmark.extra_info["gflops"] = round(rate, 4)


@pytest.fixture(scope="module")
def relative_table():
    """Native-kernel GF/s per (matrix, format), read off the shootout grid."""
    rows = shootout(TABLE1_KEYS, SCALE, reps=3, formats=FORMATS)
    table = {key: {} for key in TABLE1_KEYS}
    for r in rows:
        table[r["matrix"]][r["format"]] = r["useful_gflops"]
    lines = [f"{'matrix':6s} " + " ".join(f"{f:>13s}" for f in FORMATS)]
    for key in TABLE1_KEYS:
        lines.append(
            f"{key:6s} " + " ".join(f"{table[key][f]:13.3f}" for f in FORMATS)
        )
    lines.append("(host native-kernel GF/s; device numbers come from the GPU model)")
    emit_table("kernels_wallclock", lines)
    return table


def test_pjds_not_slower_than_plain_ellpack(relative_table):
    """pJDS sweeps fewer padded slots: never materially slower."""
    for key in TABLE1_KEYS:
        r = relative_table[key]
        assert r["pJDS"] >= 0.7 * r["ELLPACK"], key


def test_high_reduction_matrices_speed_up(relative_table):
    """On sAMG (68 % reduction) the slot savings must show up."""
    r = relative_table["sAMG"]
    assert r["pJDS"] > 1.2 * r["ELLPACK"]


def test_all_rates_positive(relative_table):
    for key in TABLE1_KEYS:
        for fmt in FORMATS:
            assert relative_table[key][fmt] > 0


# ---------------------------------------------------------------------------
# Engine-vs-seed comparison (the CI bench-smoke JSON artifact)
# ---------------------------------------------------------------------------

#: the engine-bound formats the engine, dispatch and obs benches probe:
#: the paper's CRS/pJDS pair, the two intermediate column-sweep
#: formats, and the two related-work challengers (Koza's CMRS,
#: Heller-Oberhuber's ARG-CSR)
ENGINE_FORMATS = ("CRS", "pJDS", "ELLPACK-R", "SELL-C-sigma", "CMRS", "ARG-CSR")


def engine_pairs(keys=TABLE1_KEYS):
    """The (matrix, format) pairs the engine benches time, key-major
    in the caller's ``keys`` order so the printed tables group per
    matrix."""
    return [(k, f) for k in keys for f in ENGINE_FORMATS]


def _seed_spmv_crs(m, x, out):
    """The seed CRS kernel: float64 prefix-sum segments, per-call
    allocations (the seed's default ``out=None`` path, which is how the
    seed solver loops exercised it)."""
    prod = m.data.astype(np.float64) * x[m.indices].astype(np.float64)
    csum = np.concatenate(([0.0], np.cumsum(prod)))
    y = np.zeros(m.nrows, dtype=m.dtype)  # seed alloc_result
    y[:] = (csum[m.indptr[1:]] - csum[m.indptr[:-1]]).astype(m.dtype)
    return y


def _seed_spmv_jagged(m, x, out):
    """The seed jagged kernel: float64 column sweep, astype copies and a
    freshly allocated, scattered result every call."""
    acc = np.zeros(m.nrows, dtype=np.float64)
    xf = x.astype(np.float64, copy=False)
    cs = m.col_start
    val = m.val
    col_idx = m.col_idx
    for j in range(m.width):
        s = cs[j]
        e = cs[j + 1]
        acc[: e - s] += val[s:e].astype(np.float64) * xf[col_idx[s:e]]
    y = np.zeros(m.nrows, dtype=m.dtype)  # seed alloc_result
    y[m.permutation.perm] = acc.astype(m.dtype)
    return y


def _seed_kernel_for(m):
    """Pre-engine kernel for ``m``: the historical CRS and jagged
    transcriptions, else ``None``.  The unbound ``spmv`` of every other
    format now runs the engine's own rank-0 kernel, so it is no seed."""
    from repro.core.jds import JaggedDiagonalsBase
    from repro.formats.csr import CSRMatrix

    if isinstance(m, CSRMatrix):
        return _seed_spmv_crs
    if isinstance(m, JaggedDiagonalsBase):
        return _seed_spmv_jagged
    return None


def run_engine_bench(scale=64, *, keys=TABLE1_KEYS, reps=5, spmm_rhs=8):
    """Measure engine vs seed kernels; return one record per (matrix, fmt).

    Fields per record: ``seed_gflops`` / ``engine_gflops`` /
    ``engine_speedup`` (same 2*nnz flop count; the seed fields are
    ``None`` for formats without a seed transcription), the autotuned
    ``variant``, and ``spmm_percolumn_gflops`` / ``spmm_batched_gflops``
    / ``spmm_speedup`` at ``spmm_rhs`` right-hand sides.
    """
    from repro.engine import bind
    from repro.formats import convert
    from repro.matrices import generate
    from repro.matrices.cache import TunerCache

    cache = TunerCache(persist=False)  # rank fresh on this machine
    records = []
    coos = {}
    for key, fmt in engine_pairs(keys):
        if key not in coos:
            coos[key] = generate(key, scale=scale)
        coo = coos[key]
        x = np.random.default_rng(0).standard_normal(coo.ncols)
        X = np.ascontiguousarray(
            np.random.default_rng(1).standard_normal((coo.ncols, spmm_rhs))
        )
        m = convert(coo, fmt)
        out = np.zeros(m.nrows)
        seed_kernel = _seed_kernel_for(m)
        t_seed = None
        if seed_kernel is not None:
            t_seed = Stopwatch.measure(lambda: seed_kernel(m, x, out), reps).best
        b = bind(m, reps=max(1, reps // 2), cache=cache)
        t_engine = Stopwatch.measure(lambda: b.spmv(x, out=out), reps).best
        Yout = np.zeros((m.nrows, spmm_rhs))
        t_col = Stopwatch.measure(lambda: m.spmm_percolumn(X, out=Yout), reps).best
        t_blk = Stopwatch.measure(lambda: b.spmm(X, out=Yout), reps).best
        records.append(
            {
                "matrix": key,
                "format": fmt,
                "scale": scale,
                "nnz": m.nnz,
                "variant": b.variant_name,
                "seed_gflops": (
                    None if t_seed is None else round(gflops(m.nnz, t_seed), 4)
                ),
                "engine_gflops": round(gflops(m.nnz, t_engine), 4),
                "engine_speedup": (
                    None if t_seed is None else round(t_seed / t_engine, 3)
                ),
                "spmm_rhs": spmm_rhs,
                "spmm_percolumn_gflops": round(
                    gflops(m.nnz * spmm_rhs, t_col), 4
                ),
                "spmm_batched_gflops": round(
                    gflops(m.nnz * spmm_rhs, t_blk), 4
                ),
                "spmm_speedup": round(t_col / t_blk, 3),
            }
        )
    return records


# ---------------------------------------------------------------------------
# Registry dispatch overhead (the CI dispatch-smoke JSON artifact)
# ---------------------------------------------------------------------------

def run_dispatch_bench(scale=48, *, keys=TABLE1_KEYS, reps=7, inner=20):
    """Cost of resolving a kernel through the central registry.

    For each (matrix, format) the rank-0 spmv kernel runs ``inner``
    times per timed batch three ways:

    * ``direct``   — the kernel function captured in a local, called
      straight (``fn(m, ws, x, y)``): the floor;
    * ``registry`` — re-resolved through
      ``repro.ops.get_variant(m, name).run(...)`` on every call: the
      pure dispatch indirection the ISSUE-4 refactor added;
    * ``engine``   — the full ``BoundMatrix.spmv`` path (validation,
      dtype coercion, stored-order scatter) for context.

    The *aggregate* overhead (total registry time over total direct
    time, across all combinations) must stay ≤ 5 %: the registry is
    one list scan against a ≥ 10 µs kernel, so anything above that is
    measurement noise — per-record numbers are reported but jitter by
    several percent either way on shared runners.  Returns one record
    per combination plus a final ``{"summary": True}`` record.
    """
    from repro.engine import Workspace, bind
    from repro.formats import convert
    from repro.matrices import generate
    from repro.ops import get_variant

    records = []
    coos = {}
    for key, fmt in engine_pairs(keys):
        if key not in coos:
            coos[key] = generate(key, scale=scale)
        m = convert(coos[key], fmt)
        b = bind(m, tune=False)  # rank-0 (untuned default) kernel
        name = b.variant_name
        ws = Workspace()
        x = np.random.default_rng(0).standard_normal(m.ncols).astype(m.dtype)
        y = np.zeros(m.nrows, dtype=m.dtype)
        fn = get_variant(m, name).run
        out = np.zeros(m.nrows, dtype=m.dtype)

        def direct():
            for _ in range(inner):
                fn(m, ws, x, y)

        def registry():
            for _ in range(inner):
                get_variant(m, name).run(m, ws, x, y)

        def engine():
            for _ in range(inner):
                b.spmv(x, out=out)

        t_direct = Stopwatch.measure(direct, reps).best / inner
        t_registry = Stopwatch.measure(registry, reps).best / inner
        t_engine = Stopwatch.measure(engine, reps).best / inner
        records.append(
            {
                "matrix": key,
                "format": fmt,
                "scale": scale,
                "variant": name,
                "nnz": m.nnz,
                "direct_us": round(1e6 * t_direct, 3),
                "registry_us": round(1e6 * t_registry, 3),
                "engine_us": round(1e6 * t_engine, 3),
                "overhead_registry": round(t_registry / t_direct - 1.0, 4),
                "overhead_engine": round(t_engine / t_direct - 1.0, 4),
            }
        )
    total_direct = sum(r["direct_us"] for r in records)
    total_registry = sum(r["registry_us"] for r in records)
    total_engine = sum(r["engine_us"] for r in records)
    records.append(
        {
            "summary": True,
            "total_direct_us": round(total_direct, 3),
            "total_registry_us": round(total_registry, 3),
            "total_engine_us": round(total_engine, 3),
            "overhead_registry": round(total_registry / total_direct - 1.0, 4),
            "overhead_engine": round(total_engine / total_direct - 1.0, 4),
        }
    )
    return records


# ---------------------------------------------------------------------------
# Observability overhead (the CI obs-smoke JSON artifact)
# ---------------------------------------------------------------------------

def run_obs_overhead_bench(scale=48, *, keys=TABLE1_KEYS, reps=7, inner=20):
    """Cost of the obs instrumentation on the engine spmv hot path.

    For each (matrix, format) the bound spmv runs ``inner`` times per
    timed batch three ways:

    * ``off``    — ``obs.disable()``: the uninstrumented floor;
    * ``on``     — ``obs.enable()`` with the profiler sampling every
      call but *no* enclosing span: the serving steady state outside a
      traced request (counter bump + profiler sample + cached lookups);
    * ``traced`` — the same loop under an open span, so every call
      also records an ``engine.spmv`` span: the per-request tracing
      cost, reported for context.

    The *aggregate* ``on`` overhead (total on-time over total
    off-time, across all combinations) must stay ≤ 5 % — that is the
    instrumentation's zero-ish-cost contract; per-record numbers
    jitter by several percent on shared runners.  ``traced`` is not
    gated: a request that asked to be traced pays for its spans.
    """
    from repro import obs
    from repro.engine import bind
    from repro.formats import convert
    from repro.matrices import generate

    was_enabled = obs.enabled()
    records = []
    coos = {}
    try:
        for key, fmt in engine_pairs(keys):
            if key not in coos:
                coos[key] = generate(key, scale=scale)
            m = convert(coos[key], fmt)
            obs.disable()
            b = bind(m, tune=False, label=key)
            x = np.random.default_rng(0).standard_normal(m.ncols).astype(m.dtype)
            out = np.zeros(m.nrows, dtype=m.dtype)

            def loop():
                for _ in range(inner):
                    b.spmv(x, out=out)

            def traced_loop():
                with obs.span("bench.traced"):
                    for _ in range(inner):
                        b.spmv(x, out=out)

            t_off = Stopwatch.measure(loop, reps).best / inner
            obs.enable()
            obs.reset_all()
            t_on = Stopwatch.measure(loop, reps).best / inner
            t_traced = Stopwatch.measure(traced_loop, reps).best / inner
            records.append(
                {
                    "matrix": key,
                    "format": fmt,
                    "scale": scale,
                    "variant": b.variant_name,
                    "nnz": m.nnz,
                    "off_us": round(1e6 * t_off, 3),
                    "on_us": round(1e6 * t_on, 3),
                    "traced_us": round(1e6 * t_traced, 3),
                    "overhead_on": round(t_on / t_off - 1.0, 4),
                    "overhead_traced": round(t_traced / t_off - 1.0, 4),
                }
            )
    finally:
        obs.reset_all()
        if was_enabled:
            obs.enable()
        else:
            obs.disable()
    total_off = sum(r["off_us"] for r in records)
    total_on = sum(r["on_us"] for r in records)
    total_traced = sum(r["traced_us"] for r in records)
    records.append(
        {
            "summary": True,
            "total_off_us": round(total_off, 3),
            "total_on_us": round(total_on, 3),
            "total_traced_us": round(total_traced, 3),
            "overhead_on": round(total_on / total_off - 1.0, 4),
            "overhead_traced": round(total_traced / total_off - 1.0, 4),
        }
    )
    return records


# ---------------------------------------------------------------------------
# Format shootout (the CI BENCH_shootout.json)
# ---------------------------------------------------------------------------

#: the related-work formats published after the paper, gated against
#: the csr_scipy library baseline
NEW_FORMATS = ("CMRS", "ARG-CSR")


def shootout_summary(rows):
    """The gated aggregates of one shootout grid.

    * ``worst_newfmt_vs_csr_scipy`` — the slowest CMRS/ARG-CSR cell's
      fastest roster time (native or row-order) over ``csr_scipy``;
    * ``roofline_over_bound`` — cells whose ``roofline_efficiency``
      exceeds ``1 + IQR/median`` of their native laps (must be empty).
    """
    ratios = [
        min(r["native_s"], r["row_order_s"] or r["native_s"]) / r["csr_scipy_s"]
        for r in rows
        if r["format"] in NEW_FORMATS and r["csr_scipy_s"]
    ]
    return {
        "summary": True,
        "formats_measured": sorted({r["format"] for r in rows}),
        "worst_newfmt_vs_csr_scipy": max(ratios) if ratios else None,
        "roofline_over_bound": [
            f"{r['matrix']}/{r['format']}"
            for r in rows
            if r["roofline_efficiency"] > 1 + r["native_iqr_s"] / r["native_s"]
        ],
    }


def main(argv=None):
    import argparse

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=int, default=64)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--rhs", type=int, default=8)
    ap.add_argument("--out", default="BENCH_kernels.json")
    ap.add_argument(
        "--dispatch", action="store_true",
        help="run the registry dispatch-overhead probe instead "
        "(writes BENCH_dispatch.json unless --out is given)",
    )
    ap.add_argument(
        "--obs-overhead", action="store_true",
        help="run the obs instrumentation-overhead probe instead "
        "(writes BENCH_obs.json unless --out is given)",
    )
    ap.add_argument(
        "--max-overhead", type=float, default=0.05,
        help="fail (exit 1) when the aggregate overhead exceeds this "
        "fraction in --dispatch / --obs-overhead mode",
    )
    ap.add_argument(
        "--shootout", action="store_true",
        help="run the (matrix, format) shootout grid instead: every "
        "registered format and the roofline check (writes "
        "BENCH_shootout.json unless --out is given)",
    )
    ap.add_argument(
        "--max-newfmt-ratio", type=float, default=1.5,
        help="fail (exit 1) when a CMRS/ARG-CSR cell is more than this "
        "factor slower than csr_scipy in --shootout mode",
    )
    args = ap.parse_args(argv)
    if args.shootout:
        out = "BENCH_shootout.json" if args.out == "BENCH_kernels.json" else args.out
        rows = shootout(TABLE1_KEYS, args.scale, args.reps)
        summary = shootout_summary(rows)
        write_artifact(out, rows + [summary])
        print("\n".join(table(rows)))
        print(
            f"wrote {out} ({len(rows)} records); worst CMRS/ARG-CSR ratio "
            f"vs csr_scipy "
            f"{summary['worst_newfmt_vs_csr_scipy']}"
        )
        gates = GateSet()
        missing = sorted(set(available_formats()) - set(summary["formats_measured"]))
        gates.require(
            not missing, f"every registered format measured (missing: {missing})"
        )
        if summary["worst_newfmt_vs_csr_scipy"] is not None:
            gates.at_most(
                summary["worst_newfmt_vs_csr_scipy"], args.max_newfmt_ratio,
                "worst new-format ratio vs csr_scipy",
            )
        over = summary["roofline_over_bound"]
        gates.require(
            not over, f"roofline_efficiency <= 1 + IQR/median (over: {over})"
        )
        return gates.exit_code()
    if args.obs_overhead:
        out = "BENCH_obs.json" if args.out == "BENCH_kernels.json" else args.out
        records = run_obs_overhead_bench(args.scale, reps=args.reps)
        write_artifact(out, records)
        print(
            f"{'matrix':6s} {'format':12s} {'variant':16s} "
            f"{'off':>9s} {'on':>9s} {'traced':>9s} {'ovh%':>6s}"
        )
        rows, summary = split_summary(records)
        for r in rows:
            print(
                f"{r['matrix']:6s} {r['format']:12s} {r['variant']:16s} "
                f"{r['off_us']:9.2f} {r['on_us']:9.2f} "
                f"{r['traced_us']:9.2f} {100 * r['overhead_on']:6.2f}"
            )
        print(
            f"wrote {out} ({len(rows)} records); aggregate obs-on overhead "
            f"{100 * summary['overhead_on']:.2f}% "
            f"(traced path {100 * summary['overhead_traced']:.2f}%)"
        )
        gates = GateSet()
        gates.at_most(
            summary["overhead_on"], args.max_overhead, "aggregate overhead"
        )
        return gates.exit_code()
    if args.dispatch:
        out = "BENCH_dispatch.json" if args.out == "BENCH_kernels.json" else args.out
        records = run_dispatch_bench(args.scale, reps=args.reps)
        write_artifact(out, records)
        print(
            f"{'matrix':6s} {'format':12s} {'variant':16s} "
            f"{'direct':>9s} {'registry':>9s} {'engine':>9s} {'ovh%':>6s}"
        )
        rows, summary = split_summary(records)
        for r in rows:
            print(
                f"{r['matrix']:6s} {r['format']:12s} {r['variant']:16s} "
                f"{r['direct_us']:9.2f} {r['registry_us']:9.2f} "
                f"{r['engine_us']:9.2f} {100 * r['overhead_registry']:6.2f}"
            )
        print(
            f"wrote {out} ({len(rows)} records); aggregate registry overhead "
            f"{100 * summary['overhead_registry']:.2f}% "
            f"(engine path {100 * summary['overhead_engine']:.2f}%)"
        )
        gates = GateSet()
        gates.at_most(
            summary["overhead_registry"], args.max_overhead,
            "aggregate overhead",
        )
        return gates.exit_code()
    records = run_engine_bench(args.scale, reps=args.reps, spmm_rhs=args.rhs)
    write_artifact(args.out, records)
    hdr = (
        f"{'matrix':6s} {'format':12s} {'variant':16s} "
        f"{'seed':>8s} {'engine':>8s} {'x':>6s} {'spmm':>6s}"
    )
    print(hdr)
    for r in records:
        seed, speedup = r["seed_gflops"], r["engine_speedup"]
        print(
            f"{r['matrix']:6s} {r['format']:12s} {r['variant']:16s} "
            f"{'-' if seed is None else f'{seed:.3f}':>8s} "
            f"{r['engine_gflops']:8.3f} "
            f"{'-' if speedup is None else f'{speedup:.2f}':>6s} "
            f"{r['spmm_speedup']:6.2f}"
        )
    print(f"wrote {args.out} ({len(records)} records)")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
