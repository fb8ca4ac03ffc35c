"""Wall-clock benchmarks of the vectorised NumPy spMVM kernels.

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

import time

import numpy as np
import pytest

from repro.utils import gflops

from _bench_common import TABLE1_KEYS, emit_table
from _gates import EXIT_OK, GateSet, no_data, split_summary, write_artifact

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
    benchmark.extra_info["numpy_gflops"] = round(rate, 4)


@pytest.fixture(scope="module")
def relative_table(suite_formats, vectors):
    """One-shot relative timing table (independent of pytest-benchmark)."""
    import time

    lines = [f"{'matrix':6s} " + " ".join(f"{f:>13s}" for f in FORMATS)]
    rows = {}
    for key in TABLE1_KEYS:
        x = vectors[key]
        cells = []
        rows[key] = {}
        for fmt in FORMATS:
            m = suite_formats(key, fmt)
            out = np.zeros(m.nrows)
            m.spmv(x, out=out)  # warm up
            reps = 3
            t0 = time.perf_counter()
            for _ in range(reps):
                m.spmv(x, out=out)
            dt = (time.perf_counter() - t0) / reps
            rate = gflops(m.nnz, dt)
            rows[key][fmt] = rate
            cells.append(f"{rate:13.3f}")
        lines.append(f"{key:6s} " + " ".join(cells))
    lines.append("(host NumPy GF/s; device numbers come from the GPU model)")
    emit_table("kernels_wallclock", lines)
    return rows


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

def _engine_formats():
    from repro.scenarios import BENCH_FORMATS

    return BENCH_FORMATS


ENGINE_FORMATS = _engine_formats()


def scenario_pairs(keys=TABLE1_KEYS):
    """Candidate (matrix, format) combos from the scenario bench suite.

    The ``bench`` suite cells (``repro matrix expand --suite bench``)
    are the single source of what gets measured; this collapses them
    to unique (suite-matrix, format) pairs, reordered key-major in the
    caller's ``keys`` order so the printed tables group per matrix.
    """
    from repro.scenarios import expand_suite

    seen = []
    for cell in expand_suite("bench", wave="full"):
        axes = cell.axes_dict
        pair = (axes["suite-matrix"], axes["format"])
        if pair not in seen:
            seen.append(pair)
    if keys is None:
        keys = tuple(dict.fromkeys(k for k, _ in seen))
    fmts = tuple(dict.fromkeys(f for _, f in seen))
    return [(k, f) for k in keys for f in fmts if (k, f) in seen]


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
    """Pre-engine kernel for ``m`` (historical transcription where the
    seed differed; the format's own allocating spmv otherwise)."""
    from repro.core.jds import JaggedDiagonalsBase
    from repro.formats.csr import CSRMatrix

    if isinstance(m, CSRMatrix):
        return _seed_spmv_crs
    if isinstance(m, JaggedDiagonalsBase):
        return _seed_spmv_jagged
    return lambda mm, x, out: mm.spmv(x)  # allocates the result per call


def _best_seconds(fn, reps):
    fn()  # warmup
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_engine_bench(scale=64, *, keys=TABLE1_KEYS, reps=5, spmm_rhs=8):
    """Measure engine vs seed kernels; return one record per (matrix, fmt).

    Fields per record: ``seed_gflops`` / ``engine_gflops`` /
    ``engine_speedup`` (same 2*nnz flop count), the autotuned
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
    for key, fmt in scenario_pairs(keys):
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
        t_seed = _best_seconds(lambda: seed_kernel(m, x, out), reps)
        b = bind(m, reps=max(1, reps // 2), cache=cache)
        t_engine = _best_seconds(lambda: b.spmv(x, out=out), reps)
        Yout = np.zeros((m.nrows, spmm_rhs))
        t_col = _best_seconds(lambda: m.spmm_percolumn(X, out=Yout), reps)
        t_blk = _best_seconds(lambda: b.spmm(X, out=Yout), reps)
        records.append(
            {
                "matrix": key,
                "format": fmt,
                "scale": scale,
                "nnz": m.nnz,
                "variant": b.variant_name,
                "seed_gflops": round(gflops(m.nnz, t_seed), 4),
                "engine_gflops": round(gflops(m.nnz, t_engine), 4),
                "engine_speedup": round(t_seed / t_engine, 3),
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
    for key, fmt in scenario_pairs(keys):
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

        t_direct = _best_seconds(direct, reps) / inner
        t_registry = _best_seconds(registry, reps) / inner
        t_engine = _best_seconds(engine, reps) / inner
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
        for key, fmt in scenario_pairs(keys):
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

            t_off = _best_seconds(loop, reps) / inner
            obs.enable()
            obs.reset_all()
            t_on = _best_seconds(loop, reps) / inner
            t_traced = _best_seconds(traced_loop, reps) / inner
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
# Compiled tier vs vectorised NumPy (the CI compiled-smoke JSON artifact)
# ---------------------------------------------------------------------------

def run_compiled_bench(scale=64, *, keys=TABLE1_KEYS, reps=5):
    """cnative spmv kernel vs its bitwise NumPy reference, per format.

    The scipy delegates are excluded from *both* groups — they are a
    third-party compiled baseline, and the gate compares this repo's
    compiled tier against this repo's NumPy kernels.  Each format's
    roster holds one NumPy kernel, the cnative kernel's bitwise
    reference, so that is the NumPy baseline; it is slower than the
    best of the larger NumPy roster timed before, so the speedup reads
    higher than in earlier artifacts.  Per (matrix, format) record:
    variant and best-of-``reps`` seconds for each group, effective GB/s
    against the Eq.-1 traffic model of the winning variant, speedup,
    and roofline efficiency vs the measured host copy bandwidth.  A final summary record carries the
    ``aggregate_speedup`` (total NumPy time over total compiled time)
    that CI gates on.
    """
    from repro.engine import Workspace
    from repro.formats import convert
    from repro.matrices import generate
    from repro.obs.profile import measure_host_bandwidth
    from repro.ops import variants_for
    from repro.perfmodel.predict import predict_spmv
    from repro.scenarios.executors import tier_of

    host_gbs = measure_host_bandwidth()
    records = []
    total_numpy = total_compiled = 0.0
    coos = {}
    for key, fmt in scenario_pairs(keys):
        if key not in coos:
            coos[key] = generate(key, scale=scale)
        coo = coos[key]
        x = np.random.default_rng(0).standard_normal(coo.ncols)
        m = convert(coo, fmt)
        preds = {p.name: p for p in predict_spmv(m, bandwidth_gbs=host_gbs)}
        groups = {"numpy": {}, "compiled": {}}
        y = np.zeros(m.nrows, dtype=m.dtype)
        xd = x.astype(m.dtype)
        for spec in variants_for(m):
            tier = tier_of(spec.tags)
            if tier == "scipy":
                continue
            ws = Workspace()
            t = _best_seconds(lambda: spec.run(m, ws, xd, y), reps)
            groups[tier][spec.name] = t
        if not groups["compiled"]:
            continue  # no compiled backend on this host
        np_name = min(groups["numpy"], key=groups["numpy"].get)
        cc_name = min(groups["compiled"], key=groups["compiled"].get)
        t_np = groups["numpy"][np_name]
        t_cc = groups["compiled"][cc_name]
        total_numpy += t_np
        total_compiled += t_cc
        cc_gbs = preds[cc_name].bytes_per_call / t_cc / 1e9
        records.append(
            {
                "matrix": key,
                "format": fmt,
                "scale": scale,
                "nnz": m.nnz,
                "numpy_variant": np_name,
                "numpy_us": round(1e6 * t_np, 2),
                "numpy_gbs": round(
                    preds[np_name].bytes_per_call / t_np / 1e9, 3
                ),
                "compiled_variant": cc_name,
                "compiled_us": round(1e6 * t_cc, 2),
                "compiled_gbs": round(cc_gbs, 3),
                "speedup": round(t_np / t_cc, 3),
                "roofline_efficiency": round(cc_gbs / host_gbs, 3),
            }
        )
    summary = {
        "summary": True,
        "host_bandwidth_gbs": round(host_gbs, 3),
        "total_numpy_us": round(1e6 * total_numpy, 2),
        "total_compiled_us": round(1e6 * total_compiled, 2),
        "aggregate_speedup": round(total_numpy / total_compiled, 3)
        if total_compiled
        else None,
    }
    records.append(summary)
    return records


def run_shootout(scale=64, *, keys=TABLE1_KEYS, reps=5):
    """Table-I-style shootout across *every* registered format.

    Unlike :func:`run_engine_bench` (which probes the curated
    ``BENCH_FORMATS`` subset), this sweeps the full live roster from
    ``available_formats()`` — so a newly registered format lands in the
    ranking with zero bench edits.  Per (matrix, format) cell every
    spmv roster variant is timed and the best one reported with its
    effective GB/s against the Eq.-1 traffic model, the roofline
    efficiency vs the measured host copy bandwidth, and the wall-clock
    ratio vs the ``csr_scipy`` reference on the same matrix (the
    library-CSR baseline the CI gate compares newcomers against).  The
    summary record carries the GB/s ranking averaged across the suite
    and the worst newcomer-vs-baseline ratio.
    """
    from repro.engine import Workspace
    from repro.formats import available_formats, convert
    from repro.matrices import generate
    from repro.obs.profile import measure_host_bandwidth
    from repro.ops import get_variant, variants_for
    from repro.perfmodel.predict import predict_spmv
    from repro.scenarios.executors import tier_of

    host_gbs = measure_host_bandwidth()
    roster = tuple(available_formats())
    records = []
    gbs_by_fmt: dict = {fmt: [] for fmt in roster}
    for key in keys:
        coo = generate(key, scale=scale)
        x = np.random.default_rng(0).standard_normal(coo.ncols)
        # the library-CSR reference every cell is measured against
        crs = convert(coo, "CRS")
        ref_spec = next(
            (s for s in variants_for(crs) if s.name == "csr_scipy"), None
        )
        t_ref = None
        if ref_spec is not None:
            ws = Workspace()
            y = np.zeros(crs.nrows, dtype=crs.dtype)
            xd = x.astype(crs.dtype)
            t_ref = _best_seconds(lambda: ref_spec.run(crs, ws, xd, y), reps)
        for fmt in roster:
            m = convert(coo, fmt)
            preds = {
                p.name: p for p in predict_spmv(m, bandwidth_gbs=host_gbs)
            }
            y = np.zeros(m.nrows, dtype=m.dtype)
            xd = x.astype(m.dtype)
            timings = {}
            for spec in variants_for(m):
                ws = Workspace()
                timings[spec.name] = _best_seconds(
                    lambda: spec.run(m, ws, xd, y), reps
                )
            best = min(timings, key=timings.get)
            t = timings[best]
            gbs = preds[best].bytes_per_call / t / 1e9
            gbs_by_fmt[fmt].append(gbs)
            records.append(
                {
                    "matrix": key,
                    "format": fmt,
                    "scale": scale,
                    "nnz": m.nnz,
                    "bytes_per_row": round(m.nbytes / max(m.nrows, 1), 2),
                    "variant": best,
                    "tier": tier_of(get_variant(m, best).tags),
                    "variants_timed": len(timings),
                    "best_us": round(1e6 * t, 2),
                    "gflops": round(gflops(m.nnz, t), 4),
                    "gbs": round(gbs, 3),
                    "roofline_efficiency": round(gbs / host_gbs, 3),
                    "vs_csr_scipy": round(t / t_ref, 3) if t_ref else None,
                }
            )
    ranking = sorted(
        (
            (fmt, sum(v) / len(v))
            for fmt, v in gbs_by_fmt.items()
            if v
        ),
        key=lambda kv: -kv[1],
    )
    newcomer_rows = [
        r
        for r in records
        if r["format"] in ("CMRS", "ARG-CSR") and r["vs_csr_scipy"]
    ]
    records.append(
        {
            "summary": True,
            "host_bandwidth_gbs": round(host_gbs, 3),
            "formats_measured": sorted(gbs_by_fmt),
            "ranking": [
                {"format": fmt, "mean_gbs": round(g, 3)} for fmt, g in ranking
            ],
            "worst_newfmt_vs_csr_scipy": round(
                max(r["vs_csr_scipy"] for r in newcomer_rows), 3
            )
            if newcomer_rows
            else None,
        }
    )
    return records


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
        "--compiled", action="store_true",
        help="run the compiled-vs-vectorized comparison instead "
        "(writes BENCH_compiled.json unless --out is given)",
    )
    ap.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail (exit 1) when the --compiled aggregate speedup is "
        "below this (CI gate: 1.0; the repo target is 1.5)",
    )
    ap.add_argument(
        "--shootout", action="store_true",
        help="run the full-roster format shootout instead "
        "(writes BENCH_shootout.json unless --out is given)",
    )
    ap.add_argument(
        "--max-newfmt-ratio", type=float, default=1.5,
        help="fail (exit 1) when a CMRS/ARG-CSR cell is more than this "
        "factor slower than csr_scipy in --shootout mode",
    )
    args = ap.parse_args(argv)
    if args.compiled:
        out = "BENCH_compiled.json" if args.out == "BENCH_kernels.json" else args.out
        records = run_compiled_bench(args.scale, reps=args.reps)
        write_artifact(out, records)
        rows, summary = split_summary(records)
        if not rows:
            return no_data("no compiled backend available on this host")
        print(
            f"{'matrix':6s} {'format':12s} {'numpy':16s} {'compiled':14s} "
            f"{'np GB/s':>8s} {'cc GB/s':>8s} {'x':>6s} {'roof%':>6s}"
        )
        for r in rows:
            print(
                f"{r['matrix']:6s} {r['format']:12s} {r['numpy_variant']:16s} "
                f"{r['compiled_variant']:14s} {r['numpy_gbs']:8.2f} "
                f"{r['compiled_gbs']:8.2f} {r['speedup']:6.2f} "
                f"{100 * r['roofline_efficiency']:6.1f}"
            )
        print(
            f"wrote {out} ({len(rows)} records); aggregate compiled speedup "
            f"{summary['aggregate_speedup']:.2f}x at host bandwidth "
            f"{summary['host_bandwidth_gbs']:.1f} GB/s"
        )
        gates = GateSet()
        gates.at_least(
            summary["aggregate_speedup"], args.min_speedup,
            "aggregate speedup",
        )
        return gates.exit_code()
    if args.shootout:
        from repro.formats import available_formats

        out = "BENCH_shootout.json" if args.out == "BENCH_kernels.json" else args.out
        records = run_shootout(args.scale, reps=args.reps)
        write_artifact(out, records)
        rows, summary = split_summary(records)
        print(
            f"{'matrix':6s} {'format':14s} {'variant':16s} {'tier':9s} "
            f"{'us':>9s} {'GB/s':>7s} {'roof%':>6s} {'vs csr':>7s}"
        )
        for r in rows:
            ratio = f"{r['vs_csr_scipy']:7.2f}" if r["vs_csr_scipy"] else "      -"
            print(
                f"{r['matrix']:6s} {r['format']:14s} {r['variant']:16s} "
                f"{r['tier']:9s} {r['best_us']:9.2f} {r['gbs']:7.2f} "
                f"{100 * r['roofline_efficiency']:6.1f} {ratio}"
            )
        print("ranking (mean GB/s across the suite):")
        for i, e in enumerate(summary["ranking"], 1):
            print(f"  {i:2d}. {e['format']:14s} {e['mean_gbs']:7.2f}")
        print(
            f"wrote {out} ({len(rows)} records); worst CMRS/ARG-CSR ratio "
            f"vs csr_scipy {summary['worst_newfmt_vs_csr_scipy']} at host "
            f"bandwidth {summary['host_bandwidth_gbs']:.1f} GB/s"
        )
        gates = GateSet()
        measured = set(summary["formats_measured"])
        gates.require(
            measured == set(available_formats()),
            f"every registered format measured (missing: "
            f"{sorted(set(available_formats()) - measured)})",
        )
        if summary["worst_newfmt_vs_csr_scipy"] is not None:
            gates.at_most(
                summary["worst_newfmt_vs_csr_scipy"],
                args.max_newfmt_ratio,
                "worst new-format ratio vs csr_scipy",
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
        print(
            f"{r['matrix']:6s} {r['format']:12s} {r['variant']:16s} "
            f"{r['seed_gflops']:8.3f} {r['engine_gflops']:8.3f} "
            f"{r['engine_speedup']:6.2f} {r['spmm_speedup']:6.2f}"
        )
    print(f"wrote {args.out} ({len(records)} records)")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
