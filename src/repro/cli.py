"""Command-line interface: run the paper's experiments from a shell.

Examples
--------
::

    python -m repro suite                 # matrix statistics + reduction
    python -m repro table1 --scale 128    # the Table I performance grid
    python -m repro pcie                  # Eqs. (2)-(4) analysis
    python -m repro fig5 --matrix UHBR    # strong-scaling series
    python -m repro timeline --nodes 8    # Fig. 4 ASCII timeline
    python -m repro spmv matrix.mtx --format pJDS
    python -m repro spmv matrix.mtx --parallel 4   # 4 rank processes
    python -m repro engine tune sAMG --format pjds # autotuner decision
    python -m repro obs --format pjds --out trace.json \
        --metrics-out metrics.prom        # instrumented run + artifacts
    python -m repro serve --port 8080 --matrix sAMG --max-batch 32
                                          # micro-batching HTTP server
    python -m repro serve --fleet 4 --replicas 2
                                          # sharded, replicated fleet
    python -m repro fleet status --url http://127.0.0.1:8000

Heavy experiments accept ``--scale`` (matrix shrink factor relative to
the paper dimensions; larger = faster).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# subcommand implementations (print to a writable stream for testability)
# ---------------------------------------------------------------------------

def cmd_suite(args, out) -> int:
    from repro.formats import convert
    from repro.matrices import SUITE_KEYS, generate, structure_stats

    print(
        f"{'matrix':6s} {'rows':>8s} {'nnz':>10s} {'Nnzr':>7s} "
        f"{'min':>4s} {'max':>4s} {'reduction %':>11s}",
        file=out,
    )
    for key in SUITE_KEYS:
        coo = generate(key, scale=args.scale, seed=args.seed)
        st = structure_stats(coo)
        red = 100.0 * convert(coo, "pJDS").data_reduction_vs(
            convert(coo, "ELLPACK")
        )
        print(
            f"{key:6s} {st.nrows:8d} {st.nnz:10d} {st.nnzr:7.1f} "
            f"{st.min_row_length:4d} {st.max_row_length:4d} {red:11.1f}",
            file=out,
        )
    return 0


def cmd_table1(args, out) -> int:
    from repro.formats import convert
    from repro.gpu import C2070, extract_trace, run_kernel
    from repro.matrices import generate

    keys = ("DLR1", "DLR2", "HMEp", "sAMG")
    mats = {k: generate(k, scale=args.scale, seed=args.seed) for k in keys}
    print(
        f"{'config':10s} {'format':10s} " + " ".join(f"{k:>7s}" for k in keys),
        file=out,
    )
    for prec, dtype in (("SP", np.float32), ("DP", np.float64)):
        traces = {}
        base = C2070().scaled(args.scale)
        for key in keys:
            coo = mats[key].astype(dtype)
            for fmt in ("ELLPACK-R", "pJDS"):
                traces[(key, fmt)] = extract_trace(convert(coo, fmt), base, prec)
        for ecc in (0, 1):
            dev = C2070(ecc=bool(ecc)).scaled(args.scale)
            for fmt in ("ELLPACK-R", "pJDS"):
                cells = " ".join(
                    f"{run_kernel(traces[(k, fmt)], dev).gflops:7.1f}" for k in keys
                )
                print(f"{prec} ECC={ecc}   {fmt:10s} {cells}", file=out)
    return 0


def cmd_fig3(args, out) -> int:
    from repro.matrices import generate, row_length_histogram

    for key in ("DLR1", "DLR2", "HMEp", "sAMG"):
        coo = generate(key, scale=args.scale, seed=args.seed)
        h = row_length_histogram(coo)
        print(f"{key}: N={coo.nrows} Nnz={coo.nnz}", file=out)
        for start, count, share in h.as_rows():
            bar = "#" * max(int(44 * count / h.counts.max()), 1)
            print(f"  {start:4d} {share:9.2e} {bar}", file=out)
    return 0


def cmd_pcie(args, out) -> int:
    from repro.matrices import SUITE
    from repro.perfmodel import analyse

    alphas = {"HMEp": 0.73, "sAMG": 1.0, "DLR1": 0.25, "DLR2": 0.25, "UHBR": 0.25}
    print(
        f"{'matrix':6s} {'Nnzr':>6s} {'kernel':>7s} {'effective':>9s} "
        f"{'penalty':>8s} {'worthwhile':>10s}",
        file=out,
    )
    for key, spec in SUITE.items():
        a = analyse(spec.paper_dim, spec.paper_nnzr, alphas[key])
        print(
            f"{key:6s} {a.nnzr:6.1f} {a.kernel_gflops:7.1f} "
            f"{a.effective_gflops:9.1f} {a.pcie_penalty:8.2f} "
            f"{str(a.gpu_worthwhile):>10s}",
            file=out,
        )
    return 0


def cmd_fig5(args, out) -> int:
    from repro.distributed import KernelCost, strong_scaling
    from repro.gpu import C2050
    from repro.matrices import generate

    nodes = [1, 2, 4, 8, 16, 24, 32] if args.matrix == "DLR1" else [5, 8, 16, 24, 32]
    coo = generate(args.matrix, scale=args.scale, seed=args.seed)
    series = strong_scaling(
        coo,
        nodes,
        device=C2050(ecc=True),
        cost=KernelCost.from_alpha(0.25),
        workload_scale=args.scale,
        matrix_name=args.matrix,
    )
    print(f"{args.matrix} strong scaling (GF/s):", file=out)
    print("nodes   " + " ".join(f"{n:7d}" for n in nodes), file=out)
    for mode in ("vector", "naive", "task"):
        row = " ".join(f"{p.gflops:7.1f}" for p in series.series(mode))
        print(f"{mode:7s} {row}", file=out)
    print(file=out)
    print(series.render(), file=out)
    return 0


def cmd_timeline(args, out) -> int:
    from repro.distributed import (
        DIRAC_IB,
        KernelCost,
        build_plan,
        partition_rows,
        render_timeline,
        simulate_mode,
        stats_from_plan,
    )
    from repro.formats import CSRMatrix
    from repro.gpu import C2050
    from repro.matrices import generate

    coo = generate("DLR1", scale=args.scale, seed=args.seed)
    csr = CSRMatrix.from_coo(coo)
    part = partition_rows(csr.nrows, args.nodes, row_weights=csr.row_lengths())
    plan = build_plan(csr, part, with_matrices=False)
    stats = stats_from_plan(plan, itemsize=8, workload_scale=args.scale)
    res = simulate_mode(
        args.mode, stats, C2050(ecc=True), DIRAC_IB, KernelCost.from_alpha(0.25)
    )
    print(
        f"{args.mode} mode, {args.nodes} nodes: {res.gflops:.1f} GF/s",
        file=out,
    )
    print(render_timeline(res.timeline, rank=res.slowest_rank), file=out)
    return 0


def cmd_shootout(args, out) -> int:
    from repro.perfmodel.shootout import shootout, table

    rows = shootout((args.matrix,), args.scale, reps=5, seed=args.seed)
    print(
        f"{args.matrix} (1/{args.scale} scale), DP: host median of 5 laps; "
        "device model: C2070, ECC on",
        file=out,
    )
    for line in table(rows):
        print(line, file=out)
    return 0


def cmd_spmv(args, out) -> int:
    """``repro spmv FILE``: one spMVM with the format's rank-0 kernel.

    The serial product is the unbound ``fmt.spmv``, which runs the rank-0
    registry kernel (``csr_scipy`` for CRS); ``--parallel N`` runs the
    same kernel on each rank's row block.
    """
    from repro.formats import convert
    from repro.gpu import C2070, simulate_spmv
    from repro.matrices import read_matrix_market, structure_stats

    coo = read_matrix_market(args.matrix_file)
    st = structure_stats(coo)
    print(
        f"{args.matrix_file}: {st.nrows} x {st.ncols}, {st.nnz} non-zeros, "
        f"Nnzr = {st.nnzr:.1f}",
        file=out,
    )
    m = convert(coo, _resolve_format(args.format))
    print(f"{m.name}: {m.nbytes} bytes device storage", file=out)
    x = np.random.default_rng(args.seed).normal(size=coo.ncols).astype(m.dtype)
    if args.parallel:
        from repro.distributed import build_plan, distributed_spmv, partition_rows
        from repro.formats import CSRMatrix

        csr = CSRMatrix.from_coo(coo)
        nworkers = min(args.parallel, csr.nrows)
        part = partition_rows(csr.nrows, nworkers, row_weights=csr.row_lengths())
        y = distributed_spmv(
            build_plan(csr, part), x, backend="processes", mode=args.parallel_mode
        )
        print(
            f"parallel backend: {nworkers} row-block workers "
            f"({args.parallel_mode} mode)",
            file=out,
        )
    else:
        y = m.spmv(x)
    print(f"spMVM done; ||y|| = {float(np.linalg.norm(y)):.6g}", file=out)
    if st.nrows == st.ncols:
        try:
            rep = simulate_spmv(m, C2070(ecc=True))
            print(
                f"modelled C2070 (ECC on): {rep.gflops:.1f} GF/s "
                f"(balance {rep.code_balance:.2f} B/F)",
                file=out,
            )
        except TypeError:
            print("(no GPU model for this format)", file=out)
    return 0


def cmd_engine(args, out) -> int:
    """``repro engine tune <matrix>``: run (or replay) the autotuner."""
    from repro import obs
    from repro.engine import autotune, fingerprint, tune_candidates
    from repro.formats import convert
    from repro.matrices import generate
    from repro.matrices.cache import TunerCache

    fmt = _resolve_format(args.format)
    coo = generate(args.matrix, scale=args.scale, seed=args.seed)
    m = convert(coo, fmt)
    cache = TunerCache(persist=False) if args.no_cache else None
    with obs.span("cli.engine_tune", format=fmt, matrix=args.matrix):
        tr = autotune(
            m,
            reps=args.reps,
            seed=args.seed,
            cache=cache,
            use_cache=not args.no_cache,
        )
    print(
        f"{args.matrix} (1/{args.scale} scale) as {m.name}: "
        f"{m.nrows} x {m.ncols}, nnz = {m.nnz}",
        file=out,
    )
    print(f"fingerprint : {fingerprint(m)}", file=out)
    print(f"cache       : {'hit' if tr.cache_hit else 'miss'}", file=out)
    candidates = [v.name for v in tune_candidates(m)]
    print(f"candidates  : {candidates}", file=out)
    _print_timings(tr, out)
    print(f"chosen      : {tr.variant}", file=out)
    if tr.tier:
        print(f"tier        : {','.join(tr.tier)}", file=out)
    if args.explain:
        _print_explain(m, tr, out, lone=len(candidates) == 1)
    return 0


def _print_timings(tr, out) -> None:
    """The raced candidates' best times, fastest first."""
    if not tr.timings:
        return
    best = min(tr.timings.values())
    for name, secs in sorted(tr.timings.items(), key=lambda kv: kv[1]):
        mark = "  <- chosen" if name == tr.variant else ""
        print(
            f"  {name:16s} {secs * 1e6:10.1f} us ({secs / best:5.2f}x){mark}",
            file=out,
        )


def _print_explain(m, tr, out, lone: bool) -> None:
    """Eq.-1 prediction table for ``engine tune --explain``."""
    from repro.ops import kernel_tiers
    from repro.perfmodel.predict import explain_rows, predict_spmv

    rows = explain_rows(predict_spmv(m), timings=tr.timings or None)
    print("", file=out)
    print(f"model explain (tiers: {', '.join(kernel_tiers())})", file=out)
    print(
        f"  {'variant':16s} {'tier':13s} {'B [B/F]':>8s} {'pred us':>9s} "
        f"{'meas us':>9s} {'meas GB/s':>9s}",
        file=out,
    )
    for r in rows:
        meas = f"{r['measured_us']:9.1f}" if "measured_us" in r else f"{'-':>9s}"
        gbs = (
            f"{r['measured_gbs']:9.2f}"
            if r.get("measured_gbs") is not None
            else f"{'-':>9s}"
        )
        print(
            f"  {r['variant']:16s} {r['tier']:13s} "
            f"{r['balance_bytes_per_flop']:8.2f} {r['predicted_us']:9.1f} "
            f"{meas} {gbs}",
            file=out,
        )
    if lone:
        print(
            f"  {tr.variant} is the only candidate: chosen without timing",
            file=out,
        )


def cmd_ops(args, out) -> int:
    """``repro ops list``: the central kernel registry, live.

    Without ``--matrix`` the full registry snapshot is printed — one
    row per registered ``(format, op, variant)``, rank 0 being the
    untuned default.  With ``--matrix PATH`` (MatrixMarket) the file is
    converted to ``--format`` and the rosters that resolve for *that
    instance* are shown, followed by the autotuner's pick and timings.
    """
    from repro.ops import kernels_for, registry_rows

    if args.ops_command != "list":  # pragma: no cover - argparse enforces
        raise SystemExit(f"unknown ops command {args.ops_command!r}")

    if args.matrix is None:
        rows = registry_rows()
        w = max(len("format"), *(len(r["format"]) for r in rows))
        print(f"{'format':{w}s} {'op':5s} {'variant':18s} "
              f"{'rank':>4s} {'perm':>5s} tags", file=out)
        for r in rows:
            print(
                f"{r['format']:{w}s} {r['op']:5s} {r['variant']:18s} "
                f"{r['rank']:4d} {'yes' if r['supports_permuted'] else '-':>5s} "
                f"{','.join(r['tags']) or '-'}",
                file=out,
            )
        print(f"{len(rows)} kernels registered "
              f"(rank 0 is what the unbound spmv/spmm run)", file=out)
        from repro.ops import kernel_tiers

        print(f"kernel tiers: {', '.join(kernel_tiers())}", file=out)
        return 0

    from repro.engine import autotune
    from repro.formats import convert
    from repro.matrices import read_matrix_market

    coo = read_matrix_market(args.matrix)
    m = convert(coo, _resolve_format(args.format))
    print(
        f"{args.matrix} as {m.name}: {m.nrows} x {m.ncols}, nnz = {m.nnz}",
        file=out,
    )
    for op in ("spmv", "spmm"):
        specs = kernels_for(m, op)
        names = [s.name for s in specs] or ["(per-column spmv loop)"]
        print(f"{op} candidates : {names}", file=out)
    tr = autotune(m, use_cache=False)
    _print_timings(tr, out)
    print(f"tuned variant  : {tr.variant}", file=out)
    return 0


def _resolve_format(name: str) -> str:
    """Case/punctuation-insensitive format lookup (``pjds`` -> ``pJDS``)."""
    from repro.formats import available_formats

    canon = {n.lower().replace("-", "").replace("_", ""): n for n in available_formats()}
    key = name.lower().replace("-", "").replace("_", "")
    if key not in canon:
        raise SystemExit(
            f"unknown format {name!r}; available: {available_formats()}"
        )
    return canon[key]


def _serve_fleet(args, out) -> int:
    """Fleet branch of ``repro serve``: N shards behind the router.

    Matrices are materialised up front (row blocks have to be cut and
    shipped to shards) and served as CRS; shards bind their blocks
    untuned, to the format's deterministic rank-0 kernels, so sharded
    answers stay bitwise-equal to a single server's.  Each shard keeps
    its ``--workers`` threads from start to shutdown.  A set-up failure
    closes the shards before it propagates; once serving,
    ``run_http_server`` closes them.
    """
    from repro.formats import convert
    from repro.matrices import generate
    from repro.serve import Fleet, FleetRouter, run_http_server

    fleet = Fleet(
        args.fleet,
        mode=args.fleet_mode,
        workers=args.workers,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        policy=args.policy,
    )
    hedge_ms = args.hedge_ms if args.replicas > 1 else None
    try:
        router = FleetRouter(
            fleet,
            replicas=args.replicas,
            blocks=args.blocks,
            seed=args.seed,
            hedge_delay_ms=hedge_ms,
        )
        for spec in args.matrix or ["sAMG"]:
            name, _, key = spec.partition("=")
            router.register(
                name, convert(generate(key or name, scale=args.scale,
                                       seed=args.seed), "CRS")
            )
        for path in args.mtx:
            from pathlib import Path

            from repro.matrices import read_matrix_market

            router.register(
                Path(path).stem, convert(read_matrix_market(path), "CRS")
            )
        print(
            f"fleet: {args.fleet} {args.fleet_mode} shard(s), "
            f"replicas={args.replicas}, "
            f"blocks={args.blocks or args.fleet}/matrix, "
            f"hedge={'off' if hedge_ms is None else f'{hedge_ms:g}ms'} "
            f"— GET /fleetz",
            file=out,
        )
    except BaseException:
        fleet.close()
        raise
    return run_http_server(router, args.host, args.port, out=out)


def cmd_serve(args, out) -> int:
    """``repro serve --port N``: boot the HTTP serving front-end.

    Registers the requested suite matrices (lazy: assembled + autotuned
    on first request), builds the micro-batching scheduler with the
    given admission-control policy, and serves ``/v1/spmv``,
    ``/v1/solve``, ``/healthz`` and ``/statz`` until interrupted.
    With ``--fleet N`` the backend is N sharded servers behind the
    scatter/gather :class:`~repro.serve.router.FleetRouter` instead
    (adds ``/fleetz``; see ``repro fleet status``).
    """
    from repro import obs
    from repro.serve import Client, MatrixRegistry, SpMVServer, run_http_server

    if args.obs:
        obs.enable()
    if args.fleet:
        return _serve_fleet(args, out)
    budget = None if args.budget_mb is None else int(args.budget_mb * 2**20)
    registry = MatrixRegistry(budget_bytes=budget)
    for spec in args.matrix or ["sAMG"]:
        name, _, key = spec.partition("=")
        registry.register_suite(
            name, key or name, fmt=_resolve_format(args.format),
            scale=args.scale, seed=args.seed,
        )
    for path in args.mtx:
        from pathlib import Path

        from repro.formats import convert
        from repro.matrices import read_matrix_market

        coo = read_matrix_market(path)
        registry.register(
            Path(path).stem, matrix=convert(coo, _resolve_format(args.format))
        )
    server = SpMVServer(
        registry,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        policy=args.policy,
        workers=args.workers,
    )
    print(
        f"serving {registry.names()} as {args.format} "
        f"(max_batch={args.max_batch}, "
        f"policy={args.policy}, {args.workers} workers)",
        file=out,
    )
    return run_http_server(Client(server), args.host, args.port, out=out)


def cmd_fleet(args, out) -> int:
    """``repro fleet status --url ...``: render a running fleet's /fleetz.

    Prints per-shard liveness / queue depth / worker counts and the
    block placement of every registered matrix.  ``--json`` dumps the
    raw payload instead.
    """
    import json as _json
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/fleetz"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as resp:
            payload = _json.load(resp)
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            detail = _json.load(exc).get("error", "")
        except Exception:  # noqa: BLE001 - body is best-effort
            pass
        print(f"fleet status failed: HTTP {exc.code} {detail}".rstrip(),
              file=out)
        return 1
    except OSError as exc:
        print(f"fleet status failed: cannot reach {url}: {exc}", file=out)
        return 1
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0

    req = payload.get("requests", {})
    print(
        f"fleet: {payload.get('nshards')} {payload.get('mode')} shard(s), "
        f"replicas={payload.get('replicas')}, "
        f"requests ok={req.get('ok', 0)} degraded={req.get('degraded', 0)} "
        f"partial={req.get('partial', 0)} error={req.get('error', 0)}, "
        f"hedges={payload.get('hedges', 0)} "
        f"failovers={payload.get('failovers', 0)}",
        file=out,
    )
    print("shards:", file=out)
    for row in payload.get("shards", []):
        if row.get("alive"):
            print(
                f"  shard {row['shard']}: up, "
                f"queue={row.get('queue_depth', 0)}, "
                f"workers={row.get('live_workers', row.get('workers', '?'))}",
                file=out,
            )
        else:
            print(
                f"  shard {row['shard']}: DOWN ({row.get('reason', '?')})",
                file=out,
            )
    placements = payload.get("placements", {})
    if placements:
        print("placement:", file=out)
        for name in sorted(placements):
            pl = placements[name]
            blocks = " ".join(
                f"[{b['rows'][0]}:{b['rows'][1]})->"
                + ",".join(str(s) for s in b["replicas"])
                for b in pl.get("blocks", [])
            )
            print(f"  {name}: {blocks}", file=out)
    return 0


def _obs_trace(args, out) -> int:
    """``repro obs trace [<id>] --in FILE``: reconstruct a causal tree.

    Reads a span dump (the JSONL written by ``--jsonl-out``,
    ``repro chaos --trace-out`` or an instrumented server) and renders
    the requested trace; ``--list`` (or omitting the id) indexes every
    trace in the dump instead.  Trace ids may be abbreviated to any
    unique prefix.
    """
    from repro import obs

    if not args.infile:
        print(
            "obs trace needs a span dump: pass --in FILE "
            "(write one with 'repro obs --jsonl-out FILE' or "
            "'repro chaos --trace-out FILE')",
            file=out,
        )
        return 2
    try:
        spans = obs.read_spans_jsonl(args.infile)
    except OSError as exc:
        print(f"cannot read span dump {args.infile}: {exc.strerror or exc}", file=out)
        return 2
    if not spans:
        print(f"no spans found in {args.infile}", file=out)
        return 2
    if args.list or not args.trace_id:
        rows = obs.list_traces(spans)
        print(f"{'trace':<18} {'root':<24} {'spans':>5} {'ms':>10} faults", file=out)
        for r in rows:
            print(
                f"{r['trace_id']:<18} {r['root']:<24} {r['spans']:>5} "
                f"{r['duration_s'] * 1e3:>10.3f} {r['faults'] or ''}",
                file=out,
            )
        print(f"{len(rows)} trace(s), {len(spans)} span(s)", file=out)
        return 0
    try:
        tid = obs.find_trace_id(args.trace_id, spans)
    except (KeyError, ValueError) as exc:
        print(str(exc.args[0] if exc.args else exc), file=out)
        return 2
    obs.render_trace(tid, spans, out=out)
    return 0


def _obs_top(args, out) -> int:
    """``repro obs top``: roofline attribution table for the suite.

    Runs instrumented SpMV over the requested generator matrices and
    formats, then prints the per-(matrix, format, variant) attribution
    table: achieved GF/s and GB/s against the Eq. (1) code-balance
    prediction at the measured host bandwidth.
    """
    from repro import obs
    from repro.engine import bind
    from repro.formats import convert
    from repro.matrices import generate

    matrices = [m.strip() for m in args.matrices.split(",") if m.strip()]
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    was_enabled = obs.enabled()
    obs.enable()
    obs.profile.reset_profile()
    obs.profile.set_sample_every(1)
    try:
        rng = np.random.default_rng(args.seed)
        for key in matrices:
            coo = generate(key, scale=args.scale, seed=args.seed)
            x = rng.normal(size=coo.ncols)
            for fname in formats:
                m = convert(coo, _resolve_format(fname))
                b = bind(m, label=key, tune=not args.no_tune)
                for _ in range(args.reps):
                    b.spmv(x)
        print(
            obs.profile.render_table(
                bandwidth_gbs=args.bandwidth, limit=args.limit
            ),
            file=out,
        )
    finally:
        if not was_enabled:
            obs.disable()
    return 0


def cmd_obs(args, out) -> int:
    """Run an instrumented workload; dump trace + metrics artifacts.

    Exercises every instrumented layer once — the GPU execution model
    (``spmv_bytes_total``, ``cache_hit_ratio``), the real threaded
    ``distributed_spmv`` (``rank.*`` spans, ``halo_bytes_sent``), the
    simulated Fig. 4 task-mode timeline (one span per rank/resource)
    and a CG solve (residual gauges) — then writes the Chrome
    trace-event JSON and Prometheus text artifacts.

    ``repro obs trace`` and ``repro obs top`` dispatch to the trace
    reconstructor and the attribution profiler instead.
    """
    sub = getattr(args, "obs_command", None)
    if sub == "trace":
        return _obs_trace(args, out)
    if sub == "top":
        return _obs_top(args, out)

    from repro import obs
    from repro.distributed import (
        DIRAC_IB,
        KernelCost,
        build_plan,
        distributed_spmv,
        partition_rows,
        simulate_mode,
        stats_from_plan,
    )
    from repro.formats import CSRMatrix, convert
    from repro.gpu import C2050, C2070, simulate_spmv
    from repro.matrices import generate, poisson2d
    from repro.solvers import conjugate_gradient

    fmt = _resolve_format(args.format)
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset_all()
    try:
        coo = generate(args.matrix, scale=args.scale, seed=args.seed)

        # 1. GPU execution model -> spmv_* metrics incl. cache_hit_ratio
        with obs.span("simulate_spmv", format=fmt, matrix=args.matrix):
            rep = simulate_spmv(
                convert(coo, fmt), C2070(ecc=True).scaled(args.scale)
            )
        print(
            f"kernel model [{fmt}]: {rep.gflops:.1f} GF/s, "
            f"balance {rep.code_balance:.2f} B/F, "
            f"cache hit ratio {rep.cache_hit_ratio:.2f}",
            file=out,
        )

        # 2. real threaded exchange -> rank.* spans + halo_bytes_sent
        csr = CSRMatrix.from_coo(coo)
        part = partition_rows(
            csr.nrows, args.nodes, row_weights=csr.row_lengths()
        )
        plan = build_plan(csr, part)
        x = np.random.default_rng(args.seed).normal(size=csr.nrows)
        y = distributed_spmv(plan, x)
        print(
            f"distributed spMVM on {args.nodes} ranks: "
            f"||y|| = {float(np.linalg.norm(y)):.6g}",
            file=out,
        )

        # 3. simulated Fig. 4 timeline -> one span per rank per resource
        stats = stats_from_plan(plan, itemsize=8, workload_scale=args.scale)
        res = simulate_mode(
            args.mode, stats, C2050(ecc=True), DIRAC_IB, KernelCost.from_alpha(0.25)
        )
        print(
            f"{args.mode} mode simulation: {res.gflops:.1f} GF/s "
            f"({res.iteration_seconds * 1e6:.1f} us/iteration)",
            file=out,
        )

        # 4. solver convergence gauges
        pois = convert(poisson2d(24, 24), fmt)
        cg = conjugate_gradient(pois, np.ones(pois.nrows, dtype=pois.dtype))
        print(
            f"CG on poisson2d(24,24): {cg.iterations} iterations, "
            f"residual {cg.residual_norm:.3e}",
            file=out,
        )

        spans = obs.get_tracer().finished()
        families = obs.get_registry().families()
        print(
            f"recorded {len(spans)} spans, {len(families)} metric families",
            file=out,
        )
        if args.out:
            n_events = obs.write_chrome_trace(args.out)
            print(
                f"wrote {n_events} trace events to {args.out} "
                "(open in chrome://tracing or ui.perfetto.dev)",
                file=out,
            )
        if args.metrics_out:
            text = obs.prometheus_text()
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(
                f"wrote {len(text.splitlines())} metric lines to "
                f"{args.metrics_out}",
                file=out,
            )
        if args.jsonl_out:
            n_lines = obs.write_jsonl(args.jsonl_out)
            print(f"wrote {n_lines} JSONL records to {args.jsonl_out}", file=out)
    finally:
        if not was_enabled:
            obs.disable()
    return 0


def cmd_chaos(args, out) -> int:
    """Replay a named fault plan against the real runtime; report recovery.

    Two drill phases, selected by the layers present in the plan:

    * **distributed** — run ``distributed_spmv`` under injection with a
      retry policy and assert the recovered result is bitwise identical
      to a fault-free run of the same plan;
    * **serve** — run an :class:`~repro.serve.scheduler.SpMVServer`
      under worker/registry faults with a retrying client and assert
      every request still gets the right answer (degraded mode counts
      as success — that is its job).

    Exit code 0 means every injected fault was recovered from.
    """
    import json as _json

    from repro import obs
    from repro.distributed import build_plan, distributed_spmv, partition_rows
    from repro.faults import FaultPlan, RetryPolicy
    from repro.formats import CSRMatrix
    from repro.matrices import generate

    try:
        plan = FaultPlan.named(
            args.plan, nranks=args.nodes, workers=args.workers,
            delay_s=args.delay_ms / 1e3,
        )
    except ValueError:
        try:
            seed = int(args.plan)
        except ValueError:
            from repro.faults import NAMED_PLANS

            print(
                f"unknown plan {args.plan!r}; known: "
                f"{sorted(NAMED_PLANS)} or an integer seed",
                file=out,
            )
            return 2
        plan = FaultPlan.generate(
            seed, nranks=args.nodes, workers=args.workers,
            delay_s=args.delay_ms / 1e3,
        )
    plan.validate()
    print(plan.describe(), file=out)

    was_enabled = obs.enabled()
    obs.enable()
    obs.reset_all()
    injector = plan.injector()
    retry = RetryPolicy(max_attempts=args.attempts, base_delay_s=0.0)
    ok = True
    try:
        layers = {ev.layer for ev in plan.events}
        coo = generate(args.matrix, scale=args.scale, seed=args.seed)
        csr = CSRMatrix.from_coo(coo)

        if layers & {"distributed", "sim", "engine"} or not layers:
            part = partition_rows(
                csr.nrows, args.nodes, row_weights=csr.row_lengths()
            )
            comm_plan = build_plan(csr, part)
            x = np.random.default_rng(args.seed).normal(size=csr.nrows)
            y_ref = distributed_spmv(
                comm_plan, x, backend=args.backend, mode=args.mode,
                timeout=args.timeout,
            )
            try:
                y = distributed_spmv(
                    comm_plan, x, backend=args.backend, mode=args.mode,
                    timeout=args.timeout, faults=injector, retry=retry,
                )
                identical = bool(np.array_equal(y, y_ref))
                print(
                    f"distributed drill [{args.backend}/{args.mode}]: "
                    + ("recovered, bitwise-identical result"
                       if identical else "RESULT DIVERGED"),
                    file=out,
                )
                ok &= identical
            except Exception as exc:
                print(
                    f"distributed drill [{args.backend}/{args.mode}]: "
                    f"UNRECOVERED {type(exc).__name__}: {exc}",
                    file=out,
                )
                ok = False

        if "serve" in layers:
            from repro.serve import Client, MatrixRegistry, SpMVServer

            registry = MatrixRegistry(faults=injector)
            registry.register("chaos", matrix=csr, variant="csr_scipy")
            server = SpMVServer(
                registry, workers=args.workers, faults=injector,
            )
            client = Client(server, retry=retry)
            rng = np.random.default_rng(args.seed)
            ref_reg = MatrixRegistry()
            ref_reg.register("chaos", matrix=csr, variant="csr_scipy")
            with ref_reg.acquire("chaos") as lease:
                bound = lease.clone_for("cli")
                served_ok = 0
                for _ in range(args.requests):
                    xs = rng.normal(size=csr.ncols)
                    try:
                        ys = client.spmv("chaos", xs, timeout=args.timeout)
                        if np.array_equal(ys, bound.spmv(xs).copy()):
                            served_ok += 1
                    except Exception as exc:
                        print(
                            f"serve drill: request failed "
                            f"{type(exc).__name__}: {exc}",
                            file=out,
                        )
            stats = server.stats()
            server.close()
            degraded = " (degraded mode)" if stats["degraded"] else ""
            print(
                f"serve drill: {served_ok}/{args.requests} requests "
                f"correct{degraded}, worker deaths: "
                f"{len(stats['worker_deaths'])}",
                file=out,
            )
            ok &= served_ok == args.requests

        if args.trace_out:
            n_lines = obs.write_jsonl(args.trace_out)
            print(
                f"wrote {n_lines} span/metric records to {args.trace_out}",
                file=out,
            )
        faulted = sorted(
            {
                s.trace_id
                for s in obs.get_tracer().finished()
                if s.trace_id
                and (s.name.startswith("fault.") or "fault" in s.attrs)
            }
        )
        if faulted:
            shown = ", ".join(faulted[:4])
            more = f" (+{len(faulted) - 4} more)" if len(faulted) > 4 else ""
            print(f"faulted trace(s): {shown}{more}", file=out)
            if args.trace_out:
                print(
                    f"inspect: repro obs trace {faulted[0]} "
                    f"--in {args.trace_out}",
                    file=out,
                )

        report = injector.report()
        report["unfired"] = [ev.describe() for ev in injector.unfired()]
        def _counter_total(name: str) -> float:
            fam = obs.get_registry().get(name)
            if fam is None:
                return 0.0
            return sum(child.value for _, child in fam.samples())

        counters = {
            name: _counter_total(name)
            for name in (
                "faults_injected_total",
                "faults_retries_total",
                "faults_recovered_total",
            )
        }
        report["obs_counters"] = counters
        report["recovered_all"] = ok
        if args.json:
            print(_json.dumps(report, indent=2), file=out)
        else:
            print(
                f"injected {report['injected']} fault(s) "
                f"({', '.join(f'{k} x{v}' for k, v in sorted(report['injected_by_kind'].items()))}); "
                f"retried {report['retried']}, recovered {report['recovered']}",
                file=out,
            )
            if report["unfired"]:
                print(
                    f"unfired events ({len(report['unfired'])}):", file=out
                )
                for line in report["unfired"]:
                    print(f"  {line}", file=out)
            print(f"obs counters: {counters}", file=out)
            print(
                "verdict: "
                + ("all faults recovered" if ok else "UNRECOVERED FAULTS"),
                file=out,
            )
    finally:
        if not was_enabled:
            obs.disable()
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _int_at_least(lo: int):
    """An argparse ``type``: an int no smaller than ``lo``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="pJDS spMVM reproduction: run the paper's experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scale_default=64):
        p.add_argument("--scale", type=int, default=scale_default,
                       help="matrix shrink factor vs paper size")
        p.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("suite", help="suite matrix statistics"))
    common(sub.add_parser("table1", help="Table I performance grid"))
    common(sub.add_parser("fig3", help="row-length histograms"), 256)
    sub.add_parser("pcie", help="Eqs. (2)-(4) PCIe analysis")

    p5 = sub.add_parser("fig5", help="strong scaling series")
    common(p5, 32)
    p5.add_argument("--matrix", choices=("DLR1", "UHBR"), default="DLR1")

    psh = sub.add_parser("shootout", help="all formats on one matrix")
    common(psh, 128)
    psh.add_argument(
        "--matrix", choices=("DLR1", "DLR2", "HMEp", "sAMG", "UHBR"),
        default="sAMG",
    )

    pt = sub.add_parser("timeline", help="Fig. 4 event timeline")
    common(pt, 32)
    pt.add_argument("--nodes", type=int, default=4)
    pt.add_argument("--mode", choices=("vector", "naive", "task"), default="task")

    ps = sub.add_parser(
        "spmv",
        help="run spMVM (the format's rank-0 kernel) on a MatrixMarket file",
    )
    ps.add_argument("matrix_file")
    ps.add_argument("--format", default="pJDS")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument(
        "--parallel", type=int, default=0, metavar="N",
        help="run through the rank pool with N row-block worker processes",
    )
    ps.add_argument(
        "--parallel-mode", choices=("vector", "task"), default="vector",
        help="worker kernel split (vector = bitwise-matches serial)",
    )

    pe = sub.add_parser("engine", help="execution-engine utilities")
    esub = pe.add_subparsers(dest="engine_command", required=True)
    pet = esub.add_parser(
        "tune", help="autotune kernel variants for a generator matrix"
    )
    common(pet)
    pet.add_argument(
        "matrix", choices=("DLR1", "DLR2", "HMEp", "sAMG", "UHBR"),
        help="generator matrix to tune on",
    )
    pet.add_argument("--format", default="pJDS",
                     help="storage format (case-insensitive, e.g. pjds)")
    pet.add_argument("--reps", type=int, default=5,
                     help="timing repetitions per candidate")
    pet.add_argument("--no-cache", action="store_true",
                     help="ignore and do not write the tuner cache")
    pet.add_argument(
        "--explain", action="store_true",
        help="print the model's prediction table next to the timings",
    )

    pop = sub.add_parser(
        "ops", help="central kernel registry introspection"
    )
    osub = pop.add_subparsers(dest="ops_command", required=True)
    pol = osub.add_parser(
        "list", help="list registered (format, op, variant) kernels"
    )
    pol.add_argument(
        "--matrix", default=None, metavar="PATH",
        help="MatrixMarket file: show the rosters resolving for this "
             "instance plus the autotuned pick",
    )
    pol.add_argument("--format", default="pJDS",
                     help="storage format for --matrix (case-insensitive)")

    pv = sub.add_parser(
        "serve", help="HTTP SpMV/solver server with micro-batching"
    )
    common(pv)
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument("--port", type=int, default=8000,
                    help="listen port (0 picks a free one)")
    pv.add_argument(
        "--matrix", action="append", default=None, metavar="NAME[=KEY]",
        help="suite matrix to serve (repeatable; default: sAMG). "
             "NAME=KEY serves generator KEY under the name NAME",
    )
    pv.add_argument("--mtx", action="append", default=[], metavar="PATH",
                    help="MatrixMarket file to serve under its stem name")
    pv.add_argument("--format", default="pJDS",
                    help="storage format (case-insensitive, e.g. pjds)")
    pv.add_argument("--max-batch", type=int, default=16,
                    help="most vectors coalesced into one spmm call")
    pv.add_argument("--max-queue", type=int, default=256,
                    help="admission bound on queued requests")
    pv.add_argument("--policy", choices=("block", "reject", "shed-oldest"),
                    default="block", help="backpressure policy at the bound")
    pv.add_argument("--workers", type=int, default=2,
                    help="batch-executing worker threads")
    pv.add_argument("--budget-mb", type=float, default=None,
                    help="registry byte budget (LRU-evicts idle matrices)")
    pv.add_argument("--obs", action="store_true",
                    help="enable repro.obs (spans + /statz?format=prometheus)")
    pv.add_argument("--fleet", type=_int_at_least(0), default=0, metavar="N",
                    help="run N server shards behind the scatter/gather "
                         "router instead of one in-process server")
    pv.add_argument("--replicas", type=int, default=1, metavar="R",
                    help="copies of each row block across shards "
                         "(fleet mode; R <= N)")
    pv.add_argument("--fleet-mode", choices=("process", "inproc"),
                    default="process",
                    help="shard transport: separate OS processes or "
                         "threads in this process")
    pv.add_argument("--blocks", type=_int_at_least(1), default=None,
                    help="row blocks per matrix (fleet mode; default: "
                         "one per shard)")
    pv.add_argument("--hedge-ms", type=float, default=20.0,
                    help="router hedge delay before racing a second "
                         "replica (fleet mode with --replicas >= 2)")

    pf = sub.add_parser(
        "fleet", help="inspect a running serve fleet over HTTP"
    )
    fsub = pf.add_subparsers(dest="fleet_command", required=True)
    pfs = fsub.add_parser(
        "status", help="per-shard liveness, queue depth and block placement"
    )
    pfs.add_argument("--url", default="http://127.0.0.1:8000",
                     help="base URL of the serve front-end")
    pfs.add_argument("--timeout", type=float, default=5.0)
    pfs.add_argument("--json", action="store_true",
                     help="print the raw /fleetz payload")

    from repro.distributed.runtime import _BACKENDS, RUNTIME_MODES
    from repro.faults import NAMED_PLANS
    from repro.matrices import SUITE_KEYS

    pc = sub.add_parser(
        "chaos", help="replay a fault plan against the runtime; report recovery"
    )
    common(pc)
    pc.add_argument(
        "--plan", default="smoke",
        help="named fault plan "
             f"({'/'.join(sorted(NAMED_PLANS))}) "
             "or an integer seed for a generated plan",
    )
    pc.add_argument("--backend", choices=_BACKENDS,
                    default="threads", help="distributed runtime backend")
    pc.add_argument("--mode", choices=RUNTIME_MODES, default="vector",
                    help="runtime schedule (task overlaps local kernel)")
    pc.add_argument(
        "--matrix", choices=SUITE_KEYS,
        default="sAMG",
    )
    pc.add_argument("--nodes", type=int, default=4, help="ranks in the drill")
    pc.add_argument("--workers", type=int, default=2,
                    help="serve workers (serve-layer plans)")
    pc.add_argument("--requests", type=int, default=8,
                    help="client requests in the serve drill")
    pc.add_argument("--attempts", type=int, default=3,
                    help="retry policy: attempts per failed unit")
    pc.add_argument("--timeout", type=float, default=5.0,
                    help="halo-exchange / request timeout (s)")
    pc.add_argument("--delay-ms", type=float, default=20.0,
                    help="injected delay for slow/late faults")
    pc.add_argument("--json", action="store_true",
                    help="print the recovery report as JSON")
    pc.add_argument("--trace-out", default=None, metavar="PATH",
                    help="write the drill's spans as JSONL for "
                         "'repro obs trace --in PATH'")

    po = sub.add_parser(
        "obs", help="instrumented run: dump Chrome trace + Prometheus metrics"
    )
    common(po, 256)
    po.add_argument("--format", default="pJDS",
                    help="storage format (case-insensitive, e.g. pjds)")
    po.add_argument(
        "--matrix", choices=SUITE_KEYS,
        default="sAMG",
    )
    po.add_argument("--nodes", type=int, default=4)
    po.add_argument("--mode", choices=("vector", "naive", "task"), default="task")
    po.add_argument("--out", default=None,
                    help="Chrome trace-event JSON output path")
    po.add_argument("--metrics-out", default=None,
                    help="Prometheus text exposition output path")
    po.add_argument("--jsonl-out", default=None,
                    help="JSONL (spans + metrics) output path")
    # subcommands ride alongside the legacy flat flags: a bare
    # ``repro obs --out ...`` still runs the instrumented workload
    obsub = po.add_subparsers(dest="obs_command", required=False)
    pot = obsub.add_parser(
        "trace", help="reconstruct one request's causal tree from a span dump"
    )
    pot.add_argument("trace_id", nargs="?", default=None,
                     help="trace id (any unique prefix); omit to list")
    pot.add_argument("--in", dest="infile", default=None, metavar="FILE",
                     help="JSONL span dump to read (required)")
    pot.add_argument("--list", action="store_true",
                     help="index every trace in the dump")
    ptop = obsub.add_parser(
        "top", help="roofline attribution table (achieved vs Eq. 1 model)"
    )
    ptop.add_argument("--matrices", default="DLR1,DLR2,HMEp,sAMG,UHBR",
                      help="comma-separated generator matrices")
    ptop.add_argument("--formats", default="CRS,pJDS",
                      help="comma-separated storage formats")
    ptop.add_argument("--reps", type=int, default=20,
                      help="spmv repetitions per (matrix, format)")
    ptop.add_argument("--limit", type=int, default=None,
                      help="show only the top N rows by total time")
    ptop.add_argument("--bandwidth", type=float, default=None,
                      help="model bandwidth GB/s (default: measure host)")
    ptop.add_argument("--no-tune", action="store_true",
                      help="skip autotuning; use each format's default kernel")
    return parser


_COMMANDS = {
    "shootout": cmd_shootout,
    "suite": cmd_suite,
    "table1": cmd_table1,
    "fig3": cmd_fig3,
    "pcie": cmd_pcie,
    "fig5": cmd_fig5,
    "timeline": cmd_timeline,
    "spmv": cmd_spmv,
    "engine": cmd_engine,
    "ops": cmd_ops,
    "obs": cmd_obs,
    "serve": cmd_serve,
    "fleet": cmd_fleet,
    "chaos": cmd_chaos,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.fleet and not 1 <= args.replicas <= args.fleet:
        parser.error(
            f"--replicas must be in [1, {args.fleet}] with --fleet "
            f"{args.fleet}, got {args.replicas}"
        )
    return _COMMANDS[args.command](args, out or sys.stdout)
