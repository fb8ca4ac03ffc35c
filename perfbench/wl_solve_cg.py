"""``solve-cg``: repeated unpreconditioned CG solves on a bound pJDS matrix.

The matrix is a diagonally shifted 5-point Poisson operator (SPD).  The
solver's own vector work and the spmv both block the result.  Size and
shift keep one solve near a third of a second, so a run holds about a
hundred solves and its median is steady.  The working set (about
26 MB) is far beyond the per-core caches but inside the sysfs LLC,
which a process on a shared host does not have to itself.
"""

from __future__ import annotations

import time

import numpy as np

import harness

NAME = "solve-cg"
NX = 512  # n = 262,144 rows, ~1.3M non-zeros
SHIFT = 1.0  # holds CG near 27 iterations at TOL
TOL = 1e-8
#: accepted true relative residual ||b - Ax|| / ||b|| (recursive vs true drift)
RESIDUAL_LIMIT = 10 * TOL
SETUP_REPS = 5
MIN_SOLVES = 2
#: seeded right-hand sides, used in turn
NRHS = 8
CG_VECTORS = 4  # x, r, p, Ap
#: kernel the solves run.  The autotuner's pick between jds_cc and
#: jds_scipy follows timing noise, and inside CG the two differ by almost
#: 2x on a 2-core host (OpenMP and OpenBLAS thread pools contend), so
#: set-up still autotunes, but the solves pin the kernel it picks most
#: often whenever the compiled tier offers it; its own pick is recorded
SOLVE_VARIANT = "jds_cc"


def shifted_poisson(nx: int, shift: float):
    from repro.formats import COOMatrix
    from repro.matrices.generators import poisson2d

    a = poisson2d(nx)
    vals = a.values.copy()
    vals[a.rows == a.cols] += shift
    return COOMatrix(a.rows, a.cols, vals, a.shape, sum_duplicates=False)


class Workload:
    name = NAME

    def prepare(self, seed: int, tracer) -> None:
        with tracer.span("matrices.generate"):
            self.coo = shifted_poisson(NX, SHIFT)
        self.ref = self.coo.to_scipy().tocsr()
        n = self.coo.nrows
        rng = np.random.default_rng(seed)
        self.x_check = rng.standard_normal(n)
        self.y_check = self.ref @ self.x_check
        self.bs = [rng.standard_normal(n) for _ in range(NRHS)]

    def _setup_once(self, tracer):
        from repro.engine import bind
        from repro.formats import convert
        from repro.matrices.cache import TunerCache

        t0 = time.perf_counter()
        with tracer.span("formats.convert"):
            mat = convert(self.coo, "pJDS")
        with tracer.span("engine.bind"):
            tune = bind(mat, cache=TunerCache(persist=False)).tune_result
        bound = bind(
            mat, variant=SOLVE_VARIANT if SOLVE_VARIANT in tune.timings else tune.variant
        )
        y = bound.spmv(self.x_check)
        ok = np.allclose(y, self.y_check, rtol=1e-12, atol=1e-12)
        return time.perf_counter() - t0, bound, tune, ok

    def run(self, seconds: float, tracer) -> dict:
        from repro.engine.bound import BoundMatrix
        from repro.ops.protocol import PermutedOperator
        from repro.solvers import conjugate_gradient

        rss0 = harness.reset_peak_rss()
        before = harness.hygiene_snapshot()
        setups, wrong = [], 0
        for _ in range(SETUP_REPS):
            bound = None  # drop the previous copy before building the next
            dt, bound, tune, ok = self._setup_once(tracer)
            setups.append(dt)
            wrong += not ok

        tracer.wrap(PermutedOperator, "apply", "ops.apply")
        tracer.wrap(BoundMatrix, "spmv_permuted", "engine.spmv")
        times, iters, residuals = [], [], []
        t_start = time.perf_counter()
        try:
            # stop before a solve that would, at the mean pace, overrun the window
            while len(times) < MIN_SOLVES or (
                time.perf_counter() - t_start + sum(times) / len(times) <= seconds
            ):
                b = self.bs[len(times) % NRHS]
                t0 = time.perf_counter()
                with tracer.span("solvers.cg"):
                    res = conjugate_gradient(bound, b, tol=TOL)
                times.append(time.perf_counter() - t0)
                iters.append(res.iterations)
                rel = float(np.linalg.norm(b - self.ref @ res.x) / np.linalg.norm(b))
                residuals.append(rel)
                wrong += not (res.converged and rel <= RESIDUAL_LIMIT)
        finally:
            tracer.unwrap()

        m = bound.matrix
        ws_bytes = int(m.nbytes) + CG_VECTORS * 8 * m.nrows
        layers = {
            "formats.stored_over_nnz": m.stored_elements / m.nnz,
            "engine.tune_candidates": len(tune.timings),
            "solvers.cg_iterations": float(np.median(iters)),
            **(self._layers(tracer, iters) if tracer.spans else {}),
        }
        variants = {"poisson2d-shifted": bound.variant_name, "autotuned": tune.variant}
        rss = harness.peak_rss_mb(rss0)
        solve_ms = np.asarray(times) * 1e3
        bound = m = None
        leaks = harness.hygiene_leaks(before)
        return {
            "e2e": {
                "setup_s": float(np.median(setups)),
                "p50_ms": float(np.median(solve_ms)),
                "throughput_rps": len(times) / sum(times),
                "peak_rss_mb": rss,
            },
            "attempted": len(times) + SETUP_REPS,
            "failures": {"wrong": wrong, "leaks": sum(leaks.values())},
            "info": {
                "solves": len(times),
                "solve_s": times,
                "setup_s": setups,
                "iterations": iters,
                "true_relres": residuals,
                "leaks": leaks,
                "working_set_bytes": ws_bytes,
                "variants": variants,
            },
            "layers": layers,
            **({"eq1": {
                "spmv_s_p50": layers["engine.spmv_us_p50"] / 1e6,
                "bytes": eq1_bytes(self.coo.nnz, self.coo.nrows),
            }} if tracer.spans else {}),
        }

    def _layers(self, tracer, iters) -> dict:
        kids = tracer.children()
        spmv = tracer.named("engine.spmv")
        apply_ = tracer.named("ops.apply")
        solves = tracer.named("solvers.cg")
        solve_s = sum(s.duration for s in solves)
        op_s = sum(s.duration for s in apply_)
        nnz = self.coo.nnz
        n = self.coo.nrows
        p50 = float(np.percentile([s.duration for s in spmv], 50))
        return {
            "formats.convert_s": float(
                np.median([s.duration for s in tracer.named("formats.convert")])
            ),
            "engine.bind_s": float(np.median([s.duration for s in tracer.named("engine.bind")])),
            "engine.spmv_calls": len(spmv),
            "engine.spmv_busy_s": sum(s.duration for s in spmv),
            "engine.spmv_us_p50": p50 * 1e6,
            "engine.spmv_gflops": 2.0 * nnz / p50 / 1e9,
            "engine.spmv_gbs_computed": eq1_bytes(nnz, n) / p50 / 1e9,
            "solvers.operator_s": op_s,
            "solvers.self_s": solve_s - op_s,
            "solvers.self_frac": (solve_s - op_s) / solve_s,
            "solvers.iter_ms": solve_s / sum(iters) * 1e3,
            "ops.apply_overhead_us": sum(tracer.self_time(s, kids) for s in apply_)
            / len(apply_) * 1e6,
        }


def eq1_bytes(nnz: int, nrows: int) -> float:
    """Eq. (1) traffic of one DP spmv at the RHS-reuse lower bound."""
    from repro.perfmodel.balance import alpha_bounds, code_balance_dp

    nnzr = nnz / nrows
    return 2.0 * nnz * code_balance_dp(alpha_bounds(nnzr)[0], nnzr)
