"""Executor bindings: how one :class:`ScenarioCell` actually runs.

Each executor takes a cell's axes and returns a plain result dict —
``{"status": "ok" | "skip" | "fail", ...}`` — so the CLI, pytest
wrappers, and CI gates all consume the same rows.  ``ok`` means the
cell's invariant held (parity bitwise/allclose, chaos recovered or
exhausted as planned, serve/fleet round-trip bitwise); ``skip`` means
the cell is not runnable on this host (e.g. the compiled tier has no
kernels for that format); anything else is a failure.

Executors deliberately reuse the *same* entry points the hand-written
tests exercised — ``bind`` for parity, ``distributed_spmv`` for chaos,
``SpMVServer``/``Client`` for serve, ``Fleet``/``FleetRouter`` for
fleet — so a red cell points at the same code path the old suite
would have caught.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

__all__ = [
    "EXECUTORS",
    "apply_env",
    "executor_names",
    "register_executor",
    "run_cell",
]

EXECUTORS = {}

def register_executor(name: str):
    """Class decorator-free registration: ``@register_executor("x")``."""

    def deco(fn):
        EXECUTORS[name] = fn
        return fn

    return deco


def executor_names() -> tuple:
    return tuple(sorted(EXECUTORS))


@contextlib.contextmanager
def apply_env(env: dict):
    """Temporarily overlay ``env`` onto ``os.environ``."""
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update({k: str(v) for k, v in env.items()})
    try:
        yield
    finally:
        for k, old in saved.items():
            if old is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = old


def run_cell(cell, *, scale: int = 64, seed: int = 0) -> dict:
    """Run one cell under its env overlay; return its JSON-ready row."""
    try:
        fn = EXECUTORS[cell.executor]
    except KeyError:
        raise KeyError(
            f"unknown executor {cell.executor!r}; known: {sorted(EXECUTORS)}"
        ) from None
    row = cell.to_row()
    # The compiled backend decides availability at import time from
    # REPRO_COMPILED_DISABLE; import it *before* the overlay so a
    # numpy-tier cell can't pin the compiled tier off for the whole
    # process.  In-process tier selection filters by registry tag; the
    # env overlay exists so an exported row reproduces the cell in a
    # fresh process with the same tier set.
    import repro.ops  # noqa: F401

    t0 = time.perf_counter()
    try:
        with apply_env(cell.env_dict):
            result = fn(
                cell.axes_dict, config=cell.config_dict, scale=scale, seed=seed
            )
    except Exception as exc:  # noqa: BLE001 - a cell must never kill the run
        result = {"status": "fail", "error": f"{type(exc).__name__}: {exc}"}
    row["seconds"] = round(time.perf_counter() - t0, 6)
    row.update(result)
    return row


# ---------------------------------------------------------------------------
# tier helpers
# ---------------------------------------------------------------------------

#: the scenario axis spells the cnative tier family "compiled"
_AXIS_TIER = {"compiled": "cnative"}


def variants_in_tier(matrix, tier: str) -> list:
    """Roster variant names of ``matrix`` in the ``kernel-tier`` axis value."""
    from repro import ops
    from repro.perfmodel.predict import variant_tier

    want = _AXIS_TIER.get(tier, tier)
    return [s.name for s in ops.variants_for(matrix) if variant_tier(s.tags) == want]


# ---------------------------------------------------------------------------
# parity-check: every roster variant vs the dense reference
# ---------------------------------------------------------------------------

@register_executor("parity-check")
def parity_check(axes, *, config, scale, seed):
    from repro.engine import bind
    from repro.formats import convert
    from repro.scenarios.fixtures import materialize

    coo = materialize(axes["matrix-class"], scale=scale, seed=seed)
    m = convert(coo, axes["format"])
    variants = variants_in_tier(m, axes["kernel-tier"])
    if not variants:
        return {
            "status": "skip",
            "reason": f"no {axes['kernel-tier']} variants for {axes['format']}",
        }
    dense = coo.todense()
    x = np.random.default_rng(seed + 17).standard_normal(coo.shape[1])
    ref = dense @ x
    checked = []
    for name in variants:
        y = bind(m, tune=False, variant=name).spmv(x)
        np.testing.assert_allclose(y, ref, rtol=1e-10, atol=1e-12)
        checked.append(name)
    return {"status": "ok", "variants": checked}


# ---------------------------------------------------------------------------
# chaos-drill: named plan through distributed_spmv, verdict per plan
# ---------------------------------------------------------------------------

def _fault_injector(plan_name: str, *, nranks: int, config: dict):
    """Injector for a named composite plan or a ``one:<kind>`` drill."""
    from repro.faults import FaultEvent, FaultPlan

    if plan_name.startswith("one:"):
        kind = plan_name[len("one:"):]
        target = dict(config.get("target", ()))
        delay = 0.01 if kind in ("halo_delay", "slow_worker") else 0.0
        plan = FaultPlan(
            (FaultEvent(kind, 0.1, target=target, delay_s=delay),),
            name=plan_name,
        )
    else:
        plan = FaultPlan.named(plan_name, nranks=nranks, delay_s=0.01)
    return plan.injector()


@register_executor("chaos-drill")
def chaos_drill(axes, *, config, scale, seed):
    from repro.distributed import build_plan, distributed_spmv, partition_rows
    from repro.faults import RetryExhausted, RetryPolicy
    from repro.formats import CSRMatrix
    from repro.scenarios.fixtures import random_coo

    nparts = 4
    csr = CSRMatrix.from_coo(random_coo(72, seed=161, max_row=9))
    part = partition_rows(csr.nrows, nparts, row_weights=csr.row_lengths())
    plan = build_plan(csr, part)
    x = np.random.default_rng(3).normal(size=plan.ncols)
    y_ref = distributed_spmv(plan, x, mode=axes["mode"])

    inj = _fault_injector(axes["fault-plan"], nranks=nparts, config=config)
    retry = RetryPolicy(max_attempts=3)
    timeout = 4.0 if axes["backend"] == "processes" else 2.0
    expect = config.get("expect", "recover")
    try:
        y = distributed_spmv(
            plan, x, backend=axes["backend"], mode=axes["mode"],
            faults=inj, retry=retry, timeout=timeout,
        )
    except RetryExhausted as exc:
        if expect != "exhaust":
            return {"status": "fail", "error": f"unexpected exhaustion: {exc}"}
        return {
            "status": "ok",
            "verdict": "exhausted as planned",
            "attempts": exc.attempts,
        }
    if expect == "exhaust":
        return {"status": "fail", "error": "plan was expected to exhaust"}
    if not np.array_equal(y, y_ref):
        return {"status": "fail", "error": "recovered result not bitwise"}
    return {
        "status": "ok",
        "verdict": "recovered bitwise",
        "injected": inj.injected,
    }


# ---------------------------------------------------------------------------
# serve-roundtrip: policy x fault plan x tracing through SpMVServer
# ---------------------------------------------------------------------------

@register_executor("serve-roundtrip")
def serve_roundtrip(axes, *, config, scale, seed):
    from repro import obs
    from repro.engine import bind
    from repro.faults import FaultPlan, RetryPolicy
    from repro.formats import CSRMatrix
    from repro.scenarios.fixtures import random_coo
    from repro.serve import Client, MatrixRegistry, SpMVServer

    variant = "csr_scipy"  # stored-order delegate: spmv == spmm column
    csr = CSRMatrix.from_coo(random_coo(60, seed=3, max_row=7))
    traced = axes.get("trace") == "on"
    workers = 2
    faults = None
    if axes["fault-plan"] != "none":
        faults = FaultPlan.named(
            axes["fault-plan"], workers=workers
        ).injector()

    obs.reset_all()
    if traced:
        obs.enable()
    try:
        reg = MatrixRegistry()
        reg.register("A", matrix=csr, variant=variant)
        server = SpMVServer(
            reg, policy=axes["serve-policy"], workers=workers, faults=faults,
        )
        try:
            client = Client(server, retry=RetryPolicy(max_attempts=4))
            x = np.random.default_rng(seed).standard_normal(csr.ncols)
            y = client.spmv("A", x, timeout=30.0)
        finally:
            server.close()
        ref = bind(csr, tune=False, variant=variant).spmv(x)
        if not np.array_equal(y, ref):
            return {"status": "fail", "error": "round-trip not bitwise"}
        result = {"status": "ok", "verdict": "round-trip bitwise"}
        if traced:
            from repro.obs.spans import get_tracer

            spans = [s.name for s in get_tracer().finished()]
            if "serve.request" not in spans:
                return {"status": "fail", "error": "no serve.request span"}
            result["spans"] = len(spans)
        if faults is not None:
            result["injected"] = faults.injected
        return result
    finally:
        obs.disable()
        obs.reset_all()


# ---------------------------------------------------------------------------
# fleet-drill: shards x replicas x shard-kill plan through FleetRouter
# ---------------------------------------------------------------------------

@register_executor("fleet-drill")
def fleet_drill(axes, *, config, scale, seed):
    from repro.engine import bind
    from repro.faults import FaultPlan
    from repro.formats import convert
    from repro.matrices import poisson2d
    from repro.serve import Fleet, FleetRouter

    variant = "csr_scipy"
    csr = convert(poisson2d(24), "CRS")
    x = np.random.default_rng(seed).standard_normal(csr.ncols)
    ref = bind(csr, tune=False, variant=variant).spmv(x)
    shards, replicas = int(axes["shards"]), int(axes["replicas"])
    with Fleet(shards, mode="inproc", workers=1) as fleet:
        router = FleetRouter(fleet, replicas=replicas)
        router.register("A", csr, blocks=max(2, shards))
        injected = 0
        if axes["fault-plan"] != "none":
            inj = FaultPlan.named(
                axes["fault-plan"], nranks=shards, workers=1, delay_s=0.01
            ).injector()
            router.faults = inj
        y = router.spmv("A", x, timeout=30.0)
        if axes["fault-plan"] != "none":
            injected = inj.injected
    if not np.array_equal(y, ref):
        return {"status": "fail", "error": "sharded result not bitwise"}
    return {"status": "ok", "verdict": "sharded bitwise", "injected": injected}


# ---------------------------------------------------------------------------
# bench-probe: one timed spmv per (suite matrix, format, tier)
# ---------------------------------------------------------------------------

@register_executor("bench-probe")
def bench_probe(axes, *, config, scale, seed):
    from repro.formats import convert
    from repro.ops import get_variant
    from repro.perfmodel.shootout import time_cell
    from repro.scenarios.fixtures import materialize
    from repro.utils import gflops

    reps = int(config.get("reps", 3))
    coo = materialize(axes["suite-matrix"], scale=scale, seed=seed)
    m = convert(coo, axes["format"])
    variants = variants_in_tier(m, axes["kernel-tier"])
    if not variants:
        return {
            "status": "skip",
            "reason": f"no {axes['kernel-tier']} variants for {axes['format']}",
        }
    x = np.random.default_rng(seed).standard_normal(coo.shape[1])
    t, name = min(
        (time_cell(m, get_variant(m, name), x, reps).median, name)
        for name in variants
    )
    return {
        "status": "ok",
        "nnz": int(coo.nnz),
        "variant": name,
        "gflops": round(gflops(coo.nnz, t), 4),
    }
