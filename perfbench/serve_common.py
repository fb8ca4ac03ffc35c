"""Inputs, answer checks and layer metrics shared by the serve workloads."""

from __future__ import annotations

import numpy as np

#: serve workloads store matrices in CRS: the compiled pJDS/SELL spmm
#: kernels keep one accumulator per worker clone whose shape is fixed by
#: the first batch width, so any later batch of another width raises
FMT = "CRS"
SCALE = 64
#: distinct right-hand sides per matrix (each with a scipy reference)
NVEC = 8


class SuiteInputs:
    """One suite matrix with seeded right-hand sides and scipy answers."""

    def __init__(self, key: str, scale: int, rng: np.random.Generator):
        from repro.formats import convert
        from repro.matrices import generate

        self.coo = generate(key, scale=scale)
        csr = self.coo.to_scipy().tocsr()
        self.nbytes = int(convert(self.coo, FMT).nbytes)
        self.xs = [rng.standard_normal(self.coo.ncols) for _ in range(NVEC)]
        self.ys = [csr @ x for x in self.xs]

    def close_enough(self, y: np.ndarray, i: int) -> bool:
        return bool(np.allclose(y, self.ys[i], rtol=1e-10, atol=1e-12))


def failure_kind(exc: BaseException) -> str:
    """Map a request error onto the error-rate buckets."""
    from repro.serve.errors import DeadlineExceeded, ServerOverloaded

    if isinstance(exc, ServerOverloaded):
        return "refused"
    if isinstance(exc, DeadlineExceeded):
        return "expired"
    return "failed"


def scheduler_counts(stats: dict) -> dict:
    req = stats["requests"]
    return {
        "batches": stats["batches"],
        "vectors": stats["batched_vectors"],
        "rejected": req["rejected"],
        "expired": req["expired"],
        "shed": req["shed"],
        "loads": stats["registry"]["loads"],
        "hits": stats["registry"]["hits"],
        "evictions": stats["registry"]["evictions"],
    }


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def scheduler_layers(d: dict) -> dict:
    """Layer metrics that the server's own counters give, tracing or not."""
    acquires = d["loads"] + d["hits"]
    return {
        "scheduler.mean_batch_size": d["vectors"] / d["batches"] if d["batches"] else 0.0,
        "scheduler.rejected": d["rejected"],
        "scheduler.expired": d["expired"],
        "scheduler.shed": d["shed"],
        "registry.loads": d["loads"],
        "registry.evictions": d["evictions"],
        "registry.hit_ratio": d["hits"] / acquires if acquires else 0.0,
    }


def traced_layers(tracer, window_s: float, workers: int, latency_ms_p50: float) -> dict:
    """Layer metrics from the spans of a traced serve window."""
    if not tracer.spans:
        return {}
    out: dict = {}
    for span_name, key in (
        ("engine.bind", "engine.bind_s"), ("formats.convert", "formats.convert_s")
    ):
        spans = tracer.named(span_name)
        if spans:
            out[key] = float(np.median([s.duration for s in spans]))
    spmm = tracer.named("engine.spmm")
    if spmm:
        spmm_us_p50 = float(np.percentile([s.duration * 1e6 for s in spmm], 50))
        out.update({
            "engine.spmm_calls": len(spmm),
            "engine.spmm_us_p50": spmm_us_p50,
            "engine.spmm_cols_mean": sum(s.attrs.get("cols", 1) for s in spmm) / len(spmm),
            "scheduler.busy_frac": sum(s.duration for s in spmm) / (window_s * workers),
            # derived: no span joins a request to its batch from outside
            "scheduler.queue_wait_ms_p50": max(latency_ms_p50 - spmm_us_p50 / 1e3, 0.0),
        })
    submit = tracer.named("scheduler.submit")
    if submit:
        out["scheduler.submit_us_p50"] = float(
            np.percentile([s.duration * 1e6 for s in submit], 50)
        )
    acquire = tracer.named("registry.acquire")
    if acquire:
        kids = tracer.children()
        loads, hits = [], []
        for s in acquire:
            is_load = any(c.name == "engine.bind" for c in kids.get(s.span_id, ()))
            (loads if is_load else hits).append(s.duration)
        if loads:
            out["registry.load_ms_p50"] = float(np.median(loads)) * 1e3
        if hits:
            out["registry.hit_acquire_us_p99"] = float(np.percentile(hits, 99)) * 1e6
    return out


def wrap_serve_layers(tracer) -> None:
    """Span the scheduler, registry and engine calls of an in-process server."""
    import repro.formats
    from repro.engine.bound import BoundMatrix
    from repro.serve import registry as registry_mod
    from repro.serve.registry import MatrixRegistry
    from repro.serve.scheduler import SpMVServer

    tracer.wrap(SpMVServer, "submit", "scheduler.submit")
    tracer.wrap(MatrixRegistry, "acquire", "registry.acquire")
    # the registry's load path calls the engine's bind through its own
    # module namespace: an acquire with a bind child span is a load
    tracer.wrap(registry_mod, "bind", "engine.bind")
    # suite loaders import convert from the package at call time
    tracer.wrap(repro.formats, "convert", "formats.convert")
    tracer.wrap(
        BoundMatrix, "spmm", "engine.spmm",
        attrs=lambda args, kwargs: {"cols": int(np.shape(args[1])[1])},
    )
