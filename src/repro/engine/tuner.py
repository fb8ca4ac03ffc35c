"""Per-matrix kernel-variant autotuning (the CMRS lesson).

For each bound matrix the tuner times the candidate kernel variants of
its format from the :mod:`repro.ops` registry on the live data and
picks the fastest.  Every candidate is compiled (a scipy kernel or a
cnative ``*_cc`` kernel) and gives the format's one answer, bitwise
CRS's, so the choice is on speed alone.  A lone candidate (COO,
BELLPACK, or any format with the cnative tier off) is not raced: it
wins untimed.  Decisions are cached under a *matrix fingerprint* —
shape, nnz, dtype and a row-length histogram digest — in
:class:`repro.matrices.cache.TunerCache`, so binding a structurally
identical matrix later (another solver run, another process) skips the
timing phase: the decision is deterministic once cached.

Everything is instrumented through :mod:`repro.obs` when enabled:
``engine_tune_total`` / ``engine_tune_cache_hits_total`` counters, an
``engine_variant_seconds`` histogram per timed candidate, and one
``engine.tune`` span per race.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.engine.workspace import Workspace
from repro.ops.registry import STORED_CSR_TAG, KernelVariant, variants_for
from repro.ops.spmv_kernels import stored_csr_views
from repro.formats.base import SparseMatrixFormat

__all__ = [
    "fingerprint",
    "TuneResult",
    "autotune",
    "default_tuner_cache",
    "tune_candidates",
]

_DEFAULT_CACHE = None
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_tuner_cache():
    """Process-wide :class:`~repro.matrices.cache.TunerCache` singleton.

    Safe to call from concurrent ``bind()`` paths (e.g. the
    :mod:`repro.serve` worker pool): the double-checked lock guarantees
    exactly one cache is ever created, so decisions recorded by one
    thread are visible to all others.
    """
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        with _DEFAULT_CACHE_LOCK:
            if _DEFAULT_CACHE is None:
                from repro.matrices.cache import TunerCache

                _DEFAULT_CACHE = TunerCache()
    return _DEFAULT_CACHE


def tune_candidates(matrix: SparseMatrixFormat) -> list[KernelVariant]:
    """The spmv variants :func:`autotune` races for ``matrix``: its
    whole roster, in registry order."""
    return variants_for(matrix)


def fingerprint(matrix: SparseMatrixFormat) -> str:
    """Structural fingerprint of a matrix instance.

    Captures what the kernel-variant choice actually depends on — the
    format, dimensions, nnz, dtype and the row-length *distribution*
    (a 64-bin histogram) — while ignoring the values, so re-assembled
    matrices with identical sparsity structure share a cache entry.
    """
    lengths = matrix.row_lengths()
    hist = np.bincount(
        np.minimum(np.asarray(lengths, dtype=np.int64), 4095), minlength=1
    )
    # compress to 64 bins so the digest is stable and small
    pad = -(-hist.shape[0] // 64) * 64
    h = np.zeros(pad, dtype=np.int64)
    h[: hist.shape[0]] = hist
    binned = h.reshape(64, -1).sum(axis=1)
    digest = hashlib.sha1(binned.tobytes()).hexdigest()[:16]
    # fold in the raced roster: a cached decision must not outlive the
    # variant set it was ranked against (e.g. the optional compiled
    # delegates registering on one machine but not another)
    roster = ",".join(v.name for v in tune_candidates(matrix))
    vdigest = hashlib.sha1(roster.encode()).hexdigest()[:8]
    # ... and the available kernel-tier set (scipy/cnative presence and
    # version): a cache warmed without the cnative tier must not pin a
    # scipy variant after the tier becomes available, and
    # recorded timings from one tier set are not comparable to another's
    from repro.kernels import compiled as _ctier

    tiers = ",".join(_ctier.kernel_tiers())
    tdigest = hashlib.sha1(tiers.encode()).hexdigest()[:8]
    return (
        f"{matrix.name}:{matrix.nrows}x{matrix.ncols}:nnz{matrix.nnz}:"
        f"{matrix.dtype.name}:rl{digest}:vs{vdigest}:kt{tdigest}"
    )


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one autotuning run."""

    fingerprint: str
    variant: str
    #: best wall-clock seconds per call for each raced candidate (empty
    #: when a lone candidate won untimed)
    timings: dict[str, float] = field(default_factory=dict)
    cache_hit: bool = False
    #: registry tags of the winning variant (tier provenance)
    tier: tuple[str, ...] = ()


def _time_variant(
    variant: KernelVariant,
    matrix: SparseMatrixFormat,
    ws: Workspace,
    x: np.ndarray,
    y: np.ndarray,
    reps: int,
) -> float:
    """Best-of-``reps`` wall-clock seconds of one variant (after warmup).

    ``ws`` is the variant's own scratch: a loser's buffers die with it.
    """
    variant.run(matrix, ws, x, y)  # warmup: builds workspace buffers
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        variant.run(matrix, ws, x, y)
        best = min(best, time.perf_counter() - t0)
    return best


def _race(matrix, candidates, fp, reps, seed):
    """``(best, timings, tags)`` from timing every candidate on a seeded
    random RHS, each in a workspace of its own."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(matrix.ncols).astype(matrix.dtype)
    y = np.zeros(matrix.nrows, dtype=matrix.dtype)

    timings: dict[str, float] = {}
    views = stored_csr_views(matrix)
    kept = set(views)
    with obs.span("engine.tune", format=matrix.name, fingerprint=fp):
        for v in candidates:
            dt = _time_variant(v, matrix, Workspace(), x, y, reps)
            timings[v.name] = dt
            if obs.enabled():
                obs.observe(
                    "engine_variant_seconds", dt, variant=v.name,
                    format=matrix.name,
                )
    best = min(timings, key=timings.get)
    tier = next(v.tags for v in candidates if v.name == best)
    if STORED_CSR_TAG not in tier:  # only the delegates sweep a CSR view
        for key in set(views) - kept:
            del views[key]
    return best, timings, tier


def autotune(
    matrix: SparseMatrixFormat,
    *,
    reps: int = 3,
    seed: int = 0,
    cache=None,
    use_cache: bool = True,
) -> TuneResult:
    """Pick the fastest kernel variant for ``matrix``.

    A cached decision for the matrix's fingerprint is returned
    immediately (``cache_hit=True``, no timings).  Otherwise each
    candidate of :func:`tune_candidates` runs ``reps`` times on a seeded
    random RHS and the fastest wins; a lone candidate (COO, BELLPACK,
    or any format when the cnative tier is off) wins untimed, with
    empty ``timings``.  The
    decision is persisted either way.

    Determinism: for a given fingerprint the decision is stable once
    recorded — repeated binds resolve from the cache, never re-race.

    Nothing a losing candidate built outlives the tuning: each candidate
    runs in a workspace of its own, and the stored-CSR views that the
    ``stored-csr`` candidates built are dropped unless one of them wins
    (the next batch rebuilds a view it needs).
    """
    candidates = tune_candidates(matrix)
    fp = fingerprint(matrix)
    cache = cache if cache is not None else default_tuner_cache()

    if obs.enabled():
        obs.inc("engine_tune_total", 1, format=matrix.name)

    if use_cache:
        rec = cache.get(fp)
        if rec is not None and rec["variant"] not in {v.name for v in candidates}:
            rec = None  # stale entry from an older variant set
        if rec is not None:
            if obs.enabled():
                obs.inc("engine_tune_cache_hits_total", 1, format=matrix.name)
            return TuneResult(
                fingerprint=fp,
                variant=rec["variant"],
                timings={k: float(v) for k, v in rec.get("timings", {}).items()},
                cache_hit=True,
                tier=tuple(rec.get("tier", ())),
            )

    if len(candidates) == 1:
        # nothing to race: the lone candidate is chosen untimed
        best, timings, tier = candidates[0].name, {}, candidates[0].tags
    else:
        best, timings, tier = _race(matrix, candidates, fp, reps, seed)
    if use_cache:
        cache.put(
            fp,
            {
                "variant": best,
                "timings": timings,
                "format": matrix.name,
                "tier": list(tier),
            },
        )
    if obs.enabled() and timings:
        obs.set_gauge(
            "engine_tuned_variant_seconds", timings[best],
            format=matrix.name, variant=best,
        )
    return TuneResult(fingerprint=fp, variant=best, timings=timings, tier=tier)
