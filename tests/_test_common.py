"""Shared test helpers (uniquely named to avoid conftest shadowing).

The one definition of "a random test matrix" in the repo: the format
rosters, the matrix generators, the named matrix classes the parity
grid in ``test_ops.py`` sweeps, and the pytest fixtures built on them,
plus the ``no_leaks`` resource check.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.formats import COOMatrix, available_formats, convert
from repro.formats.conversions import FORMATS
from repro.ops import variants_for
from repro.perfmodel.predict import variant_tier

__all__ = [
    "ALL_FORMATS",
    "GPU_FORMATS",
    "MATRIX_CLASSES",
    "PARITY_GRID",
    "PERMUTING_FORMATS",
    "empty_coo",
    "no_leaks",
    "random_coo",
    "single_dense_row_coo",
]

#: every registered format (COO included); each implements spmv
ALL_FORMATS = available_formats()
#: formats with a GPU kernel trace
GPU_FORMATS = [
    "ELLPACK",
    "ELLPACK-R",
    "JDS",
    "pJDS",
    "SELL-C-sigma",
    "CMRS",
    "ARG-CSR",
]
#: formats that permute rows
PERMUTING_FORMATS = ["JDS", "pJDS", "SELL-C-sigma"]


def random_coo(
    n: int = 60,
    m: int | None = None,
    *,
    seed: int = 0,
    max_row: int = 12,
    min_row: int = 0,
    dtype=np.float64,
    empty_row_fraction: float = 0.1,
) -> COOMatrix:
    """Random rectangular COO with a skewed row-length distribution."""
    m = n if m is None else m
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i in range(n):
        if rng.random() < empty_row_fraction and min_row == 0:
            continue
        k = int(rng.integers(max(min_row, 1), max_row + 1))
        k = min(k, m)
        c = rng.choice(m, size=k, replace=False)
        rows.extend([i] * k)
        cols.extend(c.tolist())
        vals.extend(rng.normal(size=k).tolist())
    return COOMatrix(
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals, dtype=dtype),
        (n, m),
        sum_duplicates=False,
    )


def single_dense_row_coo(n: int = 20) -> COOMatrix:
    """One fully dense row amid empties — the pJDS worst case."""
    rng = np.random.default_rng(11)
    rows = np.full(n, 3, dtype=np.int64)
    cols = np.arange(n, dtype=np.int64)
    vals = rng.normal(size=n)
    # a couple of scattered extras so conversion paths see >1 row
    rows = np.concatenate([rows, [0, n - 1]])
    cols = np.concatenate([cols, [1, 2]])
    vals = np.concatenate([vals, [0.5, -0.25]])
    return COOMatrix(rows, cols, vals, (n, n))


def empty_coo() -> COOMatrix:
    """The 0x0 degenerate matrix."""
    z = np.empty(0, dtype=np.int64)
    return COOMatrix(z, z, np.empty(0), (0, 0))


#: structural shapes every format's kernels must get right: random
#: square with empty rows, rectangular, one dense row, 0x0, and a
#: matrix with 40 % empty rows (class name -> COO builder)
MATRIX_CLASSES = {
    "random-square": lambda: random_coo(60, seed=3),
    "rectangular": lambda: random_coo(40, 70, seed=5),
    "single-dense-row": single_dense_row_coo,
    "empty": empty_coo,
    "empty-rows": lambda: random_coo(50, seed=31, empty_row_fraction=0.4),
}

#: the tier family a registry tag names in the grid ids
_TIER_ID = {"scipy": "scipy", "cnative": "compiled"}


def _kernels_by_tier(fmt: str) -> dict:
    """``{tier: [spmv kernel names]}`` of one format, in registry rank
    order; a tier with no kernel for the format has no entry."""
    by_tier = {}
    for spec in variants_for(FORMATS[fmt]):
        tier = _TIER_ID[variant_tier(spec.tags)]
        by_tier.setdefault(tier, []).append(spec.name)
    return by_tier


#: format x kernel tier x matrix class: every registered spmv kernel
#: against the dense product on every structural shape
PARITY_GRID = [
    pytest.param(
        fmt, names, cls, id=f"format={fmt}/kernel-tier={tier}/matrix-class={cls}"
    )
    for fmt in available_formats()
    for tier, names in _kernels_by_tier(fmt).items()
    for cls in MATRIX_CLASSES
]


@pytest.fixture(scope="session")
def small_coo() -> COOMatrix:
    """60x60 random square matrix with empty rows and skewed lengths."""
    return random_coo(60, seed=3)


@pytest.fixture(scope="session")
def rect_coo() -> COOMatrix:
    """Rectangular 40x70 matrix."""
    return random_coo(40, 70, seed=5)


@pytest.fixture(scope="session")
def spd_coo() -> COOMatrix:
    """Small symmetric positive-definite matrix (for CG)."""
    from repro.matrices import poisson2d

    return poisson2d(12, 13)


@pytest.fixture(params=ALL_FORMATS)
def any_format(request, small_coo):
    """One instance of every format built from the same matrix."""
    return convert(small_coo, request.param)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


#: name prefixes of the threads the rank pool, the serve scheduler, the
#: fleet shards and the SLO monitor start
_OWN_THREADS = ("rank-", "serve-", "shard", "slo-monitor")


def _live_resources() -> dict:
    """What a rank pool, a server or a fleet may leave behind, as
    comparable snapshots."""
    with open("/proc/self/maps") as maps:
        lines = maps.readlines()
    shm = {tok for ln in lines for tok in ln.split() if tok.startswith("/dev/shm/")}
    # fleet slots are memfd files whose names repeat across shards: key by address
    memfd = {ln.split()[0] for ln in lines if "/memfd:" in ln}
    return {
        "threads": {
            t for t in threading.enumerate() if t.name.startswith(_OWN_THREADS)
        },
        "child processes": {p.pid for p in mp.active_children()},
        "open fds": len(os.listdir("/proc/self/fd")),
        "shm segments": shm,
        "memfd mappings": memfd,
    }


def _grown(before: dict, after: dict) -> dict:
    grown = {}
    for key, now in after.items():
        was = before[key]
        extra = now - was if isinstance(now, set) else max(0, now - was)
        if extra:
            grown[key] = extra
    return grown


@pytest.fixture
def no_leaks():
    """Fail a test that leaves rank, serve, shard or SLO-monitor threads,
    children, fds, shm or memfd mappings behind.

    Resources get up to 3 s to settle (daemon threads drain their last
    wait, children are reaped) before an increase counts.
    """
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc")
    before = _live_resources()
    yield
    deadline = time.monotonic() + 3.0
    while True:
        gc.collect()
        grown = _grown(before, _live_resources())
        if not grown or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not grown, f"leaked: {grown}"
