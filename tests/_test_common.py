"""Shared test helpers (uniquely named to avoid conftest shadowing).

The matrix generators and format rosters live in
:mod:`repro.scenarios.fixtures` — the same module the scenario specs
and bench scripts draw from — so there is exactly one definition of
"a random test matrix" in the repo.  This module only adds the pytest
fixture wrappers.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.formats import COOMatrix, convert
from repro.scenarios.fixtures import (
    empty_coo,
    random_coo,
    single_dense_row_coo,
)
from repro.scenarios.fixtures import ALL_FORMATS as _ALL
from repro.scenarios.fixtures import GPU_FORMATS as _GPU
from repro.scenarios.fixtures import PERMUTING_FORMATS as _PERM

__all__ = [
    "ALL_FORMATS",
    "GPU_FORMATS",
    "PERMUTING_FORMATS",
    "empty_coo",
    "no_leaks",
    "random_coo",
    "single_dense_row_coo",
]

#: every registered format that implements spmv (COO included)
ALL_FORMATS = list(_ALL)
#: formats with a GPU kernel trace
GPU_FORMATS = list(_GPU)
#: formats that permute rows
PERMUTING_FORMATS = list(_PERM)


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
