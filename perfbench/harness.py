"""Shared measurement plumbing: latency summary, provenance, hygiene, memory.

Nothing here imports ``repro`` at module import time; the entry point
(``run.py``) sets up the import path and the package's cache directory
before any workload module touches the package.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import os
import platform
import re
import subprocess
import threading
import time
from pathlib import Path

import numpy as np

#: thread-count variables recorded (never set) by the benchmark
THREAD_ENV_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_", "GOTO", "BLIS_", "VECLIB_")


def summarize_ms(seconds: list[float]) -> dict:
    """Latency summary in ms for the run record.

    Only the median is an end-to-end metric: on a shared 2-core host the
    tail percentiles move with other tenants' load by more than the
    benchmark's bounds.
    """
    ms = np.asarray(seconds) * 1e3
    return {
        "count": int(ms.size),
        "p50": float(np.percentile(ms, 50)),
        "p90": float(np.percentile(ms, 90)),
        "p99": float(np.percentile(ms, 99)),
        "max": float(ms.max()),
    }


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def _size_bytes(text: str) -> int:
    m = re.fullmatch(r"\s*(\d+)\s*([KMG]?)\s*", text)
    if not m:
        return 0
    mult = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(2)]
    return int(m.group(1)) * mult


def llc_bytes() -> int:
    """Size of the highest cache level of cpu0 as sysfs reports it."""
    best_level, best_size = -1, 0
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level = _read(str(idx / "level")).strip()
        if not level.isdigit():
            continue
        size = _size_bytes(_read(str(idx / "size")))
        if int(level) > best_level or (int(level) == best_level and size > best_size):
            best_level, best_size = int(level), size
    return best_size


def _first_line(cmd: list[str], cwd: Path | None = None) -> str | None:
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=10, cwd=cwd
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    out = proc.stdout.strip().splitlines()
    return out[0] if out else ""


def git_state(root: Path) -> dict:
    """Commit and dirty flag when the checkout is a git work tree."""
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    sha = _first_line(["git", "rev-parse", "HEAD"], cwd=root)
    changed = _first_line(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root)
    return {"sha": sha, "dirty": None if changed is None else changed != ""}


def blas_config() -> dict:
    try:
        cfg = np.show_config(mode="dicts")
        deps = cfg.get("Build Dependencies", {})
        return {
            k: {kk: deps[k].get(kk) for kk in ("name", "version", "openblas configuration")}
            for k in ("blas", "lapack")
            if k in deps
        }
    except (TypeError, AttributeError, KeyError):  # older numpy
        return {}


def thread_env() -> dict:
    return {
        k: v for k, v in sorted(os.environ.items())
        if k.startswith(THREAD_ENV_PREFIXES)
    }


def provenance(root: Path, cnative_build_s: float) -> dict:
    """Where and with what this run measured."""
    import scipy

    from repro.ops import backend_status, kernel_tiers

    cpuinfo = _read("/proc/cpuinfo")
    m = re.search(r"model name\s*:\s*(.+)", cpuinfo)
    mem = re.search(r"MemTotal:\s*(\d+)\s*kB", _read("/proc/meminfo"))
    return {
        "git": git_state(root),
        "cpu_model": m.group(1).strip() if m else platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "llc_bytes": llc_bytes(),
        "ram_bytes": int(mem.group(1)) * 1024 if mem else None,
        "cc": _first_line(["cc", "--version"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_config(),
        "kernel_tiers": list(kernel_tiers()),
        "backends": backend_status(),
        "cnative_build_s": cnative_build_s,
        "thread_env": thread_env(),
    }


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def _status_kb(pid: int | str, field: str) -> int:
    m = re.search(rf"{field}:\s*(\d+)\s*kB", _read(f"/proc/{pid}/status"))
    return int(m.group(1)) if m else 0


def _private_kb(pid: int) -> int:
    text = _read(f"/proc/{pid}/smaps_rollup")
    return sum(int(v) for v in re.findall(r"Private_(?:Clean|Dirty):\s*(\d+)\s*kB", text))


def reset_peak_rss() -> int:
    """Restart this process's resident high-water mark; return VmRSS in kB.

    Freed heap is handed back to the system first, so what the measured
    run allocates shows as growth instead of reusing pages the
    benchmark's own input generation left behind.  Writing ``5`` to
    ``clear_refs`` sets VmHWM to the current VmRSS.
    """
    gc.collect()
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    libc.malloc_trim(0)
    Path("/proc/self/clear_refs").write_text("5", encoding="ascii")
    return _status_kb("self", "VmRSS")


def peak_rss_mb(base_kb: int, pids=()) -> float:
    """Memory the measured run added, in MiB.

    This process counts its peak resident set since :func:`reset_peak_rss`
    less ``base_kb`` (the benchmark's inputs and references resident
    then).  Live children count their private pages now: a forked
    shard shares the parent's pages until it writes them, so its own
    peak would count the parent's memory a second time.
    """
    kb = _status_kb("self", "VmHWM") - base_kb + sum(_private_kb(p) for p in pids)
    return kb / 1024.0


# ---------------------------------------------------------------------------
# process hygiene
# ---------------------------------------------------------------------------

def child_pids() -> set[int]:
    pids: set[int] = set()
    for task in Path("/proc/self/task").glob("*"):
        for tok in _read(str(task / "children")).split():
            pids.add(int(tok))
    return pids


def _count_dir(path: str) -> int:
    try:
        return len(os.listdir(path))
    except OSError:
        return 0


def owned_shm(pids=()) -> set[str]:
    """``/dev/shm`` entries this process or ``pids`` map or hold open.

    Entries of unrelated processes on the same host are not counted.
    """
    out: set[str] = set()
    for pid in ("self", *pids):
        for line in _read(f"/proc/{pid}/maps").splitlines():
            i = line.find("/dev/shm/")
            if i >= 0:
                out.add(line[i:].removesuffix(" (deleted)"))
        try:
            fds = os.listdir(f"/proc/{pid}/fd")
        except OSError:
            continue
        for fd in fds:
            try:
                target = os.readlink(f"/proc/{pid}/fd/{fd}")
            except OSError:
                continue
            if target.startswith("/dev/shm/"):
                out.add(target.removesuffix(" (deleted)"))
    return out


def hygiene_snapshot() -> dict:
    children = child_pids()
    return {
        "threads": threading.active_count(),
        "children": len(children),
        "fds": _count_dir("/proc/self/fd"),
        "shm": len(owned_shm(children)),
    }


def hygiene_leaks(before: dict, settle_s: float = 3.0) -> dict:
    """Resources still held after close, counted against ``before``.

    Threads and sockets of a closed server can take a moment to wind
    down, so the count is polled until it settles or ``settle_s``
    passes; whatever remains is a leak.
    """
    deadline = time.monotonic() + settle_s
    while True:
        now = hygiene_snapshot()
        leaks = {k: max(0, now[k] - before[k]) for k in before}
        if not any(leaks.values()) or time.monotonic() > deadline:
            return leaks
        time.sleep(0.05)
