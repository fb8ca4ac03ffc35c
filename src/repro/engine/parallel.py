"""Shared-memory multiprocessing row-block SpMV backend.

The node-level analogue of the paper's multi-GPGPU execution modes
(Sect. III-A): the matrix is split into contiguous, nnz-balanced CSR
row blocks (one per worker process, mirroring
:func:`repro.distributed.partition.partition_rows`), the input and
output vectors live in :mod:`multiprocessing.shared_memory` segments,
and every worker runs the row-local ``np.add.reduceat`` kernel over
its own block.

Two execution modes mirror ``distributed/modes.py``:

* ``"vector"`` — each worker runs one unsplit kernel over its whole
  row block against the full shared ``x``.  Because the per-row
  reduction sees exactly the same element sequence as the serial
  :meth:`CSRMatrix.spmv <repro.formats.csr.CSRMatrix.spmv>` reduceat
  sweep, the result is **bitwise identical** to it regardless of the
  number of workers.
* ``"task"`` — each worker splits its block into *local* columns
  (inside its own row range) and *nonlocal* columns and runs two
  kernels, adding the partial results.  This models the overlapped
  kernel split (and its write-the-result-twice penalty, the
  +8/Nnzr bytes/flop of Sect. III-A); the within-row summation order
  changes, so results match serial only to rounding.

Worker processes are persistent: ``ParallelSpMV`` spawns them once and
each ``spmv`` call only copies ``x`` into shared memory, wakes the
workers, and waits for their row blocks — no per-call process or
matrix setup.  Always ``close()`` (or use as a context manager) to
release the shared segments.
"""

from __future__ import annotations

import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.distributed.partition import partition_rows
from repro.formats.base import SparseMatrixFormat
from repro.formats.csr import CSRMatrix

__all__ = ["ParallelSpMV", "parallel_spmv", "PARALLEL_MODES"]

PARALLEL_MODES = ("vector", "task")


def _block_spmv(indptr, indices, data, x, y):
    """Row-local reduceat kernel: ``y = A_block @ x`` (stored rows only).

    Identical arithmetic to the serial :meth:`CSRMatrix.spmv`: the
    per-row product sequence and reduction order do not depend on how
    rows are grouped into blocks, which is what makes vector mode
    bitwise reproducible.
    """
    y[:] = 0.0
    if data.shape[0] == 0:
        return y
    prod = data * x[indices]
    lengths = np.diff(indptr)
    nonempty = np.flatnonzero(lengths > 0)
    y[nonempty] = np.add.reduceat(prod, indptr[:-1][nonempty])
    return y


def _split_local(indptr, indices, data, lo, hi):
    """Split a CSR block into (local, nonlocal) column parts.

    Local means column index in ``[lo, hi)`` — the worker's own row
    range, i.e. the part that needs no "halo" in the distributed
    picture.  Both parts keep the original row structure (their
    ``indptr`` spans the same rows).
    """
    nrows = indptr.shape[0] - 1
    mask = (indices >= lo) & (indices < hi)
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))
    parts = []
    for m in (mask, ~mask):
        cnt = np.bincount(row_of[m], minlength=nrows)
        ip = np.zeros(nrows + 1, dtype=indptr.dtype)
        np.cumsum(cnt, out=ip[1:])
        parts.append((ip, indices[m], data[m]))
    return parts


def _worker_loop(
    rank,
    indptr,
    indices,
    data,
    row_range,
    mode,
    x_name,
    y_name,
    ncols,
    nrows_total,
    dtype_str,
    task_q,
    done_q,
):
    """Persistent worker: attach to the shared vectors, serve spmv calls."""
    dtype = np.dtype(dtype_str)
    shm_x = shared_memory.SharedMemory(name=x_name)
    shm_y = shared_memory.SharedMemory(name=y_name)
    try:
        x = np.ndarray(ncols, dtype=dtype, buffer=shm_x.buf)
        y_full = np.ndarray(nrows_total, dtype=dtype, buffer=shm_y.buf)
        lo, hi = row_range
        y = y_full[lo:hi]
        if mode == "task":
            (lip, lidx, ldat), (nip, nidx, ndat) = _split_local(
                indptr, indices, data, lo, hi
            )
            scratch = np.empty(hi - lo, dtype=dtype)
        while True:
            msg = task_q.get()
            if msg is None:
                break
            try:
                if mode == "vector":
                    _block_spmv(indptr, indices, data, x, y)
                else:
                    # split kernel: local part then nonlocal part, the
                    # result vector is written twice (Sect. III-A cost)
                    _block_spmv(lip, lidx, ldat, x, y)
                    _block_spmv(nip, nidx, ndat, x, scratch)
                    y += scratch
                done_q.put((rank, None))
            except Exception as exc:  # pragma: no cover - defensive
                done_q.put((rank, f"{type(exc).__name__}: {exc}"))
    finally:
        shm_x.close()
        shm_y.close()


class ParallelSpMV:
    """Persistent pool of row-block SpMV workers over shared vectors.

    Parameters
    ----------
    matrix:
        Any registered format; it is converted to CSR row blocks.
    nworkers:
        Number of worker processes (block count).
    mode:
        ``"vector"`` (unsplit kernel, bitwise-matches serial) or
        ``"task"`` (local/nonlocal split, matches to rounding).
    """

    def __init__(
        self,
        matrix: SparseMatrixFormat,
        nworkers: int,
        *,
        mode: str = "vector",
        start_method: str | None = None,
    ):
        if mode not in PARALLEL_MODES:
            raise ValueError(
                f"unknown parallel mode {mode!r}; choose from {PARALLEL_MODES}"
            )
        if nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {nworkers}")
        csr = (
            matrix
            if isinstance(matrix, CSRMatrix)
            else CSRMatrix.from_coo(matrix.to_coo())
        )
        nworkers = min(nworkers, csr.nrows)
        self.mode = mode
        self.nworkers = nworkers
        self.nrows = csr.nrows
        self.ncols = csr.ncols
        self.nnz = csr.nnz
        self.dtype = csr.dtype
        self.partition = partition_rows(
            csr.nrows, nworkers, row_weights=csr.row_lengths().astype(np.float64)
        )
        self.calls = 0
        self._closed = False

        itemsize = self.dtype.itemsize
        self._shm_x = shared_memory.SharedMemory(
            create=True, size=max(1, self.ncols * itemsize)
        )
        self._shm_y = shared_memory.SharedMemory(
            create=True, size=max(1, self.nrows * itemsize)
        )
        self._x = np.ndarray(self.ncols, dtype=self.dtype, buffer=self._shm_x.buf)
        self._y = np.ndarray(self.nrows, dtype=self.dtype, buffer=self._shm_y.buf)

        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = mp.get_context(start_method)
        self._done_q = ctx.SimpleQueue()
        self._task_qs = []
        self._procs = []
        indptr = csr.indptr
        indices = csr.indices
        data = csr.data
        with obs.span("engine.parallel.start", nworkers=nworkers, mode=mode):
            for rank, (lo, hi) in enumerate(self.partition):
                p0, p1 = int(indptr[lo]), int(indptr[hi])
                block_indptr = (indptr[lo : hi + 1] - p0).copy()
                tq = ctx.SimpleQueue()
                proc = ctx.Process(
                    target=_worker_loop,
                    args=(
                        rank,
                        block_indptr,
                        indices[p0:p1].copy(),
                        data[p0:p1].copy(),
                        (lo, hi),
                        mode,
                        self._shm_x.name,
                        self._shm_y.name,
                        self.ncols,
                        self.nrows,
                        self.dtype.str,
                        tq,
                        self._done_q,
                    ),
                    daemon=True,
                )
                proc.start()
                self._task_qs.append(tq)
                self._procs.append(proc)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x`` computed by the worker pool.

        ``x`` is copied into the shared input segment; each worker
        writes its row block of the shared output, which is then
        copied into ``out`` (allocated if missing).
        """
        if self._closed:
            raise RuntimeError("ParallelSpMV is closed")
        x = np.asarray(x)
        if x.shape != (self.ncols,):
            raise ValueError(f"x must have shape ({self.ncols},), got {x.shape}")
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)
        self._x[:] = x
        for tq in self._task_qs:
            tq.put("go")
        errors = []
        for _ in range(self.nworkers):
            rank, err = self._done_q.get()
            if err is not None:
                errors.append(f"worker {rank}: {err}")
        if errors:
            raise RuntimeError("; ".join(errors))
        self.calls += 1
        if obs.enabled():
            obs.inc(
                "engine_parallel_spmv_total", 1,
                mode=self.mode, nworkers=str(self.nworkers),
            )
        if out is None:
            return self._y.copy()
        if out.shape != (self.nrows,):
            raise ValueError(
                f"out must have shape ({self.nrows},), got {out.shape}"
            )
        np.copyto(out, self._y, casting="same_kind")
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release the shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for tq in self._task_qs:
            try:
                tq.put(None)
            except (OSError, ValueError):  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        self._x = None
        self._y = None
        for shm in (self._shm_x, self._shm_y):
            try:
                shm.close()
                shm.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass

    def __enter__(self) -> "ParallelSpMV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ParallelSpMV {self.nrows}x{self.ncols} nnz={self.nnz} "
            f"workers={self.nworkers} mode={self.mode} calls={self.calls}>"
        )


def parallel_spmv(
    matrix: SparseMatrixFormat,
    x: np.ndarray,
    *,
    nworkers: int,
    mode: str = "vector",
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`ParallelSpMV`."""
    with ParallelSpMV(matrix, nworkers, mode=mode) as pool:
        return pool.spmv(x)
