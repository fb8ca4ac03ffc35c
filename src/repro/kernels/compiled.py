"""Optional compiled kernel tier, registered behind the central registry.

The paper's Sect. III point is that an spMVM kernel should run at the
memory-bandwidth limit.  This module adds *fused* single-pass kernels
that stream the format's own arrays for the CSR, ELLPACK/-R, JDS/pJDS,
SELL-C-sigma, CMRS and ARG-CSR hot loops (spmv and batched spmm),
registered through :func:`repro.ops.registry.register_kernel` as
ordinary variants — so :class:`~repro.engine.bound.BoundMatrix`, every
backend (distributed / serve) and all five solvers pick them up with
zero call-site changes, and the autotuner simply ranks the spmv kernels
against the scipy ones per matrix.  Its spmm kernels are the shared
stored-CSR batch body (:func:`repro.ops.spmm_kernels.stored_spmm`)
handed the C ``csr_spmm`` sweep; they rank first in their lists, so
every batch runs them when the tier is built.

The ``cnative`` backend consists of C kernels compiled once per machine
with the system C compiler (``cc``/``gcc``/``clang``), cached as a
shared library under the repro cache dir and loaded through
:mod:`ctypes`.  Every kernel runs on one process-wide pthread pool
(``pool_run``, described above the C source): the calling thread
claims chunks beside one worker per CPU in the process's affinity mask
minus one; ``OMP_NUM_THREADS`` does not apply.  A chunk always holds
whole rows, so results are bitwise the same at any thread count.

Every spmv kernel sums each row in ascending column order from a zero
accumulator, as CRS does, so for finite ``x`` it agrees *bitwise* with
the CRS matrix's ``csr_scipy`` at float64 and float32; every spmm
column is bitwise the format's spmv — ``tests/test_ops.py`` pins both.

The same library carries kernels that are bound rather than
registered, each beside a NumPy body that is its bitwise reference and
its fallback when the tier is off:

- three float64 Krylov vector kernels (``vec_dot_f64``,
  ``cg_update_f64``, ``vec_xpby_f64``), bound by
  :mod:`repro.solvers.vector`: they keep a solver iteration's BLAS-1
  work in the spmv kernels' pool, and their reductions agree bitwise
  with the NumPy fallback's;
- two JDS/pJDS set-up kernels (``jds_fill_{f64,f32}``,
  ``jds_rows_{f64,f32}``), bound by :mod:`repro.core.jds`: one pass
  over the row-major COO places every entry in its jagged column, and
  one pass over the stored rows writes the stored-order CSR view
  (original or permuted basis) that the ``*_scipy`` delegate sweeps.
  They are pure copies, so they are bitwise at any dtype.

Environment knobs:

``REPRO_COMPILED_DISABLE``
    comma-separated backend names (``cnative`` or ``all``) to
    suppress; used by the guarded-import tests and as an escape hatch
    on machines with a broken toolchain.
``REPRO_CC``
    C compiler to use for the ``cnative`` build (default: first of
    ``cc``/``gcc``/``clang`` on PATH).
``REPRO_CACHE_DIR``
    cache root for the compiled shared library (default
    ``~/.cache/repro-pjds``), shared with the matrix/tuner caches.

:func:`kernel_tiers` reports the loaded tier set (with versions); the
autotuner folds it into the matrix fingerprint so a tuning decision
cached without a backend never pins a slow variant after the backend
appears (see :func:`repro.engine.tuner.fingerprint`).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import scipy

from repro.core.jds import JaggedDiagonalsBase
from repro.core.sell import SELLMatrix
from repro.formats.argcsr import ARGCSRMatrix
from repro.formats.cmrs import CMRSMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.ellpack import ELLPACKMatrix
from repro.ops.registry import CNATIVE_TAG, register_kernel
from repro.ops.spmm_kernels import stored_spmm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.workspace import Workspace

__all__ = [
    "kernel_tiers",
    "backend_status",
    "CNATIVE_TAG",
]


def _disabled() -> set[str]:
    raw = os.environ.get("REPRO_COMPILED_DISABLE", "")
    names = {t.strip().lower() for t in raw.split(",") if t.strip()}
    if "all" in names:
        names.add(CNATIVE_TAG)
    return names


# ---------------------------------------------------------------------------
# cnative backend: one C translation unit, compiled once per machine
# ---------------------------------------------------------------------------

# Kernel bodies are generated for float64/float32 values.  Column
# indices (and CMRS's row_in_strip) are int32, as every format stores
# them; offsets and row arrays are int64.  The CSR body is generated
# twice, for the int64 row pointer of a CRS matrix and the int32 one of
# the stored-CSR views.  Accumulation is a zero-initialised scalar
# walked in ascending entry order — the same order as CRS's csr_scipy,
# which is what makes the parity bitwise.  Every kernel splits its
# work into fixed chunks (row blocks, entry ranges, SELL chunk runs or
# vector blocks) and hands them to one process-wide pool (``pool_run``
# below); a chunk always holds whole rows, so chunking never changes
# any per-row order.
#
# The pool: the calling thread claims chunks from a shared counter
# alongside ``CPUs in the affinity mask - 1`` detached workers, so it
# waits only for chunks someone already claimed, never for a worker
# that has not woken (a worker descheduled behind another process's
# spinning thread costs at most the chunk it holds).  The claim word
# is ``generation << 32 | next chunk``: a worker that wakes late never
# runs a chunk of a job that has finished.  Workers sleep on a
# condition variable as soon as a job has nothing left to claim.  A
# caller that finds the pool busy (another Python thread is inside a
# kernel; ctypes drops the GIL) runs its chunks inline, so concurrent
# callers never stack thread teams.  A ``pthread_atfork`` child handler
# re-initialises the pool, so kernels keep working in forked children.
_C_PRELUDE = r"""
#define _GNU_SOURCE
#include <stddef.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <unistd.h>
typedef long long i64;
typedef int i32;

/* multiply-adds per entry-range chunk; most rows per row block (the
   block's accumulator stays in L1) */
#define CHUNK_WORK 32768
#define CHUNK_ROWS 4096
#define POOL_MAX_WORKERS 255

typedef void (*pool_fn)(void *ctx, i64 chunk);

static pthread_mutex_t pool_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t pool_cv = PTHREAD_COND_INITIALIZER;
static int pool_started;   /* workers spawned in this process */
static int pool_workers;
static int pool_want = -1; /* CPUs in the affinity mask - 1 (atomic) */
static int pool_busy;      /* a job owns the pool (atomic) */
static int pool_hooked;    /* atfork handler registered */
static unsigned pool_gen;  /* job generation; written under pool_mu */
static pool_fn pool_job_fn;
static void *pool_job_ctx;
static i64 pool_job_n;
static unsigned long long pool_claim; /* gen << 32 | next chunk */
static i64 pool_done;                 /* chunks of this job finished */

static i64 min_i64(i64 a, i64 b) { return a < b ? a : b; }

static i64 ceil_div(i64 a, i64 b) { return (a + b - 1) / b; }

static void pool_relax(void) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
}

static int pool_cpus(void) {
    long n;
#ifdef CPU_COUNT
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
#endif
    n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? (int)n : 1;
}

/* Claim and run chunks of job `gen` until none are left. */
static void pool_drain(unsigned gen, pool_fn fn, void *ctx, i64 n) {
    for (;;) {
        unsigned long long c = __atomic_load_n(&pool_claim, __ATOMIC_ACQUIRE);
        const i64 chunk = (i64)(c & 0xffffffffULL);
        if ((unsigned)(c >> 32) != gen || chunk >= n)
            return;
        if (!__atomic_compare_exchange_n(&pool_claim, &c, c + 1, 0,
                                         __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE))
            continue;
        fn(ctx, chunk);
        __atomic_add_fetch(&pool_done, 1, __ATOMIC_RELEASE);
    }
}

static void *pool_worker(void *arg) {
    unsigned seen = (unsigned)(size_t)arg;
    pthread_mutex_lock(&pool_mu);
    for (;;) {
        unsigned gen;
        pool_fn fn;
        void *ctx;
        i64 n;
        while (pool_gen == seen)
            pthread_cond_wait(&pool_cv, &pool_mu);
        seen = gen = pool_gen;
        fn = pool_job_fn;
        ctx = pool_job_ctx;
        n = pool_job_n;
        pthread_mutex_unlock(&pool_mu);
        pool_drain(gen, fn, ctx, n);
        pthread_mutex_lock(&pool_mu);
    }
    return NULL;
}

/* The child of a fork has only the forking thread: forget the workers
   and any job in flight, and start afresh on the next call. */
static void pool_atfork_child(void) {
    pthread_mutex_init(&pool_mu, NULL);
    pthread_cond_init(&pool_cv, NULL);
    pool_started = 0;
    pool_workers = 0;
    pool_busy = 0;
}

/* Worker threads wanted: CPUs in the affinity mask - 1, read once. */
static int pool_wanted(void) {
    int want = __atomic_load_n(&pool_want, __ATOMIC_RELAXED);
    if (want < 0) {
        want = pool_cpus() - 1;
        want = want < 0 ? 0 : want > POOL_MAX_WORKERS ? POOL_MAX_WORKERS : want;
        __atomic_store_n(&pool_want, want, __ATOMIC_RELAXED);
    }
    return want;
}

/* Called with the pool owned (pool_busy == 1). */
static void pool_start(void) {
    pthread_attr_t attr;
    sigset_t all, old;
    const int want = pool_wanted();
    if (!pool_hooked)
        pool_hooked = pthread_atfork(NULL, NULL, pool_atfork_child) == 0;
    pool_started = 1;
    pool_workers = 0;
    if (want <= 0 || !pool_hooked)
        return;
    pthread_attr_init(&attr);
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    /* signals stay with the interpreter's threads */
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    while (pool_workers < want) {
        pthread_t t;
        if (pthread_create(&t, &attr, pool_worker,
                           (void *)(size_t)pool_gen) != 0)
            break;
        pool_workers++;
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    pthread_attr_destroy(&attr);
}

/* Run fn(ctx, c) for every c in [0, n), each chunk exactly once. */
static void pool_run(pool_fn fn, void *ctx, i64 n) {
    int idle = 0;
    i64 c;
    if (n >= 2 && n <= 0xffffffffLL
        && __atomic_compare_exchange_n(&pool_busy, &idle, 1, 0,
                                       __ATOMIC_ACQUIRE, __ATOMIC_RELAXED)) {
        if (!pool_started)
            pool_start();
        if (pool_workers > 0) {
            unsigned gen, spins = 0;
            pthread_mutex_lock(&pool_mu);
            pool_job_fn = fn;
            pool_job_ctx = ctx;
            pool_job_n = n;
            __atomic_store_n(&pool_done, 0, __ATOMIC_RELAXED);
            gen = ++pool_gen;
            __atomic_store_n(&pool_claim, (unsigned long long)gen << 32,
                             __ATOMIC_RELEASE);
            pthread_mutex_unlock(&pool_mu);
            /* after the unlock: a woken worker need not block on pool_mu */
            pthread_cond_broadcast(&pool_cv);
            pool_drain(gen, fn, ctx, n);
            while (__atomic_load_n(&pool_done, __ATOMIC_ACQUIRE) < n) {
                if (++spins < 1024)
                    pool_relax();
                else
                    sched_yield();
            }
            __atomic_store_n(&pool_busy, 0, __ATOMIC_RELEASE);
            return;
        }
        __atomic_store_n(&pool_busy, 0, __ATOMIC_RELEASE);
    }
    for (c = 0; c < n; c++)
        fn(ctx, c);
}

/* Worker threads this process runs kernels on (started or not). */
int pool_size(void) {
    return pool_started ? pool_workers : pool_wanted();
}

/* First i in [0, n) with ptr[i] >= e, else n: where a chunk whose
   entry range starts at e begins, for a CSR indptr (rows), a CMRS
   strip_ptr (strips) or an ARG-CSR group_ptr (groups). */
static i64 ptr_at_i64(const i64 *ptr, i64 n, i64 e) {
    i64 lo = 0, hi = n;
    while (lo < hi) {
        const i64 mid = lo + (hi - lo) / 2;
        if (ptr[mid] < e)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static i64 ptr_at_i32(const i32 *ptr, i64 n, i64 e) {
    i64 lo = 0, hi = n;
    while (lo < hi) {
        const i64 mid = lo + (hi - lo) / 2;
        if ((i64)ptr[mid] < e)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Units per block when n units are cut into blocks of at most `per`:
   the fewest blocks whose count is a multiple of the thread count, of
   even size.  Fixed blocks of 4096 rows would split a 4,350-row matrix
   into 4,096 + 254 rows, and blocks much shorter than that slow the
   column-major ELLPACK/JDS sweeps. */
static i64 even_block(i64 n, i64 per) {
    const i64 t = pool_size() + 1;
    return n > 0 ? ceil_div(n, t * ceil_div(n, t * per)) : 1;
}

static void row_block(i64 nrows, i64 rows, i64 c, i64 *lo, i64 *hi) {
    *lo = c * rows;
    *hi = min_i64(*lo + rows, nrows);
}
"""

_C_CSR_TEMPLATE = r"""
typedef struct {{
    i64 nrows, k, per, nchunks;
    const {IT} *indptr;
    const i32 *col;
    const {FT} *val, *X;
    {FT} *Y;
}} csr_job_{I}_{F};

static void csr_rows_{I}_{F}(const csr_job_{I}_{F} *a, i64 c, i64 *lo,
                             i64 *hi) {{
    const i64 base = (i64)a->indptr[0];
    *lo = c == 0 ? 0 : ptr_at_{I}(a->indptr, a->nrows, base + c * a->per);
    *hi = c == a->nchunks - 1
        ? a->nrows : ptr_at_{I}(a->indptr, a->nrows, base + (c + 1) * a->per);
}}

static void csr_spmv_chunk_{I}_{F}(void *p, i64 c) {{
    const csr_job_{I}_{F} *a = p;
    const {IT} *restrict indptr = a->indptr;
    const i32 *restrict col = a->col;
    const {FT} *restrict val = a->val;
    const {FT} *restrict x = a->X;
    {FT} *restrict y = a->Y;
    i64 i, lo, hi;
    csr_rows_{I}_{F}(a, c, &lo, &hi);
    for (i = lo; i < hi; i++) {{
        {FT} t = 0;
        i64 e;
        for (e = (i64)indptr[i]; e < (i64)indptr[i + 1]; e++)
            t += val[e] * x[col[e]];
        y[i] = t;
    }}
}}

/* Register tiles of 4, 2 and 1 columns: each tile walks the row's
   entries with its sums t0..t3 in registers, so Y is stored once per
   row instead of loaded and stored per entry.  Every column is still
   summed in stored-entry order from 0 (bitwise equal to the format's
   spmv); the 4- and 2-column walks take two entries per step, which
   halves their loop overhead without reordering any sum. */
static void csr_spmm_chunk_{I}_{F}(void *p, i64 c) {{
    const csr_job_{I}_{F} *a = p;
    const {IT} *restrict indptr = a->indptr;
    const i32 *restrict col = a->col;
    const {FT} *restrict val = a->val;
    const {FT} *restrict X = a->X;
    {FT} *restrict Y = a->Y;
    const i64 k = a->k;
    i64 i, lo, hi;
    csr_rows_{I}_{F}(a, c, &lo, &hi);
    for (i = lo; i < hi; i++) {{
        const i64 e0 = (i64)indptr[i], e1 = (i64)indptr[i + 1];
        {FT} *yi = Y + i * k;
        i64 e, j = 0;
        for (; j + 4 <= k; j += 4) {{
            {FT} t0 = 0, t1 = 0, t2 = 0, t3 = 0;
            for (e = e0; e + 1 < e1; e += 2) {{
                const {FT} v = val[e], w = val[e + 1];
                const {FT} *xr = X + (i64)col[e] * k + j;
                const {FT} *xs = X + (i64)col[e + 1] * k + j;
                t0 += v * xr[0];
                t1 += v * xr[1];
                t2 += v * xr[2];
                t3 += v * xr[3];
                t0 += w * xs[0];
                t1 += w * xs[1];
                t2 += w * xs[2];
                t3 += w * xs[3];
            }}
            if (e < e1) {{
                const {FT} v = val[e];
                const {FT} *xr = X + (i64)col[e] * k + j;
                t0 += v * xr[0];
                t1 += v * xr[1];
                t2 += v * xr[2];
                t3 += v * xr[3];
            }}
            yi[j] = t0;
            yi[j + 1] = t1;
            yi[j + 2] = t2;
            yi[j + 3] = t3;
        }}
        if (j + 2 <= k) {{
            {FT} t0 = 0, t1 = 0;
            for (e = e0; e + 1 < e1; e += 2) {{
                const {FT} v = val[e], w = val[e + 1];
                const {FT} *xr = X + (i64)col[e] * k + j;
                const {FT} *xs = X + (i64)col[e + 1] * k + j;
                t0 += v * xr[0];
                t1 += v * xr[1];
                t0 += w * xs[0];
                t1 += w * xs[1];
            }}
            if (e < e1) {{
                const {FT} v = val[e];
                const {FT} *xr = X + (i64)col[e] * k + j;
                t0 += v * xr[0];
                t1 += v * xr[1];
            }}
            yi[j] = t0;
            yi[j + 1] = t1;
            j += 2;
        }}
        if (j < k) {{
            {FT} t0 = 0;
            for (e = e0; e < e1; e++)
                t0 += val[e] * X[(i64)col[e] * k + j];
            yi[j] = t0;
        }}
    }}
}}

/* k == 1 is the spmv row loop (unit-stride x, no column tiles). */
void csr_spmm_{I}_{F}(i64 nrows, i64 k, const {IT} *indptr, const i32 *col,
                      const {FT} *val, const {FT} *X, {FT} *Y) {{
    csr_job_{I}_{F} a = {{nrows, k, 0, 1, indptr, col, val, X, Y}};
    i64 nnz;
    if (nrows <= 0 || k <= 0)
        return;
    nnz = (i64)indptr[nrows] - (i64)indptr[0];
    a.per = CHUNK_WORK / k > 1024 ? CHUNK_WORK / k : 1024;
    if (nnz > a.per)
        a.nchunks = ceil_div(nnz, a.per);
    pool_run(k == 1 ? csr_spmv_chunk_{I}_{F} : csr_spmm_chunk_{I}_{F}, &a,
             a.nchunks);
}}

void csr_spmv_{I}_{F}(i64 nrows, const {IT} *indptr, const i32 *col,
                      const {FT} *val, const {FT} *x, {FT} *y) {{
    csr_spmm_{I}_{F}(nrows, 1, indptr, col, val, x, y);
}}
"""

_C_FMT_TEMPLATE = r"""
/* ELLPACK rectangle, (width, padded_rows) column-major slabs, and
   JDS/pJDS jagged diagonals: row blocks (even_block).  The
   jagged-column sweep keeps val/col reads sequential and the block's
   accumulator cache-resident. */
typedef struct {{
    i64 nrows, prows, width, rows;
    const i64 *cs;
    const i32 *col;
    const {FT} *val, *x;
    {FT} *y;
}} slab_job_{F};

static void ell_chunk_{F}(void *p, i64 c) {{
    const slab_job_{F} *a = p;
    const {FT} *restrict x = a->x;
    {FT} *restrict y = a->y;
    i64 i, j, lo, hi;
    row_block(a->nrows, a->rows, c, &lo, &hi);
    for (i = lo; i < hi; i++)
        y[i] = 0;
    for (j = 0; j < a->width; j++) {{
        const {FT} *restrict vj = a->val + j * a->prows;
        const i32 *restrict cj = a->col + j * a->prows;
        for (i = lo; i < hi; i++)
            y[i] += vj[i] * x[cj[i]];
    }}
}}

void ell_spmv_{F}(i64 nrows, i64 prows, i64 width, const i32 *col,
                  const {FT} *val, const {FT} *x, {FT} *y) {{
    slab_job_{F} a = {{nrows, prows, width, even_block(nrows, CHUNK_ROWS),
                       NULL, col, val, x, y}};
    pool_run(ell_chunk_{F}, &a, ceil_div(nrows, a.rows));
}}

/* Column lengths are non-increasing, so a row block stops at the first
   too-short column. */
static void jds_chunk_{F}(void *p, i64 c) {{
    const slab_job_{F} *a = p;
    const i32 *restrict col = a->col;
    const {FT} *restrict val = a->val;
    const {FT} *restrict x = a->x;
    {FT} *restrict y = a->y;
    i64 r, j, lo, hi;
    row_block(a->nrows, a->rows, c, &lo, &hi);
    for (r = lo; r < hi; r++)
        y[r] = 0;
    for (j = 0; j < a->width; j++) {{
        const i64 s = a->cs[j];
        const i64 len = a->cs[j + 1] - s;
        const i64 h = len < hi ? len : hi;
        if (len <= lo)
            break;
        for (r = lo; r < h; r++)
            y[r] += val[s + r] * x[col[s + r]];
    }}
}}

void jds_spmv_{F}(i64 nrows, i64 width, const i64 *col_start,
                  const i32 *col, const {FT} *val, const {FT} *x, {FT} *y) {{
    slab_job_{F} a = {{nrows, 0, width, even_block(nrows, CHUNK_ROWS),
                       col_start, col, val, x, y}};
    pool_run(jds_chunk_{F}, &a, ceil_div(nrows, a.rows));
}}

/* CMRS strips: the entry stream is row-major CRS order; strip s owns
   rows [s*hs, (s+1)*hs) exclusively, so a chunk is a run of whole
   strips (about CHUNK_WORK entries, found by binary search on sptr) and
   each row accumulates ascending through its entries (bitwise vs
   CRS at float64 and float32). */
typedef struct {{
    i64 nrows, nstrips, hs, nchunks;
    const i64 *sptr;
    const i32 *ris, *col;
    const {FT} *val, *x;
    {FT} *y;
}} cmrs_job_{F};

static void cmrs_chunk_{F}(void *p, i64 c) {{
    const cmrs_job_{F} *a = p;
    const i32 *restrict ris = a->ris;
    const i32 *restrict col = a->col;
    const {FT} *restrict val = a->val;
    const {FT} *restrict x = a->x;
    {FT} *restrict y = a->y;
    const i64 s0 = c == 0 ? 0 : ptr_at_i64(a->sptr, a->nstrips, c * CHUNK_WORK);
    const i64 s1 = c == a->nchunks - 1
        ? a->nstrips : ptr_at_i64(a->sptr, a->nstrips, (c + 1) * CHUNK_WORK);
    /* s1 is nstrips when the chunk ends inside the last strip, which
       may be partial */
    const i64 r1 = c == a->nchunks - 1
        ? a->nrows : min_i64(s1 * a->hs, a->nrows);
    i64 i, s;
    for (i = s0 * a->hs; i < r1; i++)
        y[i] = 0;
    for (s = s0; s < s1; s++) {{
        i64 e = a->sptr[s];
        const i64 hi = a->sptr[s + 1];
        while (e < hi) {{
            const i64 rr = ris[e];
            {FT} t = 0;
            while (e < hi && ris[e] == rr) {{
                t += val[e] * x[col[e]];
                e++;
            }}
            y[s * a->hs + rr] = t;
        }}
    }}
}}

void cmrs_spmv_{F}(i64 nrows, i64 nstrips, i64 hs, const i64 *sptr,
                   const i32 *ris, const i32 *col, const {FT} *val,
                   const {FT} *x, {FT} *y) {{
    const i64 nnz = sptr[nstrips];
    cmrs_job_{F} a = {{nrows, nstrips, hs,
                       nnz > CHUNK_WORK ? ceil_div(nnz, CHUNK_WORK) : 1,
                       sptr, ris, col, val, x, y}};
    pool_run(cmrs_chunk_{F}, &a, a.nchunks);
}}

/* ARG-CSR: one row-major (n_g, width) rectangle per length group; each
   row sweeps its full padded width (padding is 0 * x[0]) in ascending
   column order — bitwise CRS for finite x.  The groups form
   one job: a chunk is a range of stored rows holding about CHUNK_WORK
   slots, and may span groups. */
typedef struct {{
    i64 ngroups, nchunks, nrows;
    const i64 *gptr, *gwidth, *rptr, *row_ids;
    const i32 *col;
    const {FT} *val, *x;
    {FT} *y;
}} argcsr_job_{F};

static void argcsr_zero_{F}(void *p, i64 c) {{
    const argcsr_job_{F} *a = p;
    i64 i, lo, hi;
    row_block(a->nrows, CHUNK_ROWS, c, &lo, &hi);
    for (i = lo; i < hi; i++)
        a->y[i] = 0;
}}

/* first stored row whose slots start at or after slot e */
static i64 argcsr_row_at_{F}(const argcsr_job_{F} *a, i64 e) {{
    const i64 g = ptr_at_i64(a->gptr, a->ngroups, e + 1) - 1;
    const i64 L = a->gwidth[g];
    return a->rptr[g] + (L > 0 ? ceil_div(e - a->gptr[g], L) : 0);
}}

static void argcsr_chunk_{F}(void *p, i64 c) {{
    const argcsr_job_{F} *a = p;
    const {FT} *restrict x = a->x;
    {FT} *restrict y = a->y;
    const i64 rlo = c == 0 ? 0 : argcsr_row_at_{F}(a, c * CHUNK_WORK);
    const i64 rhi = c == a->nchunks - 1
        ? a->rptr[a->ngroups] : argcsr_row_at_{F}(a, (c + 1) * CHUNK_WORK);
    i64 g = ptr_at_i64(a->rptr, a->ngroups, rlo + 1) - 1;
    i64 r = rlo;
    while (r < rhi) {{
        i64 L, r0, base, end;
        while (a->rptr[g + 1] <= r)
            g++;
        L = a->gwidth[g];
        r0 = a->rptr[g];
        base = a->gptr[g];
        end = min_i64(a->rptr[g + 1], rhi);
        for (; r < end; r++) {{
            const {FT} *restrict vr = a->val + base + (r - r0) * L;
            const i32 *restrict cr = a->col + base + (r - r0) * L;
            {FT} t = 0;
            i64 j;
            for (j = 0; j < L; j++)
                t += vr[j] * x[cr[j]];
            y[a->row_ids[r]] = t;
        }}
    }}
}}

void argcsr_spmv_{F}(i64 nrows, i64 ngroups, const i64 *gptr,
                     const i64 *gwidth, const i64 *rptr,
                     const i64 *row_ids, const i32 *col, const {FT} *val,
                     const {FT} *x, {FT} *y) {{
    const i64 slots = gptr[ngroups];
    argcsr_job_{F} a = {{ngroups,
                         slots > CHUNK_WORK ? ceil_div(slots, CHUNK_WORK) : 1,
                         nrows, gptr, gwidth, rptr, row_ids, col, val, x, y}};
    /* empty rows are in no group: zero them first */
    if (rptr[ngroups] < nrows)
        pool_run(argcsr_zero_{F}, &a, ceil_div(nrows, CHUNK_ROWS));
    if (ngroups > 0)
        pool_run(argcsr_chunk_{F}, &a, a.nchunks);
}}

/* SELL-C-sigma: chunk slots are column-major (width, C) rectangles; a
   pool chunk is a run of SELL chunks covering at most CHUNK_ROWS rows
   (even_block). */
typedef struct {{
    i64 nchunks, C, run;
    const i64 *ptr, *widths;
    const i32 *col;
    const {FT} *val, *x;
    {FT} *y;
}} sell_job_{F};

static void sell_chunk_{F}(void *p, i64 k) {{
    const sell_job_{F} *a = p;
    const i64 C = a->C;
    const {FT} *restrict x = a->x;
    const i64 c1 = min_i64((k + 1) * a->run, a->nchunks);
    i64 c;
    for (c = k * a->run; c < c1; c++) {{
        const i64 w = a->widths[c];
        const i64 base = a->ptr[c];
        {FT} *restrict yy = a->y + c * C;
        i64 r, j;
        for (r = 0; r < C; r++)
            yy[r] = 0;
        for (j = 0; j < w; j++) {{
            const {FT} *restrict vj = a->val + base + j * C;
            const i32 *restrict cj = a->col + base + j * C;
            for (r = 0; r < C; r++)
                yy[r] += vj[r] * x[cj[r]];
        }}
    }}
}}

void sell_spmv_{F}(i64 nchunks, i64 C, const i64 *ptr, const i64 *widths,
                   const i32 *col, const {FT} *val, const {FT} *x, {FT} *y) {{
    sell_job_{F} a = {{nchunks, C,
                       even_block(nchunks, C < CHUNK_ROWS ? CHUNK_ROWS / C : 1),
                       ptr, widths, col, val, x, y}};
    pool_run(sell_chunk_{F}, &a, ceil_div(nchunks, a.run));
}}

/* JDS/pJDS set-up (bound by repro.core.jds): a row block is a range of
   original rows for the fill and of stored rows for the view, and no
   two rows share a slot, so blocks never write the same element. */
typedef struct {{
    i64 nrows, rows;
    const i64 *ptr, *pl, *inv, *cs;
    const i32 *col;
    const {FT} *val;
    i32 *col_out;
    {FT} *val_out;
}} jds_setup_job_{F};

/* Entry j of original row r (a run of the row-major COO starting at
   ptr[r]) goes to slot cs[j] + inv[r]. */
static void jds_fill_chunk_{F}(void *p, i64 c) {{
    const jds_setup_job_{F} *a = p;
    const i64 *restrict cs = a->cs;
    const i32 *restrict col = a->col;
    const {FT} *restrict val = a->val;
    i32 *restrict col_out = a->col_out;
    {FT} *restrict val_out = a->val_out;
    i64 r, j, lo, hi;
    row_block(a->nrows, a->rows, c, &lo, &hi);
    for (r = lo; r < hi; r++) {{
        const i64 k = a->inv[r], e = a->ptr[r], len = a->ptr[r + 1] - e;
        for (j = 0; j < len; j++) {{
            val_out[cs[j] + k] = val[e + j];
            col_out[cs[j] + k] = col[e + j];
        }}
    }}
}}

void jds_fill_{F}(i64 nrows, const i64 *ptr, const i64 *inv, const i64 *cs,
                  const i32 *col, const {FT} *val, i32 *col_out,
                  {FT} *val_out) {{
    jds_setup_job_{F} a = {{nrows, even_block(nrows, CHUNK_ROWS), ptr, NULL,
                            inv, cs, col, val, col_out, val_out}};
    pool_run(jds_fill_chunk_{F}, &a, ceil_div(nrows, a.rows));
}}

/* Stored row k's pl[k] slots (cs[j] + k for j < pl[k]) copied row-major
   to [ptr[k], ptr[k + 1]); column indices pass through inv when it is
   given (the permuted basis), values are skipped when val_out is NULL. */
static void jds_rows_chunk_{F}(void *p, i64 c) {{
    const jds_setup_job_{F} *a = p;
    const i64 *restrict cs = a->cs;
    const i64 *restrict inv = a->inv;
    const i32 *restrict col = a->col;
    const {FT} *restrict val = a->val;
    i32 *restrict col_out = a->col_out;
    {FT} *restrict val_out = a->val_out;
    i64 k, j, lo, hi;
    row_block(a->nrows, a->rows, c, &lo, &hi);
    for (k = lo; k < hi; k++) {{
        const i64 o = a->ptr[k], len = a->pl[k];
        if (inv)
            for (j = 0; j < len; j++)
                col_out[o + j] = (i32)inv[col[cs[j] + k]];
        else
            for (j = 0; j < len; j++)
                col_out[o + j] = col[cs[j] + k];
        if (val_out)
            for (j = 0; j < len; j++)
                val_out[o + j] = val[cs[j] + k];
    }}
}}

void jds_rows_{F}(i64 nrows, const i64 *ptr, const i64 *pl, const i64 *cs,
                  const i32 *col, const {FT} *val, const i64 *inv,
                  i32 *col_out, {FT} *val_out) {{
    jds_setup_job_{F} a = {{nrows, even_block(nrows, CHUNK_ROWS), ptr, pl,
                            inv, cs, col, val, col_out, val_out}};
    pool_run(jds_rows_chunk_{F}, &a, ceil_div(nrows, a.rows));
}}
"""


# Krylov vector kernels (float64 only; bound by repro.solvers.vector).
# They run in the same pool as the spmv kernels, so a CG iteration
# never wakes a second (BLAS) thread pool.  A reduction sums each
# VEC_BLOCK-element block in VEC_LANES interleaved accumulators (lane l
# adds elements l, l + VEC_LANES, ... in turn), adds those pairwise by
# halving, and then adds the block partials in block order: the result
# depends on neither thread count nor schedule, and
# repro.solvers.vector._dot_np reproduces it bitwise.  NumPy runs that
# order fast only when the lanes are many: with 4 lanes its reduce
# loops over 4 elements at a time, over 10x slower than np.dot at
# n = 2**20.  The element-wise updates round exactly like their NumPy
# references: -std=c99 contracts no multiply-add into an FMA.
_C_VEC = r"""
#define VEC_BLOCK 4096
#define VEC_LANES 256
#define VEC_ROUND 2048

typedef struct {
    i64 n, first;
    double alpha;
    const double *a, *b;
    double *x, *r, *part;
} vec_job;

/* A block's lanes added pairwise by halving: acc[l] += acc[l + w]. */
static double vec_lane_sum(double *acc) {
    i64 w, l;
    for (w = VEC_LANES / 2; w >= 1; w /= 2)
        for (l = 0; l < w; l++)
            acc[l] = acc[l] + acc[l + w];
    return acc[0];
}

static double vec_block_dot(const double *restrict a,
                            const double *restrict b, i64 lo, i64 hi) {
    double acc[VEC_LANES] = {0};
    i64 i, l;
    for (i = lo; i < hi; i += VEC_LANES) {
        const i64 m = min_i64(VEC_LANES, hi - i);
        for (l = 0; l < m; l++)
            acc[l] += a[i + l] * b[i + l];
    }
    return vec_lane_sum(acc);
}

/* x += alpha * p;  r -= alpha * ap;  returns the block's r . r.  p may
   alias r (each element of p is read before the same element of r is
   written). */
static double vec_block_cg(double alpha, const double *p, const double *ap,
                           double *x, double *r, i64 lo, i64 hi) {
    double acc[VEC_LANES] = {0};
    i64 i, l;
    for (i = lo; i < hi; i += VEC_LANES) {
        const i64 m = min_i64(VEC_LANES, hi - i);
        for (l = 0; l < m; l++) {
            x[i + l] += alpha * p[i + l];
            r[i + l] -= alpha * ap[i + l];
            acc[l] += r[i + l] * r[i + l];
        }
    }
    return vec_lane_sum(acc);
}

static void vec_dot_chunk(void *p, i64 c) {
    const vec_job *v = p;
    const i64 lo = (v->first + c) * VEC_BLOCK;
    v->part[c] = vec_block_dot(v->a, v->b, lo, min_i64(lo + VEC_BLOCK, v->n));
}

static void vec_cg_chunk(void *p, i64 c) {
    const vec_job *v = p;
    const i64 lo = (v->first + c) * VEC_BLOCK;
    v->part[c] = vec_block_cg(v->alpha, v->a, v->b, v->x, v->r, lo,
                              min_i64(lo + VEC_BLOCK, v->n));
}

/* Block partials in the pool, then summed in block order; rounds of
   VEC_ROUND blocks keep the partials on the stack. */
static double vec_reduce(pool_fn fn, vec_job *v) {
    double part[VEC_ROUND], s = 0;
    const i64 nb = ceil_div(v->n, VEC_BLOCK);
    i64 c;
    v->part = part;
    for (v->first = 0; v->first < nb; v->first += VEC_ROUND) {
        const i64 m = min_i64(nb - v->first, VEC_ROUND);
        pool_run(fn, v, m);
        for (c = 0; c < m; c++)
            s += part[c];
    }
    return s;
}

double vec_dot_f64(i64 n, const double *a, const double *b) {
    vec_job v = {n, 0, 0, a, b, NULL, NULL, NULL};
    return vec_reduce(vec_dot_chunk, &v);
}

double cg_update_f64(i64 n, double alpha, const double *p, const double *ap,
                     double *x, double *r) {
    vec_job v = {n, 0, alpha, p, ap, x, r, NULL};
    return vec_reduce(vec_cg_chunk, &v);
}

/* p = z + beta * p */
static void vec_xpby_chunk(void *q, i64 c) {
    const vec_job *v = q;
    const double *restrict z = v->a;
    double *restrict p = v->x;
    const double beta = v->alpha;
    const i64 hi = min_i64((c + 1) * VEC_BLOCK, v->n);
    i64 i;
    for (i = c * VEC_BLOCK; i < hi; i++)
        p[i] = z[i] + beta * p[i];
}

void vec_xpby_f64(i64 n, const double *z, double beta, double *p) {
    vec_job v = {n, 0, beta, z, NULL, p, NULL, NULL};
    pool_run(vec_xpby_chunk, &v, ceil_div(n, VEC_BLOCK));
}
"""


def _c_source() -> str:
    parts = [_C_PRELUDE]
    for fsuf, ftype in (("f64", "double"), ("f32", "float")):
        for isuf in ("i64", "i32"):
            parts.append(
                _C_CSR_TEMPLATE.format(I=isuf, IT=isuf, F=fsuf, FT=ftype)
            )
        parts.append(_C_FMT_TEMPLATE.format(F=fsuf, FT=ftype))
    parts.append(_C_VEC)
    return "".join(parts)


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    base = Path(env) if env else Path.home() / ".cache" / "repro-pjds"
    return base / "compiled"


class _CNative:
    """The loaded cnative shared library plus its provenance tag."""

    def __init__(self, lib: ctypes.CDLL, tag: str, path: Path):
        self.lib = lib
        self.tag = tag
        self.path = path
        lib.pool_size.restype = ctypes.c_int

    def fn(self, name: str):
        f = getattr(self.lib, name)
        f.restype = None
        return f

    def workers(self) -> int:
        """Pool worker threads (CPUs in the affinity mask - 1)."""
        return self.lib.pool_size()


def _find_cc() -> str | None:
    env = os.environ.get("REPRO_CC")
    if env:
        return env if shutil.which(env) else None
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def _build_cnative() -> _CNative | None:
    """Compile (or reuse) the shared library; ``None`` on any failure.

    The library is keyed by a digest of the source + compiler, so a
    kernel change recompiles and two repro versions never collide.
    Compilation happens at most once per machine; every later import
    is a plain ``dlopen`` of the cached ``.so``.  ``-std=c99`` (not a
    GNU dialect) keeps the compiler from contracting a multiply-add
    into an FMA, which the bitwise parity relies on.
    """
    cc = _find_cc()
    if cc is None:
        return None
    source = _c_source()
    digest = hashlib.sha1(f"{cc}\n{source}".encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"spmv_{digest}.so"
    try:
        if not so_path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            src_path = cache / f"spmv_{digest}.c"
            src_path.write_text(source, encoding="utf-8")
            with tempfile.NamedTemporaryFile(
                dir=cache, suffix=".so", delete=False
            ) as tmp:
                tmp_path = Path(tmp.name)
            proc = subprocess.run(
                [cc, "-O3", "-fPIC", "-shared", "-std=c99", "-pthread",
                 str(src_path), "-o", str(tmp_path)],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode != 0:
                tmp_path.unlink(missing_ok=True)
                return None
            # atomic publish so concurrent builders never load a torn file
            os.replace(tmp_path, so_path)
        lib = ctypes.CDLL(str(so_path))
        return _CNative(lib, f"{cc}-{digest[:8]}", so_path)
    except (OSError, subprocess.SubprocessError):
        return None


_CNATIVE: _CNative | None = (
    None if CNATIVE_TAG in _disabled() else _build_cnative()
)


# ---------------------------------------------------------------------------
# shared python-side glue
# ---------------------------------------------------------------------------

def _contig_vec(ws: Workspace, name: str, x: np.ndarray, dtype) -> np.ndarray:
    """``x`` itself when compiled-callable, else a workspace copy."""
    if x.flags.c_contiguous and x.dtype == dtype:
        return x
    buf = ws.buf(name, x.shape, dtype)
    buf[...] = x
    return buf


def _out_vec(ws: Workspace, name: str, y: np.ndarray):
    """(callable target, finish) pair tolerating non-contiguous ``y``."""
    if y.flags.c_contiguous:
        return y, None
    buf = ws.buf(name, y.shape, y.dtype)
    return buf, buf


_F_SUFFIX = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}
_I_SUFFIX = {np.dtype(np.int64): "i64", np.dtype(np.int32): "i32"}


def _ptr(a: np.ndarray):
    return ctypes.c_void_p(a.ctypes.data)


# ---------------------------------------------------------------------------
# cnative kernels
# ---------------------------------------------------------------------------

if _CNATIVE is not None:
    _i64 = ctypes.c_longlong

    def _cc_csr_call(op, nrows, indptr, col, val, x, y, k=None):
        fs = _F_SUFFIX[val.dtype]
        isuf = _I_SUFFIX[indptr.dtype]
        fn = _CNATIVE.fn(f"csr_{op}_{isuf}_{fs}")
        if op == "spmv":
            fn(_i64(nrows), _ptr(indptr), _ptr(col), _ptr(val), _ptr(x), _ptr(y))
        else:
            fn(
                _i64(nrows), _i64(k), _ptr(indptr), _ptr(col), _ptr(val),
                _ptr(x), _ptr(y),
            )

    def _cc_csr_spmv(m: CSRMatrix, ws, x, y, permuted=False):
        if m.nrows == 0:
            return
        xb = _contig_vec(ws, "cc_x", x, m.dtype)
        yb, fin = _out_vec(ws, "cc_y", y)
        _cc_csr_call("spmv", m.nrows, m.indptr, m.indices, m.data, xb, yb)
        if fin is not None:
            y[:] = fin

    def _cc_ell_spmv(m: ELLPACKMatrix, ws, x, y, permuted=False):
        if m.nrows == 0:
            return
        if m.width == 0:
            y.fill(0.0)
            return
        val = ws.const("val", lambda: m.val)
        col = ws.const("col", lambda: m.col)
        xb = _contig_vec(ws, "cc_x", x, m.dtype)
        yb, fin = _out_vec(ws, "cc_y", y)
        fn = _CNATIVE.fn(f"ell_spmv_{_F_SUFFIX[m.dtype]}")
        fn(
            _i64(m.nrows), _i64(m.padded_rows), _i64(m.width),
            _ptr(col), _ptr(val), _ptr(xb), _ptr(yb),
        )
        if fin is not None:
            y[:] = fin

    def _cc_jds_spmv(m: JaggedDiagonalsBase, ws, x, y, permuted=False):
        if m.nrows == 0:
            return
        if m.total_slots == 0:
            y.fill(0.0)
            return
        col_idx = (
            ws.const("jds_colperm", lambda: m._permuted_col_idx())  # noqa: SLF001
            if permuted
            else ws.const("col_idx", lambda: m.col_idx)
        )
        val = ws.const("val", lambda: m.val)
        cs = ws.const("col_start", lambda: m.col_start)
        xb = _contig_vec(ws, "cc_x", x, m.dtype)
        yb, fin = _out_vec(ws, "cc_y", y)
        fn = _CNATIVE.fn(f"jds_spmv_{_F_SUFFIX[m.dtype]}")
        fn(
            _i64(m.nrows), _i64(m.width), _ptr(cs),
            _ptr(col_idx), _ptr(val), _ptr(xb), _ptr(yb),
        )
        if fin is not None:
            y[:] = fin

    def _cc_sell_spmv(m: SELLMatrix, ws, x, y, permuted=False):
        if m.nrows == 0:
            return
        if m.total_slots == 0:
            y.fill(0.0)
            return
        ptr = ws.const("chunk_ptr", lambda: m.chunk_ptr)
        widths = ws.const("chunk_widths", lambda: m.chunk_widths)
        col = ws.const("col_idx", lambda: m.col_idx)
        val = ws.const("val", lambda: m.val)
        xb = _contig_vec(ws, "cc_x", x, m.dtype)
        acc = ws.buf("cc_sell_acc", m.padded_rows, m.dtype)
        fn = _CNATIVE.fn(f"sell_spmv_{_F_SUFFIX[m.dtype]}")
        fn(
            _i64(m.nchunks), _i64(m.chunk_rows), _ptr(ptr), _ptr(widths),
            _ptr(col), _ptr(val), _ptr(xb), _ptr(acc),
        )
        y[:] = acc[: m.nrows]

    def _cc_cmrs_spmv(m: CMRSMatrix, ws, x, y, permuted=False):
        if m.nrows == 0:
            return
        if m.nnz == 0:
            y.fill(0.0)
            return
        sptr = ws.const("strip_ptr", lambda: m.strip_ptr)
        ris = ws.const("row_in_strip", lambda: m.row_in_strip)
        col = ws.const("col_idx", lambda: m.col_idx)
        val = ws.const("val", lambda: m.val)
        xb = _contig_vec(ws, "cc_x", x, m.dtype)
        yb, fin = _out_vec(ws, "cc_y", y)
        fn = _CNATIVE.fn(f"cmrs_spmv_{_F_SUFFIX[m.dtype]}")
        fn(
            _i64(m.nrows), _i64(m.nstrips), _i64(m.strip_height),
            _ptr(sptr), _ptr(ris), _ptr(col), _ptr(val), _ptr(xb), _ptr(yb),
        )
        if fin is not None:
            y[:] = fin

    def _cc_argcsr_spmv(m: ARGCSRMatrix, ws, x, y, permuted=False):
        if m.nrows == 0:
            return
        if m.total_slots == 0:
            y.fill(0.0)
            return
        gptr = ws.const("group_ptr", lambda: m.group_ptr)
        gw = ws.const("group_width", lambda: m.group_width)
        rptr = ws.const("group_rows_ptr", lambda: m.group_rows_ptr)
        rids = ws.const("argcsr_rows", lambda: m.row_ids)
        col = ws.const("col_idx", lambda: m.col_idx)
        val = ws.const("val", lambda: m.val)
        xb = _contig_vec(ws, "cc_x", x, m.dtype)
        yb, fin = _out_vec(ws, "cc_y", y)
        fn = _CNATIVE.fn(f"argcsr_spmv_{_F_SUFFIX[m.dtype]}")
        fn(
            _i64(m.nrows), _i64(m.ngroups), _ptr(gptr), _ptr(gw),
            _ptr(rptr), _ptr(rids), _ptr(col), _ptr(val), _ptr(xb), _ptr(yb),
        )
        if fin is not None:
            y[:] = fin

    def _cc_matvecs(nrows, ncols, indptr, indices, data, X, Y):
        """``Y = A X`` by the C ``csr_spmm`` sweep: the compiled tier's
        CSR sweep for the shared batch body
        (:func:`repro.ops.spmm_kernels.stored_spmm`)."""
        _cc_csr_call("spmm", nrows, indptr, indices, data, X, Y, k=X.shape[1])


# ---------------------------------------------------------------------------
# registration: ordinary variants (spmv ranked by the autotuner per
# matrix, spmm at rank 0; see repro.ops.registry)
# ---------------------------------------------------------------------------

def _register_all() -> None:
    if _CNATIVE is not None:
        tags = (CNATIVE_TAG,)
        register_kernel(CSRMatrix, "spmv", name="csr_cc", tags=tags)(
            _cc_csr_spmv
        )
        register_kernel(ELLPACKMatrix, "spmv", name="ell_cc", tags=tags)(
            _cc_ell_spmv
        )
        register_kernel(
            JaggedDiagonalsBase, "spmv", name="jds_cc",
            supports_permuted=True, tags=tags,
        )(_cc_jds_spmv)
        register_kernel(SELLMatrix, "spmv", name="sell_cc", tags=tags)(
            _cc_sell_spmv
        )
        register_kernel(CMRSMatrix, "spmv", name="cmrs_cc", tags=tags)(
            _cc_cmrs_spmv
        )
        register_kernel(ARGCSRMatrix, "spmv", name="argcsr_cc", tags=tags)(
            _cc_argcsr_spmv
        )
        # every batch: the shared stored-CSR body with the C sweep
        spmm = functools.partial(stored_spmm, sweep=_cc_matvecs)
        for cls, name in (
            (CSRMatrix, "spmm_csr_cc"),
            (ELLPACKMatrix, "spmm_ell_cc"),
            (JaggedDiagonalsBase, "spmm_jds_cc"),
            (SELLMatrix, "spmm_sell_cc"),
            (CMRSMatrix, "spmm_cmrs_cc"),
            (ARGCSRMatrix, "spmm_argcsr_cc"),
        ):
            register_kernel(cls, "spmm", name=name, tags=tags)(spmm)


_register_all()


# ---------------------------------------------------------------------------
# introspection
# ---------------------------------------------------------------------------

def kernel_tiers() -> tuple[str, ...]:
    """The kernel-tier set available in this process, with versions.

    Folded into the autotuner's matrix fingerprint: a decision cached
    when a tier was absent (say, before a C compiler was installed)
    must not survive the tier appearing — the roster it was ranked
    against is no longer the roster that exists.
    """
    tiers = [f"scipy-{scipy.__version__}"]
    if _CNATIVE is not None:
        tiers.append(f"cnative-{_CNATIVE.tag}")
    return tuple(tiers)


def backend_status() -> dict[str, dict]:
    """Human-readable availability report (``repro ops list`` footer)."""
    disabled = _disabled()
    status = {
        CNATIVE_TAG: {
            "available": _CNATIVE is not None,
            "disabled": CNATIVE_TAG in disabled,
        },
    }
    if _CNATIVE is not None:
        status[CNATIVE_TAG].update(
            compiler=_CNATIVE.tag, workers=_CNATIVE.workers(),
            library=str(_CNATIVE.path),
        )
    return status

