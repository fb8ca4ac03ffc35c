"""Optional compiled kernel tier, registered behind the central registry.

The paper's Sect. III point is that an spMVM kernel should run at the
memory-bandwidth limit; every pure-NumPy kernel falls short of that
because it must materialise the gathered product (``x[col] * val``)
through main memory at least once.  This module adds *fused*
single-pass kernels for the CSR, ELLPACK/-R, JDS/pJDS, SELL-C-sigma,
CMRS and ARG-CSR hot loops (spmv and batched spmm), registered through
:func:`repro.ops.registry.register_kernel` as ordinary variants — so
:class:`~repro.engine.bound.BoundMatrix`, every backend (distributed
/ serve) and all five solvers pick them up with zero
call-site changes, and the autotuner simply ranks them against the
NumPy kernels per matrix.

The ``cnative`` backend consists of C kernels compiled once per machine
with the system C compiler (``cc``/``gcc``/``clang``), cached as a
shared library under the repro cache dir and loaded through
:mod:`ctypes`.
OpenMP (``-fopenmp``) is used when the compiler supports it; the row /
chunk partitioning keeps per-row accumulation order identical to the
serial sweep, so results are reproducible at any thread count.

Every kernel preserves the per-row accumulation order (ascending entry
order, zero-initialised accumulator) of one NumPy kernel, so at
float64 they agree *bitwise* with those references (``csr_bincount``,
``ell_sweep``, ``jds_sweep``, ``sell_chunks``, ``cmrs_bincount``,
``argcsr_sweep``) — ``tests/test_ops.py`` pins that.

The same library carries three float64 Krylov vector kernels
(``vec_dot_f64``, ``cg_update_f64``, ``vec_xpby_f64``), bound by
:mod:`repro.solvers.vector` rather than registered: they keep a solver
iteration's BLAS-1 work in the spmv kernels' OpenMP pool.

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
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.jds import JaggedDiagonalsBase
from repro.core.sell import SELLMatrix
from repro.formats.argcsr import ARGCSRMatrix
from repro.formats.cmrs import CMRSMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.ellpack import ELLPACKMatrix
from repro.ops.registry import CNATIVE_TAG, register_kernel
from repro.ops.spmv_kernels import (
    _HAVE_CSR_MATVEC,
    _jds_cols,
    stored_csr_triplet,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.workspace import Workspace

__all__ = [
    "kernel_tiers",
    "backend_status",
    "compiled_variant_names",
    "CNATIVE_TAG",
]

#: registry tag shared by every kernel of this module (the backend
#: tag, :data:`~repro.ops.registry.CNATIVE_TAG`, ranks them last)
COMPILED_TAG = "compiled"


def _disabled() -> set[str]:
    raw = os.environ.get("REPRO_COMPILED_DISABLE", "")
    names = {t.strip().lower() for t in raw.split(",") if t.strip()}
    if "all" in names:
        names.add(CNATIVE_TAG)
    return names


# ---------------------------------------------------------------------------
# cnative backend: one C translation unit, compiled once per machine
# ---------------------------------------------------------------------------

# Kernel bodies are generated for float64/float32 values and (for the
# stored-CSR-view spmm delegates) int64/int32 indices.  Accumulation is
# a zero-initialised scalar walked in ascending entry order — the same
# order as the NumPy sweep kernels, which is what makes the float64
# parity bitwise.  OpenMP partitions rows (CSR/ELL/JDS), chunks (SELL)
# or row blocks; partitioning never changes any per-row order.
_C_PRELUDE = r"""
#include <stddef.h>
#ifdef _OPENMP
#include <omp.h>
#else
static int omp_get_num_threads(void) { return 1; }
static int omp_get_thread_num(void) { return 0; }
#endif
typedef long long i64;
typedef int i32;
"""

_C_CSR_TEMPLATE = r"""
void csr_spmv_{I}_{F}(i64 nrows, const {IT} *indptr, const {IT} *col,
                      const {FT} *val, const {FT} *x, {FT} *y) {{
    i64 i;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (i = 0; i < nrows; i++) {{
        {FT} t = 0;
        i64 e;
        for (e = (i64)indptr[i]; e < (i64)indptr[i + 1]; e++)
            t += val[e] * x[col[e]];
        y[i] = t;
    }}
}}

/* k == 1 is the spmv row loop: the accumulator stays in a register
   instead of a load/store through Y per entry. */
void csr_spmm_{I}_{F}(i64 nrows, i64 k, const {IT} *restrict indptr,
                      const {IT} *restrict col, const {FT} *restrict val,
                      const {FT} *restrict X, {FT} *restrict Y) {{
    i64 i;
    if (k == 1) {{
        csr_spmv_{I}_{F}(nrows, indptr, col, val, X, Y);
        return;
    }}
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (i = 0; i < nrows; i++) {{
        {FT} *yi = Y + i * k;
        i64 e, c;
        for (c = 0; c < k; c++)
            yi[c] = 0;
        for (e = (i64)indptr[i]; e < (i64)indptr[i + 1]; e++) {{
            const {FT} v = val[e];
            const {FT} *xr = X + (i64)col[e] * k;
            for (c = 0; c < k; c++)
                yi[c] += v * xr[c];
        }}
    }}
}}
"""

_C_FMT_TEMPLATE = r"""
/* ELLPACK rectangle, (width, padded_rows) column-major slabs; the
   jagged-column sweep keeps val/col reads fully sequential and the
   row-block accumulator cache-resident. */
void ell_spmv_{F}(i64 nrows, i64 prows, i64 width, const i64 *col,
                  const {FT} *val, const {FT} *x, {FT} *y) {{
#ifdef _OPENMP
#pragma omp parallel
#endif
    {{
        const i64 nt = omp_get_num_threads();
        const i64 tid = omp_get_thread_num();
        const i64 lo = nrows * tid / nt;
        const i64 hi = nrows * (tid + 1) / nt;
        i64 i, j;
        for (i = lo; i < hi; i++)
            y[i] = 0;
        for (j = 0; j < width; j++) {{
            const {FT} *vj = val + j * prows;
            const i64 *cj = col + j * prows;
            for (i = lo; i < hi; i++)
                y[i] += vj[i] * x[cj[i]];
        }}
    }}
}}

/* JDS/pJDS jagged diagonals: column lengths are non-increasing, so a
   row block can stop at the first too-short column. */
void jds_spmv_{F}(i64 nrows, i64 width, const i64 *col_start,
                  const i64 *col, const {FT} *val, const {FT} *x, {FT} *y) {{
#ifdef _OPENMP
#pragma omp parallel
#endif
    {{
        const i64 nt = omp_get_num_threads();
        const i64 tid = omp_get_thread_num();
        const i64 lo = nrows * tid / nt;
        const i64 hi = nrows * (tid + 1) / nt;
        i64 r, j;
        for (r = lo; r < hi; r++)
            y[r] = 0;
        for (j = 0; j < width; j++) {{
            const i64 s = col_start[j];
            const i64 len = col_start[j + 1] - s;
            const i64 h = len < hi ? len : hi;
            if (len <= lo)
                break;
            for (r = lo; r < h; r++)
                y[r] += val[s + r] * x[col[s + r]];
        }}
    }}
}}

/* CMRS strips: the entry stream is row-major CRS order; strip s owns
   rows [s*hs, (s+1)*hs) exclusively, so strips parallelise safely
   while each row accumulates ascending through its entries (bitwise
   vs cmrs_bincount at float64). */
void cmrs_spmv_{F}(i64 nrows, i64 nstrips, i64 hs, const i64 *sptr,
                   const i64 *ris, const i64 *col, const {FT} *val,
                   const {FT} *x, {FT} *y) {{
    i64 i, s;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (i = 0; i < nrows; i++)
        y[i] = 0;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (s = 0; s < nstrips; s++) {{
        i64 e = sptr[s];
        const i64 hi = sptr[s + 1];
        while (e < hi) {{
            const i64 rr = ris[e];
            {FT} t = 0;
            while (e < hi && ris[e] == rr) {{
                t += val[e] * x[col[e]];
                e++;
            }}
            y[s * hs + rr] = t;
        }}
    }}
}}

/* ARG-CSR: one row-major (n_g, width) rectangle per length group; each
   row sweeps its full padded width (padding is 0 * x[0]), the same
   column order as argcsr_sweep — bitwise at float64. */
void argcsr_spmv_{F}(i64 nrows, i64 ngroups, const i64 *gptr,
                     const i64 *gwidth, const i64 *rptr,
                     const i64 *row_ids, const i64 *col, const {FT} *val,
                     const {FT} *x, {FT} *y) {{
    i64 i, g;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (i = 0; i < nrows; i++)
        y[i] = 0;
    for (g = 0; g < ngroups; g++) {{
        const i64 L = gwidth[g];
        const i64 r0 = rptr[g];
        const i64 r1 = rptr[g + 1];
        const i64 base = gptr[g];
        i64 r;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
        for (r = r0; r < r1; r++) {{
            const {FT} *vr = val + base + (r - r0) * L;
            const i64 *cr = col + base + (r - r0) * L;
            {FT} t = 0;
            i64 j;
            for (j = 0; j < L; j++)
                t += vr[j] * x[cr[j]];
            y[row_ids[r]] = t;
        }}
    }}
}}

/* SELL-C-sigma: chunk slots are column-major (width, C) rectangles. */
void sell_spmv_{F}(i64 nchunks, i64 C, const i64 *ptr, const i64 *widths,
                   const i64 *col, const {FT} *val, const {FT} *x, {FT} *y) {{
    i64 c;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (c = 0; c < nchunks; c++) {{
        const i64 w = widths[c];
        const i64 base = ptr[c];
        {FT} *yy = y + c * C;
        i64 r, j;
        for (r = 0; r < C; r++)
            yy[r] = 0;
        for (j = 0; j < w; j++) {{
            const {FT} *vj = val + base + j * C;
            const i64 *cj = col + base + j * C;
            for (r = 0; r < C; r++)
                yy[r] += vj[r] * x[cj[r]];
        }}
    }}
}}
"""


# Krylov vector kernels (float64 only; bound by repro.solvers.vector).
# They run in the same OpenMP pool as the spmv kernels, so a CG
# iteration never wakes a second (BLAS) thread pool.  Each thread owns
# the contiguous block [n*tid/nt, n*(tid+1)/nt) and sums it with four
# interleaved accumulators; the per-thread partials are combined in
# thread-index order (not reduction(+:), whose order is unspecified),
# so a reduction is reproducible for a given thread count.  The
# element-wise updates round exactly like their NumPy references:
# -std=c99 contracts no multiply-add into an FMA.
_C_VEC = r"""
#define VEC_MAX_THREADS 256
#define VEC_PAD 8 /* one 64-byte line per partial: no false sharing */

static int vec_threads(void) {
#ifdef _OPENMP
    const int nt = omp_get_max_threads();
    return nt < VEC_MAX_THREADS ? nt : VEC_MAX_THREADS;
#else
    return 1;
#endif
}

static double vec_combine(const double *part, int nt) {
    double s = 0;
    int t;
    for (t = 0; t < nt; t++)
        s += part[t * VEC_PAD];
    return s;
}

double vec_dot_f64(i64 n, const double *a, const double *b) {
    double part[VEC_MAX_THREADS * VEC_PAD];
    const int nt = vec_threads();
    int t;
    for (t = 0; t < nt; t++)
        part[t * VEC_PAD] = 0;
#ifdef _OPENMP
#pragma omp parallel num_threads(nt)
#endif
    {
        const i64 tn = omp_get_num_threads();
        const i64 tid = omp_get_thread_num();
        const i64 lo = n * tid / tn;
        const i64 hi = n * (tid + 1) / tn;
        double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        i64 i;
        for (i = lo; i + 4 <= hi; i += 4) {
            s0 += a[i] * b[i];
            s1 += a[i + 1] * b[i + 1];
            s2 += a[i + 2] * b[i + 2];
            s3 += a[i + 3] * b[i + 3];
        }
        for (; i < hi; i++)
            s0 += a[i] * b[i];
        part[tid * VEC_PAD] = (s0 + s1) + (s2 + s3);
    }
    return vec_combine(part, nt);
}

/* x += alpha * p;  r -= alpha * ap;  returns r . r.  p may alias r
   (each element of p is read before the same element of r is
   written). */
double cg_update_f64(i64 n, double alpha, const double *p, const double *ap,
                     double *x, double *r) {
    double part[VEC_MAX_THREADS * VEC_PAD];
    const int nt = vec_threads();
    int t;
    for (t = 0; t < nt; t++)
        part[t * VEC_PAD] = 0;
#ifdef _OPENMP
#pragma omp parallel num_threads(nt)
#endif
    {
        const i64 tn = omp_get_num_threads();
        const i64 tid = omp_get_thread_num();
        const i64 lo = n * tid / tn;
        const i64 hi = n * (tid + 1) / tn;
        double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        i64 i, k;
        for (i = lo; i + 4 <= hi; i += 4) {
            for (k = i; k < i + 4; k++) {
                x[k] += alpha * p[k];
                r[k] -= alpha * ap[k];
            }
            s0 += r[i] * r[i];
            s1 += r[i + 1] * r[i + 1];
            s2 += r[i + 2] * r[i + 2];
            s3 += r[i + 3] * r[i + 3];
        }
        for (; i < hi; i++) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
            s0 += r[i] * r[i];
        }
        part[tid * VEC_PAD] = (s0 + s1) + (s2 + s3);
    }
    return vec_combine(part, nt);
}

/* p = z + beta * p */
void vec_xpby_f64(i64 n, const double *z, double beta, double *p) {
    i64 i;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (i = 0; i < n; i++)
        p[i] = z[i] + beta * p[i];
}
"""


def _c_source() -> str:
    parts = [_C_PRELUDE]
    for fsuf, ftype in (("f64", "double"), ("f32", "float")):
        for isuf, itype in (("i64", "i64"), ("i32", "i32")):
            parts.append(
                _C_CSR_TEMPLATE.format(I=isuf, IT=itype, F=fsuf, FT=ftype)
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

    def __init__(self, lib: ctypes.CDLL, tag: str, openmp: bool, path: Path):
        self.lib = lib
        self.tag = tag
        self.openmp = openmp
        self.path = path

    def fn(self, name: str):
        f = getattr(self.lib, name)
        f.restype = None
        return f


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
    is a plain ``dlopen`` of the cached ``.so``.
    """
    cc = _find_cc()
    if cc is None:
        return None
    source = _c_source()
    digest = hashlib.sha1(f"{cc}\n{source}".encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"spmv_{digest}.so"
    openmp_marker = cache / f"spmv_{digest}.omp"
    try:
        if not so_path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            src_path = cache / f"spmv_{digest}.c"
            src_path.write_text(source, encoding="utf-8")
            base_cmd = [cc, "-O3", "-fPIC", "-shared", "-std=c99"]
            openmp = True
            with tempfile.NamedTemporaryFile(
                dir=cache, suffix=".so", delete=False
            ) as tmp:
                tmp_path = Path(tmp.name)
            for flags in (["-fopenmp"], []):
                proc = subprocess.run(
                    base_cmd + flags + [str(src_path), "-o", str(tmp_path)],
                    capture_output=True,
                    timeout=120,
                )
                if proc.returncode == 0:
                    openmp = bool(flags)
                    break
            else:
                tmp_path.unlink(missing_ok=True)
                return None
            # atomic publish so concurrent builders never load a torn file
            os.replace(tmp_path, so_path)
            if openmp:
                openmp_marker.touch()
        lib = ctypes.CDLL(str(so_path))
        return _CNative(
            lib, f"{cc}-{digest[:8]}", openmp_marker.exists(), so_path
        )
    except (OSError, subprocess.SubprocessError):
        return None


_CNATIVE: _CNative | None = (
    None if CNATIVE_TAG in _disabled() else _build_cnative()
)


# ---------------------------------------------------------------------------
# shared python-side glue
# ---------------------------------------------------------------------------

def _contig_vec(ws: Workspace, name: str, x: np.ndarray, dtype) -> np.ndarray:
    """``x`` itself when already compiled-callable, else a scratch copy."""
    if x.flags.c_contiguous and x.dtype == dtype:
        return x
    buf = ws.buf(name, x.shape[0], dtype)
    buf[:] = x
    return buf


def _out_vec(ws: Workspace, name: str, y: np.ndarray):
    """(callable target, finish) pair tolerating non-contiguous ``y``."""
    if y.flags.c_contiguous:
        return y, None
    buf = ws.buf(name, y.shape[0], y.dtype)
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
        col_idx = _jds_cols(m, ws, permuted)
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

    # -- batched spmm over the (cached) stored-order CSR views ----------

    def _cc_spmm_stored(m, X, out, ws, permuted=False):
        """Fused k-wide sweep; returns the stored-order block."""
        indptr, indices, data = stored_csr_triplet(m, permuted)
        nrows = indptr.shape[0] - 1
        k = X.shape[1]
        _cc_csr_call("spmm", nrows, indptr, indices, data, X, out, k=k)
        return out

    def _cc_csr_spmm(m: CSRMatrix, X, out, ws):
        if m.nnz == 0 or not (X.flags.c_contiguous and out.flags.c_contiguous):
            return None
        _cc_csr_call(
            "spmm", m.nrows, m.indptr, m.indices, m.data, X, out,
            k=X.shape[1],
        )
        return out

    def _cc_ell_spmm(m: ELLPACKMatrix, X, out, ws):
        if m.nnz == 0 or not (X.flags.c_contiguous and out.flags.c_contiguous):
            return None
        return _cc_spmm_stored(m, X, out, ws)

    def _cc_jds_spmm(m: JaggedDiagonalsBase, X, out, ws):
        if m.total_slots == 0 or not X.flags.c_contiguous:
            return None
        k = X.shape[1]
        acc = ws.buf(f"cc_spmm_acc:{k}", (m.nrows, k), m.dtype)
        _cc_spmm_stored(m, X, acc, ws)
        np.take(acc, m.permutation.inverse, axis=0, out=out, mode="clip")
        return out

    def _cc_sell_spmm(m: SELLMatrix, X, out, ws):
        if m.total_slots == 0 or not X.flags.c_contiguous:
            return None
        k = X.shape[1]
        acc = ws.buf(f"cc_spmm_acc:{k}", (m.padded_rows, k), m.dtype)
        _cc_spmm_stored(m, X, acc, ws)
        out[m.permutation.perm] = acc[: m.nrows]
        return out

    def _cc_plaincsr_spmm(m, X, out, ws):
        """CMRS / ARG-CSR: their stored-CSR view is already original
        row order and unpadded, so the fused sweep writes ``out``
        directly with no permutation or trim step."""
        if m.nnz == 0 or not (X.flags.c_contiguous and out.flags.c_contiguous):
            return None
        return _cc_spmm_stored(m, X, out, ws)


# ---------------------------------------------------------------------------
# registration: ordinary variants, ranked by the autotuner per matrix
# ---------------------------------------------------------------------------

# Fall back to the vectorised kernel path when the compiled spmm
# preconditions (contiguity) do not hold: the wrappers above return
# None in that case and these shims delegate.

def _spmm_with_fallback(fast, slow_name):
    def run(m, X, out, ws):
        got = fast(m, X, out, ws)
        if got is not None:
            return got
        from repro.ops.registry import get_kernel

        return get_kernel(m, slow_name, "spmm").run(m, X, out, ws)

    return run


def _register_all() -> None:
    if _CNATIVE is not None:
        tags = (COMPILED_TAG, CNATIVE_TAG)
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
        register_kernel(CSRMatrix, "spmm", name="spmm_csr_cc", tags=tags)(
            _spmm_with_fallback(_cc_csr_spmm, "spmm_csr")
        )
        register_kernel(ELLPACKMatrix, "spmm", name="spmm_ell_cc", tags=tags)(
            _spmm_with_fallback(_cc_ell_spmm, "spmm_ell")
        )
        register_kernel(
            JaggedDiagonalsBase, "spmm", name="spmm_jds_cc", tags=tags
        )(_spmm_with_fallback(_cc_jds_spmm, "spmm_jds"))
        register_kernel(SELLMatrix, "spmm", name="spmm_sell_cc", tags=tags)(
            _spmm_with_fallback(_cc_sell_spmm, "spmm_sell")
        )
        register_kernel(CMRSMatrix, "spmv", name="cmrs_cc", tags=tags)(
            _cc_cmrs_spmv
        )
        register_kernel(ARGCSRMatrix, "spmv", name="argcsr_cc", tags=tags)(
            _cc_argcsr_spmv
        )
        register_kernel(CMRSMatrix, "spmm", name="spmm_cmrs_cc", tags=tags)(
            _spmm_with_fallback(_cc_plaincsr_spmm, "spmm_cmrs")
        )
        register_kernel(ARGCSRMatrix, "spmm", name="spmm_argcsr_cc", tags=tags)(
            _spmm_with_fallback(_cc_plaincsr_spmm, "spmm_argcsr")
        )


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
    tiers = ["numpy"]
    if _HAVE_CSR_MATVEC:
        try:
            import scipy

            tiers.append(f"scipy-{scipy.__version__}")
        except ImportError:  # pragma: no cover - _HAVE implies scipy
            tiers.append("scipy")
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
            compiler=_CNATIVE.tag, openmp=_CNATIVE.openmp,
            library=str(_CNATIVE.path),
        )
    return status


def compiled_variant_names() -> dict[str, list[str]]:
    """Registered compiled-tier variant names per op (for tests/bench)."""
    from repro.ops.registry import registry_rows

    out: dict[str, list[str]] = {"spmv": [], "spmm": []}
    for row in registry_rows():
        if COMPILED_TAG in row["tags"]:
            out[row["op"]].append(row["variant"])
    return out
