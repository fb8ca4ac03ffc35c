"""Per-format spMVM kernels, registered with the central registry.

The paper's Table I shows the winning format is matrix-dependent; Koza
et al. (CMRS) show the winning *kernel variant within a format* is
matrix-dependent too.  This module declares, per storage format, a
``*_scipy`` delegate and one NumPy streaming kernel (COO and BELLPACK:
the NumPy kernel only), all writing into caller-provided buffers through a
:class:`~repro.engine.workspace.Workspace` so the steady state
allocates nothing.  Each NumPy kernel of a format with a cnative
kernel (:mod:`repro.kernels.compiled`) accumulates every row in that
kernel's order, so at float64 it is the kernel's bitwise reference:

========  =====================================================
format    variants
========  =====================================================
CRS       ``csr_scipy``, ``csr_bincount`` (scatter via bincount)
COO       ``coo_reduceat`` (row-run segments)
ELLPACK*  ``ell_scipy`` (unpadded rows), ``ell_sweep`` (per
          rectangle column)
JDS/pJDS  ``jds_scipy`` (stored rows), ``jds_sweep`` (Listing-2
          column sweep)
SELL      ``sell_scipy`` (padded stored rows), ``sell_chunks``
          (per-chunk loop)
CMRS      ``cmrs_scipy`` (the strip stream is row-major CSR),
          ``cmrs_bincount`` (scatter via bincount)
ARG-CSR   ``argcsr_scipy`` (unpadded rows), ``argcsr_sweep``
          (per-group column sweep incl. padding)
BELLPACK  ``bell_einsum`` (one ``einsum`` per block column)
========  =====================================================

Every ``*_scipy`` delegate is one body: scipy's compiled
``csr_matvec`` over the format's cached stored-order CSR view
(:func:`stored_csr_triplet`).  scipy is a required dependency, so the
delegates always register, ahead of the NumPy kernels, and are the
untuned default; the autotuner decides per matrix which kernel wins.

Kernel contract: ``run(matrix, ws, x, y_stored, permuted=False)``
fully writes ``y_stored`` (length ``nrows``) with the result in the
format's *stored* row order; ``x`` is already coerced to the matrix
dtype.  These are the only spmv bodies of the package: the unbound
``fmt.spmv``, a bound matrix and every distributed rank run one of
them through :func:`repro.ops.spmm_kernels.spmv_dispatch`, which
undoes the permutation.
"""

from __future__ import annotations

import weakref

import numpy as np

from typing import TYPE_CHECKING

from scipy.sparse import _sparsetools

from repro.core.jds import JaggedDiagonalsBase
from repro.core.sell import SELLMatrix
from repro.formats.argcsr import ARGCSRMatrix
from repro.formats.base import SparseMatrixFormat
from repro.formats.bellpack import BELLPACKMatrix
from repro.formats.cmrs import CMRSMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.ellpack import ELLPACKMatrix
from repro.ops.registry import COMPILED_TAG, register_kernel

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.engine.workspace import Workspace

__all__ = ["stored_csr_triplet", "stored_csr_views"]


# ---------------------------------------------------------------------------
# stored-order CSR views, swept by scipy's compiled csr_matvec
# ---------------------------------------------------------------------------

def _sp_indptr(indptr: np.ndarray) -> np.ndarray:
    """A view's row pointer, int32 while its slots fit (scipy's
    sparsetools wants both index arrays of one dtype, and the column
    indices are int32), int64 beyond."""
    it = np.int32 if int(indptr[-1]) < np.iinfo(np.int32).max else np.int64
    return indptr.astype(it, copy=False)


def _sp_matvec(nrows, ncols, indptr, indices, data, x, y):
    """``y = A x`` via scipy's C kernel (it *accumulates*, so zero first)."""
    y.fill(0.0)
    _sparsetools.csr_matvec(nrows, ncols, indptr, indices, data, x, y)


def _jds_stored_csr(m: JaggedDiagonalsBase, permuted: bool, data_g=None):
    """CSR triplet of the stored-order (row-permuted) matrix.

    The row-major entry order of :meth:`_stored_rows` *is* a CSR layout
    whose rows are the stored rows and whose row lengths are the padded
    lengths — padding slots carry a 0.0 value and an in-bounds column
    index, so the compiled kernel may sweep them.  ``data_g`` is the
    other basis's value array, shared when it exists.
    """
    indptr, indices, data = m._stored_rows(permuted, data_g)  # noqa: SLF001
    return _sp_indptr(indptr), indices, data


def _ell_true_csr(m: ELLPACKMatrix):
    """CSR triplet of the unpadded entries of the ELLPACK rectangle.

    Uses the true row lengths (the ELLPACK-R descriptor), so the
    compiled sweep skips the padding arithmetic entirely.
    """
    col_rm, val_rm = m._row_major_entries()  # noqa: SLF001
    w = m.width
    lens = np.asarray(m.row_lengths(), dtype=np.int64)
    keep = (np.arange(w, dtype=np.int64)[None, :] < lens[:, None]).ravel()
    indices = col_rm[: m.nrows * w][keep]
    data = np.ascontiguousarray(val_rm[: m.nrows].reshape(-1)[keep])
    indptr = np.zeros(m.nrows + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return _sp_indptr(indptr), indices, data


def _sell_stored_csr(m: SELLMatrix):
    """CSR triplet over the *padded* stored rows of a SELL-C-sigma matrix.

    Chunk slots are column-major within each chunk; one transpose per
    chunk at build time converts them to row-major runs.  Row ``i`` of
    the triplet is padded stored row ``i`` (chunk ``i // C``), so the
    matvec result needs the same ``acc[:nrows]`` trim + scatter as the
    NumPy SELL kernel.  Padding slots are 0.0-valued with in-bounds
    column indices.
    """
    C = m.chunk_rows
    lens = np.repeat(m.chunk_widths, C)
    indptr = np.zeros(m.padded_rows + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    indices = np.empty(m.total_slots, dtype=m.col_idx.dtype)
    data = np.empty(m.total_slots, dtype=m.dtype)
    ptr = m.chunk_ptr
    for c in range(m.nchunks):
        s, e = int(ptr[c]), int(ptr[c + 1])
        w = int(m.chunk_widths[c])
        if w == 0:
            continue
        indices[s:e] = m.col_idx[s:e].reshape(w, C).T.reshape(-1)
        data[s:e] = m.val[s:e].reshape(w, C).T.reshape(-1)
    return _sp_indptr(indptr), indices, data


def _argcsr_true_csr(m: ARGCSRMatrix):
    """CSR triplet of the unpadded entries of the group rectangles.

    Original row order; the per-group padding tails are dropped, so
    the compiled sweep touches only true non-zeros.
    """
    lens = np.asarray(m.row_lengths(), dtype=np.int64)
    nnz = int(lens.sum())
    indptr = np.zeros(m.nrows + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    indices = np.empty(nnz, dtype=m.col_idx.dtype)
    data = np.empty(nnz, dtype=m.dtype)
    for g in range(m.ngroups):
        vals, cols, rows = m.group_rect(g)
        w = vals.shape[1]
        tl = lens[rows]
        j = np.arange(w, dtype=np.int64)[None, :]
        keep = j < tl[:, None]
        dst = (indptr[rows][:, None] + j)[keep]
        indices[dst] = cols[keep]
        data[dst] = vals[keep]
    return _sp_indptr(indptr), indices, data


#: per-matrix cache of stored-order CSR triplets, shared by the
#: ``*_scipy`` spmv delegates and the batch body of
#: :mod:`repro.ops.spmm_kernels` (weak keys: the triplet dies with its
#: matrix)
_STORED_CSR: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def stored_csr_views(m: SparseMatrixFormat) -> dict:
    """The live ``{"orig"|"perm": triplet}`` cache of ``m``'s views.

    The autotuner deletes from it the views that only a losing
    candidate built; the next caller rebuilds them.
    """
    per_m = _STORED_CSR.get(m)
    if per_m is None:
        per_m = _STORED_CSR[m] = {}
    return per_m


def stored_csr_triplet(m: SparseMatrixFormat, permuted: bool = False):
    """Cached ``(indptr, indices, data)`` stored-order CSR view of ``m``.

    The column indices are int32, like the format's own.  CMRS and CRS
    views alias the matrix's columns and values and hold only a row
    pointer of their own; the other formats build and cache a copy.
    Raises ``TypeError`` for formats without a CSR view.
    """
    key = "perm" if permuted else "orig"
    per_m = stored_csr_views(m)
    if key not in per_m:
        if isinstance(m, CSRMatrix):
            per_m[key] = (_sp_indptr(m.indptr), m.indices, m.data)
        elif isinstance(m, JaggedDiagonalsBase):
            other = per_m.get("orig" if permuted else "perm")
            per_m[key] = _jds_stored_csr(
                m, permuted, other[2] if other else None
            )
        elif isinstance(m, SELLMatrix):
            per_m[key] = _sell_stored_csr(m)
        elif isinstance(m, ELLPACKMatrix):
            per_m[key] = _ell_true_csr(m)
        elif isinstance(m, CMRSMatrix):
            per_m[key] = (_sp_indptr(m.row_ptr), m.col_idx, m.val)
        elif isinstance(m, ARGCSRMatrix):
            per_m[key] = _argcsr_true_csr(m)
        else:
            raise TypeError(f"no stored-CSR view for {type(m).__name__}")
    return per_m[key]


def _scipy_spmv(m: SparseMatrixFormat, ws: Workspace, x, y, permuted=False):
    """``y = A x`` by scipy's ``csr_matvec`` over the stored-CSR view.

    The C kernel fuses gather, multiply and row reduction in one pass;
    every pure-NumPy kernel must materialise the gathered product (one
    extra write+read pass per stored entry), so on latency-bound
    gathers (small ``Nnzr``) this is the variant to beat.  SELL's view
    holds its padded stored rows, so its result is trimmed to ``nrows``.
    """
    if m.nnz == 0:
        y.fill(0.0)
        return
    indptr, indices, data = stored_csr_triplet(m, permuted)
    if isinstance(m, SELLMatrix):
        acc = ws.buf("sell_sp_acc", m.padded_rows, m.dtype)
        _sp_matvec(m.padded_rows, m.ncols, indptr, indices, data, x, acc)
        y[:] = acc[: m.nrows]
    else:
        _sp_matvec(m.nrows, m.ncols, indptr, indices, data, x, y)


# registered before the NumPy kernels below, so each delegate leads its
# candidate list: the best guess when tuning is off
for _cls, _name in (
    (CSRMatrix, "csr_scipy"),
    (ELLPACKMatrix, "ell_scipy"),
    (JaggedDiagonalsBase, "jds_scipy"),
    (SELLMatrix, "sell_scipy"),
    (CMRSMatrix, "cmrs_scipy"),
    (ARGCSRMatrix, "argcsr_scipy"),
):
    register_kernel(
        _cls, "spmv", name=_name, tags=("scipy", COMPILED_TAG),
        supports_permuted=_cls is JaggedDiagonalsBase,
    )(_scipy_spmv)


# ---------------------------------------------------------------------------
# NumPy streaming kernels
# ---------------------------------------------------------------------------

def _take_mul(x, idx, val, gbuf):
    """``gbuf[:] = x[idx] * val`` without temporaries.

    ``mode="clip"`` skips NumPy's bounds-check pass (indices were
    validated at construction); with an ``out=`` buffer the default
    ``"raise"`` mode falls into a ~3x slower buffered path.
    """
    np.take(x, idx, out=gbuf, mode="clip")
    np.multiply(gbuf, val, out=gbuf)
    return gbuf


# ---------------------------------------------------------------------------
# CSR
# ---------------------------------------------------------------------------

@register_kernel(CSRMatrix, "spmv", name="csr_bincount", tags=("numpy",))
def _csr_bincount(m: CSRMatrix, ws: Workspace, x, y, permuted=False):
    if m.nnz == 0:
        y.fill(0.0)
        return
    data = ws.const("data", lambda: m.data)
    idx = ws.const("indices", lambda: m.indices)
    row_of = ws.const(
        "csr_row_of",
        lambda: np.repeat(
            np.arange(m.nrows, dtype=np.int64), np.diff(m.indptr)
        ),
    )
    g = _take_mul(x, idx, data, ws.buf("csr_g", m.nnz, m.dtype))
    acc = np.bincount(row_of, weights=g, minlength=m.nrows)
    np.copyto(y, acc, casting="same_kind")


# ---------------------------------------------------------------------------
# COO
# ---------------------------------------------------------------------------

@register_kernel(COOMatrix, "spmv", name="coo_reduceat", tags=("numpy",))
def _coo_reduceat(m: COOMatrix, ws: Workspace, x, y, permuted=False):
    if m.nnz == 0:
        y.fill(0.0)
        return
    vals = ws.const("values", lambda: m.values)
    cols = ws.const("cols", lambda: m.cols)
    starts, urows = ws.const("coo_runs", lambda: m._row_runs())  # noqa: SLF001
    g = _take_mul(x, cols, vals, ws.buf("coo_g", m.nnz, m.dtype))
    r = ws.buf("coo_r", starts.shape[0], m.dtype)
    np.add.reduceat(g, starts, out=r)
    y.fill(0.0)
    y[urows] = r


# ---------------------------------------------------------------------------
# ELLPACK family (plain, -R, ELLR-T share the padded rectangle)
# ---------------------------------------------------------------------------

@register_kernel(ELLPACKMatrix, "spmv", name="ell_sweep", tags=("numpy",))
def _ell_sweep(m: ELLPACKMatrix, ws: Workspace, x, y, permuted=False):
    if m.width == 0:
        y.fill(0.0)
        return
    val = ws.const("val", lambda: m.val)
    col = ws.const("col", lambda: m.col)
    acc = ws.buf("ell_acc", m.padded_rows, m.dtype)
    acc.fill(0.0)
    g = ws.buf("ell_g", m.padded_rows, m.dtype)
    for j in range(m.width):
        np.take(x, col[j], out=g, mode="clip")
        np.multiply(g, val[j], out=g)
        acc += g
    y[:] = acc[: m.nrows]


# ---------------------------------------------------------------------------
# JDS / pJDS
# ---------------------------------------------------------------------------

def _jds_cols(m: JaggedDiagonalsBase, ws: Workspace, permuted: bool):
    if permuted:
        return ws.const("jds_colperm", lambda: m._permuted_col_idx())  # noqa: SLF001
    return ws.const("col_idx", lambda: m.col_idx)


@register_kernel(
    JaggedDiagonalsBase, "spmv", name="jds_sweep",
    supports_permuted=True, tags=("numpy",),
)
def _jds_sweep(m: JaggedDiagonalsBase, ws: Workspace, x, y, permuted=False):
    y.fill(0.0)
    if m.total_slots == 0:
        return
    col_idx = _jds_cols(m, ws, permuted)
    val = ws.const("val", lambda: m.val)
    cs = ws.const("col_start", lambda: m.col_start)
    g = ws.buf("jds_g", m.nrows, m.dtype)
    for j in range(m.width):
        s = cs[j]
        e = cs[j + 1]
        gv = g[: e - s]
        np.take(x, col_idx[s:e], out=gv, mode="clip")
        np.multiply(gv, val[s:e], out=gv)
        y[: e - s] += gv


# ---------------------------------------------------------------------------
# SELL-C-sigma
# ---------------------------------------------------------------------------

@register_kernel(SELLMatrix, "spmv", name="sell_chunks", tags=("numpy",))
def _sell_chunks(m: SELLMatrix, ws: Workspace, x, y, permuted=False):
    if m.total_slots == 0:
        y.fill(0.0)
        return
    col_idx = ws.const("col_idx", lambda: m.col_idx)
    val = ws.const("val", lambda: m.val)
    G = _take_mul(x, col_idx, val, ws.buf("sell_G", m.total_slots, m.dtype))
    ptr = ws.const("chunk_ptr", lambda: m.chunk_ptr)
    widths = ws.const("chunk_widths", lambda: m.chunk_widths)
    C = m.chunk_rows
    acc = ws.buf("sell_acc", m.padded_rows, m.dtype)
    acc.fill(0.0)
    for c in range(m.nchunks):
        w = int(widths[c])
        if w == 0:
            continue
        seg = G[ptr[c] : ptr[c + 1]].reshape(w, C)
        np.add.reduce(seg, axis=0, out=acc[c * C : (c + 1) * C])
    y[:] = acc[: m.nrows]


# ---------------------------------------------------------------------------
# CMRS (strip-based compressed multi-row storage)
# ---------------------------------------------------------------------------

@register_kernel(CMRSMatrix, "spmv", name="cmrs_bincount", tags=("numpy",))
def _cmrs_bincount(m: CMRSMatrix, ws: Workspace, x, y, permuted=False):
    """Scatter-add via ``bincount`` over the reconstructed entry rows.

    Accumulates each row ascending through its entries from a zero
    start — the same order the compiled per-strip scalar loop uses, so
    at float64 this is its bitwise reference.
    """
    if m.nnz == 0:
        y.fill(0.0)
        return
    val = ws.const("val", lambda: m.val)
    col = ws.const("col_idx", lambda: m.col_idx)
    rows = ws.const("cmrs_rows", lambda: m.entry_rows)
    g = _take_mul(x, col, val, ws.buf("cmrs_g", m.nnz, m.dtype))
    acc = np.bincount(rows, weights=g, minlength=m.nrows)
    np.copyto(y, acc, casting="same_kind")


# ---------------------------------------------------------------------------
# ARG-CSR (adaptive row-grouped CSR)
# ---------------------------------------------------------------------------

@register_kernel(ARGCSRMatrix, "spmv", name="argcsr_sweep", tags=("numpy",))
def _argcsr_sweep(m: ARGCSRMatrix, ws: Workspace, x, y, permuted=False):
    """Per-group column sweep over the padded rectangles.

    Each group's accumulator adds one rectangle column per step,
    ascending ``j`` from a zero start and *including* the padding
    slots (``0 * x[0]``) — exactly the compiled per-row loop's
    order, so this is its bitwise reference.
    """
    y.fill(0.0)
    if m.total_slots == 0:
        return
    val = ws.const("val", lambda: m.val)
    col = ws.const("col_idx", lambda: m.col_idx)
    rids = ws.const("argcsr_rows", lambda: m.row_ids)
    gptr, widths, rptr = m.group_ptr, m.group_width, m.group_rows_ptr
    nmax = int(np.diff(rptr).max())
    acc = ws.buf("argcsr_acc", nmax, m.dtype)
    g = ws.buf("argcsr_gv", nmax, m.dtype)
    for gi in range(m.ngroups):
        lo, hi = int(gptr[gi]), int(gptr[gi + 1])
        L = int(widths[gi])
        r0, r1 = int(rptr[gi]), int(rptr[gi + 1])
        nL = r1 - r0
        cols2 = col[lo:hi].reshape(nL, L)
        vals2 = val[lo:hi].reshape(nL, L)
        a = acc[:nL]
        a.fill(0.0)
        gv = g[:nL]
        for j in range(L):
            np.take(x, cols2[:, j], out=gv, mode="clip")
            np.multiply(gv, vals2[:, j], out=gv)
            a += gv
        y[rids[r0:r1]] = a


# ---------------------------------------------------------------------------
# BELLPACK (blocked ELLPACK)
# ---------------------------------------------------------------------------

@register_kernel(BELLPACKMatrix, "spmv", name="bell_einsum", tags=("numpy",))
def _bell_einsum(m: BELLPACKMatrix, ws: Workspace, x, y, permuted=False):
    """One ``einsum`` per stored block column over its active block rows.

    ``x`` is padded to the block grid so every tile gathers a whole
    ``bc``-wide slice; block-row results accumulate in the matrix dtype.
    """
    br, bc = m.block_shape
    xpad = ws.buf("bell_x", -(-m.ncols // bc) * bc, m.dtype)
    xpad[: m.ncols] = x
    xpad[m.ncols :] = 0.0
    xblocks = xpad.reshape(-1, bc)
    acc = ws.buf("bell_acc", (m.nblockrows, br), m.dtype)
    acc.fill(0.0)
    val, col = m._val, m._col  # noqa: SLF001
    blocks = m.blocks_per_row
    for j in range(m.width):
        idx = np.flatnonzero(blocks > j)
        if not idx.size:
            break
        acc[idx] += np.einsum("krc,kc->kr", val[j, idx], xblocks[col[j, idx]])
    y[:] = acc.reshape(-1)[: m.nrows]
