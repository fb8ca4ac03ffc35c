"""Per-format spMVM kernels, registered with the central registry.

The paper's Table I shows the winning format is matrix-dependent; Koza
et al. (CMRS) show the winning *kernel variant within a format* is
matrix-dependent too.  This module declares each format's scipy-compiled
spmv kernel, writing into caller-provided buffers through a
:class:`~repro.engine.workspace.Workspace` so the steady state
allocates nothing:

========  =====================================================
format    variant
========  =====================================================
CRS       ``csr_scipy``
ELLPACK*  ``ell_scipy`` (unpadded rows)
JDS/pJDS  ``jds_scipy`` (padded stored rows)
SELL      ``sell_scipy`` (padded stored rows)
CMRS      ``cmrs_scipy`` (the strip stream is row-major CSR)
ARG-CSR   ``argcsr_scipy`` (unpadded rows)
COO       ``coo_scipy`` (``coo_matvec`` over the row-major triplets)
BELLPACK  ``bell_scipy`` (``bsr_matvec`` over the live tiles)
========  =====================================================

The first six are one body, tagged ``stored-csr``: scipy's compiled
``csr_matvec`` over the format's cached stored-order CSR view
(:func:`stored_csr_triplet`).  scipy is a required dependency, so
these kernels always register and are the untuned default; the
autotuner decides per matrix whether a cnative kernel
(:mod:`repro.kernels.compiled`) beats them.

One answer: every kernel sums each row's entries in ascending column
order from a zero start, as CRS does, so for finite ``x`` each returns
``convert(m, "CRS").spmv(x)`` bitwise at float64 and float32.  Padding
slots and BELLPACK's fill hold 0.0, which adds nothing to a finite
product; an inf or NaN in ``x`` turns them into NaN.

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
from repro.ops.registry import STORED_CSR_TAG, register_kernel

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
    matvec result needs an ``acc[:nrows]`` trim before the scatter.
    Padding slots are 0.0-valued with in-bounds column indices.
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
    """The live ``{"orig"|"perm": triplet}`` cache of ``m``'s views
    (BELLPACK's BSR view is its ``"bsr"`` entry).

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

    The C kernel fuses gather, multiply and row reduction in one pass.
    SELL's view holds its padded stored rows, so its result is trimmed
    to ``nrows``.
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


for _cls, _name in (
    (CSRMatrix, "csr_scipy"),
    (ELLPACKMatrix, "ell_scipy"),
    (JaggedDiagonalsBase, "jds_scipy"),
    (SELLMatrix, "sell_scipy"),
    (CMRSMatrix, "cmrs_scipy"),
    (ARGCSRMatrix, "argcsr_scipy"),
):
    register_kernel(
        _cls, "spmv", name=_name, tags=("scipy", STORED_CSR_TAG),
        supports_permuted=_cls is JaggedDiagonalsBase,
    )(_scipy_spmv)


@register_kernel(COOMatrix, "spmv", name="coo_scipy", tags=("scipy",))
def _coo_scipy(m: COOMatrix, ws: Workspace, x, y, permuted=False):
    """``y = A x`` by scipy's ``coo_matvec`` over the canonical triplets.

    They are sorted row-major, so each row accumulates its entries in
    ascending column order, as CRS does.
    """
    y.fill(0.0)
    _sparsetools.coo_matvec(m.nnz, m.rows, m.cols, m.values, x, y)


def _bsr_view(m: BELLPACKMatrix):
    """Cached ``(indptr, indices, data)`` BSR view of ``m``'s live tiles.

    The tiles are stored slot-major (``(width, nblockrows, br, bc)``);
    the view copies the live ones (``j < blocks_per_row[b]``) into
    block-row order, whose block columns already ascend.
    """
    per_m = stored_csr_views(m)
    if "bsr" not in per_m:
        blocks = m.blocks_per_row
        live = np.arange(m.width)[None, :] < blocks[:, None]
        data = m._val.transpose(1, 0, 2, 3)[live]  # noqa: SLF001
        indptr = np.zeros(m.nblockrows + 1, dtype=np.int64)
        np.cumsum(blocks, out=indptr[1:])
        per_m["bsr"] = (
            _sp_indptr(indptr), m._col.T[live], data.reshape(-1)  # noqa: SLF001
        )
    return per_m["bsr"]


@register_kernel(BELLPACKMatrix, "spmv", name="bell_scipy", tags=("scipy",))
def _bell_scipy(m: BELLPACKMatrix, ws: Workspace, x, y, permuted=False):
    """``y = A x`` by scipy's ``bsr_matvec`` over :func:`_bsr_view`.

    ``x`` is padded to the block grid so every tile reads a whole
    ``bc``-wide slice; the block rows' result is trimmed to ``nrows``.
    """
    if m.nnz == 0:
        y.fill(0.0)
        return
    br, bc = m.block_shape
    nbc = -(-m.ncols // bc)
    xpad = ws.buf("bell_x", nbc * bc, m.dtype)
    xpad[: m.ncols] = x
    xpad[m.ncols :] = 0.0
    acc = ws.buf("bell_acc", m.nblockrows * br, m.dtype)
    acc.fill(0.0)
    _sparsetools.bsr_matvec(m.nblockrows, nbc, br, bc, *_bsr_view(m), xpad, acc)
    y[:] = acc[: m.nrows]
