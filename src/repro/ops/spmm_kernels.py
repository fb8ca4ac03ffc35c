"""Batched SpMM (block-of-vectors) kernels, ``Y = A @ X``.

The generic :meth:`SparseMatrixFormat.spmm` used to loop Python-level
per column with an ``ascontiguousarray`` copy each — O(k) kernel
launches and O(k) copies.  The kernels here process all ``k`` RHS
vectors in one fused sweep over the stored entries: the gathered RHS
block ``X[col]`` is a ``(slots, k)`` rectangle, so each stored element
is read once and the k-wide FMA amortises the index traffic — exactly
the code-balance improvement (Eq. 1) block Krylov methods and the KPM
exploit on real hardware.

Layout notes: the kernels take a C-ordered ``X`` (rows contiguous);
:func:`spmm_dispatch` copies any other order once.  ``out`` may have
any order.

Dispatch is registry-driven: each kernel is declared with
``@register_kernel(<FormatClass>, "spmm", name="spmm_<fmt>")`` and
:func:`spmm_dispatch` runs the rank-0 kernel of
:func:`repro.ops.registry.kernels_for` (the compiled one when the
tier is built), so format subclasses inherit their base format's
batched kernel and unknown formats degrade to the per-column loop.
The NumPy kernels here run scipy's ``csr_matvecs`` over the stored-CSR
view; their blocked NumPy bodies run only when scipy lacks it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.jds import JaggedDiagonalsBase
from repro.core.sell import SELLMatrix
from repro.formats.argcsr import ARGCSRMatrix
from repro.formats.base import SparseMatrixFormat
from repro.formats.cmrs import CMRSMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.ellpack import ELLPACKMatrix
from repro.ops.registry import KernelSpec, kernels_for, register_kernel
from repro.ops.spmv_kernels import (
    _HAVE_CSR_MATVEC,
    _scipy_sparsetools,
    _sp_matvec,
    stored_csr_triplet,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.engine.workspace import Workspace

__all__ = ["spmm_dispatch", "spmm_permuted"]


def _block(ws: Workspace | None, name: str, shape, dtype) -> np.ndarray:
    """Workspace buffer when bound, plain allocation otherwise."""
    if ws is None:
        return np.empty(shape, dtype=dtype)
    return ws.buf(name, shape, dtype)


# ---------------------------------------------------------------------------

#: gathered elements per cache-blocked chunk (~512 KB at float64): the
#: RHS rectangle is written and immediately reduced while still
#: cache-resident, so the only main-memory traffic per stored entry is
#: one index + one value read — the code-balance point of batching.
_SPMM_BLOCK = 65536


def _rows_per_chunk(L: int, k: int) -> int:
    return max(1, _SPMM_BLOCK // (max(k, 1) * max(L, 1)))


def _sp_matvecs(nrows, ncols, indptr, indices, data, X, out):
    """``out = A X`` via scipy's C kernels; one column takes ``csr_matvec``."""
    if X.shape[1] == 1:
        _sp_matvec(nrows, ncols, indptr, indices, data, X[:, 0], out[:, 0])
        return
    out[:] = 0.0
    _scipy_sparsetools.csr_matvecs(
        nrows, ncols, X.shape[1], indptr, indices, data, X, out
    )


def _try_spmm_scipy(m, X, out, ws, permuted=False) -> bool:
    """scipy's batched sweep over the stored-CSR view, when it exists.

    scipy's kernel walks raw row-major buffers, so an ``out`` that is
    not C-contiguous gets a workspace block that is copied out after.
    Returns False only when ``csr_matvecs`` is missing, leaving the
    batch to the NumPy kernel.
    """
    if not _HAVE_CSR_MATVEC:
        return False
    indptr, indices, data = stored_csr_triplet(m, permuted)
    if out.flags.c_contiguous:
        _sp_matvecs(m.nrows, m.ncols, indptr, indices, data, X, out)
    else:
        acc = _block(ws, f"spmm_stage:{X.shape[1]}", out.shape, m.dtype)
        _sp_matvecs(m.nrows, m.ncols, indptr, indices, data, X, acc)
        out[...] = acc
    return True


@register_kernel(CSRMatrix, "spmm", name="spmm_csr", tags=("numpy", "blocked"))
def _spmm_csr(m: CSRMatrix, X, out, ws):
    """Cache-blocked length-grouped batched GEMV (quasi-ELLPACK view).

    Rows are bucketed by length ``L`` so each bucket is a dense
    ``(nL, L)`` rectangle of entries; per row chunk, the gathered RHS
    block is reduced with one strided ``(nr, k, L) @ (nr, L, 1)``
    batched matmul while still cache-resident.  This sidesteps both
    the per-segment overhead of a 2-D ``np.add.reduceat`` (one dispatch
    per row) and the memory round-trip of materialising the full
    ``(nnz, k)`` gather.
    """
    if m.nnz == 0:
        out[:] = 0.0
        return out
    if _try_spmm_scipy(m, X, out, ws):
        return out
    k = X.shape[1]
    idx_g, data_g, groups = m._length_groups()  # noqa: SLF001
    out[:] = 0.0
    gsz = rsz = 1
    for L, rows_l in groups:
        rc = min(_rows_per_chunk(L, k), rows_l.shape[0])
        gsz = max(gsz, rc * L * k)
        rsz = max(rsz, rc * k)
    G = _block(ws, f"spmm_G:{k}", gsz, m.dtype)
    R = _block(ws, f"spmm_R:{k}", rsz, m.dtype)
    off = 0
    for L, rows_l in groups:
        nL = rows_l.shape[0]
        step = _rows_per_chunk(L, k)
        for c0 in range(0, nL, step):
            c1 = min(c0 + step, nL)
            nr = c1 - c0
            sl = slice(off + c0 * L, off + c1 * L)
            Gv = G[: nr * L * k].reshape(nr * L, k)
            np.take(X, idx_g[sl], axis=0, out=Gv, mode="clip")
            Rv = R[: nr * k].reshape(nr, k, 1)
            np.matmul(
                Gv.reshape(nr, L, k).transpose(0, 2, 1),
                data_g[sl].reshape(nr, L, 1),
                out=Rv,
            )
            out[rows_l[c0:c1]] = Rv[:, :, 0]
        off += nL * L
    return out


@register_kernel(COOMatrix, "spmm", name="spmm_coo", tags=("numpy",))
def _spmm_coo(m: COOMatrix, X, out, ws):
    if m.nnz == 0:
        out[:] = 0.0
        return out
    k = X.shape[1]
    prod = _block(ws, f"spmm_prod:{k}", (m.nnz, k), m.dtype)
    np.take(X, m.cols, axis=0, out=prod, mode="clip")
    prod *= m.values[:, None]
    starts, urows = m._row_runs()  # noqa: SLF001
    out[:] = 0.0
    out[urows] = np.add.reduceat(prod, starts, axis=0)
    return out


@register_kernel(ELLPACKMatrix, "spmm", name="spmm_ell", tags=("numpy", "blocked"))
def _spmm_ell(m: ELLPACKMatrix, X, out, ws):
    """Cache-blocked batched GEMV over the row-major padded rectangle."""
    if m.width == 0:
        out[:] = 0.0
        return out
    if _try_spmm_scipy(m, X, out, ws):
        return out
    k = X.shape[1]
    col_rm, val_rm = m._row_major_entries()  # noqa: SLF001
    L = m.width
    step = _rows_per_chunk(L, k)
    rc = min(step, m.nrows)
    G = _block(ws, f"spmm_G:{k}", rc * L * k, m.dtype)
    R = _block(ws, f"spmm_R:{k}", rc * k, m.dtype)
    for c0 in range(0, m.nrows, step):
        c1 = min(c0 + step, m.nrows)
        nr = c1 - c0
        Gv = G[: nr * L * k].reshape(nr * L, k)
        np.take(X, col_rm[c0 * L : c1 * L], axis=0, out=Gv, mode="clip")
        Rv = R[: nr * k].reshape(nr, k, 1)
        np.matmul(
            Gv.reshape(nr, L, k).transpose(0, 2, 1),
            val_rm[c0:c1].reshape(nr, L, 1),
            out=Rv,
        )
        out[c0:c1] = Rv[:, :, 0]
    return out


def _spmm_jds_stored(m: JaggedDiagonalsBase, X, acc, permuted, ws):
    """Blocked grouped GEMV writing the stored-order block ``acc``.

    Padded lengths are non-increasing, so each length group is a
    contiguous stored-row range and the batched matmul writes its
    ``(nr, k)`` result slice directly — every output row is produced
    exactly once, with no per-column accumulator re-reads.  ``acc``
    must be C-contiguous.
    """
    if _try_spmm_scipy(m, X, acc, ws, permuted):
        return acc
    idx_g, data_g, groups = m._grouped_entries(permuted)  # noqa: SLF001
    k = X.shape[1]
    # groups tile the stored rows [0, tail); only zero the empty tail
    tail = groups[-1][2] if groups else 0
    if tail < acc.shape[0]:
        acc[tail:] = 0.0
    gsz = 1
    for L, r0, r1 in groups:
        rc = min(_rows_per_chunk(L, k), r1 - r0)
        gsz = max(gsz, rc * L * k)
    G = _block(ws, f"spmm_G:{k}", gsz, m.dtype)
    off = 0
    for L, r0, r1 in groups:
        nL = r1 - r0
        step = _rows_per_chunk(L, k)
        for c0 in range(0, nL, step):
            c1 = min(c0 + step, nL)
            nr = c1 - c0
            sl = slice(off + c0 * L, off + c1 * L)
            Gv = G[: nr * L * k].reshape(nr * L, k)
            np.take(X, idx_g[sl], axis=0, out=Gv, mode="clip")
            np.matmul(
                Gv.reshape(nr, L, k).transpose(0, 2, 1),
                data_g[sl].reshape(nr, L, 1),
                out=acc[r0 + c0 : r0 + c1].reshape(nr, k, 1),
            )
        off += nL * L
    return acc


@register_kernel(JaggedDiagonalsBase, "spmm", name="spmm_jds", tags=("numpy", "blocked"))
def _spmm_jds(m: JaggedDiagonalsBase, X, out, ws):
    if m.total_slots == 0:
        out[:] = 0.0
        return out
    k = X.shape[1]
    acc = _block(ws, f"spmm_acc:{k}", (m.nrows, k), m.dtype)
    _spmm_jds_stored(m, X, acc, False, ws)
    # gather through the inverse permutation (fast contiguous writes)
    np.take(acc, m.permutation.inverse, axis=0, out=out, mode="clip")
    return out


@register_kernel(SELLMatrix, "spmm", name="spmm_sell", tags=("numpy",))
def _spmm_sell(m: SELLMatrix, X, out, ws):
    if m.total_slots == 0:
        out[:] = 0.0
        return out
    k = X.shape[1]
    C = m.chunk_rows
    acc = _block(ws, f"spmm_acc:{k}", (m.padded_rows, k), m.dtype)
    if _HAVE_CSR_MATVEC:
        # compiled sweep over the padded-stored-rows CSR view
        indptr, indices, data = stored_csr_triplet(m)
        _sp_matvecs(m.padded_rows, m.ncols, indptr, indices, data, X, acc)
        out[m.permutation.perm] = acc[: m.nrows]
        return out
    acc[:] = 0.0
    ptr = m.chunk_ptr
    widths = m.chunk_widths
    val = m.val
    col_idx = m.col_idx
    for c in range(m.nchunks):
        w = int(widths[c])
        if w == 0:
            continue
        s = int(ptr[c])
        e = int(ptr[c + 1])
        # chunk slots are column-major within the chunk: (w, C)
        gv = X[col_idx[s:e]] * val[s:e, None]
        acc[c * C : (c + 1) * C] += gv.reshape(w, C, k).sum(axis=0)
    out[m.permutation.perm] = acc[: m.nrows]
    return out


def _spmm_csrview(m, X, out, ws, *, name: str):
    """Batched sweep over a format's stored-CSR view (original order).

    Compiled scipy path when available; otherwise one ``(nnz, k)``
    gather reduced per row run via 2-D ``reduceat`` — the COO batched
    kernel on the triplet view.
    """
    if m.nnz == 0:
        out[:] = 0.0
        return out
    if _try_spmm_scipy(m, X, out, ws):
        return out
    indptr, indices, data = stored_csr_triplet(m)
    k = X.shape[1]
    prod = _block(ws, f"{name}_prod:{k}", (data.shape[0], k), m.dtype)
    np.take(X, indices, axis=0, out=prod, mode="clip")
    prod *= data[:, None]
    lens = np.diff(indptr)
    ne = np.flatnonzero(lens > 0)
    starts = np.ascontiguousarray(indptr[:-1][ne])
    out[:] = 0.0
    out[ne] = np.add.reduceat(prod, starts, axis=0)
    return out


@register_kernel(CMRSMatrix, "spmm", name="spmm_cmrs", tags=("numpy",))
def _spmm_cmrs(m: CMRSMatrix, X, out, ws):
    """CMRS entries are row-major already: sweep the CSR relabelling."""
    return _spmm_csrview(m, X, out, ws, name="spmm_cmrs")


@register_kernel(ARGCSRMatrix, "spmm", name="spmm_argcsr", tags=("numpy",))
def _spmm_argcsr(m: ARGCSRMatrix, X, out, ws):
    """Sweep the unpadded original-order CSR view of the groups."""
    return _spmm_csrview(m, X, out, ws, name="spmm_argcsr")


# ---------------------------------------------------------------------------

def spmm_dispatch(
    m: SparseMatrixFormat,
    X: np.ndarray,
    out: np.ndarray,
    ws: Workspace | None = None,
    kernel: KernelSpec | None = None,
) -> np.ndarray:
    """Run the fused kernel of ``m`` on a validated (X, out) pair.

    ``X`` must already have the matrix dtype and ``out`` the right
    shape (callers go through ``check_rhs_block``).  ``X`` of any order
    is made C-contiguous once and processed by ``kernel`` (a bound
    matrix passes its cached one) or else by the format's rank-0
    batched kernel from the central registry; a format without one
    loops over columns.
    """
    if X.ndim != 2:  # defensive: dispatch is also called directly
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if kernel is None:
        candidates = kernels_for(m, "spmm")
        if not candidates:
            return m.spmm_percolumn(X, out)
        kernel = candidates[0]
    return kernel.run(m, np.ascontiguousarray(X), out, ws)


def spmm_permuted(
    m: JaggedDiagonalsBase,
    X_perm: np.ndarray,
    out: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Stored-basis block product ``Y~ = P A P^T X~`` (square jagged only).

    The block analogue of ``spmv_permuted``: the batched KPM path runs
    its whole Chebyshev recurrence on (n, R) blocks in the stored basis
    and never gathers/scatters inside the iteration.
    """
    if not isinstance(m, JaggedDiagonalsBase):
        raise TypeError(
            f"{type(m).__name__} has no permuted-basis block kernel"
        )
    if m.nrows != m.ncols:
        raise ValueError("permuted-basis spmm requires a square matrix")
    X_perm, out = m.check_rhs_block(X_perm, out)
    if not X_perm.flags.c_contiguous:
        X_perm = np.ascontiguousarray(X_perm)
    if m.total_slots == 0:
        out[:] = 0.0
        return out
    if out.flags.c_contiguous:
        _spmm_jds_stored(m, X_perm, out, True, ws)
    else:  # matmul needs a contiguous destination: stage and copy
        acc = _block(ws, f"spmm_acc:{X_perm.shape[1]}", out.shape, m.dtype)
        out[:] = _spmm_jds_stored(m, X_perm, acc, True, ws)
    return out
