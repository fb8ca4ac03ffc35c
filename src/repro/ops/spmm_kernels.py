"""Batched SpMM (block-of-vectors) kernels, ``Y = A @ X``.

The generic :meth:`SparseMatrixFormat.spmm` used to loop Python-level
per column with an ``ascontiguousarray`` copy each — O(k) kernel
launches and O(k) copies.  The kernels here process all ``k`` RHS
vectors in one fused sweep over the stored entries: each stored
element is read once and the k-wide FMA amortises the index traffic —
exactly the code-balance improvement (Eq. 1) block Krylov methods and
the KPM exploit on real hardware.

Every format with a stored-order CSR view
(:func:`~repro.ops.spmv_kernels.stored_csr_triplet`) batches through
one body, :func:`stored_spmm`, handed a compiled CSR sweep: scipy's
``csr_matvecs`` for the kernels registered here and for
:func:`spmm_permuted`, the C ``csr_spmm`` for the compiled tier
(:mod:`repro.kernels.compiled`).  Both sum each column in stored-entry
order from zero, so every column is bitwise the format's spmv.  COO
and BELLPACK have no CSR view and register no batch kernel: their
batches loop over columns of their spmv
(:meth:`~repro.formats.base.SparseMatrixFormat.spmm_percolumn`).

Dispatch is registry-driven: each kernel is declared with
:func:`repro.ops.registry.register_kernel` (``op="spmm"``, name
``spmm_<fmt>``) and :func:`spmm_dispatch` runs the rank-0 kernel of
:func:`repro.ops.registry.kernels_for` (the compiled one when the
tier is built), so format subclasses inherit their base format's
batched kernel and unknown formats degrade to the per-column loop.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from repro.core.jds import JaggedDiagonalsBase
from repro.core.sell import SELLMatrix
from repro.formats.argcsr import ARGCSRMatrix
from repro.formats.base import SparseMatrixFormat
from repro.formats.cmrs import CMRSMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.ellpack import ELLPACKMatrix
from repro.ops.registry import (
    STORED_CSR_TAG,
    KernelSpec,
    kernels_for,
    register_kernel,
)
from repro.ops.spmv_kernels import _sp_matvec, _sparsetools, stored_csr_triplet

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.engine.workspace import Workspace

__all__ = [
    "rhs_block",
    "spmm_dispatch",
    "spmm_permuted",
    "spmv_dispatch",
    "stored_spmm",
]


def _block(ws: Workspace | None, name: str, rows: int, k: int, dtype) -> np.ndarray:
    """``(rows, k)`` C-ordered scratch block.

    Bound, it is a view of the workspace's one flat block ``name``,
    which grows to the widest batch seen: a worker that sees every
    width from 1 to ``max_batch`` holds one block per name, not one
    per width.  Unbound, a plain allocation.
    """
    if ws is None:
        return np.empty((rows, k), dtype=dtype)
    return ws.grow(name, rows * k, dtype)[: rows * k].reshape(rows, k)


def rhs_block(m: SparseMatrixFormat, ws: Workspace | None, k: int) -> np.ndarray:
    """The ``(ncols, k)`` block :func:`stored_spmm` copies a foreign
    ``X`` into: a batch written here is swept in place, with no copy.
    The next batch on ``ws`` overwrites it."""
    return _block(ws, "spmm_X", m.ncols, k, m.dtype)


# ---------------------------------------------------------------------------

def _sp_matvecs(nrows, ncols, indptr, indices, data, X, Y):
    """``Y = A X`` via scipy's C kernels; one column takes ``csr_matvec``."""
    if X.shape[1] == 1:
        _sp_matvec(nrows, ncols, indptr, indices, data, X[:, 0], Y[:, 0])
        return
    Y[:] = 0.0
    _sparsetools.csr_matvecs(
        nrows, ncols, X.shape[1], indptr, indices, data, X, Y
    )


def stored_spmm(
    m: SparseMatrixFormat,
    X: np.ndarray,
    out: np.ndarray,
    ws: Workspace | None,
    sweep,
    permuted: bool = False,
) -> np.ndarray:
    """``out = A X`` by one k-wide ``sweep`` of ``m``'s stored-CSR view.

    ``sweep(nrows, ncols, indptr, indices, data, X, Y)`` fully writes
    a C-ordered ``Y`` from a C-ordered ``X``; the view is
    :func:`~repro.ops.spmv_kernels.stored_csr_triplet`.  Its rows fix
    the batch's shape:

    * plain (CRS, ELLPACK*, CMRS, ARG-CSR; JDS/pJDS when ``permuted``):
      they are ``out``'s rows, so the sweep writes ``out`` directly;
    * JDS/pJDS: a stored-order block, gathered into ``out`` through
      ``permutation.inverse``;
    * SELL: a padded stored-order block, scattered into ``out`` through
      ``permutation.perm``.

    An ``X`` that is not C-ordered (or not of the matrix dtype) is
    copied into a workspace block once, and a plain ``out`` that is not
    C-contiguous is written through one, so the sweep always gets raw
    row-major buffers and a batch's bits never depend on memory order.
    """
    if m.nnz == 0:
        out[...] = 0.0
        return out
    k = X.shape[1]
    if not (X.flags.c_contiguous and X.dtype == m.dtype):
        Xc = rhs_block(m, ws, k)
        Xc[...] = X
        X = Xc
    sell = isinstance(m, SELLMatrix)
    jds = isinstance(m, JaggedDiagonalsBase) and not permuted
    rows = m.padded_rows if sell else m.nrows
    if sell or jds or not (out.flags.c_contiguous and out.dtype == m.dtype):
        Y = _block(ws, "spmm_acc", rows, k, m.dtype)
    else:
        Y = out
    sweep(rows, m.ncols, *stored_csr_triplet(m, permuted), X, Y)
    if sell:
        out[m.permutation.perm] = Y[: m.nrows]
    elif jds:
        np.take(Y, m.permutation.inverse, axis=0, out=out, mode="clip")
    elif Y is not out:
        out[...] = Y
    return out


_spmm_scipy = functools.partial(stored_spmm, sweep=_sp_matvecs)

for _cls, _name in (
    (CSRMatrix, "spmm_csr"),
    (ELLPACKMatrix, "spmm_ell"),
    (JaggedDiagonalsBase, "spmm_jds"),
    (SELLMatrix, "spmm_sell"),
    (CMRSMatrix, "spmm_cmrs"),
    (ARGCSRMatrix, "spmm_argcsr"),
):
    register_kernel(
        _cls, "spmm", name=_name, tags=("scipy", STORED_CSR_TAG)
    )(_spmm_scipy)


# ---------------------------------------------------------------------------

def _stored_inverse(m: SparseMatrixFormat) -> np.ndarray | None:
    """``permutation.inverse`` of a permuting format, else ``None``."""
    perm = getattr(m, "permutation", None)
    return None if perm is None or perm.is_identity else perm.inverse


def spmv_dispatch(
    m: SparseMatrixFormat,
    x: np.ndarray,
    y: np.ndarray,
    ws: Workspace,
    kernel: KernelSpec | None = None,
    permuted: bool = False,
) -> np.ndarray:
    """Run a spmv kernel of ``m`` on a validated (x, y) pair; return ``y``.

    ``x`` must already have the matrix dtype and ``y`` be a C-contiguous
    result vector (callers go through ``check_rhs``/``alloc_result``).
    ``kernel`` is a bound matrix's cached variant; without one the
    format's rank-0 spmv kernel runs.  Kernels write stored row order,
    and this is the one place that undoes the permutation: a permuting
    format's kernel writes a workspace vector that is gathered into
    ``y`` through ``permutation.inverse``.  ``permuted=True`` (the
    stored-basis path of the jagged formats) keeps stored order.
    """
    if kernel is None:
        candidates = kernels_for(m, "spmv")
        if not candidates:
            raise TypeError(f"no spmv kernel registered for format {m.name!r}")
        kernel = candidates[0]
    inv = None if permuted else ws.const("perm_inverse", lambda: _stored_inverse(m))
    if inv is None:
        kernel.run(m, ws, x, y, permuted=permuted)
        return y
    acc = ws.buf("spmv_stored", m.nrows, m.dtype)
    kernel.run(m, ws, x, acc)
    # a gather through the inverse permutation rather than a fancy
    # scatter: np.take's contiguous write path is faster
    np.take(acc, inv, out=y, mode="clip")
    return y


def spmm_dispatch(
    m: SparseMatrixFormat,
    X: np.ndarray,
    out: np.ndarray,
    ws: Workspace | None = None,
    kernel: KernelSpec | None = None,
) -> np.ndarray:
    """Run the fused kernel of ``m`` on a validated (X, out) pair.

    ``X`` must already have the matrix dtype and ``out`` the right
    shape (callers go through ``check_rhs_block``); both may have any
    memory order.  The pair is processed by ``kernel`` (a bound matrix
    passes its cached one) or else by the format's rank-0 batched
    kernel from the central registry; a format without one loops over
    columns.
    """
    if X.ndim != 2:  # defensive: dispatch is also called directly
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if kernel is None:
        candidates = kernels_for(m, "spmm")
        if not candidates:
            return m.spmm_percolumn(X, out)
        kernel = candidates[0]
    return kernel.run(m, X, out, ws)


def spmm_permuted(
    m: JaggedDiagonalsBase,
    X_perm: np.ndarray,
    out: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Stored-basis block product ``Y~ = P A P^T X~`` (square jagged only).

    The block analogue of ``spmv_permuted``: the batched KPM path runs
    its whole Chebyshev recurrence on (n, R) blocks in the stored basis
    and never gathers/scatters inside the iteration.  Each column is
    bitwise the ``jds_scipy`` ``spmv_permuted``.
    """
    if not isinstance(m, JaggedDiagonalsBase):
        raise TypeError(
            f"{type(m).__name__} has no permuted-basis block kernel"
        )
    if m.nrows != m.ncols:
        raise ValueError("permuted-basis spmm requires a square matrix")
    X_perm, out = m.check_rhs_block(X_perm, out)
    return stored_spmm(m, X_perm, out, ws, _sp_matvecs, permuted=True)
