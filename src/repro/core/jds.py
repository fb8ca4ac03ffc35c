"""Jagged Diagonals Storage (JDS) and the shared jagged-column machinery.

Classic JDS (used on vector computers) sorts rows by descending length
and stores the "jagged diagonals" — the j-th stored entry of every row
that has one — contiguously.  pJDS (:mod:`repro.core.pjds`) is JDS with
block-granular padding; both share the layout logic implemented in
:class:`JaggedDiagonalsBase`.

Layout invariant: stored row ``k`` (sorted order) owns one slot in each
jagged column ``j < padded_length[k]``; because padded lengths are
non-increasing in ``k``, the active rows of column ``j`` are exactly the
prefix ``0..col_len[j)`` and the slot of row ``k`` in column ``j`` sits
at flat position ``col_start[j] + k`` — precisely the address
arithmetic of Listing 2.

Set-up runs two one-pass C kernels of the ``cnative`` tier when it is
loaded (:mod:`repro.kernels.compiled`): ``jds_fill`` places the
row-major COO into the jagged columns, and ``jds_rows`` writes the
stored-row CSR view that the ``*_scipy`` delegate sweeps.  Their NumPy
bodies below are the bitwise reference and the fallback (when the tier
is off, e.g. under ``REPRO_COMPILED_DISABLE``), as in
:mod:`repro.solvers.vector`.
"""

from __future__ import annotations

import ctypes
from typing import Mapping

import numpy as np

from repro.core.sorting import Permutation, descending_row_sort, windowed_row_sort
from repro.formats.base import (
    INDEX_DTYPE,
    STORED_INDEX_DTYPE,
    SparseMatrixFormat,
    index_nbytes,
    stored_indices,
)
from repro.formats.coo import COOMatrix

__all__ = ["JDSMatrix", "JaggedDiagonalsBase", "jagged_fill"]

_UNBOUND = object()
#: ``{value dtype: (jds_fill, jds_rows)}`` of the loaded cnative
#: library, ``None`` when the tier is off; bound on first use, since
#: :mod:`repro.kernels.compiled` imports this module
_KERNELS = _UNBOUND


def _cnative():
    global _KERNELS
    if _KERNELS is _UNBOUND:
        # load the whole registry first, so a conversion does not change
        # the order in which the kernel modules register
        from repro.ops.registry import _ensure_loaded

        _ensure_loaded()
        from repro.kernels.compiled import _CNATIVE, _F_SUFFIX

        kernels = None
        if _CNATIVE is not None:
            i64, ptr = ctypes.c_longlong, ctypes.c_void_p
            kernels = {}
            for dtype, fs in _F_SUFFIX.items():
                fill, rows = _CNATIVE.lib[f"jds_fill_{fs}"], _CNATIVE.lib[f"jds_rows_{fs}"]
                fill.argtypes = (i64,) + (ptr,) * 7
                rows.argtypes = (i64,) + (ptr,) * 8
                fill.restype = rows.restype = None
                kernels[dtype] = (fill, rows)
        _KERNELS = kernels
    return _KERNELS


def _ptr(a: np.ndarray | None):
    return None if a is None else a.ctypes.data


def _fill_cc(coo, inverse, lengths, col_start, val, col_idx) -> bool:
    """:func:`jagged_fill`'s placement by the compiled ``jds_fill``;
    ``False`` (nothing written) when the tier is off."""
    kernels = _cnative()
    if kernels is None:
        return False
    ptr = np.zeros(coo.nrows + 1, dtype=INDEX_DTYPE)
    np.cumsum(lengths, out=ptr[1:])
    if ptr[-1] != coo.nnz:
        raise ValueError("row_lengths do not sum to nnz")
    # held in locals while the kernel reads them
    inverse = np.ascontiguousarray(inverse, dtype=INDEX_DTYPE)
    cols = np.ascontiguousarray(coo.cols, dtype=STORED_INDEX_DTYPE)
    values = np.ascontiguousarray(coo.values, dtype=val.dtype)
    kernels[val.dtype][0](
        coo.nrows, _ptr(ptr), _ptr(inverse), _ptr(col_start), _ptr(cols),
        _ptr(values), _ptr(col_idx), _ptr(val),
    )
    return True


def _rows_cc(m, indptr, inverse, indices, data) -> bool:
    """:meth:`JaggedDiagonalsBase._stored_rows` by the compiled
    ``jds_rows``; ``False`` (nothing written) when the tier is off."""
    kernels = _cnative()
    if kernels is None:
        return False
    kernels[m.dtype][1](
        m.nrows, _ptr(indptr), _ptr(m._padded_lengths), _ptr(m._col_start),
        _ptr(m._col_idx), _ptr(m._val), _ptr(inverse), _ptr(indices),
        _ptr(data),
    )
    return True


def jagged_fill(
    coo: COOMatrix,
    perm: Permutation,
    padded_lengths: np.ndarray,
    row_lengths: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build flat jagged-column arrays for a given row order and padding.

    Parameters
    ----------
    coo : COOMatrix
        Canonical source matrix.
    perm : Permutation
        Row order; ``perm.perm[k]`` = original row at stored position k.
    padded_lengths : ndarray
        Padded length of each stored position; must be non-increasing and
        >= the true row length.
    row_lengths : ndarray, optional
        Non-zeros per original row (``np.bincount(coo.rows)``), passed by
        a caller that has counted them already; counted here otherwise.

    Returns
    -------
    val, col_idx : flat ndarrays of ``sum(padded_lengths)`` slots
        (column-by-column).  Padding slots hold 0.0 / column 0.
    col_start : ndarray of ``width + 1`` offsets into the flat arrays.
    true_lengths : ndarray, true non-zero count per stored position.
    """
    n = coo.nrows
    padded_lengths = np.asarray(padded_lengths, dtype=INDEX_DTYPE)
    if padded_lengths.shape != (n,):
        raise ValueError(
            f"padded_lengths must have shape ({n},), got {padded_lengths.shape}"
        )
    if n > 1 and np.any(np.diff(padded_lengths) > 0):
        raise ValueError("padded_lengths must be non-increasing")

    if row_lengths is None:
        row_lengths = np.bincount(coo.rows, minlength=n)
    orig_lengths = np.asarray(row_lengths, dtype=INDEX_DTYPE)
    true_lengths = orig_lengths[perm.perm]
    if np.any(true_lengths > padded_lengths):
        raise ValueError("padded_lengths smaller than actual row lengths")

    width = int(padded_lengths[0]) if n else 0
    # col_len[j] = #stored rows with padded length > j; lengths are sorted
    # non-increasingly, so a cumulative histogram from the top suffices.
    hist = np.bincount(padded_lengths, minlength=width + 1)
    col_len = n - np.cumsum(hist)[:width] if width else np.empty(0, dtype=np.int64)
    col_start = np.zeros(width + 1, dtype=INDEX_DTYPE)
    np.cumsum(col_len, out=col_start[1:])

    total = int(col_start[-1])
    val = np.zeros(total, dtype=coo.dtype)
    col_idx = np.zeros(total, dtype=STORED_INDEX_DTYPE)
    # canonical COO is row-major, so row r's entries are one run of
    # orig_lengths[r]: entry j of the run lands in jagged column j at
    # stored position k = perm.inverse[r], flat slot col_start[j] + k
    if not _fill_cc(coo, perm.inverse, orig_lengths, col_start, val, col_idx):
        row_start = np.cumsum(orig_lengths) - orig_lengths
        j = np.arange(coo.nnz, dtype=INDEX_DTYPE)
        j -= np.repeat(row_start, orig_lengths)
        pos = col_start[j]
        pos += np.repeat(perm.inverse, orig_lengths)
        val[pos] = coo.values
        col_idx[pos] = coo.cols
    return val, col_idx, col_start, true_lengths


class JaggedDiagonalsBase(SparseMatrixFormat):
    """Shared state and kernels of JDS-family formats."""

    def __init__(
        self,
        val: np.ndarray,
        col_idx: np.ndarray,
        col_start: np.ndarray,
        true_lengths: np.ndarray,
        padded_lengths: np.ndarray,
        permutation: Permutation,
        shape: tuple[int, int],
    ):
        nnz = int(true_lengths.sum())
        super().__init__(shape, nnz=nnz, dtype=val.dtype)
        if permutation.size != shape[0]:
            raise ValueError("permutation size must equal nrows")
        if val.shape != col_idx.shape or val.ndim != 1:
            raise ValueError("val/col_idx must be flat arrays of equal length")
        if col_start[-1] != val.shape[0]:
            raise ValueError("col_start[-1] must equal the flat array length")
        self._val = np.ascontiguousarray(val)
        self._col_idx = stored_indices(col_idx, shape[1], "col_idx")
        self._col_start = np.ascontiguousarray(col_start, dtype=INDEX_DTYPE)
        self._true_lengths = np.ascontiguousarray(true_lengths, dtype=INDEX_DTYPE)
        self._padded_lengths = np.ascontiguousarray(padded_lengths, dtype=INDEX_DTYPE)
        self._perm = permutation

    # ------------------------------------------------------------------
    @property
    def val(self) -> np.ndarray:
        v = self._val.view()
        v.flags.writeable = False
        return v

    @property
    def col_idx(self) -> np.ndarray:
        v = self._col_idx.view()
        v.flags.writeable = False
        return v

    @property
    def col_start(self) -> np.ndarray:
        """Offsets of each jagged column (the ``col_start[]`` of Listing 2)."""
        v = self._col_start.view()
        v.flags.writeable = False
        return v

    @property
    def rowmax(self) -> np.ndarray:
        """True row lengths in *stored* order (``rowmax[]`` of Listing 2)."""
        v = self._true_lengths.view()
        v.flags.writeable = False
        return v

    @property
    def padded_lengths(self) -> np.ndarray:
        v = self._padded_lengths.view()
        v.flags.writeable = False
        return v

    @property
    def permutation(self) -> Permutation:
        return self._perm

    @property
    def width(self) -> int:
        """Number of jagged columns (= padded length of the longest row)."""
        return self._col_start.shape[0] - 1

    @property
    def column_lengths(self) -> np.ndarray:
        return np.diff(self._col_start)

    @property
    def total_slots(self) -> int:
        """Stored value slots including padding."""
        return int(self._col_start[-1])

    # ------------------------------------------------------------------
    def spmv_permuted(self, x_perm: np.ndarray) -> np.ndarray:
        """``y~ = P A P^T x~`` entirely in the permuted basis.

        For a square matrix the Krylov-solver workflow of Sect. II-A
        permutes both row and column space once up front; pass a vector
        already in stored order and receive the result in stored order —
        no scatter/gather happens inside the iteration.  Runs the rank-0
        registry kernel, as :meth:`spmv` does.
        """
        if self.nrows != self.ncols:
            raise ValueError("permuted-basis spmv requires a square matrix")
        x_perm = self.check_rhs(x_perm)
        y = np.empty(self.nrows, dtype=self._dtype)
        from repro.engine.workspace import Workspace  # late: avoid cycle
        from repro.ops.spmm_kernels import spmv_dispatch

        return spmv_dispatch(self, x_perm, y, Workspace(), permuted=True)

    def _permuted_col_idx(self) -> np.ndarray:
        """Column indices rewritten into the permuted basis (cached)."""
        cached = getattr(self, "_col_idx_perm", None)
        if cached is None:
            if self._perm.is_identity:
                cached = self._col_idx
            else:
                cached = self._perm.inverse.astype(STORED_INDEX_DTYPE)[
                    self._col_idx
                ]
            self._col_idx_perm = cached
        return cached

    def _stored_rows(self, permuted: bool = False, data=None):
        """``(indptr, indices, data)``: the jagged entries re-laid row-major.

        Stored row ``k`` holds its ``padded_length[k]`` slots
        ``col_start[j] + k`` in turn, so this is the stored-order CSR
        view of :func:`repro.ops.spmv_kernels.stored_csr_triplet` (which
        caches it), with an int64 ``indptr``.  ``indices`` hold column
        indices in the requested basis (original, or permuted for the
        stored-basis solver path).  Padding slots carry value 0 and
        column 0 (``perm.inverse[0]`` in the permuted basis).  A ``data``
        already built for the other basis is passed in and shared, not
        rebuilt.
        """
        if permuted and self.nrows != self.ncols:
            raise ValueError("the permuted basis requires a square matrix")
        pl = self._padded_lengths
        indptr = np.zeros(self.nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(pl, out=indptr[1:])
        total = self.total_slots
        indices = np.empty(total, dtype=STORED_INDEX_DTYPE)
        out = np.empty(total, dtype=self._dtype) if data is None else None
        inverse = (
            self._perm.inverse if permuted and not self._perm.is_identity
            else None
        )
        if not _rows_cc(self, indptr, inverse, indices, out):
            # slot j of stored row k is col_start[j] + k
            k = np.repeat(np.arange(self.nrows, dtype=INDEX_DTYPE), pl)
            pos = np.arange(total, dtype=INDEX_DTYPE)
            pos -= np.repeat(indptr[:-1], pl)
            pos = self._col_start[pos]
            pos += k
            src = self._permuted_col_idx() if permuted else self._col_idx
            np.take(src, pos, out=indices)
            if out is not None:
                np.take(self._val, pos, out=out)
        return indptr, indices, data if data is not None else out

    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        rows_, cols_, vals_ = [], [], []
        perm = self._perm.perm
        for j in range(self.width):
            s = int(self._col_start[j])
            e = int(self._col_start[j + 1])
            k = np.arange(e - s, dtype=INDEX_DTYPE)
            active = self._true_lengths[: e - s] > j
            k = k[active]
            rows_.append(perm[k])
            cols_.append(self._col_idx[s + k])
            vals_.append(self._val[s + k])
        if rows_:
            rows = np.concatenate(rows_)
            cols = np.concatenate(cols_)
            vals = np.concatenate(vals_)
        else:
            rows = np.empty(0, dtype=INDEX_DTYPE)
            cols = np.empty(0, dtype=INDEX_DTYPE)
            vals = np.empty(0, dtype=self._dtype)
        return COOMatrix(rows, cols, vals, self.shape, sum_duplicates=False)

    def row_lengths(self) -> np.ndarray:
        out = np.empty(self.nrows, dtype=INDEX_DTYPE)
        out[self._perm.perm] = self._true_lengths
        return out


class JDSMatrix(JaggedDiagonalsBase):
    """Classic (unpadded) Jagged Diagonals Storage.

    Equivalent to pJDS with block size 1: zero storage overhead, but the
    per-column lengths are arbitrary, which breaks warp-granular
    coalescing on a GPU (the motivation for the "pad" step of Fig. 1).
    """

    name = "JDS"

    @classmethod
    def from_coo(cls, coo: COOMatrix, *, sigma: int | None = None, **kwargs) -> "JDSMatrix":
        if kwargs:
            raise TypeError(f"unexpected kwargs for JDS: {sorted(kwargs)}")
        lengths = np.bincount(coo.rows, minlength=coo.nrows)
        if sigma is None:
            perm = Permutation(descending_row_sort(lengths))
        else:
            perm = Permutation(windowed_row_sort(lengths, sigma))
        sorted_lengths = lengths[perm.perm].astype(INDEX_DTYPE)
        if sigma is not None and coo.nrows > 1:
            # windowed sort may violate global monotonicity; JDS requires
            # the prefix property, so lift to the running maximum.
            sorted_lengths = np.maximum.accumulate(sorted_lengths[::-1])[::-1]
        val, col_idx, col_start, true_lengths = jagged_fill(
            coo, perm, sorted_lengths, lengths
        )
        return cls(
            val, col_idx, col_start, true_lengths, sorted_lengths, perm, coo.shape
        )

    def memory_breakdown(self) -> Mapping[str, int]:
        return {
            "val": self.total_slots * self.value_itemsize,
            "col_idx": index_nbytes(self.total_slots),
            "col_start": index_nbytes(self.width + 1),
            "perm": index_nbytes(self.nrows),
        }
