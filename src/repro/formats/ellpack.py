"""ELLPACK storage format (Grimes/Kincaid/Young; Bell & Garland on GPUs).

All rows are padded with explicit zeros to the *global* maximum row
length ``Nmax_nzr`` and the resulting rectangular ``N x Nmax`` array is
stored column by column, so that consecutive GPU threads (rows) touch
consecutive memory addresses — the coalescing requirement of Sect. II-A.

Following the paper's footnote, the number of rows is padded to a
multiple of the warp size (``row_pad``, default 32).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.formats.base import (
    INDEX_DTYPE,
    STORED_INDEX_DTYPE,
    SparseMatrixFormat,
    index_nbytes,
    stored_indices,
)
from repro.formats.coo import COOMatrix
from repro.utils.validation import check_positive_int

__all__ = ["ELLPACKMatrix", "build_ell_arrays"]


def build_ell_arrays(
    coo: COOMatrix, padded_rows: int, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Construct column-major ELLPACK arrays from a canonical COO matrix.

    Returns
    -------
    val : ndarray, shape (width, padded_rows)
        ``val[j, i]`` is the j-th stored entry of row i (0.0 padding).
    col : ndarray, shape (width, padded_rows)
        Matching column indices (padding points at column 0, which is
        always safe because the padding value is exactly 0.0).
    row_lengths : ndarray, shape (padded_rows,)
        True non-zero count per row (0 for padding rows).
    """
    lengths = np.bincount(coo.rows, minlength=padded_rows).astype(INDEX_DTYPE)
    val = np.zeros((width, padded_rows), dtype=coo.dtype)
    col = np.zeros((width, padded_rows), dtype=STORED_INDEX_DTYPE)
    if coo.nnz:
        # position of each entry within its row: COO canonical order is
        # row-major, so entries of one row are consecutive.
        starts = np.zeros(padded_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(lengths, out=starts[1:])
        slot = np.arange(coo.nnz, dtype=INDEX_DTYPE) - starts[coo.rows]
        val[slot, coo.rows] = coo.values
        col[slot, coo.rows] = coo.cols
    return val, col, lengths


class ELLPACKMatrix(SparseMatrixFormat):
    """Plain ELLPACK: the kernel computes the padding too (Fig. 2a)."""

    name = "ELLPACK"

    def __init__(
        self,
        val: np.ndarray,
        col: np.ndarray,
        row_lengths: np.ndarray,
        shape: tuple[int, int],
    ):
        if val.shape != col.shape:
            raise ValueError(
                f"val/col shape mismatch: {val.shape} vs {col.shape}"
            )
        if val.ndim != 2:
            raise ValueError(f"val must be 2-D (width, padded_rows), got {val.ndim}-D")
        if row_lengths.shape != (val.shape[1],):
            raise ValueError(
                "row_lengths must match the padded row count "
                f"{val.shape[1]}, got {row_lengths.shape}"
            )
        nnz = int(row_lengths.sum())
        super().__init__(shape, nnz=nnz, dtype=val.dtype)
        if shape[0] > val.shape[1]:
            raise ValueError("padded row count smaller than nrows")
        self._val = np.ascontiguousarray(val)
        self._col = stored_indices(col, shape[1], "col")
        self._row_lengths = np.ascontiguousarray(row_lengths, dtype=INDEX_DTYPE)

    # ------------------------------------------------------------------
    @property
    def val(self) -> np.ndarray:
        v = self._val.view()
        v.flags.writeable = False
        return v

    @property
    def col(self) -> np.ndarray:
        v = self._col.view()
        v.flags.writeable = False
        return v

    @property
    def padded_rows(self) -> int:
        """Row count padded to the warp-size multiple."""
        return self._val.shape[1]

    @property
    def width(self) -> int:
        """Stored width = global maximum row length ``Nmax_nzr``."""
        return self._val.shape[0]

    # ------------------------------------------------------------------
    def _row_major_entries(self):
        """The padded rectangle in row-major order.

        Returns ``(col_rm, val_rm)`` where ``col_rm`` is the flat
        column-index array with row ``r``'s slots at
        ``[r * width, (r + 1) * width)`` and ``val_rm`` the matching
        ``(padded_rows, width)`` value rectangle.  Padding slots hold
        value 0 / column 0.  The stored-CSR view
        (:func:`repro.ops.spmv_kernels.stored_csr_triplet`) is built
        from it once and cached there.
        """
        val_rm = np.ascontiguousarray(self._val.T)
        col_rm = np.ascontiguousarray(self._col.T).ravel()
        return col_rm, val_rm

    def to_coo(self) -> COOMatrix:
        rows_ = []
        cols_ = []
        vals_ = []
        for j in range(self.width):
            active = self._row_lengths > j
            active[self.nrows :] = False
            idx = np.nonzero(active)[0]
            rows_.append(idx)
            cols_.append(self._col[j, idx])
            vals_.append(self._val[j, idx])
        if rows_:
            rows = np.concatenate(rows_)
            cols = np.concatenate(cols_)
            vals = np.concatenate(vals_)
        else:  # pragma: no cover - zero-width matrix
            rows = np.empty(0, dtype=INDEX_DTYPE)
            cols = np.empty(0, dtype=INDEX_DTYPE)
            vals = np.empty(0, dtype=self._dtype)
        return COOMatrix(rows, cols, vals, self.shape, sum_duplicates=False)

    @classmethod
    def from_coo(cls, coo: COOMatrix, *, row_pad: int = 32, **kwargs) -> "ELLPACKMatrix":
        if kwargs:
            raise TypeError(f"unexpected kwargs for ELLPACK: {sorted(kwargs)}")
        row_pad = check_positive_int(row_pad, "row_pad")
        padded = -(-coo.nrows // row_pad) * row_pad
        lengths = np.bincount(coo.rows, minlength=coo.nrows)
        width = int(lengths.max()) if coo.nnz else 0
        val, col, row_lengths = build_ell_arrays(coo, padded, width)
        return cls(val, col, row_lengths, coo.shape)

    def memory_breakdown(self) -> Mapping[str, int]:
        slots = self.padded_rows * self.width
        return {
            "val": slots * self.value_itemsize,
            "col_idx": index_nbytes(slots),
        }

    def row_lengths(self) -> np.ndarray:
        return self._row_lengths[: self.nrows].copy()
