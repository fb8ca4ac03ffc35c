"""Sliced ELLPACK / SELL-C-sigma (Monakov et al.; the paper's outlook).

The paper's Sect. IV names "sliced ELLPACK" and "sliced ELLR-T" as the
closely related formats a follow-up comparison targets (pJDS itself is
the direct precursor of SELL-C-sigma).  We implement the general
SELL-C-sigma scheme:

* rows are sorted by descending length within windows of ``sigma`` rows
  (``sigma = 1``: no reordering; ``sigma >= N``: global sort = pJDS
  ordering);
* the (row-padded) matrix is cut into *chunks* of ``C`` consecutive
  rows; each chunk is padded to its own maximum length and stored
  column-major within the chunk.

Unlike pJDS, chunks are independent — no global prefix property is
needed, so any ``sigma`` works without padding inflation, at the price
of one extra indirection (``chunk_ptr``) in the kernel.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.sorting import Permutation, windowed_row_sort
from repro.formats.base import (
    INDEX_DTYPE,
    STORED_INDEX_DTYPE,
    SparseMatrixFormat,
    index_nbytes,
    stored_indices,
)
from repro.formats.coo import COOMatrix
from repro.utils.validation import check_positive_int

__all__ = ["SELLMatrix"]


class SELLMatrix(SparseMatrixFormat):
    """SELL-C-sigma sparse matrix."""

    name = "SELL-C-sigma"

    def __init__(
        self,
        val: np.ndarray,
        col_idx: np.ndarray,
        chunk_ptr: np.ndarray,
        chunk_width: np.ndarray,
        true_lengths: np.ndarray,
        permutation: Permutation,
        shape: tuple[int, int],
        *,
        chunk_rows: int,
        sigma: int,
    ):
        nnz = int(true_lengths.sum())
        super().__init__(shape, nnz=nnz, dtype=val.dtype)
        self._chunk_rows = check_positive_int(chunk_rows, "chunk_rows")
        self._sigma = check_positive_int(sigma, "sigma")
        nchunks = chunk_width.shape[0]
        if chunk_ptr.shape != (nchunks + 1,):
            raise ValueError("chunk_ptr must have length nchunks + 1")
        if permutation.size != shape[0]:
            raise ValueError("permutation size must equal nrows")
        if int(chunk_ptr[-1]) != val.shape[0]:
            raise ValueError("chunk_ptr[-1] must equal the flat array length")
        self._val = np.ascontiguousarray(val)
        self._col_idx = stored_indices(col_idx, shape[1], "col_idx")
        self._chunk_ptr = np.ascontiguousarray(chunk_ptr, dtype=INDEX_DTYPE)
        self._chunk_width = np.ascontiguousarray(chunk_width, dtype=INDEX_DTYPE)
        self._true_lengths = np.ascontiguousarray(true_lengths, dtype=INDEX_DTYPE)
        self._perm = permutation

    # ------------------------------------------------------------------
    @property
    def chunk_rows(self) -> int:
        """Chunk height ``C`` (warp size on the paper's hardware)."""
        return self._chunk_rows

    @property
    def sigma(self) -> int:
        """Sorting window."""
        return self._sigma

    @property
    def nchunks(self) -> int:
        return self._chunk_width.shape[0]

    @property
    def chunk_widths(self) -> np.ndarray:
        v = self._chunk_width.view()
        v.flags.writeable = False
        return v

    @property
    def permutation(self) -> Permutation:
        return self._perm

    @property
    def total_slots(self) -> int:
        return int(self._chunk_ptr[-1])

    @property
    def padded_rows(self) -> int:
        return self.nchunks * self._chunk_rows

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
    def chunk_ptr(self) -> np.ndarray:
        v = self._chunk_ptr.view()
        v.flags.writeable = False
        return v

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        coo: COOMatrix,
        *,
        chunk_rows: int = 32,
        sigma: int | None = None,
        **kwargs,
    ) -> "SELLMatrix":
        if kwargs:
            raise TypeError(f"unexpected kwargs for SELL: {sorted(kwargs)}")
        chunk_rows = check_positive_int(chunk_rows, "chunk_rows")
        n = coo.nrows
        if sigma is None:
            sigma = max(n, 1)
        sigma = check_positive_int(sigma, "sigma")
        lengths = np.bincount(coo.rows, minlength=n)
        perm = Permutation(windowed_row_sort(lengths, sigma))
        sorted_lengths = lengths[perm.perm].astype(INDEX_DTYPE)

        nchunks = -(-n // chunk_rows)
        padded_len = np.zeros(nchunks * chunk_rows, dtype=INDEX_DTYPE)
        padded_len[:n] = sorted_lengths
        chunk_width = padded_len.reshape(nchunks, chunk_rows).max(axis=1)
        chunk_ptr = np.zeros(nchunks + 1, dtype=INDEX_DTYPE)
        np.cumsum(chunk_width * chunk_rows, out=chunk_ptr[1:])

        total = int(chunk_ptr[-1])
        val = np.zeros(total, dtype=coo.dtype)
        col_idx = np.zeros(total, dtype=STORED_INDEX_DTYPE)
        if coo.nnz:
            row_start = np.zeros(n + 1, dtype=INDEX_DTYPE)
            np.cumsum(np.bincount(coo.rows, minlength=n), out=row_start[1:])
            j = np.arange(coo.nnz, dtype=INDEX_DTYPE) - row_start[coo.rows]
            k = perm.inverse[coo.rows]  # stored position
            c = k // chunk_rows
            r = k - c * chunk_rows
            pos = chunk_ptr[c] + j * chunk_rows + r
            val[pos] = coo.values
            col_idx[pos] = coo.cols
        return cls(
            val,
            col_idx,
            chunk_ptr,
            chunk_width,
            sorted_lengths,
            perm,
            coo.shape,
            chunk_rows=chunk_rows,
            sigma=sigma,
        )

    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        C = self._chunk_rows
        rows_, cols_, vals_ = [], [], []
        perm = self._perm.perm
        lane = np.arange(C, dtype=INDEX_DTYPE)
        for c in range(self.nchunks):
            width = int(self._chunk_width[c])
            if width == 0:
                continue
            k = c * C + lane
            k = k[k < self.nrows]
            tl = self._true_lengths[k]
            for j in range(width):
                sel = k[tl > j]
                if sel.size == 0:
                    continue
                pos = self._chunk_ptr[c] + j * C + (sel - c * C)
                rows_.append(perm[sel])
                cols_.append(self._col_idx[pos])
                vals_.append(self._val[pos])
        if rows_:
            rows = np.concatenate(rows_)
            cols = np.concatenate(cols_)
            vals = np.concatenate(vals_)
        else:
            rows = np.empty(0, dtype=INDEX_DTYPE)
            cols = np.empty(0, dtype=INDEX_DTYPE)
            vals = np.empty(0, dtype=self._dtype)
        return COOMatrix(rows, cols, vals, self.shape, sum_duplicates=False)

    def memory_breakdown(self) -> Mapping[str, int]:
        return {
            "val": self.total_slots * self.value_itemsize,
            "col_idx": index_nbytes(self.total_slots),
            "chunk_ptr": index_nbytes(self.nchunks + 1),
            "rowmax": index_nbytes(self.nrows),
            "perm": index_nbytes(self.nrows),
        }

    def row_lengths(self) -> np.ndarray:
        out = np.empty(self.nrows, dtype=INDEX_DTYPE)
        out[self._perm.perm] = self._true_lengths
        return out
