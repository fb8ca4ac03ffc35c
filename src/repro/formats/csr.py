"""CRS / CSR (compressed row storage) — the paper's CPU baseline format.

The paper's Table I compares GPU formats against CRS on a dual-socket
Westmere node; CRS is also the natural format for assembling, slicing
and partitioning matrices, so the distributed layer works on CSR views.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.formats.base import (
    INDEX_DTYPE,
    SparseMatrixFormat,
    index_nbytes,
    stored_indices,
)
from repro.formats.coo import COOMatrix
from repro.utils.validation import as_1d_array, check_index_array, check_shape

__all__ = ["CSRMatrix"]


class CSRMatrix(SparseMatrixFormat):
    """Compressed row storage: ``indptr``, ``indices``, ``data``.

    Rows are stored contiguously; ``indptr`` has length ``nrows + 1``.
    Column indices within a row are kept sorted (canonical form).
    """

    name = "CRS"

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ):
        shape = check_shape(shape, allow_empty=True)
        indptr = as_1d_array(indptr, dtype=INDEX_DTYPE, name="indptr")
        if indptr.shape[0] != shape[0] + 1:
            raise ValueError(
                f"indptr must have length nrows+1={shape[0] + 1}, got {indptr.shape[0]}"
            )
        if indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        nnz = int(indptr[-1])
        indices = stored_indices(indices, shape[1], "indices", validate=True)
        data = as_1d_array(data, name="data")
        if indices.shape[0] != nnz or data.shape[0] != nnz:
            raise ValueError(
                f"indices/data must have length indptr[-1]={nnz}, got "
                f"{indices.shape[0]}/{data.shape[0]}"
            )
        super().__init__(shape, nnz=nnz, dtype=data.dtype)
        self._indptr = indptr
        self._indices = indices
        self._data = data

    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        v = self._indptr.view()
        v.flags.writeable = False
        return v

    @property
    def indices(self) -> np.ndarray:
        v = self._indices.view()
        v.flags.writeable = False
        return v

    @property
    def data(self) -> np.ndarray:
        v = self._data.view()
        v.flags.writeable = False
        return v

    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        rows = np.repeat(
            np.arange(self.nrows, dtype=INDEX_DTYPE), np.diff(self._indptr)
        )
        return COOMatrix(
            rows, self._indices, self._data, self.shape, sum_duplicates=False
        )

    @classmethod
    def from_coo(cls, coo: COOMatrix, **kwargs) -> "CSRMatrix":
        if kwargs:
            raise TypeError(f"unexpected kwargs for CRS: {sorted(kwargs)}")
        counts = np.bincount(coo.rows, minlength=coo.nrows)
        indptr = np.zeros(coo.nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        # COO canonical form is already row-major sorted
        return cls(indptr, coo.cols.copy(), coo.values.copy(), coo.shape)

    def memory_breakdown(self) -> Mapping[str, int]:
        return {
            "val": self._nnz * self.value_itemsize,
            "col_idx": index_nbytes(self._nnz),
            "row_ptr": index_nbytes(self.nrows + 1),
        }

    def row_lengths(self) -> np.ndarray:
        return np.diff(self._indptr)

    # ------------------------------------------------------------------
    # slicing used by the distributed partitioner
    # ------------------------------------------------------------------
    def row_block(self, start: int, stop: int) -> "CSRMatrix":
        """Extract rows ``[start, stop)`` as a new CSR matrix (same ncols)."""
        if not (0 <= start <= stop <= self.nrows):
            raise ValueError(
                f"row block [{start}, {stop}) out of range for {self.nrows} rows"
            )
        lo = int(self._indptr[start])
        hi = int(self._indptr[stop])
        indptr = self._indptr[start : stop + 1] - lo
        return CSRMatrix(
            indptr.copy(),
            self._indices[lo:hi].copy(),
            self._data[lo:hi].copy(),
            (stop - start, self.ncols),
        )

    def split_columns(self, mask: np.ndarray) -> tuple["CSRMatrix", "CSRMatrix"]:
        """Split into two CSR matrices by a boolean column mask.

        Entry ``(i, j)`` goes to the first result when ``mask[j]`` is True,
        else to the second.  Both results keep the full column space; the
        distributed layer uses this to separate the *local* and *nonlocal*
        parts of a process's row block (Sect. III-A of the paper).
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.ncols,):
            raise ValueError(
                f"mask must have shape ({self.ncols},), got {mask.shape}"
            )
        keep = mask[self._indices]
        row_of = np.repeat(
            np.arange(self.nrows, dtype=INDEX_DTYPE), np.diff(self._indptr)
        )

        def build(selector: np.ndarray) -> CSRMatrix:
            counts = np.bincount(row_of[selector], minlength=self.nrows)
            indptr = np.zeros(self.nrows + 1, dtype=INDEX_DTYPE)
            np.cumsum(counts, out=indptr[1:])
            return CSRMatrix(
                indptr, self._indices[selector], self._data[selector], self.shape
            )

        return build(keep), build(~keep)

    def column_set(self) -> np.ndarray:
        """Sorted unique column indices that hold at least one entry."""
        return np.unique(self._indices)

    def permute_rows(self, perm: np.ndarray) -> "CSRMatrix":
        """Return the matrix with row ``perm[k]`` moved to position ``k``."""
        perm = check_index_array(
            as_1d_array(perm, name="perm"), self.nrows, "perm"
        )
        if perm.shape[0] != self.nrows or np.unique(perm).size != self.nrows:
            raise ValueError("perm must be a permutation of all row indices")
        lengths = np.diff(self._indptr)[perm]
        indptr = np.zeros(self.nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(lengths, out=indptr[1:])
        # gather rows in permuted order; vectorised via repeat/arange math
        src_start = self._indptr[perm]
        offsets = np.arange(self._nnz, dtype=INDEX_DTYPE) - np.repeat(
            indptr[:-1], lengths
        )
        src = np.repeat(src_start, lengths) + offsets
        return CSRMatrix(indptr, self._indices[src], self._data[src], self.shape)
