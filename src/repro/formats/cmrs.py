"""CMRS — compressed multi-row storage (Koza et al., arXiv:1203.2946).

CMRS generalises CRS by grouping every ``HS`` consecutive rows into a
*strip*.  The entry stream stays exactly the CRS/COO canonical order
(row-major, ascending column within a row, **zero padding**), but the
row pointer array is replaced by two cheaper structures:

* ``strip_ptr`` — one entry offset per strip (``nrows / HS`` entries
  instead of ``nrows``), and
* ``row_in_strip`` — a per-entry *row-within-strip* counter in
  ``[0, HS)``.  With ``HS <= 256`` it packs into one byte (the paper
  tucks it into spare bits of the column index), which is how the
  storage accounting below counts it.

On the GPU the point is coalescing: a warp sweeps a strip's entries in
flat order — fully coalesced loads of ``val``/``col_idx`` regardless of
how ragged the row lengths are — and each lane routes its partial
product to ``y[strip * HS + row_in_strip]``.  There is no padding at
all, so storage is ``nnz``-proportional like CRS, unlike the
ELLPACK/SELL/pJDS family.
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
from repro.utils.validation import (
    as_1d_array,
    check_positive_int,
    check_shape,
)

__all__ = ["CMRSMatrix", "DEFAULT_STRIP_HEIGHT"]

#: Default rows per strip.  Koza et al. tie HS to the warp width /
#: occupancy trade-off; 4 keeps the row counter in 2 bits and matches
#: their best configurations for the scalar-entry matrices we model.
DEFAULT_STRIP_HEIGHT = 4

#: ``row_in_strip`` is accounted at one byte per entry, so the strip
#: height must stay byte-representable.
MAX_STRIP_HEIGHT = 256


class CMRSMatrix(SparseMatrixFormat):
    """Strip-based compressed multi-row storage.

    Parameters
    ----------
    strip_ptr : array_like of int, shape (nstrips + 1,)
        Flat entry offset of each strip; ``strip_ptr[-1] == nnz``.
    row_in_strip : array_like of int, shape (nnz,)
        Row-within-strip counter of each entry, in ``[0, strip_height)``.
    col_idx : array_like of int, shape (nnz,)
        Column index of each entry.
    values : array_like of float, shape (nnz,)
        Entry values, row-major canonical order.
    shape : (int, int)
        Matrix dimensions.
    strip_height : int
        Rows per strip (``HS``), in ``[1, 256]``.
    """

    name = "CMRS"

    def __init__(
        self,
        strip_ptr,
        row_in_strip,
        col_idx,
        values,
        shape: tuple[int, int],
        strip_height: int = DEFAULT_STRIP_HEIGHT,
    ):
        shape = check_shape(shape, allow_empty=True)
        hs = check_positive_int(strip_height, "strip_height")
        if hs > MAX_STRIP_HEIGHT:
            raise ValueError(
                f"strip_height must be <= {MAX_STRIP_HEIGHT}, got {hs}"
            )
        nstrips = -(-shape[0] // hs)  # ceil(nrows / hs)

        strip_ptr = as_1d_array(
            strip_ptr, dtype=INDEX_DTYPE, name="strip_ptr"
        )
        if strip_ptr.shape != (nstrips + 1,):
            raise ValueError(
                f"strip_ptr must have shape ({nstrips + 1},) for "
                f"{shape[0]} rows at strip_height={hs}, got {strip_ptr.shape}"
            )
        if strip_ptr[0] != 0 or np.any(np.diff(strip_ptr) < 0):
            raise ValueError("strip_ptr must start at 0 and be non-decreasing")
        nnz = int(strip_ptr[-1])

        row_in_strip = stored_indices(
            row_in_strip, hs, "row_in_strip", validate=True
        )
        col_idx = stored_indices(col_idx, shape[1], "col_idx", validate=True)
        values = as_1d_array(values, name="values")
        if not (row_in_strip.size == col_idx.size == values.size == nnz):
            raise ValueError(
                "row_in_strip, col_idx, values must have strip_ptr[-1] "
                f"= {nnz} entries, got {row_in_strip.size}, "
                f"{col_idx.size}, {values.size}"
            )

        super().__init__(shape, nnz=nnz, dtype=values.dtype)
        self._strip_height = hs
        self._nstrips = nstrips
        self._strip_ptr = strip_ptr
        self._row_in_strip = row_in_strip
        self._col_idx = col_idx
        self._val = values

    # ------------------------------------------------------------------
    # raw data access (read-only views)
    # ------------------------------------------------------------------
    @property
    def strip_height(self) -> int:
        """Rows per strip (the paper's ``HS``)."""
        return self._strip_height

    @property
    def nstrips(self) -> int:
        return self._nstrips

    @property
    def strip_ptr(self) -> np.ndarray:
        v = self._strip_ptr.view()
        v.flags.writeable = False
        return v

    @property
    def row_in_strip(self) -> np.ndarray:
        v = self._row_in_strip.view()
        v.flags.writeable = False
        return v

    @property
    def col_idx(self) -> np.ndarray:
        v = self._col_idx.view()
        v.flags.writeable = False
        return v

    @property
    def val(self) -> np.ndarray:
        v = self._val.view()
        v.flags.writeable = False
        return v

    @property
    def total_slots(self) -> int:
        """Stored value slots; CMRS carries no padding, so ``== nnz``."""
        return self._nnz

    # ------------------------------------------------------------------
    # derived host-side caches (not part of the device footprint)
    # ------------------------------------------------------------------
    @property
    def entry_rows(self) -> np.ndarray:
        """Original row index of each stored entry (cached)."""
        cached = getattr(self, "_entry_rows_cache", None)
        if cached is None:
            strip_of = np.repeat(
                np.arange(self._nstrips, dtype=INDEX_DTYPE),
                np.diff(self._strip_ptr),
            )
            cached = strip_of * self._strip_height + self._row_in_strip
            cached.flags.writeable = False
            self._entry_rows_cache = cached
        return cached

    @property
    def row_ptr(self) -> np.ndarray:
        """CRS-style row pointer recovered from the strip structure."""
        cached = getattr(self, "_row_ptr_cache", None)
        if cached is None:
            counts = np.bincount(self.entry_rows, minlength=self.nrows)
            cached = np.zeros(self.nrows + 1, dtype=INDEX_DTYPE)
            np.cumsum(counts, out=cached[1:])
            cached.flags.writeable = False
            self._row_ptr_cache = cached
        return cached

    # ------------------------------------------------------------------
    # SparseMatrixFormat interface
    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        return COOMatrix(
            self.entry_rows,
            self._col_idx,
            self._val,
            self.shape,
            sum_duplicates=False,
        )

    @classmethod
    def from_coo(
        cls, coo: COOMatrix, strip_height: int = DEFAULT_STRIP_HEIGHT, **kwargs
    ) -> "CMRSMatrix":
        if kwargs:
            raise TypeError(f"unexpected kwargs for CMRS: {sorted(kwargs)}")
        hs = check_positive_int(strip_height, "strip_height")
        nrows = coo.nrows
        nstrips = -(-nrows // hs)
        counts = np.bincount(coo.rows, minlength=nrows)
        row_ptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=row_ptr[1:])
        strip_rows = np.minimum(
            np.arange(nstrips + 1, dtype=INDEX_DTYPE) * hs, nrows
        )
        strip_ptr = row_ptr[strip_rows]
        # canonical COO is already the CMRS entry order; only the row
        # index changes representation
        return cls(
            strip_ptr,
            coo.rows % hs,
            coo.cols,
            coo.values,
            coo.shape,
            strip_height=hs,
        )

    def memory_breakdown(self) -> Mapping[str, int]:
        # row_in_strip packs into one byte per entry for HS <= 256 (the
        # paper stores it in spare bits of the column index).
        return {
            "val": self._nnz * self.value_itemsize,
            "col_idx": index_nbytes(self._nnz),
            "strip_ptr": index_nbytes(self._nstrips + 1),
            "row_in_strip": self._nnz,
        }

    @property
    def spmv_aux_traffic_bytes(self) -> int:
        """Per-spmv metadata bytes beyond val/col_idx (Eq.-1 overhead).

        One strip-pointer stream plus the per-entry row counters — the
        CMRS analogue of CRS's row-pointer term.
        """
        return self._nnz + index_nbytes(self._nstrips + 1)

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.row_ptr).astype(INDEX_DTYPE)
