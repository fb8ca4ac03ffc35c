"""ARG-CSR — adaptive row-grouped CSR (Heller & Oberhuber, arXiv:1203.5737).

Row-grouped CSR buckets the rows into *groups* of similar length and
stores each group as its own small dense rectangle, padded only to the
group's width instead of the global maximum.  The *adaptive* variant
chooses the group boundaries from the actual row-length distribution;
here each non-empty row joins the group of the next power-of-two
``>=`` its length, so padding within a group is bounded below 2x and
the number of groups is at most ``log2(Nmax) + 1``.

Layout (flat arrays, one rectangle per group):

* ``group_ptr[g]:group_ptr[g+1]`` — the group's value/column slots, a
  row-major ``(n_g, group_width[g])`` rectangle (padding ``val = 0``,
  ``col = 0``),
* ``group_rows_ptr[g]:group_rows_ptr[g+1]`` — the group's slice of
  ``row_ids`` (original row numbers, ascending) and ``true_lengths``.

Rows keep their original identity — ARG-CSR does **not** permute the
result vector, unlike the sort-based JDS/SELL family; the grouping is
an indirection, not a reordering.  On the GPU each group launches with
one thread per row reading its rectangle column-by-column; the device
rectangle is column-major so those reads coalesce (see
``repro.gpu.trace``).  The host arrays stay row-major, which is the
layout the vectorised and compiled row-sweep kernels want.
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
from repro.utils.validation import as_1d_array, check_shape

__all__ = ["ARGCSRMatrix"]


def _width_classes(lengths: np.ndarray) -> np.ndarray:
    """Next power of two >= each (positive) row length."""
    # exact for lengths up to 2**53: log2 of a power of two is integral
    return (
        2 ** np.ceil(np.log2(lengths.astype(np.float64))).astype(INDEX_DTYPE)
    ).astype(INDEX_DTYPE)


class ARGCSRMatrix(SparseMatrixFormat):
    """Adaptive row-grouped CSR with power-of-two length classes.

    Parameters
    ----------
    group_ptr : array_like of int, shape (ngroups + 1,)
        Flat slot offset of each group's rectangle.
    group_width : array_like of int, shape (ngroups,)
        Padded row width of each group, strictly increasing.
    group_rows_ptr : array_like of int, shape (ngroups + 1,)
        Offset of each group's slice of ``row_ids``.
    row_ids : array_like of int, shape (n_stored_rows,)
        Original row index of each stored (non-empty) row.
    true_lengths : array_like of int, shape (n_stored_rows,)
        Actual non-zero count of each stored row (padding excluded).
    col_idx, values : array_like, shape (group_ptr[-1],)
        Flat row-major rectangles; padding slots hold ``col 0``/``val 0``.
    shape : (int, int)
        Matrix dimensions.
    """

    name = "ARG-CSR"

    def __init__(
        self,
        group_ptr,
        group_width,
        group_rows_ptr,
        row_ids,
        true_lengths,
        col_idx,
        values,
        shape: tuple[int, int],
    ):
        shape = check_shape(shape, allow_empty=True)
        group_ptr = as_1d_array(group_ptr, dtype=INDEX_DTYPE, name="group_ptr")
        group_width = as_1d_array(
            group_width, dtype=INDEX_DTYPE, name="group_width"
        )
        group_rows_ptr = as_1d_array(
            group_rows_ptr, dtype=INDEX_DTYPE, name="group_rows_ptr"
        )
        row_ids = as_1d_array(row_ids, dtype=INDEX_DTYPE, name="row_ids")
        true_lengths = as_1d_array(
            true_lengths, dtype=INDEX_DTYPE, name="true_lengths"
        )
        col_idx = stored_indices(col_idx, shape[1], "col_idx", validate=True)
        values = as_1d_array(values, name="values")

        ngroups = group_width.size
        if group_ptr.shape != (ngroups + 1,) or group_rows_ptr.shape != (
            ngroups + 1,
        ):
            raise ValueError(
                "group_ptr and group_rows_ptr must have ngroups + 1 = "
                f"{ngroups + 1} entries, got {group_ptr.size}, "
                f"{group_rows_ptr.size}"
            )
        if ngroups and (
            group_ptr[0] != 0
            or group_rows_ptr[0] != 0
            or np.any(np.diff(group_ptr) < 0)
            or np.any(np.diff(group_rows_ptr) < 0)
        ):
            raise ValueError("group pointers must start at 0, non-decreasing")
        if np.any(group_width <= 0):
            raise ValueError("group_width entries must be positive")
        if ngroups and np.any(np.diff(group_width) <= 0):
            raise ValueError("group_width must be strictly increasing")
        n_groups_rows = np.diff(group_rows_ptr) if ngroups else group_width
        if ngroups and np.any(
            np.diff(group_ptr) != n_groups_rows * group_width
        ):
            raise ValueError(
                "each group's slot count must equal n_rows * group_width"
            )

        total_slots = int(group_ptr[-1]) if ngroups else 0
        n_stored = int(group_rows_ptr[-1]) if ngroups else 0
        if row_ids.size != n_stored or true_lengths.size != n_stored:
            raise ValueError(
                f"row_ids and true_lengths must have {n_stored} entries, "
                f"got {row_ids.size}, {true_lengths.size}"
            )
        if col_idx.size != total_slots or values.size != total_slots:
            raise ValueError(
                f"col_idx and values must have group_ptr[-1] = "
                f"{total_slots} slots, got {col_idx.size}, {values.size}"
            )
        if n_stored:
            if row_ids.min() < 0 or row_ids.max() >= shape[0]:
                raise ValueError("row_ids out of range")
            if np.unique(row_ids).size != n_stored:
                raise ValueError("row_ids must be unique")
            if np.any(true_lengths <= 0):
                raise ValueError("stored rows must have positive length")

        super().__init__(
            shape, nnz=int(true_lengths.sum()), dtype=values.dtype
        )
        self._group_ptr = group_ptr
        self._group_width = group_width
        self._group_rows_ptr = group_rows_ptr
        self._row_ids = row_ids
        self._true_lengths = true_lengths
        self._col_idx = col_idx
        self._val = values

    # ------------------------------------------------------------------
    # raw data access (read-only views)
    # ------------------------------------------------------------------
    @property
    def ngroups(self) -> int:
        return self._group_width.size

    @property
    def group_ptr(self) -> np.ndarray:
        v = self._group_ptr.view()
        v.flags.writeable = False
        return v

    @property
    def group_width(self) -> np.ndarray:
        v = self._group_width.view()
        v.flags.writeable = False
        return v

    @property
    def group_rows_ptr(self) -> np.ndarray:
        v = self._group_rows_ptr.view()
        v.flags.writeable = False
        return v

    @property
    def row_ids(self) -> np.ndarray:
        v = self._row_ids.view()
        v.flags.writeable = False
        return v

    @property
    def true_lengths(self) -> np.ndarray:
        v = self._true_lengths.view()
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
        """Stored value slots including the per-group padding."""
        return int(self._group_ptr[-1]) if self.ngroups else 0

    def group_rect(self, g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group ``g``'s ``(values, cols, row_ids)`` rectangle views.

        ``values``/``cols`` have shape ``(n_g, group_width[g])``.
        """
        lo, hi = int(self._group_ptr[g]), int(self._group_ptr[g + 1])
        w = int(self._group_width[g])
        r0, r1 = (
            int(self._group_rows_ptr[g]),
            int(self._group_rows_ptr[g + 1]),
        )
        return (
            self._val[lo:hi].reshape(r1 - r0, w),
            self._col_idx[lo:hi].reshape(r1 - r0, w),
            self._row_ids[r0:r1],
        )

    # ------------------------------------------------------------------
    # SparseMatrixFormat interface
    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        rows_parts, cols_parts, vals_parts = [], [], []
        for g in range(self.ngroups):
            vals, cols, rows = self.group_rect(g)
            r0, r1 = (
                int(self._group_rows_ptr[g]),
                int(self._group_rows_ptr[g + 1]),
            )
            lens = self._true_lengths[r0:r1]
            keep = (
                np.arange(int(self._group_width[g]), dtype=INDEX_DTYPE)[None, :]
                < lens[:, None]
            )
            rows_parts.append(np.repeat(rows, lens))
            cols_parts.append(cols[keep])
            vals_parts.append(vals[keep])
        if not rows_parts:
            empty = np.empty(0, dtype=INDEX_DTYPE)
            return COOMatrix(
                empty,
                empty,
                np.empty(0, dtype=self._dtype),
                self.shape,
                sum_duplicates=False,
            )
        return COOMatrix(
            np.concatenate(rows_parts),
            np.concatenate(cols_parts),
            np.concatenate(vals_parts),
            self.shape,
            sum_duplicates=False,
        )

    @classmethod
    def from_coo(cls, coo: COOMatrix, **kwargs) -> "ARGCSRMatrix":
        if kwargs:
            raise TypeError(f"unexpected kwargs for ARG-CSR: {sorted(kwargs)}")
        nrows = coo.nrows
        lengths = np.bincount(coo.rows, minlength=nrows).astype(INDEX_DTYPE)
        row_ptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(lengths, out=row_ptr[1:])

        rows_nz = np.flatnonzero(lengths).astype(INDEX_DTYPE)
        lengths_nz = lengths[rows_nz]
        if rows_nz.size == 0:
            empty = np.empty(0, dtype=INDEX_DTYPE)
            return cls(
                np.zeros(1, dtype=INDEX_DTYPE),
                empty,
                np.zeros(1, dtype=INDEX_DTYPE),
                empty,
                empty,
                empty,
                np.empty(0, dtype=coo.values.dtype),
                coo.shape,
            )

        widths = _width_classes(lengths_nz)
        # groups ascend by width; rows_nz is ascending, and the stable
        # sort keeps rows ascending within each group
        order = np.argsort(widths, kind="stable")
        row_ids = rows_nz[order]
        true_lengths = lengths_nz[order]
        group_width, counts = np.unique(widths, return_counts=True)
        ngroups = group_width.size
        group_rows_ptr = np.zeros(ngroups + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=group_rows_ptr[1:])
        group_ptr = np.zeros(ngroups + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts * group_width, out=group_ptr[1:])

        # flat destination of each stored row's first slot
        group_of = np.repeat(
            np.arange(ngroups, dtype=INDEX_DTYPE), counts
        )
        within = (
            np.arange(row_ids.size, dtype=INDEX_DTYPE)
            - group_rows_ptr[group_of]
        )
        row_base = np.zeros(nrows, dtype=INDEX_DTYPE)
        row_base[row_ids] = group_ptr[group_of] + within * group_width[group_of]

        total_slots = int(group_ptr[-1])
        val = np.zeros(total_slots, dtype=coo.values.dtype)
        col = np.zeros(total_slots, dtype=STORED_INDEX_DTYPE)
        # entry j-within-row follows canonical COO order (ascending col)
        j = np.arange(coo.nnz, dtype=INDEX_DTYPE) - row_ptr[coo.rows]
        pos = row_base[coo.rows] + j
        val[pos] = coo.values
        col[pos] = coo.cols

        return cls(
            group_ptr,
            group_width,
            group_rows_ptr,
            row_ids,
            true_lengths,
            col,
            val,
            coo.shape,
        )

    def memory_breakdown(self) -> Mapping[str, int]:
        n_stored = self._row_ids.size
        return {
            "val": self.total_slots * self.value_itemsize,
            "col_idx": index_nbytes(self.total_slots),
            "group_ptr": index_nbytes(self.ngroups + 1),
            "group_width": index_nbytes(self.ngroups),
            "group_rows_ptr": index_nbytes(self.ngroups + 1),
            "row_ids": index_nbytes(n_stored),
            "row_length": index_nbytes(n_stored),
        }

    @property
    def spmv_aux_traffic_bytes(self) -> int:
        """Per-spmv metadata bytes beyond val/col_idx (Eq.-1 overhead).

        The group descriptors plus the per-row id/length streams — what
        replaces CRS's row pointer in the code-balance term.
        """
        n_stored = self._row_ids.size
        return index_nbytes(3 * (self.ngroups + 1) + 2 * n_stored)

    def row_lengths(self) -> np.ndarray:
        out = np.zeros(self.nrows, dtype=INDEX_DTYPE)
        out[self._row_ids] = self._true_lengths
        return out
