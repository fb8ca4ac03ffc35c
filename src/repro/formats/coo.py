"""COO (coordinate) format — the package's interchange representation.

Every other format converts to and from COO.  On construction the
triplets are brought into *canonical* form: sorted row-major
(row, then column) with duplicate entries summed and explicit zeros
kept (a stored zero is a non-zero slot in every GPU format, so we do
not silently drop them unless asked).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.formats.base import (
    INDEX_DTYPE,
    SparseMatrixFormat,
    check_index_bound,
    index_nbytes,
    stored_indices,
)
from repro.utils.validation import (
    as_1d_array,
    check_dtype,
    check_index_array,
    check_shape,
)

__all__ = ["COOMatrix", "row_major_order"]


def row_major_order(rows, cols, ncols: int) -> np.ndarray:
    """``np.lexsort((cols, rows))``: the stable row-major order.

    One stable sort of the int64 key ``row * ncols + col`` gives the
    same permutation at a fraction of lexsort's time; the key stays
    below ``2**62`` while both dimensions are below ``2**31``.
    """
    key = np.asarray(rows).astype(INDEX_DTYPE)
    key *= ncols
    key += cols
    return np.argsort(key, kind="stable")


class COOMatrix(SparseMatrixFormat):
    """Canonical coordinate-format sparse matrix.

    Parameters
    ----------
    rows, cols : array_like of int
        Row/column index of each entry.
    values : array_like of float
        Entry values; dtype decides SP/DP.
    shape : (int, int)
        Matrix dimensions.
    sum_duplicates : bool
        When True (default) duplicate ``(row, col)`` entries are summed,
        which is the usual assembly semantic.
    drop_zeros : bool
        When True, entries that are exactly 0.0 after duplicate summing
        are removed.  Default False: explicit zeros stay stored.
    """

    name = "COO"

    def __init__(
        self,
        rows: Iterable[int],
        cols: Iterable[int],
        values: Iterable[float],
        shape: tuple[int, int],
        *,
        sum_duplicates: bool = True,
        drop_zeros: bool = False,
    ):
        shape = check_shape(shape, allow_empty=True)
        check_index_bound(shape[0], "rows")
        check_index_bound(shape[1], "cols")
        rows = check_index_array(rows, shape[0], "rows", dtype=None)
        cols = check_index_array(cols, shape[1], "cols", dtype=None)
        values = as_1d_array(values, name="values")
        if values.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            values = values.astype(np.float64)
        check_dtype(values.dtype, "values.dtype")
        if not (rows.size == cols.size == values.size):
            raise ValueError(
                "rows, cols, values must have equal length, got "
                f"{rows.size}, {cols.size}, {values.size}"
            )

        # canonical ordering: row-major, stable so duplicate order is
        # kept; the gathers narrow the indices
        order = row_major_order(rows, cols, shape[1])
        rows = stored_indices(rows, shape[0], "rows", order=order)
        cols = stored_indices(cols, shape[1], "cols", order=order)
        values = values[order]

        if sum_duplicates and rows.size:
            # collapse runs of identical (row, col) pairs
            new_run = np.empty(rows.size, dtype=bool)
            new_run[0] = True
            np.logical_or(
                rows[1:] != rows[:-1], cols[1:] != cols[:-1], out=new_run[1:]
            )
            group = np.cumsum(new_run) - 1
            summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
            np.add.at(summed, group, values.astype(np.float64))
            rows = rows[new_run]
            cols = cols[new_run]
            values = summed.astype(values.dtype)

        if drop_zeros and values.size:
            keep = values != 0.0
            rows, cols, values = rows[keep], cols[keep], values[keep]

        super().__init__(shape, nnz=values.size, dtype=values.dtype)
        self._rows = rows
        self._cols = cols
        self._values = values

    # ------------------------------------------------------------------
    # raw data access (read-only views)
    # ------------------------------------------------------------------
    @property
    def rows(self) -> np.ndarray:
        v = self._rows.view()
        v.flags.writeable = False
        return v

    @property
    def cols(self) -> np.ndarray:
        v = self._cols.view()
        v.flags.writeable = False
        return v

    @property
    def values(self) -> np.ndarray:
        v = self._values.view()
        v.flags.writeable = False
        return v

    # ------------------------------------------------------------------
    # SparseMatrixFormat interface
    # ------------------------------------------------------------------
    def to_coo(self) -> "COOMatrix":
        return self

    @classmethod
    def from_coo(cls, coo: "COOMatrix", **kwargs) -> "COOMatrix":
        if kwargs:
            raise TypeError(f"unexpected kwargs for COO: {sorted(kwargs)}")
        return coo

    def memory_breakdown(self) -> Mapping[str, int]:
        return {
            "val": self._nnz * self.value_itemsize,
            "row_idx": index_nbytes(self._nnz),
            "col_idx": index_nbytes(self._nnz),
        }

    def row_lengths(self) -> np.ndarray:
        return np.bincount(self._rows, minlength=self.nrows).astype(INDEX_DTYPE)

    # ------------------------------------------------------------------
    # constructors / converters
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, *, drop_zeros: bool = True) -> "COOMatrix":
        """Build from a dense 2-D array, keeping non-zero entries."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError(f"dense must be 2-D, got shape {dense.shape}")
        if drop_zeros:
            rows, cols = np.nonzero(dense)
        else:
            rows, cols = np.indices(dense.shape).reshape(2, -1)
        values = dense[rows, cols]
        return cls(rows, cols, values, dense.shape, sum_duplicates=False)

    @classmethod
    def from_scipy(cls, mat) -> "COOMatrix":
        """Build from any scipy.sparse matrix."""
        m = mat.tocoo()
        return cls(m.row, m.col, m.data, m.shape)

    def to_scipy(self):
        """Convert to ``scipy.sparse.coo_matrix``."""
        import scipy.sparse as sp

        return sp.coo_matrix(
            (self._values, (self._rows, self._cols)), shape=self.shape
        )

    def todense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self._dtype)
        # canonical form has no duplicates, plain fancy assignment suffices
        dense[self._rows, self._cols] = self._values
        return dense

    def astype(self, dtype) -> "COOMatrix":
        """Return a copy with values cast to ``dtype`` (SP<->DP switch)."""
        dt = check_dtype(dtype)
        if dt == self._dtype:
            return self
        return COOMatrix(
            self._rows,
            self._cols,
            self._values.astype(dt),
            self.shape,
            sum_duplicates=False,
        )

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (used by nonsymmetric solvers)."""
        return COOMatrix(
            self._cols,
            self._rows,
            self._values,
            (self.ncols, self.nrows),
            sum_duplicates=False,
        )
