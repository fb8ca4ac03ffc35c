#!/usr/bin/env python
"""Extending the library: write your own storage format in ~60 lines.

Implements "DIA-lite" — a diagonal format storing each populated
off-diagonal as one dense stripe — against the `SparseMatrixFormat`
ABC, registers it with the conversion machinery and its spmv kernel
with the kernel registry, validates it with `verify_format`, and uses
it in the CG solver.  Everything downstream (`fmt.spmv`, `bind`,
solvers, MatrixMarket I/O, analysis) works immediately.

Run:  python examples/custom_format.py
"""

import numpy as np

from repro.formats import register_format, verify_format
from repro.formats.base import SparseMatrixFormat, index_nbytes
from repro.formats.coo import COOMatrix
from repro.matrices import off_diagonal_sparse
from repro.ops import register_kernel
from repro.solvers import conjugate_gradient


class DIALiteMatrix(SparseMatrixFormat):
    """Diagonal storage: one dense stripe per populated offset."""

    name = "DIA-lite"

    def __init__(self, offsets, stripes, shape, nnz):
        super().__init__(shape, nnz=nnz, dtype=stripes.dtype)
        self._offsets = offsets      # (ndiags,) sorted offsets
        self._stripes = stripes      # (ndiags, nrows): stripe[d][i] = A[i, i+off]

    @classmethod
    def from_coo(cls, coo: COOMatrix, **kwargs):
        if kwargs:
            raise TypeError(f"unexpected kwargs: {sorted(kwargs)}")
        offs = np.unique(coo.cols - coo.rows)
        stripes = np.zeros((offs.shape[0], coo.nrows), dtype=coo.dtype)
        slot = np.searchsorted(offs, coo.cols - coo.rows)
        stripes[slot, coo.rows] = coo.values
        return cls(offs, stripes, coo.shape, coo.nnz)

    def to_coo(self):
        rows_, cols_, vals_ = [], [], []
        for d, stripe in zip(self._offsets, self._stripes):
            i = np.nonzero(stripe)[0]
            i = i[(i + d >= 0) & (i + d < self.ncols)]
            rows_.append(i)
            cols_.append(i + d)
            vals_.append(stripe[i])
        rows = np.concatenate(rows_) if rows_ else np.empty(0, np.int64)
        cols = np.concatenate(cols_) if cols_ else np.empty(0, np.int64)
        vals = np.concatenate(vals_) if vals_ else np.empty(0, self.dtype)
        return COOMatrix(rows, cols, vals, self.shape, sum_duplicates=False)

    def memory_breakdown(self):
        return {
            "val": self._stripes.size * self.value_itemsize,
            "offsets": index_nbytes(self._offsets.size),
        }

    def row_lengths(self):
        return self.to_coo().row_lengths()


def dia_lite_spmv(m, ws, x, y, permuted=False):
    """The spmv kernel: ``y = A @ x`` on validated vectors, in place."""
    acc = np.zeros(m.nrows, dtype=np.float64)
    for d, stripe in zip(m._offsets, m._stripes):
        lo = max(0, -d)
        hi = min(m.nrows, m.ncols - d)
        if hi > lo:
            acc[lo:hi] += stripe[lo:hi].astype(np.float64) * x[lo + d : hi + d]
    y[:] = acc


def main() -> None:
    register_format(DIALiteMatrix)
    # the format's first kernel is what fmt.spmv, bind() and the
    # solvers run
    register_kernel(DIALiteMatrix, name="dia_lite")(dia_lite_spmv)

    # an SPD diagonal-structured matrix: 2I + symmetric off-diagonals
    n = 400
    base = off_diagonal_sparse(n, np.array([-7, -1, 1, 7]), seed=1)
    sym = COOMatrix(
        np.concatenate([base.rows, base.cols, np.arange(n)]),
        np.concatenate([base.cols, base.rows, np.arange(n)]),
        np.concatenate([0.1 * base.values, 0.1 * base.values, np.full(n, 2.0)]),
        (n, n),
    )

    dia = DIALiteMatrix.from_coo(sym)
    print(f"DIA-lite: {dia._offsets.size} stripes, "
          f"{dia.nbytes} bytes ({dia.nnz} non-zeros)")

    verify_format(dia)  # the ABC contract holds
    print("verify_format: all invariants pass")

    x = np.random.default_rng(0).normal(size=n)
    assert np.allclose(dia.spmv(x), sym.spmv(x))
    print("spMVM matches the COO oracle")

    b = np.ones(n)
    res = conjugate_gradient(dia, b, tol=1e-10)
    print(f"CG through the custom format: converged={res.converged} "
          f"in {res.iterations} iterations")
    assert res.converged
    print("OK")


if __name__ == "__main__":
    main()
