"""BELLPACK (Choi, Singh, Vuduc): blocked ELLPACK.

The second "a priori structure" format the paper positions pJDS
against: the matrix is tiled into dense ``br x bc`` blocks; the
*blocks* are stored in ELLPACK fashion (each block-row padded to the
maximal block count).  For matrices that really consist of dense
sub-blocks (DLR2's 5x5, DLR1's 6x6) this amortises one column index
over ``br*bc`` values; for unstructured matrices the explicit zeros
inside partially-filled blocks blow the footprint up — exactly the
trade-off that motivates the structure-agnostic pJDS.
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

__all__ = ["BELLPACKMatrix"]


class BELLPACKMatrix(SparseMatrixFormat):
    """Blocked ELLPACK with dense ``br x bc`` tiles."""

    name = "BELLPACK"

    def __init__(
        self,
        block_val: np.ndarray,  # (width, nblockrows, br, bc)
        block_col: np.ndarray,  # (width, nblockrows) block-column ids
        blocks_per_row: np.ndarray,  # true block count per block-row
        shape: tuple[int, int],
        nnz: int,
        *,
        explicit_zeros: np.ndarray | None = None,
    ):
        if block_val.ndim != 4:
            raise ValueError("block_val must be 4-D (width, nbr, br, bc)")
        width, nbr, br, bc = block_val.shape
        if block_col.shape != (width, nbr):
            raise ValueError("block_col must be (width, nblockrows)")
        if blocks_per_row.shape != (nbr,):
            raise ValueError("blocks_per_row must have one entry per block-row")
        dtype = block_val.dtype
        super().__init__(shape, nnz=nnz, dtype=dtype)
        if nbr * br < shape[0]:
            raise ValueError("block grid does not cover the row space")
        self._val = np.ascontiguousarray(block_val)
        self._col = stored_indices(block_col, shape[1], "block_col")
        self._blocks = np.ascontiguousarray(blocks_per_row, dtype=INDEX_DTYPE)
        # flat positions in block_val of entries whose value is zero:
        # entries of the matrix, where other zeros in a block are fill
        self._zeros = np.asarray(
            () if explicit_zeros is None else explicit_zeros, dtype=INDEX_DTYPE
        )

    # ------------------------------------------------------------------
    @property
    def block_shape(self) -> tuple[int, int]:
        return (self._val.shape[2], self._val.shape[3])

    @property
    def width(self) -> int:
        """Stored blocks per block-row (the padded maximum)."""
        return self._val.shape[0]

    @property
    def nblockrows(self) -> int:
        return self._val.shape[1]

    @property
    def blocks_per_row(self) -> np.ndarray:
        v = self._blocks.view()
        v.flags.writeable = False
        return v

    @property
    def stored_blocks(self) -> int:
        return self.width * self.nblockrows

    @property
    def fill_ratio(self) -> float:
        """Stored values per actual non-zero (>= 1; 1 = perfect tiling)."""
        if self.nnz == 0:
            return 1.0
        return self.stored_elements / self.nnz

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls, coo: COOMatrix, *, block_rows: int = 5, block_cols: int | None = None, **kwargs
    ) -> "BELLPACKMatrix":
        if kwargs:
            raise TypeError(f"unexpected kwargs for BELLPACK: {sorted(kwargs)}")
        br = check_positive_int(block_rows, "block_rows")
        bc = check_positive_int(
            block_cols if block_cols is not None else block_rows, "block_cols"
        )
        nbr = -(-coo.nrows // br)
        nbc = -(-coo.ncols // bc)

        # block keys reach nbr * nbc, which can pass 2**31: widen first
        brow = coo.rows.astype(INDEX_DTYPE) // br
        bcol = coo.cols.astype(INDEX_DTYPE) // bc
        # enumerate distinct blocks per block-row, assign slot ids
        keys = brow * nbc + bcol
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        first = np.ones(sk.shape[0], dtype=bool)
        first[1:] = sk[1:] != sk[:-1]
        block_ids = np.cumsum(first) - 1  # dense id per distinct block
        nblocks = int(block_ids[-1]) + 1 if sk.size else 0

        uniq_keys = sk[first]
        uniq_brow = uniq_keys // nbc
        uniq_bcol = uniq_keys % nbc
        counts = np.bincount(uniq_brow, minlength=nbr)
        width = int(counts.max()) if nblocks else 0

        val = np.zeros((max(width, 1), nbr, br, bc), dtype=coo.dtype)
        col = np.zeros((max(width, 1), nbr), dtype=STORED_INDEX_DTYPE)
        if nblocks:
            # slot of each distinct block within its block-row
            starts = np.zeros(nbr + 1, dtype=np.int64)
            np.cumsum(counts, out=starts[1:])
            slot_of_block = np.arange(nblocks) - starts[uniq_brow]
            col[slot_of_block, uniq_brow] = uniq_bcol
            # scatter entries into their block interiors
            entry_block = np.empty(coo.nnz, dtype=np.int64)
            entry_block[order] = block_ids
            r_in = coo.rows - brow * br
            c_in = coo.cols - bcol * bc
            at = (slot_of_block[entry_block], brow, r_in, c_in)
            val[at] = coo.values
            zero = coo.values == 0
            zeros = np.ravel_multi_index(tuple(a[zero] for a in at), val.shape)
        else:
            zeros = None
        return cls(
            val,
            col,
            counts.astype(INDEX_DTYPE),
            coo.shape,
            coo.nnz,
            explicit_zeros=zeros,
        )

    # ------------------------------------------------------------------
    def _entries(self) -> np.ndarray:
        """Mask over the stored values that are entries of the matrix.

        An entry is a non-zero, or a zero the matrix was built with, in
        a live slot (``j < blocks_per_row[b]``) and inside the matrix:
        other zeros are fill, and edge blocks reach past nrows/ncols.
        Whole blocks and block rows are masked at once; a broadcast
        over the small block axes would cost more than the compare.
        """
        br, bc = self.block_shape
        mask = self._val != 0
        mask.flat[self._zeros] = True
        dead = (np.arange(self.width)[:, None] >= self._blocks).ravel()
        if dead.any():
            mask.reshape(dead.size, br * bc)[dead] = False
        b0, r0 = divmod(self.nrows, br)
        if b0 < self.nblockrows:
            mask[:, b0, r0:] = False
            mask[:, b0 + 1:] = False
        first_col = self._col.astype(INDEX_DTYPE) * bc
        j, b = np.nonzero(first_col + bc > self.ncols)
        if j.size:
            inside = np.arange(bc) < (self.ncols - first_col[j, b])[:, None]
            mask[j, b] &= inside[:, None, :]
        return mask

    def to_coo(self) -> COOMatrix:
        # every entry in slot, block-row, then row-major order inside
        # the block: flat positions in C order, split like np.nonzero
        br, bc = self.block_shape
        jb, rc = np.divmod(np.flatnonzero(self._entries()), br * bc)
        j, b = np.divmod(jb, self.nblockrows)
        r, c = np.divmod(rc, bc)
        rows = b * br + r
        cols = self._col[j, b].astype(INDEX_DTYPE) * bc + c
        vals = self._val[j, b, r, c]
        return COOMatrix(rows, cols, vals, self.shape, sum_duplicates=False)

    def memory_breakdown(self) -> Mapping[str, int]:
        br, bc = self.block_shape
        slots = self.stored_blocks * br * bc
        return {
            "val": slots * self.value_itemsize,
            "col_idx": index_nbytes(self.stored_blocks),
            "blocks_per_row": index_nbytes(self.nblockrows),
        }

    def row_lengths(self) -> np.ndarray:
        # what to_coo lists, counted per row without listing it: the
        # outermost (slot) axis first, into int32 since width bounds it
        per_slot = self._entries().view(np.uint8).sum(axis=0, dtype=np.int32)
        counts = per_slot.sum(axis=2, dtype=INDEX_DTYPE)
        return counts.reshape(-1)[: self.nrows]
