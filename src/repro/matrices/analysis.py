"""Matrix structure analysis: the quantities Fig. 3 and Sect. II discuss.

Row-length histograms (bin size 1, relative share — exactly the axes
of Fig. 3), the relative-width statistic used to predict pJDS's data
reduction, and bandwidth/locality measures the cache model feeds on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import SparseMatrixFormat

__all__ = [
    "RowLengthHistogram",
    "row_length_histogram",
    "StructureStats",
    "structure_stats",
]


@dataclass(frozen=True)
class RowLengthHistogram:
    """Fig. 3 data: share of rows per row-length bin."""

    bin_edges: np.ndarray  # left edge of each bin
    counts: np.ndarray
    bin_size: int
    nrows: int

    @property
    def relative_share(self) -> np.ndarray:
        """Counts normalised by the row count (the Fig. 3 y-axis)."""
        return self.counts / max(self.nrows, 1)

    def share_at_least(self, length: int) -> float:
        """Fraction of rows with at least ``length`` non-zeros."""
        sel = self.bin_edges + self.bin_size > length
        # bins straddling `length` contribute fully; bin_size 1 is exact
        return float(self.counts[sel].sum() / max(self.nrows, 1))

    def as_rows(self) -> list[tuple[int, int, float]]:
        """(bin_start, count, relative_share) triples, non-empty bins only."""
        share = self.relative_share
        return [
            (int(e), int(c), float(s))
            for e, c, s in zip(self.bin_edges, self.counts, share)
            if c > 0
        ]


def row_length_histogram(
    matrix: SparseMatrixFormat | np.ndarray, bin_size: int = 1
) -> RowLengthHistogram:
    """Histogram of non-zeros per row ("bin size is 1 for all cases")."""
    if isinstance(matrix, SparseMatrixFormat):
        lengths = matrix.row_lengths()
        nrows = matrix.nrows
    else:
        lengths = np.asarray(matrix)
        nrows = lengths.shape[0]
    if bin_size < 1:
        raise ValueError(f"bin_size must be >= 1, got {bin_size}")
    if lengths.size == 0:
        return RowLengthHistogram(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), bin_size, 0
        )
    max_len = int(lengths.max())
    nbins = max_len // bin_size + 1
    binned = lengths // bin_size
    counts = np.bincount(binned, minlength=nbins)
    edges = np.arange(nbins, dtype=np.int64) * bin_size
    return RowLengthHistogram(edges, counts, bin_size, nrows)


@dataclass(frozen=True)
class StructureStats:
    """Summary statistics of a sparse matrix's structure."""

    nrows: int
    ncols: int
    nnz: int
    nnzr: float  # average non-zeros per row (the paper's Nnzr)
    min_row_length: int
    max_row_length: int  # the paper's Nmax_nzr
    relative_width: float  # max / max(min, 1) — the Fig. 3 discussion metric
    mean_abs_col_distance: float  # mean |col - row*ncols/nrows| (locality)
    density: float

    def as_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def structure_stats(matrix: SparseMatrixFormat) -> StructureStats:
    """Compute :class:`StructureStats` for any format (via COO)."""
    coo = matrix.to_coo()
    lengths = coo.row_lengths()
    nnz = coo.nnz
    min_len = int(lengths.min()) if lengths.size else 0
    max_len = int(lengths.max()) if lengths.size else 0
    if nnz:
        # rows are stored int32; rows * ncols passes 2**31 (sAMG@64)
        centre = (coo.rows.astype(np.int64) * coo.ncols) // max(coo.nrows, 1)
        mean_dist = float(np.abs(coo.cols - centre).mean())
    else:
        mean_dist = 0.0
    return StructureStats(
        nrows=coo.nrows,
        ncols=coo.ncols,
        nnz=nnz,
        nnzr=nnz / coo.nrows,
        min_row_length=min_len,
        max_row_length=max_len,
        relative_width=max_len / max(min_len, 1),
        mean_abs_col_distance=mean_dist,
        density=nnz / (coo.nrows * coo.ncols),
    )
