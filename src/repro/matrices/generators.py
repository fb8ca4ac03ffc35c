"""Synthetic sparse matrix generators.

The paper's corpus is proprietary (quantum-physics and CFD production
matrices), so the reproduction builds synthetic matrices whose
*published statistics* — dimension, average non-zeros per row
(``Nnzr``), row-length histogram (Fig. 3) and coarse structure — match.
This module provides the general building blocks; the per-matrix
recipes live in :mod:`repro.matrices.suite`.

All generators are deterministic given a seed and fully vectorised.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import INDEX_DTYPE
from repro.formats.coo import COOMatrix, row_major_order
from repro.utils.validation import check_positive_int

__all__ = [
    "sample_columns",
    "random_sparse",
    "banded_sparse",
    "off_diagonal_sparse",
    "block_sparse",
    "poisson2d",
    "from_networkx",
]

_MAX_RESAMPLE_ROUNDS = 200


def sample_columns(
    row_lengths: np.ndarray,
    ncols: int,
    rng: np.random.Generator,
    *,
    bandwidth: int | None = None,
    diagonal_rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample distinct column indices for each row.

    Parameters
    ----------
    row_lengths : ndarray of int
        Desired non-zero count per row.
    ncols : int
        Column-space size.
    rng : numpy Generator
        Randomness source.
    bandwidth : int, optional
        When given, columns are drawn from a band of this *total* width
        centred on the (scaled) diagonal — the locality knob the cache
        model responds to.  ``None`` draws uniformly from all columns.
    diagonal_rows : ndarray, optional
        Band centre per row; defaults to ``row * ncols / nrows``.

    Returns
    -------
    rows, cols : flat index arrays of ``sum(row_lengths)`` entries with
        no duplicate ``(row, col)`` pairs.
    """
    lengths = np.asarray(row_lengths, dtype=INDEX_DTYPE)
    if lengths.ndim != 1:
        raise ValueError("row_lengths must be 1-D")
    if np.any(lengths < 0):
        raise ValueError("row_lengths must be non-negative")
    nrows = lengths.shape[0]
    ncols = check_positive_int(ncols, "ncols")
    if bandwidth is not None:
        bandwidth = check_positive_int(bandwidth, "bandwidth")
        bandwidth = min(bandwidth, ncols)
        limit = bandwidth
    else:
        limit = ncols
    if np.any(lengths > limit):
        raise ValueError(
            "a row requests more distinct columns than the sampling "
            f"window provides ({int(lengths.max())} > {limit})"
        )

    rows = np.repeat(np.arange(nrows, dtype=INDEX_DTYPE), lengths)
    total = rows.shape[0]
    if total == 0:
        return rows, np.empty(0, dtype=INDEX_DTYPE)

    if bandwidth is not None:
        if diagonal_rows is None:
            centre = (rows * ncols) // max(nrows, 1)
        else:
            centre = np.asarray(diagonal_rows, dtype=INDEX_DTYPE)[rows]
        lo = np.clip(centre - bandwidth // 2, 0, max(ncols - bandwidth, 0))

        def draw(idx: np.ndarray) -> np.ndarray:
            return lo[idx] + rng.integers(0, bandwidth, size=idx.shape[0])

    else:

        def draw(idx: np.ndarray) -> np.ndarray:
            return rng.integers(0, ncols, size=idx.shape[0])

    everything = np.arange(total, dtype=INDEX_DTYPE)
    cols = draw(everything)

    # rows requesting most of their window would make rejection sampling
    # a coupon-collector problem: draw those exactly via a permutation
    dense = lengths > 0.5 * limit
    if dense.any():
        dense_rows = np.nonzero(dense)[0]
        row_start = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(lengths, out=row_start[1:])
        for i in dense_rows:
            k = int(lengths[i])
            if bandwidth is not None:
                base = int(lo[row_start[i]]) if k else 0
                choice = base + rng.permutation(bandwidth)[:k]
            else:
                choice = rng.permutation(ncols)[:k]
            cols[row_start[i] : row_start[i] + k] = choice

    # iteratively redraw colliding entries (dense rows are exact already
    # and collision-free, so the loop never touches them); collisions
    # shrink geometrically
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        order = row_major_order(rows, cols, ncols)
        rs = rows[order]
        cs = cols[order]
        dup = np.zeros(total, dtype=bool)
        dup[1:] = (rs[1:] == rs[:-1]) & (cs[1:] == cs[:-1])
        if not dup.any():
            break
        redo = order[dup]
        cols[redo] = draw(redo)
    else:  # pragma: no cover - pathological densities only
        raise RuntimeError("column sampling did not converge; density too high")
    return rows, cols.astype(INDEX_DTYPE)


def _values(rng: np.random.Generator, count: int, dtype) -> np.ndarray:
    """Nonzero standard-normal values (zero draws are nudged off zero)."""
    v = rng.standard_normal(count)
    v[v == 0.0] = 1.0
    return v.astype(dtype)


def random_sparse(
    nrows: int,
    ncols: int,
    row_lengths: np.ndarray,
    *,
    seed: int = 0,
    dtype=np.float64,
    bandwidth: int | None = None,
) -> COOMatrix:
    """Random matrix with exactly the given per-row non-zero counts."""
    nrows = check_positive_int(nrows, "nrows")
    lengths = np.asarray(row_lengths, dtype=INDEX_DTYPE)
    if lengths.shape != (nrows,):
        raise ValueError(f"row_lengths must have shape ({nrows},)")
    rng = np.random.default_rng(seed)
    rows, cols = sample_columns(lengths, ncols, rng, bandwidth=bandwidth)
    vals = _values(rng, rows.shape[0], dtype)
    return COOMatrix(rows, cols, vals, (nrows, ncols), sum_duplicates=False)


def banded_sparse(
    n: int, bandwidth: int, row_lengths: np.ndarray, *, seed: int = 0, dtype=np.float64
) -> COOMatrix:
    """Square matrix with entries confined to a diagonal band."""
    return random_sparse(
        n, n, row_lengths, seed=seed, dtype=dtype, bandwidth=bandwidth
    )


def off_diagonal_sparse(
    n: int,
    offsets: np.ndarray,
    *,
    extra_lengths: np.ndarray | None = None,
    extra_bandwidth: int | None = None,
    seed: int = 0,
    dtype=np.float64,
) -> COOMatrix:
    """Matrix of contiguous off-diagonals plus optional random fill.

    Models the HMEp structure ("contiguous off-diagonals of length
    15,000"): entry ``(i, i + d)`` exists for every offset ``d`` where
    it stays in range.  ``extra_lengths`` adds per-row random entries
    (within ``extra_bandwidth`` of the diagonal when given).
    """
    n = check_positive_int(n, "n")
    offsets = np.asarray(offsets, dtype=np.int64)
    rng = np.random.default_rng(seed)
    rows_parts = []
    cols_parts = []
    for d in offsets:
        if abs(int(d)) >= n:
            raise ValueError(f"offset {d} out of range for dimension {n}")
        i = np.arange(max(0, -d), min(n, n - d), dtype=INDEX_DTYPE)
        rows_parts.append(i)
        cols_parts.append(i + d)
    rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, dtype=INDEX_DTYPE)
    cols = np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=INDEX_DTYPE)
    if extra_lengths is not None:
        extra_lengths = np.asarray(extra_lengths, dtype=INDEX_DTYPE)
        r2, c2 = sample_columns(
            extra_lengths, n, rng, bandwidth=extra_bandwidth
        )
        rows = np.concatenate([rows, r2])
        cols = np.concatenate([cols, c2])
    vals = _values(rng, rows.shape[0], dtype)
    # duplicate (diagonal ∩ random) entries are summed — harmless here
    return COOMatrix(rows, cols, vals, (n, n), sum_duplicates=True)


def block_sparse(
    nblock_rows: int,
    nblock_cols: int,
    block_size: int,
    blocks_per_row: np.ndarray,
    *,
    seed: int = 0,
    dtype=np.float64,
    block_bandwidth: int | None = None,
) -> COOMatrix:
    """Matrix of dense ``block_size x block_size`` sub-blocks (DLR2 structure).

    ``blocks_per_row[b]`` dense blocks are placed in block-row ``b``;
    each expands to ``block_size`` fully-populated scalar rows.
    """
    block_size = check_positive_int(block_size, "block_size")
    blocks = np.asarray(blocks_per_row, dtype=INDEX_DTYPE)
    if blocks.shape != (nblock_rows,):
        raise ValueError(f"blocks_per_row must have shape ({nblock_rows},)")
    rng = np.random.default_rng(seed)
    brow, bcol = sample_columns(
        blocks, nblock_cols, rng, bandwidth=block_bandwidth
    )
    nnz_blocks = brow.shape[0]
    # expand every block into a dense block_size x block_size patch
    local = np.arange(block_size, dtype=INDEX_DTYPE)
    dr = np.repeat(local, block_size)  # row offset within block
    dc = np.tile(local, block_size)  # col offset within block
    rows = (brow[:, None] * block_size + dr).ravel()
    cols = (bcol[:, None] * block_size + dc).ravel()
    vals = _values(rng, nnz_blocks * block_size * block_size, dtype)
    shape = (nblock_rows * block_size, nblock_cols * block_size)
    return COOMatrix(rows, cols, vals, shape, sum_duplicates=False)


def poisson2d(nx: int, ny: int | None = None, *, dtype=np.float64) -> COOMatrix:
    """5-point finite-difference Laplacian on an ``nx x ny`` grid.

    The classic constant-row-length matrix: ELLPACK and pJDS store it
    with (almost) no overhead — a useful boundary case for tests.
    """
    nx = check_positive_int(nx, "nx")
    ny = check_positive_int(ny if ny is not None else nx, "ny")
    n = nx * ny
    idx = np.arange(n, dtype=INDEX_DTYPE)
    ix = idx % nx
    iy = idx // nx
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, 4.0)]
    for cond, off in (
        (ix > 0, -1),
        (ix < nx - 1, 1),
        (iy > 0, -nx),
        (iy < ny - 1, nx),
    ):
        sel = idx[cond]
        rows.append(sel)
        cols.append(sel + off)
        vals.append(np.full(sel.shape[0], -1.0))
    return COOMatrix(
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals).astype(dtype),
        (n, n),
        sum_duplicates=False,
    )


def from_networkx(graph, *, weight: str | None = None, dtype=np.float64) -> COOMatrix:
    """Adjacency matrix of a networkx graph (irregular-degree workloads)."""
    import networkx as nx

    nodes = list(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    rows, cols, vals = [], [], []
    for u, v, data in graph.edges(data=True):
        w = float(data.get(weight, 1.0)) if weight else 1.0
        rows.append(index[u])
        cols.append(index[v])
        vals.append(w)
        if not isinstance(graph, nx.DiGraph):
            rows.append(index[v])
            cols.append(index[u])
            vals.append(w)
    return COOMatrix(
        np.asarray(rows, dtype=INDEX_DTYPE) if rows else np.empty(0, INDEX_DTYPE),
        np.asarray(cols, dtype=INDEX_DTYPE) if cols else np.empty(0, INDEX_DTYPE),
        np.asarray(vals, dtype=dtype) if vals else np.empty(0, dtype),
        (max(n, 1), max(n, 1)),
        sum_duplicates=True,
    )
