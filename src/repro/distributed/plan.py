"""Communication plan: who sends which x-elements to whom (Sect. III-A).

From a square CSR matrix and a :class:`RowPartition` we derive, per
rank,

* the split of its row block into a *local* part (columns it owns) and
  a *nonlocal* part (columns owned by other ranks) — the kernel split
  the overlap modes need;
* duplicate-free halo lists: the distinct global columns it must
  receive, grouped by owning rank, in a fixed order that defines the
  layout of its receive (halo) buffer;
* matching gather lists on the sender side (the "local gather" box of
  Fig. 4).

``build_plan`` can skip materialising the remapped sub-matrices when
only communication statistics are needed (the strong-scaling driver).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats.base import INDEX_DTYPE
from repro.formats.csr import CSRMatrix
from repro.distributed.partition import RowPartition

__all__ = ["RankPlan", "CommPlan", "build_plan"]


@dataclass
class RankPlan:
    """Everything one rank needs for its share of the spMVM."""

    rank: int
    row_range: tuple[int, int]
    #: non-zeros referencing owned / remote columns
    nnz_local: int
    nnz_nonlocal: int
    #: distinct remote columns to receive, per source rank (sorted)
    recv_cols: dict[int, np.ndarray]
    #: owned columns to send, per destination rank (sorted, *local*
    #: indices relative to this rank's row offset)
    send_cols: dict[int, np.ndarray] = field(default_factory=dict)
    #: local part: columns remapped to [0, local_rows) — only when the
    #: plan was built with ``with_matrices=True``
    local_matrix: CSRMatrix | None = None
    #: nonlocal part: columns remapped to halo-buffer positions
    nonlocal_matrix: CSRMatrix | None = None
    #: halo layout: global column of each halo-buffer slot
    halo_cols: np.ndarray | None = None

    @property
    def local_rows(self) -> int:
        return self.row_range[1] - self.row_range[0]

    @property
    def halo_size(self) -> int:
        return int(sum(len(c) for c in self.recv_cols.values()))

    @property
    def send_elements(self) -> int:
        return int(sum(len(c) for c in self.send_cols.values()))

    @property
    def neighbors(self) -> list[int]:
        return sorted(set(self.recv_cols) | set(self.send_cols))

    def recv_bytes(self, itemsize: int) -> dict[int, int]:
        return {src: len(c) * itemsize for src, c in self.recv_cols.items()}

    def send_bytes(self, itemsize: int) -> dict[int, int]:
        return {dst: len(c) * itemsize for dst, c in self.send_cols.items()}


@dataclass
class CommPlan:
    """Per-rank plans plus aggregate statistics."""

    partition: RowPartition
    ranks: list[RankPlan]
    ncols: int

    @property
    def nparts(self) -> int:
        return self.partition.nparts

    @property
    def total_nnz(self) -> int:
        return sum(r.nnz_local + r.nnz_nonlocal for r in self.ranks)

    @property
    def total_comm_elements(self) -> int:
        return sum(r.halo_size for r in self.ranks)


def build_plan(
    matrix: CSRMatrix,
    partition: RowPartition,
    *,
    with_matrices: bool = True,
) -> CommPlan:
    """Derive the communication plan of ``matrix`` under ``partition``."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("distributed spMVM requires a square matrix")
    if partition.nrows != matrix.nrows:
        raise ValueError(
            f"partition covers {partition.nrows} rows, matrix has {matrix.nrows}"
        )
    nparts = partition.nparts
    offsets = partition.offsets
    plans: list[RankPlan] = []

    for rank in range(nparts):
        lo, hi = partition.row_range(rank)
        block = matrix.row_block(lo, hi)
        owned = np.zeros(matrix.ncols, dtype=bool)
        owned[lo:hi] = True
        local_part, nonlocal_part = block.split_columns(owned)

        remote_cols = np.unique(nonlocal_part.indices) if nonlocal_part.nnz else (
            np.empty(0, dtype=INDEX_DTYPE)
        )
        src_of = partition.owner_of(remote_cols) if remote_cols.size else (
            np.empty(0, dtype=np.int64)
        )
        recv_cols: dict[int, np.ndarray] = {}
        for src in np.unique(src_of):
            recv_cols[int(src)] = remote_cols[src_of == src]

        plan = RankPlan(
            rank=rank,
            row_range=(lo, hi),
            nnz_local=local_part.nnz,
            nnz_nonlocal=nonlocal_part.nnz,
            recv_cols=recv_cols,
        )
        if with_matrices:
            # local part: shift columns into [0, local_rows)
            lp = CSRMatrix(
                local_part.indptr.copy(),
                local_part.indices - lo,
                local_part.data.copy(),
                (plan.local_rows, plan.local_rows),
            )
            # nonlocal part: remap columns to halo-buffer slots.  The
            # halo buffer concatenates the per-source sorted column
            # lists in ascending source order == ascending global
            # column order (sources own contiguous ranges), so the
            # remap is a single searchsorted over remote_cols.
            halo_pos = np.searchsorted(remote_cols, nonlocal_part.indices)
            np_ = CSRMatrix(
                nonlocal_part.indptr.copy(),
                halo_pos,
                nonlocal_part.data.copy(),
                (plan.local_rows, max(remote_cols.size, 1)),
            )
            plan.local_matrix = lp
            plan.nonlocal_matrix = np_
            plan.halo_cols = remote_cols
        plans.append(plan)

    # sender-side gather lists mirror the receive lists
    for plan in plans:
        for src, cols in plan.recv_cols.items():
            src_lo = int(offsets[src])
            plans[src].send_cols[plan.rank] = cols - src_lo
    return CommPlan(partition=partition, ranks=plans, ncols=matrix.ncols)
