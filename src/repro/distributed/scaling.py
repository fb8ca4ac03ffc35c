"""Strong-scaling driver — regenerates the Fig. 5 series.

For each node count: partition the matrix by non-zeros, derive the
communication plan, extract per-rank workload statistics (re-inflated
to paper scale when the matrix was generated shrunk), and simulate one
bulk-synchronous iteration in each mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.modes import (
    MODES,
    KernelCost,
    ModeResult,
    simulate_mode,
    stats_from_plan,
)
from repro.distributed.network import DIRAC_IB, NetworkModel
from repro.distributed.partition import partition_rows
from repro.distributed.plan import build_plan
from repro.formats.base import SparseMatrixFormat
from repro.formats.csr import CSRMatrix
from repro.gpu.device import DeviceSpec
from repro.gpu.pcie import transfer_seconds

__all__ = ["ScalingPoint", "ScalingSeries", "strong_scaling", "weak_scaling", "single_gpu_effective_gflops"]


@dataclass(frozen=True)
class ScalingPoint:
    """One (node count, mode) measurement."""

    nodes: int
    mode: str
    gflops: float
    iteration_seconds: float

    def efficiency(self, baseline: "ScalingPoint") -> float:
        """Parallel efficiency vs. a baseline point (usually 1 node)."""
        ideal = baseline.gflops * self.nodes / baseline.nodes
        return self.gflops / ideal


@dataclass
class ScalingSeries:
    """Fig. 5-style result: GF/s per node count, one series per mode."""

    matrix_name: str
    points: list[ScalingPoint]

    def series(self, mode: str) -> list[ScalingPoint]:
        return sorted(
            (p for p in self.points if p.mode == mode), key=lambda p: p.nodes
        )

    def gflops_at(self, mode: str, nodes: int) -> float:
        for p in self.points:
            if p.mode == mode and p.nodes == nodes:
                return p.gflops
        raise KeyError(f"no point for mode={mode!r}, nodes={nodes}")

    def node_counts(self) -> list[int]:
        return sorted({p.nodes for p in self.points})

    def render(self, *, height: int = 14, width: int = 68) -> str:
        """ASCII rendering of the Fig. 5 panel (GF/s vs node count).

        One symbol per mode: ``v`` vector, ``n`` naive, ``t`` task;
        overlapping points show the later symbol.
        """
        modes = sorted({p.mode for p in self.points})
        symbols = {"vector": "v", "naive": "n", "task": "t"}
        nodes = self.node_counts()
        if not nodes:
            return "(empty series)"
        gmax = max(p.gflops for p in self.points)
        grid = [[" "] * width for _ in range(height)]
        xpos = {
            n: int(round(i * (width - 1) / max(len(nodes) - 1, 1)))
            for i, n in enumerate(nodes)
        }
        for mode in modes:
            sym = symbols.get(mode, mode[0])
            for p in self.series(mode):
                y = int(round((height - 1) * p.gflops / gmax))
                grid[height - 1 - y][xpos[p.nodes]] = sym
        lines = [f"{self.matrix_name}: GF/s vs nodes (max {gmax:.1f})"]
        lines += ["|" + "".join(row) for row in grid]
        axis = [" "] * width
        for n, x in xpos.items():
            label = str(n)
            for k, ch in enumerate(label):
                if x + k < width:
                    axis[x + k] = ch
        lines.append("+" + "-" * width)
        lines.append(" " + "".join(axis))
        lines.append("  legend: " + ", ".join(f"{symbols.get(m, m[0])}={m}" for m in modes))
        return "\n".join(lines)


def _sweep(
    matrix_for,
    node_counts: list[int],
    device: DeviceSpec,
    network: NetworkModel,
    cost: KernelCost | None,
    modes: tuple[str, ...],
    workload_scale: int,
    matrix_name: str,
) -> ScalingSeries:
    """Per node count: partition by nnz → plan → stats → every mode.

    ``matrix_for(nodes)`` gives the matrix simulated at that count.
    """
    cost = cost or KernelCost()
    points: list[ScalingPoint] = []
    for nodes in node_counts:
        matrix = matrix_for(nodes)
        csr = matrix if isinstance(matrix, CSRMatrix) else CSRMatrix.from_coo(
            matrix.to_coo()
        )
        part = partition_rows(csr.nrows, nodes, row_weights=csr.row_lengths())
        plan = build_plan(csr, part, with_matrices=False)
        stats = stats_from_plan(
            plan, itemsize=cost.itemsize, workload_scale=workload_scale
        )
        for mode in modes:
            result: ModeResult = simulate_mode(mode, stats, device, network, cost)
            points.append(
                ScalingPoint(
                    nodes=nodes,
                    mode=mode,
                    gflops=result.gflops,
                    iteration_seconds=result.iteration_seconds,
                )
            )
    return ScalingSeries(matrix_name=matrix_name, points=points)


def strong_scaling(
    matrix: SparseMatrixFormat,
    node_counts: list[int],
    *,
    device: DeviceSpec,
    network: NetworkModel = DIRAC_IB,
    cost: KernelCost | None = None,
    modes: tuple[str, ...] = MODES,
    workload_scale: int = 1,
    matrix_name: str = "matrix",
) -> ScalingSeries:
    """Run the strong-scaling sweep of Fig. 5.

    ``workload_scale`` re-inflates a shrunk suite matrix (see
    ``NodeStats.from_plan``); node counts are paper node counts.
    """
    csr = matrix if isinstance(matrix, CSRMatrix) else CSRMatrix.from_coo(
        matrix.to_coo()
    )
    return _sweep(
        lambda nodes: csr, node_counts, device, network, cost, modes,
        workload_scale, matrix_name,
    )


def weak_scaling(
    matrix_factory,
    node_counts: list[int],
    *,
    device: DeviceSpec,
    network: NetworkModel = DIRAC_IB,
    cost: KernelCost | None = None,
    modes: tuple[str, ...] = MODES,
    workload_scale: int = 1,
    matrix_name: str = "matrix",
) -> ScalingSeries:
    """Weak-scaling sweep: per-node problem size held constant.

    The paper's outlook lists "more extensive scaling studies" as
    future work; weak scaling is the natural complement to Fig. 5.
    ``matrix_factory(nodes)`` must return a matrix that grows
    proportionally with the node count (e.g. the suite generators with
    ``scale`` divided accordingly).
    """
    return _sweep(
        matrix_factory, node_counts, device, network, cost, modes,
        workload_scale, matrix_name,
    )


def single_gpu_effective_gflops(
    nnz: int,
    nrows: int,
    device: DeviceSpec,
    cost: KernelCost | None = None,
) -> float:
    """Single-GPU performance including the PCIe vector transfers.

    The dashed horizontal reference lines of Fig. 5 (10.9 GF/s for
    DLR1, 44.6 GF/s for UHBR): one kernel plus the RHS upload and LHS
    download of Eq. (2).
    """
    cost = cost or KernelCost()
    t_kernel = cost.kernel_seconds(nnz, nrows, device)
    t_pci = 2.0 * transfer_seconds(nrows * cost.itemsize, device)
    return 2.0 * nnz / (t_kernel + t_pci) * 1e-9
