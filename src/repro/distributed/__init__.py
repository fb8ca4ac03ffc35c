"""Multi-GPGPU distributed spMVM layer (Sect. III of the paper)."""

from repro.distributed.analysis import CommStats, analyse_plan
from repro.distributed.events import Interval, Timeline, render_timeline, to_chrome_trace
from repro.distributed.modes import (
    MODES,
    KernelCost,
    ModeResult,
    NodeStats,
    simulate_mode,
    stats_from_plan,
)
from repro.distributed.network import DIRAC_IB, NetworkModel
from repro.distributed.partition import RowPartition, partition_rows
from repro.distributed.plan import CommPlan, RankPlan, build_plan
from repro.distributed.runtime import (
    RUNTIME_MODES,
    DistributedTimeout,
    HaloExchangeTimeout,
    RankPool,
    distributed_spmv,
    rank_spmv,
)
from repro.distributed.scaling import (
    ScalingPoint,
    ScalingSeries,
    single_gpu_effective_gflops,
    strong_scaling,
    weak_scaling,
)

__all__ = [
    "CommStats",
    "analyse_plan",
    "Interval",
    "Timeline",
    "render_timeline",
    "to_chrome_trace",
    "MODES",
    "KernelCost",
    "ModeResult",
    "NodeStats",
    "simulate_mode",
    "stats_from_plan",
    "DIRAC_IB",
    "NetworkModel",
    "RowPartition",
    "partition_rows",
    "CommPlan",
    "RankPlan",
    "build_plan",
    "DistributedTimeout",
    "HaloExchangeTimeout",
    "RUNTIME_MODES",
    "RankPool",
    "distributed_spmv",
    "rank_spmv",
    "ScalingPoint",
    "ScalingSeries",
    "single_gpu_effective_gflops",
    "strong_scaling",
    "weak_scaling",
]
