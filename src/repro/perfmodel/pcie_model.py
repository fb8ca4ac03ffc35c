"""PCIe-inclusive performance model — Eqs. (2), (3), (4) of the paper.

Wall-clock split of one double-precision spMVM with host transfers:

    T_MVM = (8 N / B_GPU) * (Nnzr * (alpha + 3/2) + 2)        (Eq. 2)
    T_PCI = 16 N / B_PCI

``T_PCI`` is two copies of ``8 N`` bytes, each taking
``latency + nbytes / B_PCI`` (:func:`copy_seconds`); the paper's form is
its zero-latency case, and the simulated device's
:func:`repro.gpu.pcie.transfer_seconds` is the same formula with the
device's latency, so a fitted (latency, bandwidth) pair lands in one
place.

and the derived admissibility bounds on the average row length:

* more than 50 % PCIe penalty (T_MVM <= T_PCI) when

      Nnzr <= 2 * (B_GPU/B_PCI - 1) / (alpha + 3/2)           (Eq. 3)

* less than 10 % PCIe penalty (T_MVM >= 10 T_PCI) when

      Nnzr >= (20 * B_GPU/B_PCI - 2) / (alpha + 3/2)          (Eq. 4)

These are the equations that rule out HMEp (Nnzr ~ 15) and sAMG
(Nnzr ~ 7) for GPU acceleration and admit the DLR/UHBR matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "t_mvm",
    "t_pci",
    "copy_seconds",
    "nnzr_upper_bound_50pct",
    "nnzr_lower_bound_10pct",
    "PCIeAnalysis",
    "analyse",
]


def _check(n: int, bw_gpu: float, bw_pci: float) -> None:
    if n <= 0:
        raise ValueError(f"N must be > 0, got {n}")
    if bw_gpu <= 0 or bw_pci <= 0:
        raise ValueError("bandwidths must be > 0")


def t_mvm(n: int, nnzr: float, alpha: float, bw_gpu_bytes: float) -> float:
    """Eq. (2), first part: pure kernel wall-clock (double precision)."""
    _check(n, bw_gpu_bytes, 1.0)
    if nnzr <= 0:
        raise ValueError(f"Nnzr must be > 0, got {nnzr}")
    return 8.0 * n / bw_gpu_bytes * (nnzr * (alpha + 1.5) + 2.0)


def copy_seconds(nbytes: int, bw_bytes: float, latency_s: float = 0.0) -> float:
    """One host<->device copy: ``latency + nbytes / B`` (0 for no bytes)."""
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if nbytes == 0:
        return 0.0
    return latency_s + nbytes / bw_bytes


def t_pci(n: int, bw_pci_bytes: float) -> float:
    """Eq. (2), second part: RHS upload + LHS download (DP)."""
    _check(n, 1.0, bw_pci_bytes)
    return 2.0 * copy_seconds(8 * n, bw_pci_bytes)


def nnzr_upper_bound_50pct(bw_ratio: float, alpha: float) -> float:
    """Eq. (3): below this Nnzr the PCIe penalty exceeds 50 %."""
    if bw_ratio <= 0:
        raise ValueError(f"bandwidth ratio must be > 0, got {bw_ratio}")
    return 2.0 * (bw_ratio - 1.0) / (alpha + 1.5)


def nnzr_lower_bound_10pct(bw_ratio: float, alpha: float) -> float:
    """Eq. (4): above this Nnzr the PCIe penalty stays below 10 %."""
    if bw_ratio <= 0:
        raise ValueError(f"bandwidth ratio must be > 0, got {bw_ratio}")
    return (20.0 * bw_ratio - 2.0) / (alpha + 1.5)


@dataclass(frozen=True)
class PCIeAnalysis:
    """Model evaluation for one matrix on one device configuration."""

    n: int
    nnzr: float
    alpha: float
    bw_gpu_gbs: float
    bw_pci_gbs: float
    t_mvm_s: float
    t_pci_s: float
    nnzr_bound_50pct: float
    nnzr_bound_10pct: float

    @property
    def bw_ratio(self) -> float:
        return self.bw_gpu_gbs / self.bw_pci_gbs

    @property
    def pcie_penalty(self) -> float:
        """T_PCI / T_MVM."""
        return self.t_pci_s / self.t_mvm_s

    @property
    def kernel_gflops(self) -> float:
        return 2.0 * self.n * self.nnzr / self.t_mvm_s * 1e-9

    @property
    def effective_gflops(self) -> float:
        """Including PCIe transfers (the 3.7 / 2.3 / 10.9 GF/s numbers)."""
        return 2.0 * self.n * self.nnzr / (self.t_mvm_s + self.t_pci_s) * 1e-9

    @property
    def gpu_worthwhile(self) -> bool:
        """Above the 50 %-penalty threshold of Eq. (3)."""
        return self.nnzr > self.nnzr_bound_50pct


def analyse(
    n: int,
    nnzr: float,
    alpha: float,
    *,
    bw_gpu_gbs: float = 91.0,
    bw_pci_gbs: float = 6.0,
) -> PCIeAnalysis:
    """Evaluate Eqs. (2)-(4) for one matrix/device combination."""
    ratio = bw_gpu_gbs / bw_pci_gbs
    return PCIeAnalysis(
        n=n,
        nnzr=nnzr,
        alpha=alpha,
        bw_gpu_gbs=bw_gpu_gbs,
        bw_pci_gbs=bw_pci_gbs,
        t_mvm_s=t_mvm(n, nnzr, alpha, bw_gpu_gbs * 1e9),
        t_pci_s=t_pci(n, bw_pci_gbs * 1e9),
        nnzr_bound_50pct=nnzr_upper_bound_50pct(ratio, alpha),
        nnzr_bound_10pct=nnzr_lower_bound_10pct(ratio, alpha),
    )
