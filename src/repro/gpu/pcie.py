"""PCIe transfer model and host-inclusive spMVM timing (Eq. 2).

The paper's Sect. II-B extends the kernel model with the host<->device
transfers an isolated spMVM needs: upload the RHS vector, download the
LHS vector — ``TPCI = 16 N / BPCI`` at double precision.  The functions
here provide that model plus the combined "effective" performance used
to justify which matrices are worth GPU acceleration at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec, Precision
from repro.gpu.executor import KernelReport
from repro.perfmodel.pcie_model import copy_seconds

__all__ = ["transfer_seconds", "TransferReport", "spmv_with_transfers"]


def transfer_seconds(nbytes: int, device: DeviceSpec) -> float:
    """One host<->device copy of ``nbytes`` over PCIe."""
    return copy_seconds(nbytes, device.pcie_bytes_per_s, device.pcie_latency_s)


@dataclass(frozen=True)
class TransferReport:
    """Kernel + PCIe timing of one full spMVM round trip."""

    kernel: KernelReport
    upload_seconds: float
    download_seconds: float

    @property
    def pcie_seconds(self) -> float:
        return self.upload_seconds + self.download_seconds

    @property
    def total_seconds(self) -> float:
        return self.kernel.kernel_seconds + self.pcie_seconds

    @property
    def gflops(self) -> float:
        """Effective performance including the PCIe penalty."""
        return self.kernel.flops / self.total_seconds * 1e-9

    @property
    def pcie_penalty(self) -> float:
        """TPCI / TMVM — the ratio Eqs. (3)/(4) put bounds on."""
        return self.pcie_seconds / self.kernel.kernel_seconds


def spmv_with_transfers(
    kernel: KernelReport,
    device: DeviceSpec,
    *,
    precision: Precision | None = None,
) -> TransferReport:
    """Wrap a kernel report with RHS-upload and LHS-download times.

    Both vectors have the matrix dimension; at DP this reproduces the
    paper's ``TPCI = 16 N / BPCI``.
    """
    prec = precision or kernel.precision
    itemsize = 4 if prec == "SP" else 8
    vec_bytes = itemsize * kernel.nrows
    return TransferReport(
        kernel=kernel,
        upload_seconds=transfer_seconds(vec_bytes, device),
        download_seconds=transfer_seconds(vec_bytes, device),
    )
