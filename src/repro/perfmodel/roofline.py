"""Roofline helpers: where spMVM sits on the machine's ceiling diagram.

spMVM's arithmetic intensity is `1/B` flops per byte (inverse code
balance, Eq. 1) — far left of the ridge point on any modern machine.
These helpers compute attainable performance, ridge points and the
series needed to draw the classic log-log plot for the devices and
CPU node of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: the perfmodel does not load the GPU model
    from repro.gpu.device import DeviceSpec, Precision

__all__ = ["RooflinePoint", "attainable_gflops", "ridge_intensity", "roofline_series", "spmv_intensity"]


def attainable_gflops(
    intensity: float, peak_gflops: float, bandwidth_gbs: float
) -> float:
    """min(peak, intensity * bandwidth) — the roofline."""
    if intensity < 0:
        raise ValueError(f"intensity must be >= 0, got {intensity}")
    if peak_gflops <= 0 or bandwidth_gbs <= 0:
        raise ValueError("peak and bandwidth must be > 0")
    return min(peak_gflops, intensity * bandwidth_gbs)


def ridge_intensity(peak_gflops: float, bandwidth_gbs: float) -> float:
    """Intensity (flops/byte) where the machine turns compute-bound."""
    if peak_gflops <= 0 or bandwidth_gbs <= 0:
        raise ValueError("peak and bandwidth must be > 0")
    return peak_gflops / bandwidth_gbs


def spmv_intensity(code_balance_bytes_per_flop: float) -> float:
    """Arithmetic intensity of an spMVM with the given code balance."""
    if code_balance_bytes_per_flop <= 0:
        raise ValueError("code balance must be > 0")
    return 1.0 / code_balance_bytes_per_flop


@dataclass(frozen=True)
class RooflinePoint:
    """One workload on one machine's roofline."""

    label: str
    intensity: float
    attainable: float
    peak_gflops: float
    bandwidth_gbs: float

    @property
    def memory_bound(self) -> bool:
        return self.intensity < ridge_intensity(self.peak_gflops, self.bandwidth_gbs)

    @property
    def peak_fraction(self) -> float:
        return self.attainable / self.peak_gflops


def roofline_series(
    device: DeviceSpec,
    precision: Precision = "DP",
    *,
    intensities: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(intensity, attainable GF/s) samples for plotting one roofline."""
    peak = device.peak_gflops(precision)
    bw = device.bandwidth_gbs
    if intensities is None:
        ridge = ridge_intensity(peak, bw)
        intensities = np.logspace(
            np.log10(ridge / 256.0), np.log10(ridge * 16.0), 60
        )
    att = np.minimum(peak, intensities * bw)
    return intensities, att
