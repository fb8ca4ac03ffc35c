"""Model-guided roster scoring: Eq.-1 code balance per kernel variant.

The paper's argument (Sect. II-B) is that spMVM performance is
*predictable*: the kernel is bandwidth-bound, so time is just bytes
moved over attainable bandwidth, and the byte count follows from the
format's storage layout (Eq. 1).  Schubert/Hager/Fehske
(arXiv:0910.4836) apply the same discipline to multicore hosts.  This
module scores each roster candidate analytically, so ``repro engine
tune --explain`` can print the model's prediction beside each measured
time.

Per-variant traffic model (double precision, per spmv call)::

    bytes = S * (v + i + alpha * v)      entry value + index + RHS gather
          + nrows * 2 * v                LHS read-modify-write (Eq. 1's
                                         16/Nnzr per flop, un-amortised)
          + aux                          format metadata streams

``aux`` is the format's declared per-spmv metadata traffic
(``spmv_aux_traffic_bytes`` attribute, 0 when absent): CMRS reads a
strip pointer plus a one-byte row counter per entry, ARG-CSR its group
descriptors and per-row id/length streams — the terms that feed the
``B = 6 + 4*alpha + 8/Nnzr`` code balance beyond value+index traffic.
The ``stored-csr`` delegates sweep a plain CSR view instead of the
native layout, so ``aux`` does not apply to them.

``S`` is the number of *stored slots the variant actually sweeps*
(:func:`_swept_slots`), ``v`` the value itemsize, ``i`` the
column-index itemsize (4: every format stores int32 columns) and
``alpha`` in ``[1/Nnzr, 1]`` the RHS reuse parameter of Eq. 1
(default: the cache-friendly ``1/Nnzr`` lower bound, appropriate for a
host whose LLC holds the RHS).  Every kernel is compiled and fused: it
touches each swept slot exactly once.

Predicted time divides bytes by *effective* bandwidth: the measured
host copy bandwidth (:func:`repro.obs.profile.measure_host_bandwidth`,
the same reference the attribution profiler uses) times a per-tier
efficiency factor that accounts for non-traffic overheads.  The
factors are calibration constants, not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.jds import JaggedDiagonalsBase
from repro.core.sell import SELLMatrix
from repro.formats.base import INDEX_STORAGE_BYTES
from repro.formats.bellpack import BELLPACKMatrix
from repro.formats.ellpack import ELLPACKMatrix
from repro.ops.registry import STORED_CSR_TAG

__all__ = [
    "VariantPrediction",
    "TIER_EFFICIENCY",
    "variant_tier",
    "predict_spmv",
    "explain_rows",
]

#: fraction of the reference copy bandwidth each tier typically
#: sustains on the spmv sweep (calibration constants; see module doc)
TIER_EFFICIENCY = {
    "cnative": 0.90,
    "scipy": 0.85,
}


def variant_tier(tags: tuple[str, ...]) -> str:
    """Map a kernel's registry tags onto a :data:`TIER_EFFICIENCY` key."""
    return "cnative" if "cnative" in tags else "scipy"


@dataclass(frozen=True)
class VariantPrediction:
    """Analytic score of one roster candidate on one matrix."""

    name: str
    tags: tuple[str, ...]
    tier: str
    #: stored slots the variant sweeps (padding included where swept)
    slots: int
    #: modelled main-memory traffic of one spmv call
    bytes_per_call: int
    #: Eq.-1-style code balance of the variant: bytes / (2 * nnz) flops
    balance: float
    #: modelled sustainable bandwidth (reference BW x tier efficiency)
    effective_gbs: float
    predicted_seconds: float

    @property
    def predicted_gflops(self) -> float:
        if self.predicted_seconds <= 0:
            return 0.0
        return self._flops / self.predicted_seconds / 1e9

    @property
    def _flops(self) -> float:
        # balance is bytes/flop by construction
        return self.bytes_per_call / self.balance if self.balance else 0.0


def _swept_slots(matrix, tags: tuple[str, ...]) -> int:
    """Stored slots one spmv sweep of this variant touches.

    A ``stored-csr`` delegate sweeps the format's CSR view: the padded
    stored rows of JDS, pJDS and SELL-C-sigma, the true entries of
    every other format.  ELLPACK's cnative kernel sweeps the rectangle's
    first ``nrows`` rows and BELLPACK's kernel the tiles of its live
    blocks; every other kernel sweeps the format's stored slots.
    """
    if STORED_CSR_TAG in tags:
        if isinstance(matrix, (JaggedDiagonalsBase, SELLMatrix)):
            return matrix.total_slots
        return matrix.nnz
    if isinstance(matrix, ELLPACKMatrix):
        return matrix.width * matrix.nrows
    if isinstance(matrix, BELLPACKMatrix):
        br, bc = matrix.block_shape
        return int(matrix.blocks_per_row.sum()) * br * bc
    return int(getattr(matrix, "total_slots", matrix.nnz))


def _reference_bandwidth() -> float:
    from repro.obs import profile as _profile

    return _profile.reference_bandwidth_gbs()


def predict_spmv(
    matrix,
    *,
    bandwidth_gbs: float | None = None,
    alpha: float | None = None,
) -> list[VariantPrediction]:
    """Score every spmv roster candidate; fastest-predicted first.

    ``bandwidth_gbs`` defaults to the measured host copy bandwidth
    (cached process-wide by :mod:`repro.obs.profile`); ``alpha``
    defaults to Eq. 1's ``1/Nnzr`` lower bound.
    """
    from repro.ops.registry import variants_for

    bw = bandwidth_gbs if bandwidth_gbs is not None else _reference_bandwidth()
    if bw <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bw}")
    nrows = max(matrix.nrows, 1)
    nnzr = max(matrix.nnz / nrows, 1e-9)
    if alpha is None:
        alpha = 1.0 / max(nnzr, 1.0)
    v = np.dtype(matrix.dtype).itemsize
    flops = 2.0 * max(matrix.nnz, 1)

    preds = []
    for spec in variants_for(matrix):
        tier = variant_tier(spec.tags)
        slots = max(_swept_slots(matrix, spec.tags), 1)
        # every kernel streams 4-byte column indices (INDEX_STORAGE_BYTES)
        base = slots * (v + INDEX_STORAGE_BYTES + alpha * v) + nrows * 2 * v
        # format metadata streams (strip counters, group descriptors);
        # the stored-csr delegates sweep a plain CSR view instead
        aux = (
            0
            if STORED_CSR_TAG in spec.tags
            else int(getattr(matrix, "spmv_aux_traffic_bytes", 0))
        )
        total = int(base + aux)
        eff = bw * TIER_EFFICIENCY[tier]
        secs = total / (eff * 1e9)
        preds.append(
            VariantPrediction(
                name=spec.name,
                tags=tuple(spec.tags),
                tier=tier,
                slots=slots,
                bytes_per_call=total,
                balance=total / flops,
                effective_gbs=eff,
                predicted_seconds=secs,
            )
        )
    preds.sort(key=lambda p: p.predicted_seconds)
    return preds


def explain_rows(
    preds: list[VariantPrediction],
    *,
    timings: dict[str, float] | None = None,
) -> list[dict]:
    """JSON/CLI-friendly rows merging predictions with measurements."""
    rows = []
    for p in preds:
        row = {
            "variant": p.name,
            "tier": p.tier,
            "slots": p.slots,
            "model_bytes": p.bytes_per_call,
            "balance_bytes_per_flop": round(p.balance, 3),
            "predicted_us": round(p.predicted_seconds * 1e6, 2),
            "predicted_gbs": round(p.effective_gbs, 2),
        }
        if timings is not None and p.name in timings:
            t = timings[p.name]
            row["measured_us"] = round(t * 1e6, 2)
            row["measured_gbs"] = (
                round(p.bytes_per_call / t / 1e9, 2) if t > 0 else None
            )
        rows.append(row)
    return rows
