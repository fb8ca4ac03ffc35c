"""The format shootout: one measured row per (matrix, format).

Table I and Sect. II-A of the paper rank storage formats by code
balance (Eq. 1) and by measured GF/s.  :func:`shootout` is the one
place that ranking is computed; ``repro shootout``, both shootout
benches and the CI gates read its rows.  For every suite matrix and
every registered format each row carries:

* **native** — the fastest roster variant that streams the format's
  own arrays (``*_cc`` when the compiled tier is built; COO's
  ``coo_scipy`` and BELLPACK's ``bell_scipy`` always), and the
  ``stored-csr`` delegate only where the format has no other kernel
  (``native_tier`` names the tier that ran): median and IQR over
  ``reps`` laps, and useful GF/s at ``2 * nnz`` flops (padding earns
  nothing);
* **baselines** — ``row_order``, the format's ``stored-csr`` delegate
  (CSR in this format's row order), and the matrix's ``csr_scipy``
  time (taken from its CRS row, so ``None`` when CRS is not in
  ``formats``);
* **device model** — GF/s, storage MiB and effective alpha from
  :func:`repro.gpu.simulate_spmv` on the scaled C2070 (DP, ECC on);
  ``None`` where the device has no kernel for the format (COO);
* **Eq. 1** — :func:`~repro.perfmodel.predict.predict_spmv`'s time for
  the native variant and its relative error;
* **roofline** — the Eq.-1 minimum bytes at ``nnz`` (alpha = 1/Nnzr)
  over the native time, as a fraction of the read bandwidth measured
  at the cell's working set through the kernel tier's own thread pool
  (:func:`repro.solvers.vector.dot`).  A kernel cannot beat a plain
  stream over the same bytes, so ``roofline_efficiency`` above
  ``1 + IQR/median`` is a measurement bug.

Every format is built with its ``from_coo`` defaults except SELL-C-σ,
whose sorting window follows the paper's outlook (``sigma=256``).
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.balance import code_balance_dp
from repro.ops.registry import STORED_CSR_TAG
from repro.perfmodel.predict import predict_spmv
from repro.utils.timing import Stopwatch, gflops

__all__ = ["FORMAT_KWARGS", "shootout", "table"]

#: the one construction override of the grid (all other formats use
#: their ``from_coo`` defaults)
FORMAT_KWARGS = {"SELL-C-sigma": {"sigma": 256}}


def _time_cell(matrix, spec, x: np.ndarray, reps: int) -> Stopwatch:
    """Time ``reps`` spmv laps of one roster variant after one warm-up.

    The warm-up call also builds the variant's workspace buffers, so
    one-time set-up stays out of every lap.
    """
    from repro.engine import Workspace

    ws = Workspace()
    xd = np.ascontiguousarray(x, dtype=matrix.dtype)
    y = np.zeros(matrix.nrows, dtype=matrix.dtype)
    return Stopwatch.measure(lambda: spec.run(matrix, ws, xd, y), reps)


def _read_ceiling_gbs(nbytes: int, reps: int) -> float:
    """Best read bandwidth of a dot product streaming ``nbytes``."""
    from repro.solvers import vector

    a = np.ones(max(nbytes // 16, 1))
    b = np.ones_like(a)
    # with the tier off, BLAS: the NumPy fallback keeps the compiled
    # reductions' summation order, not a stream's speed
    dot = vector.dot if vector._LIB is not None else np.dot
    sw = Stopwatch.measure(lambda: dot(a, b), reps)
    return (a.nbytes + b.nbytes) / sw.best / 1e9


def _row(key, fmt, coo, x, dev, scale, reps) -> dict:
    from repro.formats import convert
    from repro.gpu import simulate_spmv
    from repro.ops import variants_for

    m = convert(coo, fmt, **FORMAT_KWARGS.get(fmt, {}))
    timed = {s.name: (s, _time_cell(m, s, x, reps)) for s in variants_for(m)}
    row_order = next(
        (n for n, (s, _) in timed.items() if STORED_CSR_TAG in s.tags), None
    )
    own = [n for n in timed if n != row_order] or [row_order]
    native = min(own, key=lambda n: timed[n][1].median)
    sw = timed[native][1]
    t = sw.median
    row_sw = timed[row_order][1] if row_order else None
    try:
        rep = simulate_spmv(m, dev, "DP")
    except TypeError:  # no device kernel for this format
        rep = None

    ws_bytes = m.nbytes + x.nbytes + m.nrows * x.itemsize
    ceiling = _read_ceiling_gbs(ws_bytes, reps)
    pred = next(
        p for p in predict_spmv(m, bandwidth_gbs=ceiling) if p.name == native
    )
    nnzr = max(m.nnz / max(m.nrows, 1), 1e-9)
    min_bytes = 2 * m.nnz * code_balance_dp(1.0 / max(nnzr, 1.0), nnzr)
    return {
        "matrix": key,
        "format": fmt,
        "scale": scale,
        "nnz": m.nnz,
        "nrows": m.nrows,
        "stored_over_nnz": m.stored_elements / max(m.nnz, 1),
        "native": native,
        "native_tier": pred.tier,
        "native_s": t,
        "native_iqr_s": sw.iqr,
        "useful_gflops": gflops(m.nnz, t),
        "row_order": row_order,
        "row_order_s": row_sw.median if row_sw else None,
        "csr_scipy_s": None,
        "device_gflops": rep.gflops if rep is not None else None,
        "device_mib": m.nbytes / 2**20 if rep is not None else None,
        "device_alpha": rep.effective_alpha if rep is not None else None,
        "device_fabric_bound": rep.fabric_bound if rep is not None else None,
        "eq1_s": pred.predicted_seconds,
        "eq1_error": pred.predicted_seconds / t - 1.0,
        "working_set_bytes": ws_bytes,
        "ceiling_gbs": ceiling,
        "roofline_efficiency": min_bytes / t / 1e9 / ceiling,
    }


def shootout(
    keys, scale: int, reps: int, formats=None, *, seed: int = 0
) -> list[dict]:
    """One row per (suite matrix in ``keys``, registered format).

    ``formats`` defaults to the live :func:`available_formats` roster,
    so a newly registered format lands in every consumer unedited.
    Rows are JSON-ready dicts in ``keys`` x ``formats`` order (times
    in seconds); see the module docstring for the columns.
    """
    from repro.formats import available_formats
    from repro.gpu import C2070
    from repro.matrices import generate

    fmts = tuple(formats) if formats is not None else tuple(available_formats())
    dev = C2070(ecc=True).scaled(scale)
    rows = []
    for key in keys:
        coo = generate(key, scale=scale, seed=seed)
        x = np.random.default_rng(0).standard_normal(coo.ncols)
        cells = [_row(key, fmt, coo, x, dev, scale, reps) for fmt in fmts]
        ref = next((c["row_order_s"] for c in cells if c["format"] == "CRS"), None)
        for c in cells:
            c["csr_scipy_s"] = ref
        rows.extend(cells)
    return rows


def table(rows) -> list[str]:
    """Fixed-width text lines of shootout rows (times in us, ``-`` for None)."""

    def col(v, spec, scale=1.0):
        if v is None:
            return "-".rjust(len(format(0.0, spec)))
        return format(v * scale, spec)

    lines = [
        f"{'matrix':6s} {'format':13s} {'native':13s} {'us':>9s} {'iqr%':>5s} "
        f"{'GF/s':>6s} {'row-order':>9s} {'csr_scipy':>9s} | {'dev GF/s':>8s} "
        f"{'MiB':>7s} {'alpha':>5s} | {'Eq1 us':>9s} {'err':>5s} {'ceil':>5s} {'roof%':>5s}"
    ]
    for r in rows:
        lines.append(" ".join((
            f"{r['matrix']:6s} {r['format']:13s} {r['native']:13s}",
            col(r["native_s"], "9.1f", 1e6),
            col(r["native_iqr_s"] / r["native_s"], "5.1f", 100),
            col(r["useful_gflops"], "6.2f"),
            col(r["row_order_s"], "9.1f", 1e6),
            col(r["csr_scipy_s"], "9.1f", 1e6),
            "|",
            col(r["device_gflops"], "8.2f"),
            col(r["device_mib"], "7.1f"),
            col(r["device_alpha"], "5.2f"),
            "|",
            col(r["eq1_s"], "9.1f", 1e6),
            col(r["eq1_error"], "+5.0%"),
            col(r["ceiling_gbs"], "5.1f"),
            col(r["roofline_efficiency"], "5.1f", 100),
        )))
    return lines
