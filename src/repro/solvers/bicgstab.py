"""BiCGSTAB for nonsymmetric systems (the DLR matrices of Sect. I-C).

DLR1/DLR2 are explicitly nonsymmetric ("the resulting matrix is
nonsymmetric"), so the production solvers behind them are
nonsymmetric Krylov methods.  Van der Vorst's BiCGSTAB costs two
spMVMs per iteration — still spMVM-dominated, still running entirely
in the permuted basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.formats.base import SparseMatrixFormat
from repro.ops.protocol import CountingOperator, solver_operator
from repro.solvers.vector import cg_update, dot, float64_apply, xpby
from repro.utils.validation import check_dense_vector

__all__ = ["BiCGSTABResult", "bicgstab"]

_BREAKDOWN_EPS = 1e-30


def _publish_iteration(res_norm: float, b_norm: float) -> None:
    """Per-iteration convergence gauges (no-op while obs is disabled)."""
    if obs.enabled():
        obs.set_gauge("solver_residual", res_norm, solver="bicgstab")
        obs.set_gauge(
            "solver_relative_residual", res_norm / b_norm, solver="bicgstab"
        )
        obs.inc("solver_iterations_total", 1, solver="bicgstab")


@dataclass(frozen=True)
class BiCGSTABResult:
    """Outcome of a BiCGSTAB solve."""

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    spmv_count: int


def bicgstab(
    matrix: SparseMatrixFormat,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> BiCGSTABResult:
    """Solve the (possibly nonsymmetric) system ``A x = b``.

    Relative convergence criterion ``||r|| <= tol * ||b||``; raises
    ``numpy.linalg.LinAlgError`` on the method's classical breakdowns
    (``rho`` or ``omega`` collapsing to zero).
    """
    op = CountingOperator(solver_operator(matrix))
    n = op.size
    b = check_dense_vector(b, n, dtype=op.dtype, name="b")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter is None:
        max_iter = 10 * n
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")

    r = op.enter(b).astype(np.float64)
    b_norm = math.sqrt(dot(r, r))
    if b_norm == 0.0:
        return BiCGSTABResult(np.zeros(n, dtype=op.dtype), 0, 0.0, True, 0)
    threshold = tol * b_norm

    apply = float64_apply(op)
    if x0 is None:
        x = np.zeros(n, dtype=np.float64)
    else:
        x = op.enter(check_dense_vector(x0, n, dtype=op.dtype, name="x0")).astype(
            np.float64
        )
        r -= apply(x)
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    # v must survive the second apply of the iteration (which may reuse
    # the operator's output buffer), so it gets a buffer of its own;
    # r also holds the half-step residual s
    v = np.zeros(n)
    p = np.zeros(n)

    iterations = 0
    res_norm = math.sqrt(dot(r, r))
    converged = res_norm <= threshold
    while not converged and iterations < max_iter:
        rho_new = dot(r_hat, r)
        if abs(rho_new) < _BREAKDOWN_EPS:
            raise np.linalg.LinAlgError("BiCGSTAB breakdown: rho ~ 0")
        if iterations:
            beta = (rho_new / rho) * (alpha / omega)
            v *= omega
            p -= v
            xpby(r, beta, p)  # p = r + beta * (p - omega * v)
        else:
            p[:] = r
        rho = rho_new

        v[:] = apply(p)
        denom = dot(r_hat, v)
        if abs(denom) < _BREAKDOWN_EPS:
            raise np.linalg.LinAlgError("BiCGSTAB breakdown: r_hat . v ~ 0")
        alpha = rho / denom
        ss = cg_update(alpha, p, v, x, r)  # x += alpha p; s = r - alpha v
        s = r

        if math.sqrt(ss) <= threshold:  # early half-step convergence
            res_norm = math.sqrt(ss)
            iterations += 1
            _publish_iteration(res_norm, b_norm)
            converged = True
            break

        t = apply(s)
        tt = dot(t, t)
        if tt < _BREAKDOWN_EPS:
            raise np.linalg.LinAlgError("BiCGSTAB breakdown: ||t|| ~ 0")
        omega = dot(t, s) / tt
        if abs(omega) < _BREAKDOWN_EPS:
            raise np.linalg.LinAlgError("BiCGSTAB breakdown: omega ~ 0")

        rr = cg_update(omega, s, t, x, r)  # x += omega s; r = s - omega t
        res_norm = math.sqrt(rr)
        iterations += 1
        _publish_iteration(res_norm, b_norm)
        converged = res_norm <= threshold

    if obs.enabled():
        obs.set_gauge("solver_converged", float(converged), solver="bicgstab")
    op.publish("bicgstab")
    return BiCGSTABResult(
        x=op.leave(x.astype(op.dtype, copy=False)),
        iterations=iterations,
        residual_norm=res_norm,
        converged=bool(converged),
        spmv_count=op.count,
    )
