"""Power iteration: the simplest spMVM-dominated solver.

Useful both as an application example and as a stress test that runs
thousands of back-to-back spMVMs through the permuted-basis operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.formats.base import SparseMatrixFormat
from repro.ops.protocol import CountingOperator, solver_operator
from repro.solvers.vector import dot
from repro.utils.validation import check_positive_int

__all__ = ["PowerResult", "power_iteration"]


@dataclass(frozen=True)
class PowerResult:
    """Dominant eigenpair estimate."""

    eigenvalue: float
    eigenvector: np.ndarray  # original basis, unit norm
    iterations: int
    converged: bool
    spmv_count: int


def power_iteration(
    matrix: SparseMatrixFormat,
    *,
    tol: float = 1e-10,
    max_iter: int = 5000,
    seed: int = 0,
    v0: np.ndarray | None = None,
) -> PowerResult:
    """Estimate the dominant eigenvalue (largest |lambda|).

    Convergence: relative Rayleigh-quotient change below ``tol``.
    """
    op = CountingOperator(solver_operator(matrix))
    n = op.size
    max_iter = check_positive_int(max_iter, "max_iter")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    rng = np.random.default_rng(seed)
    v = (
        op.enter(np.asarray(v0))
        if v0 is not None
        else rng.standard_normal(n).astype(op.dtype)
    )
    norm = math.sqrt(dot(v, v))
    if norm == 0.0:
        raise ValueError("start vector must be non-zero")
    v = v / norm  # a copy: the loop then rescales it in place

    lam = 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        w = op.apply(v)
        lam_new = dot(v, w)
        norm = math.sqrt(dot(w, w))
        if norm == 0.0:
            lam = 0.0
            converged = True
            v = w
            break
        np.divide(w, norm, out=v)
        if obs.enabled():
            # convergence gauge: relative Rayleigh-quotient change
            obs.set_gauge(
                "solver_residual",
                abs(lam_new - lam) / max(abs(lam_new), 1e-30),
                solver="power",
            )
            obs.inc("solver_iterations_total", 1, solver="power")
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-30):
            lam = lam_new
            converged = True
            break
        lam = lam_new

    if obs.enabled():
        obs.set_gauge("solver_converged", float(converged), solver="power")
    op.publish("power")
    return PowerResult(
        eigenvalue=lam,
        eigenvector=op.leave(v),
        iterations=it,
        converged=converged,
        spmv_count=op.count,
    )
