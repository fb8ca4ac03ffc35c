"""Conjugate-gradient solver on top of the permuted-basis operator.

spMVM "is often the dominating component in such solvers" (Sect. I) —
CG is the canonical example: one spMVM plus a handful of BLAS-1
operations per iteration.  The implementation follows the classic
Hestenes-Stiefel recurrence; all iterations run in the stored basis.
The BLAS-1 steps run in place through :mod:`repro.solvers.vector`, in
the spmv kernels' own thread pool when the compiled tier is loaded.
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

__all__ = ["CGResult", "conjugate_gradient"]


@dataclass(frozen=True)
class CGResult:
    """Outcome of a CG solve."""

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    #: spMVM invocations (the paper's dominant-cost accounting)
    spmv_count: int


def _jacobi_inverse(op) -> np.ndarray:
    """Inverse-diagonal preconditioner M^{-1} = diag(A)^{-1}."""
    diag = op.diagonal().astype(np.float64)
    if np.any(diag == 0.0):
        raise np.linalg.LinAlgError(
            "Jacobi preconditioner requires a zero-free diagonal"
        )
    return 1.0 / diag


def conjugate_gradient(
    matrix: SparseMatrixFormat,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int | None = None,
    preconditioner: str | np.ndarray | None = None,
) -> CGResult:
    """Solve ``A x = b`` for symmetric positive-definite ``A``.

    ``tol`` is relative: convergence when ``||r|| <= tol * ||b||``.
    Vectors are permuted into the stored basis once, iterated there,
    and the solution is permuted back — the Sect. II-A workflow.

    ``preconditioner`` may be ``None``, the string ``"jacobi"``
    (M = diag(A)) or an explicit array of M^{-1} diagonal entries in
    the *original* row ordering.
    """
    op = CountingOperator(solver_operator(matrix))
    n = op.size
    b = check_dense_vector(b, n, dtype=op.dtype, name="b")
    if max_iter is None:
        max_iter = 10 * n
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    if preconditioner is None:
        minv = None
    elif isinstance(preconditioner, str):
        if preconditioner != "jacobi":
            raise ValueError(
                f"unknown preconditioner {preconditioner!r}; use 'jacobi'"
            )
        minv = op.enter(_jacobi_inverse(op).astype(op.dtype)).astype(np.float64)
    else:
        arr = check_dense_vector(preconditioner, n, name="preconditioner")
        minv = op.enter(arr.astype(op.dtype)).astype(np.float64)

    r = op.enter(b).astype(np.float64)
    b_norm = math.sqrt(dot(r, r))
    if b_norm == 0.0:
        return CGResult(np.zeros(n, dtype=op.dtype), 0, 0.0, True, 0)
    threshold = tol * b_norm

    apply = float64_apply(op)
    if x0 is None:
        x = np.zeros(n, dtype=np.float64)
    else:
        x = op.enter(check_dense_vector(x0, n, dtype=op.dtype, name="x0")).astype(
            np.float64
        )
        r -= apply(x)

    rr = dot(r, r)
    if minv is None:
        z = r
        rz = rr
    else:
        z = np.multiply(minv, r)
        rz = dot(r, z)
    p = z.copy()
    res_norm = math.sqrt(rr)

    iterations = 0
    converged = res_norm <= threshold
    while not converged and iterations < max_iter:
        ap = apply(p)
        pap = dot(p, ap)
        if pap <= 0.0:
            raise np.linalg.LinAlgError(
                "matrix is not positive definite (p^T A p <= 0 in CG)"
            )
        alpha = rz / pap
        rr = cg_update(alpha, p, ap, x, r)
        res_norm = math.sqrt(rr)
        iterations += 1
        if obs.enabled():
            obs.set_gauge("solver_residual", res_norm, solver="cg")
            obs.set_gauge(
                "solver_relative_residual", res_norm / b_norm, solver="cg"
            )
            obs.inc("solver_iterations_total", 1, solver="cg")
        if res_norm <= threshold:
            converged = True
            break
        if minv is None:
            rz_new = rr
        else:
            np.multiply(minv, r, out=z)
            rz_new = dot(r, z)
        xpby(z, rz_new / rz, p)
        rz = rz_new

    if obs.enabled():
        obs.set_gauge("solver_converged", float(converged), solver="cg")
    op.publish("cg")
    return CGResult(
        x=op.leave(x.astype(op.dtype, copy=False)),
        iterations=iterations,
        residual_norm=res_norm,
        converged=bool(converged),
        spmv_count=op.count,
    )
