"""Lanczos eigensolver — the HMEp motivation of the paper.

The HMEp matrix "originates from the quantum-mechanical description
... of a one-dimensional solid"; the solvers consuming it are sparse
eigensolvers whose cost is dominated by spMVM.  This module provides a
Lanczos iteration with full reorthogonalisation (robust at the modest
subspace sizes used here) for extremal eigenvalues of symmetric
matrices, running entirely in the permuted basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.formats.base import SparseMatrixFormat
from repro.ops.protocol import CountingOperator, solver_operator
from repro.utils.validation import check_positive_int

__all__ = ["LanczosResult", "lanczos"]


@dataclass(frozen=True)
class LanczosResult:
    """Extremal Ritz values/vectors of one Lanczos run."""

    eigenvalues: np.ndarray  # ascending Ritz values
    eigenvectors: np.ndarray  # (n, k) Ritz vectors, original basis
    iterations: int
    residual_norms: np.ndarray  # ||A v - lambda v|| per returned pair
    spmv_count: int

    @property
    def ground_state_energy(self) -> float:
        """Smallest Ritz value (physics vocabulary of the HMEp use case)."""
        return float(self.eigenvalues[0])


def lanczos(
    matrix: SparseMatrixFormat,
    *,
    num_eigenvalues: int = 1,
    max_iter: int = 200,
    tol: float = 1e-8,
    seed: int = 0,
    v0: np.ndarray | None = None,
) -> LanczosResult:
    """Compute the smallest ``num_eigenvalues`` of a symmetric matrix.

    Full reorthogonalisation keeps the basis numerically orthogonal;
    convergence is declared when every requested Ritz pair's residual
    ``|beta * s_last|`` falls below ``tol * |theta|``.  The
    reorthogonalisation ``V.T @ (V @ w)`` is a pair of gemvs, not
    BLAS-1 work, so unlike the CG/BiCGSTAB/power vector steps it stays
    on NumPy's BLAS rather than :mod:`repro.solvers.vector`.
    """
    op = CountingOperator(solver_operator(matrix))
    n = op.size
    k = check_positive_int(num_eigenvalues, "num_eigenvalues")
    max_iter = min(check_positive_int(max_iter, "max_iter"), n)
    if k > max_iter:
        raise ValueError(
            f"num_eigenvalues={k} exceeds the subspace bound max_iter={max_iter}"
        )
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    rng = np.random.default_rng(seed)
    if v0 is None:
        v = rng.standard_normal(n).astype(op.dtype)
    else:
        v = op.enter(np.asarray(v0))
    v = v / np.linalg.norm(v)

    V = np.zeros((max_iter + 1, n), dtype=np.float64)
    V[0] = v
    alphas: list[float] = []
    betas: list[float] = []
    theta = np.empty(0)
    S = np.empty((0, 0))
    converged_at = max_iter

    for j in range(max_iter):
        w = op.apply(V[j].astype(op.dtype)).astype(np.float64)
        a = float(V[j] @ w)
        alphas.append(a)
        w -= a * V[j]
        if j > 0:
            w -= betas[-1] * V[j - 1]
        # full reorthogonalisation against the existing basis
        w -= V[: j + 1].T @ (V[: j + 1] @ w)
        b = float(np.linalg.norm(w))

        m = j + 1
        T = np.diag(alphas)
        if len(betas):
            off = np.asarray(betas)
            T += np.diag(off, 1) + np.diag(off, -1)
        theta, S = np.linalg.eigh(T)
        if m >= k:
            resid = np.abs(b * S[-1, :k])
            if obs.enabled():
                obs.set_gauge(
                    "solver_residual", float(resid.max()), solver="lanczos"
                )
                obs.inc("solver_iterations_total", 1, solver="lanczos")
            if np.all(resid <= tol * np.maximum(np.abs(theta[:k]), 1e-30)):
                converged_at = m
                break
        elif obs.enabled():
            obs.inc("solver_iterations_total", 1, solver="lanczos")
        if b <= 1e-14:  # invariant subspace found
            converged_at = m
            break
        betas.append(b)
        V[j + 1] = w / b

    m = min(converged_at, len(alphas))
    kk = min(k, m)
    ritz_vals = theta[:kk]
    ritz_vecs_perm = (S[:, :kk].T @ V[:m]).T  # (n, kk)

    residuals = np.empty(kk)
    vecs = np.empty((n, kk), dtype=op.dtype)
    for i in range(kk):
        u = ritz_vecs_perm[:, i]
        u = u / np.linalg.norm(u)
        au = op.apply(u.astype(op.dtype)).astype(np.float64)
        residuals[i] = float(np.linalg.norm(au - ritz_vals[i] * u))
        vecs[:, i] = op.leave(u.astype(op.dtype))

    op.publish("lanczos")
    return LanczosResult(
        eigenvalues=ritz_vals.copy(),
        eigenvectors=vecs,
        iterations=m,
        residual_norms=residuals,
        spmv_count=op.count,
    )
