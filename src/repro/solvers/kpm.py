"""Kernel Polynomial Method: spectral density via Chebyshev moments.

The HMEp matrix's home discipline (quantum lattice models) estimates
spectral properties with the KPM — an algorithm that is *pure* spMVM:
each Chebyshev moment costs one matrix application and two dot
products, so it is an ideal consumer of the pJDS permuted-basis
workflow (and the kind of "production-grade eigensolver" application
the paper's outlook mentions).

Implementation: scale the symmetric matrix to spectrum ⊂ [-1, 1] using
Lanczos-estimated extremal eigenvalues, run the Chebyshev three-term
recurrence on ``R`` random vectors (stochastic trace estimation),
damp the moments with the Jackson kernel, and reconstruct the density
of states on a Chebyshev grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import SparseMatrixFormat
from repro.ops.protocol import CountingOperator, solver_operator
from repro.utils.validation import check_positive_int

__all__ = ["KPMResult", "jackson_kernel", "kpm_spectral_density"]


def jackson_kernel(num_moments: int) -> np.ndarray:
    """Jackson damping factors g_m (suppress Gibbs oscillations)."""
    M = check_positive_int(num_moments, "num_moments")
    m = np.arange(M)
    q = np.pi / (M + 1)
    return ((M - m + 1) * np.cos(q * m) + np.sin(q * m) / np.tan(q)) / (M + 1)


@dataclass(frozen=True)
class KPMResult:
    """Spectral density estimate from one KPM run."""

    energies: np.ndarray  # evaluation grid (original spectrum units)
    density: np.ndarray  # estimated density of states (normalised)
    moments: np.ndarray  # Jackson-damped Chebyshev moments
    spectrum_bounds: tuple[float, float]
    spmv_count: int

    def mean_energy(self) -> float:
        """First spectral moment from the density estimate."""
        w = np.trapezoid(self.density, self.energies)
        return float(np.trapezoid(self.density * self.energies, self.energies) / w)


def kpm_spectral_density(
    matrix: SparseMatrixFormat,
    *,
    num_moments: int = 128,
    num_vectors: int = 8,
    num_points: int = 256,
    seed: int = 0,
    bounds: tuple[float, float] | None = None,
    bound_padding: float = 0.05,
) -> KPMResult:
    """Estimate the density of states of a symmetric matrix.

    Parameters
    ----------
    num_moments : int
        Chebyshev moments M (energy resolution ~ spectral width / M).
    num_vectors : int
        Random vectors R for the stochastic trace (variance ~ 1/(R n)).
    num_points : int
        Evaluation grid size.
    bounds : (float, float), optional
        Known spectral bounds; estimated with Lanczos when omitted.
    bound_padding : float
        Relative safety margin applied to the bounds (KPM diverges if
        an eigenvalue leaves [-1, 1] after scaling; iterative bound
        estimates err low, so the default keeps 5 % headroom).

    The Chebyshev recurrence runs **batched**: all ``R`` probe vectors
    advance together as one ``(n, R)`` block per moment through the
    stored-basis SpMM kernel, so every stored matrix entry is read
    once per moment instead of once per (moment, vector) pair — the
    code-balance win block Krylov methods get on real hardware.
    """
    op = CountingOperator(solver_operator(matrix))
    n = op.size
    M = check_positive_int(num_moments, "num_moments")
    R = check_positive_int(num_vectors, "num_vectors")
    P = check_positive_int(num_points, "num_points")

    if bounds is None:
        # extremal Ritz values of a short Lanczos run approach both
        # spectrum ends simultaneously (power iteration fails when the
        # spectrum is nearly symmetric, as for hopping Hamiltonians);
        # the probe applications go through the same CountingOperator,
        # so they land in the spmv accounting automatically
        lo = np.inf
        hi = -np.inf
        for probe_seed in (seed, seed + 1):
            blo, bhi = _lanczos_bounds(op, seed=probe_seed, iters=50)
            lo = min(lo, blo)
            hi = max(hi, bhi)
        bounds = (lo, hi)
    lo, hi = bounds
    if not hi > lo:
        raise ValueError(f"invalid spectral bounds {bounds}")
    half_width = 0.5 * (hi - lo) * (1.0 + bound_padding)
    centre = 0.5 * (hi + lo)

    rng = np.random.default_rng(seed)
    mu = np.zeros(M, dtype=np.float64)

    def apply_scaled_block(V: np.ndarray) -> np.ndarray:
        """Scaled operator on an (n, k) block; one SpMM, k spmv-equivalents."""
        AV = op.apply_block(np.ascontiguousarray(V, dtype=op.dtype))
        return (AV.astype(np.float64) - centre * V) / half_width

    # Rademacher probes, drawn per vector so the stream matches the
    # historical one-vector-at-a-time implementation for a given seed
    signs = np.array([-1.0, 1.0])
    V0 = np.column_stack([rng.choice(signs, size=n) for _ in range(R)])
    T_prev = V0.copy()
    T_curr = apply_scaled_block(V0)
    mu[0] += float(np.einsum("ij,ij->", V0, T_prev))
    if M > 1:
        mu[1] += float(np.einsum("ij,ij->", V0, T_curr))
    for m in range(2, M):
        T_next = 2.0 * apply_scaled_block(T_curr) - T_prev
        mu[m] += float(np.einsum("ij,ij->", V0, T_next))
        T_prev, T_curr = T_curr, T_next
    mu /= R * n

    damped = mu * jackson_kernel(M)

    # reconstruct on a Chebyshev grid x_k = cos(theta_k)
    k = np.arange(P)
    x = np.cos(np.pi * (k + 0.5) / P)
    theta = np.arccos(x)
    series = damped[0] + 2.0 * np.sum(
        damped[1:, None] * np.cos(np.outer(np.arange(1, M), theta)), axis=0
    )
    density_x = series / (np.pi * np.sqrt(1.0 - x**2))
    energies = centre + half_width * x
    order = np.argsort(energies)
    energies = energies[order]
    density = density_x[order] / half_width  # change of variables

    op.publish("kpm")
    return KPMResult(
        energies=energies,
        density=density,
        moments=damped,
        spectrum_bounds=(lo, hi),
        spmv_count=op.count,
    )


def _lanczos_bounds(op, *, seed: int, iters: int) -> tuple[float, float]:
    """(min Ritz, max Ritz) of a short plain Lanczos run.

    No reorthogonalisation — extremal Ritz values are robust to the
    resulting ghost eigenvalues, which only duplicate converged ends.
    """
    rng = np.random.default_rng(seed)
    n = op.size
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(n)
    beta = 0.0
    alphas: list[float] = []
    betas: list[float] = []
    for _ in range(min(iters, n)):
        w = op.apply(v.astype(op.dtype)).astype(np.float64)
        a = float(v @ w)
        alphas.append(a)
        w = w - a * v - beta * v_prev
        beta = float(np.linalg.norm(w))
        if beta < 1e-12:
            break
        betas.append(beta)
        v_prev = v
        v = w / beta
    if len(betas) == len(alphas):
        betas = betas[:-1]
    T = np.diag(alphas)
    if betas:
        off = np.asarray(betas)
        T += np.diag(off, 1) + np.diag(off, -1)
    theta = np.linalg.eigvalsh(T)
    return float(theta[0]), float(theta[-1])
