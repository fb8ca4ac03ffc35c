"""Tests for the permuted-basis solver layer (CG, Lanczos, power)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.sorting import Permutation
from repro.engine import bind
from repro.formats import COOMatrix, available_formats, convert
from repro.kernels import compiled
from repro.matrices import poisson2d
from repro.ops import solver_operator
from repro.solvers import (
    PermutedOperator,
    bicgstab,
    conjugate_gradient,
    kpm_spectral_density,
    lanczos,
    power_iteration,
    vector,
)

from _test_common import random_coo


@pytest.fixture(scope="module")
def spd():
    """Small SPD matrix with a non-trivial pJDS permutation."""
    return poisson2d(11, 13)


@pytest.fixture(scope="module")
def spd_dense(spd):
    return spd.todense()


class TestOperator:
    def test_pjds_operator_zero_copy_basis(self, spd):
        p = convert(spd, "pJDS", block_rows=8)
        op = solver_operator(p)
        assert op.size == spd.nrows
        x = np.random.default_rng(0).normal(size=spd.nrows)
        xp = op.enter(x)
        assert np.allclose(op.leave(op.apply(xp)), spd.spmv(x))

    def test_csr_operator_identity_permutation(self, spd):
        m = convert(spd, "CRS")
        op = solver_operator(m)
        assert op.permutation.is_identity
        x = np.random.default_rng(1).normal(size=spd.nrows)
        assert np.allclose(op.apply(x), m.spmv(x))

    def test_rectangular_rejected(self):
        m = convert(random_coo(8, 12, seed=191), "CRS")
        with pytest.raises(ValueError, match="square"):
            solver_operator(m)

    def test_callable(self, spd):
        op = solver_operator(convert(spd, "pJDS"))
        x = np.ones(spd.nrows)
        assert np.array_equal(op(op.enter(x)), op.apply(op.enter(x)))


class TestCG:
    @pytest.mark.parametrize("fmt", ["CRS", "ELLPACK-R", "pJDS", "SELL-C-sigma"])
    def test_solves_poisson(self, spd, spd_dense, fmt):
        m = convert(spd, fmt)
        rng = np.random.default_rng(2)
        b = rng.normal(size=spd.nrows)
        res = conjugate_gradient(m, b, tol=1e-10)
        assert res.converged
        assert np.allclose(res.x, np.linalg.solve(spd_dense, b), atol=1e-6)

    def test_residual_below_tolerance(self, spd):
        b = np.ones(spd.nrows)
        res = conjugate_gradient(convert(spd, "pJDS"), b, tol=1e-8)
        assert res.residual_norm <= 1e-8 * np.linalg.norm(b)

    def test_zero_rhs(self, spd):
        res = conjugate_gradient(convert(spd, "pJDS"), np.zeros(spd.nrows))
        assert res.converged
        assert res.iterations == 0
        assert np.all(res.x == 0.0)

    def test_warm_start(self, spd, spd_dense):
        b = np.random.default_rng(3).normal(size=spd.nrows)
        exact = np.linalg.solve(spd_dense, b)
        res = conjugate_gradient(
            convert(spd, "pJDS"), b, x0=exact + 1e-6, tol=1e-10
        )
        assert res.converged
        assert res.iterations < 30

    def test_max_iter_respected(self, spd):
        b = np.ones(spd.nrows)
        res = conjugate_gradient(convert(spd, "pJDS"), b, tol=1e-14, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_spmv_count_tracks_iterations(self, spd):
        b = np.ones(spd.nrows)
        res = conjugate_gradient(convert(spd, "pJDS"), b, tol=1e-8)
        assert res.spmv_count == res.iterations

    def test_indefinite_detected(self):
        coo = COOMatrix([0, 1], [0, 1], [1.0, -1.0], (2, 2))
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            conjugate_gradient(coo, np.ones(2))

    def test_float32_operator(self, spd):
        c = COOMatrix(spd.rows, spd.cols, spd.values.astype(np.float32), spd.shape)
        b = np.random.default_rng(4).normal(size=spd.nrows)
        res = conjugate_gradient(convert(c, "pJDS"), b, tol=1e-5)
        assert res.converged
        assert res.x.dtype == np.float32
        assert np.linalg.norm(spd.spmv(res.x) - b) <= 1e-4 * np.linalg.norm(b)

    def test_validation(self, spd):
        m = convert(spd, "pJDS")
        with pytest.raises(ValueError):
            conjugate_gradient(m, np.ones(spd.nrows), tol=0.0)
        with pytest.raises(ValueError):
            conjugate_gradient(m, np.ones(spd.nrows), max_iter=-1)
        with pytest.raises(ValueError):
            conjugate_gradient(m, np.ones(3))


class TestLanczos:
    def test_smallest_eigenvalues(self, spd, spd_dense):
        ref = np.linalg.eigvalsh(spd_dense)[:3]
        res = lanczos(convert(spd, "pJDS"), num_eigenvalues=3, tol=1e-10)
        assert np.allclose(res.eigenvalues, ref, atol=1e-7)

    def test_residuals_small(self, spd):
        res = lanczos(convert(spd, "pJDS"), num_eigenvalues=2, tol=1e-10)
        assert np.all(res.residual_norms < 1e-6)

    def test_eigenvectors_in_original_basis(self, spd, spd_dense):
        res = lanczos(convert(spd, "pJDS"), num_eigenvalues=1, tol=1e-10)
        v = res.eigenvectors[:, 0]
        assert np.allclose(
            spd_dense @ v, res.eigenvalues[0] * v, atol=1e-6
        )

    def test_ground_state_energy_property(self, spd):
        res = lanczos(convert(spd, "pJDS"), num_eigenvalues=2, tol=1e-9)
        assert res.ground_state_energy == res.eigenvalues[0]

    def test_deterministic_seed(self, spd):
        a = lanczos(convert(spd, "pJDS"), num_eigenvalues=1, seed=7)
        b = lanczos(convert(spd, "pJDS"), num_eigenvalues=1, seed=7)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)

    def test_explicit_start_vector(self, spd, spd_dense):
        v0 = np.linalg.eigh(spd_dense)[1][:, 0]
        res = lanczos(convert(spd, "pJDS"), num_eigenvalues=1, v0=v0, tol=1e-10)
        assert res.iterations <= 3

    def test_small_matrix_full_subspace(self):
        coo = COOMatrix([0, 1, 2], [0, 1, 2], [3.0, 1.0, 2.0], (3, 3))
        res = lanczos(coo, num_eigenvalues=3, max_iter=3, tol=1e-12)
        assert np.allclose(np.sort(res.eigenvalues), [1.0, 2.0, 3.0], atol=1e-10)

    def test_validation(self, spd):
        m = convert(spd, "pJDS")
        with pytest.raises(ValueError):
            lanczos(m, num_eigenvalues=0)
        with pytest.raises(ValueError):
            lanczos(m, num_eigenvalues=10, max_iter=5)
        with pytest.raises(ValueError):
            lanczos(m, tol=-1.0)


class TestPower:
    def test_dominant_eigenvalue(self, spd, spd_dense):
        res = power_iteration(convert(spd, "pJDS"), tol=1e-13, max_iter=50_000)
        ref = np.abs(np.linalg.eigvalsh(spd_dense)).max()
        assert res.eigenvalue == pytest.approx(ref, abs=1e-4)

    def test_eigenvector_residual(self, spd, spd_dense):
        res = power_iteration(convert(spd, "pJDS"), tol=1e-13, max_iter=50_000)
        v = res.eigenvector
        assert np.linalg.norm(spd_dense @ v - res.eigenvalue * v) < 1e-3

    def test_diagonal_matrix_exact(self):
        coo = COOMatrix([0, 1, 2], [0, 1, 2], [5.0, 2.0, 1.0], (3, 3))
        res = power_iteration(coo, tol=1e-14)
        assert res.eigenvalue == pytest.approx(5.0, abs=1e-10)
        assert res.converged

    def test_spmv_count(self, spd):
        res = power_iteration(convert(spd, "pJDS"), tol=1e-6, max_iter=1000)
        assert res.spmv_count == res.iterations

    def test_zero_start_rejected(self, spd):
        with pytest.raises(ValueError, match="non-zero"):
            power_iteration(convert(spd, "pJDS"), v0=np.zeros(spd.nrows))

    def test_validation(self, spd):
        with pytest.raises(ValueError):
            power_iteration(convert(spd, "pJDS"), tol=0.0)
        with pytest.raises(ValueError):
            power_iteration(convert(spd, "pJDS"), max_iter=0)


def _solver_outputs(m, b):
    """Every result field the five solvers return, as arrays."""
    cg = conjugate_gradient(m, b, tol=1e-10)
    bi = bicgstab(m, b, tol=1e-10)
    lz = lanczos(m, num_eigenvalues=2, max_iter=40)
    kpm = kpm_spectral_density(m, num_moments=16, num_vectors=2, num_points=32)
    pw = power_iteration(m, tol=1e-8, max_iter=300)
    return {
        "cg.x": cg.x,
        "cg.iterations": cg.iterations,
        "bicgstab.x": bi.x,
        "bicgstab.iterations": bi.iterations,
        "lanczos.eigenvalues": lz.eigenvalues,
        "lanczos.eigenvectors": lz.eigenvectors,
        "lanczos.iterations": lz.iterations,
        "kpm.moments": kpm.moments,
        "kpm.density": kpm.density,
        "kpm.spmv_count": kpm.spmv_count,
        "power.eigenvalue": pw.eigenvalue,
        "power.eigenvector": pw.eigenvector,
        "power.iterations": pw.iterations,
    }


@pytest.mark.parametrize("fmt", available_formats())
def test_raw_format_solves_as_its_untuned_binding(spd, fmt):
    """A raw format and ``bind(m, tune=False)`` give every solver the
    same bits: solutions, eigenpairs, moments and iteration counts."""
    m = convert(spd, fmt)
    b = np.random.default_rng(23).normal(size=spd.nrows)
    raw = _solver_outputs(m, b)
    bound = _solver_outputs(bind(m, tune=False), b)
    for key, want in raw.items():
        np.testing.assert_array_equal(bound[key], want, err_msg=f"{fmt} {key}")


needs_cnative = pytest.mark.skipif(
    compiled._CNATIVE is None, reason="cnative tier not loaded"
)

VECTOR_LENGTHS = (0, 1, 7, 4097, 262_147)


@needs_cnative
class TestVectorKernels:
    """The C vector kernels against their NumPy reference bodies."""

    @pytest.mark.parametrize("n", VECTOR_LENGTHS)
    def test_cg_update_bitwise(self, n):
        rng = np.random.default_rng(n)
        p, ap, x, r = (rng.standard_normal(n) for _ in range(4))
        x_ref, r_ref = x.copy(), r.copy()
        vector._cg_update_np(0.37, p, ap, x_ref, r_ref)
        rr = vector.cg_update(0.37, p, ap, x, r)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(r, r_ref)
        np.testing.assert_allclose(rr, np.dot(r, r), rtol=1e-13)

    @pytest.mark.parametrize("n", VECTOR_LENGTHS)
    def test_cg_update_aliased_bitwise(self, n):
        # BiCGSTAB's second half-step passes the same array as p and r
        rng = np.random.default_rng(n + 1)
        s, t, x = (rng.standard_normal(n) for _ in range(3))
        x_ref, s_ref = x.copy(), s.copy()
        vector._cg_update_np(-1.3, s_ref, t, x_ref, s_ref)
        vector.cg_update(-1.3, s, t, x, s)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(s, s_ref)

    @pytest.mark.parametrize("n", VECTOR_LENGTHS)
    def test_xpby_bitwise(self, n):
        rng = np.random.default_rng(n + 2)
        z, p = rng.standard_normal(n), rng.standard_normal(n)
        p_ref = p.copy()
        vector._xpby_np(z, 0.61, p_ref)
        vector.xpby(z, 0.61, p)
        assert np.array_equal(p, p_ref)

    @pytest.mark.parametrize("n", VECTOR_LENGTHS)
    def test_dot_matches_numpy(self, n):
        rng = np.random.default_rng(n + 3)
        # positive terms: the sum is perfectly conditioned, so any two
        # summation orders agree to a few ulps of the value itself
        a, b = rng.random(n) + 0.5, rng.random(n) + 0.5
        np.testing.assert_allclose(vector.dot(a, b), np.dot(a, b), rtol=1e-13)
        # signed terms cancel, so the summation error scales with
        # sum(|a*b|), not with the (much smaller) result
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        scale = np.dot(np.abs(a), np.abs(b))
        assert abs(vector.dot(a, b) - np.dot(a, b)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", VECTOR_LENGTHS)
    def test_reductions_reproducible(self, n):
        rng = np.random.default_rng(n + 4)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        assert vector.dot(a, b) == vector.dot(a, b)
        runs = []
        for _ in range(2):
            x, r = a.copy(), b.copy()
            runs.append(vector.cg_update(0.5, a, b, x, r))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("n", VECTOR_LENGTHS + (4095, 4096, 8193))
    def test_reductions_bitwise_across_tiers(self, n):
        """The C reductions and the NumPy fallback sum in one order."""
        rng = np.random.default_rng(n + 5)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        assert vector.dot(a, b) == vector._dot_np(a, b)
        p, ap = rng.standard_normal(n), rng.standard_normal(n)
        x_ref, r_ref = a.copy(), b.copy()
        rr_ref = vector._cg_update_np(0.37, p, ap, x_ref, r_ref)
        assert vector.cg_update(0.37, p, ap, a, b) == rr_ref

    def test_fallback_on_other_layouts(self):
        a = np.arange(5, dtype=np.float32)
        assert not vector._native(a, a)
        assert vector.dot(a, a) == pytest.approx(30.0)
        strided = np.arange(10.0)[::2]
        assert not vector._native(strided, np.ones(5))
        assert vector.dot(strided, np.ones(5)) == 20.0
        p, x, r = np.ones(5), np.zeros(10)[::2], np.ones(5)
        assert vector.cg_update(2.0, p, p, x, r) == 5.0
        assert np.array_equal(x, np.full(5, 2.0))


@needs_cnative
class TestVectorTiers:
    """Solves with the C vector kernels match the NumPy fallback."""

    @staticmethod
    def _both(monkeypatch, solve):
        native = solve()
        monkeypatch.setattr(vector, "_LIB", None)
        return native, solve()

    @pytest.mark.parametrize("case", ["plain", "jacobi", "x0"])
    def test_cg(self, spd, monkeypatch, case):
        m = convert(spd, "pJDS")
        rng = np.random.default_rng(5)
        b = rng.normal(size=spd.nrows)
        kw = {
            "plain": {},
            "jacobi": {"preconditioner": "jacobi"},
            "x0": {"x0": rng.normal(size=spd.nrows)},
        }[case]
        native, fallback = self._both(
            monkeypatch, lambda: conjugate_gradient(m, b, tol=1e-10, **kw)
        )
        assert native.converged and fallback.converged
        assert native.iterations == fallback.iterations
        assert np.allclose(native.x, fallback.x, rtol=1e-10)

    @pytest.mark.parametrize("case", ["plain", "x0"])
    def test_bicgstab(self, spd, monkeypatch, case):
        m = convert(spd, "pJDS")
        rng = np.random.default_rng(6)
        b = rng.normal(size=spd.nrows)
        kw = {"x0": rng.normal(size=spd.nrows)} if case == "x0" else {}
        native, fallback = self._both(
            monkeypatch, lambda: bicgstab(m, b, tol=1e-10, **kw)
        )
        assert native.converged and fallback.converged
        assert native.iterations == fallback.iterations
        assert np.allclose(native.x, fallback.x, rtol=1e-10)


class TestSteadyStateAllocation:
    """A CG iteration allocates no n-vector once the loop is running.

    The operator is allocation-free (it writes one persistent buffer)
    and samples tracemalloc at every apply, so each interval between
    two applies is exactly one CG iteration of the solver's own work.
    """

    @pytest.mark.parametrize("preconditioner", [None, "jacobi"])
    def test_cg_iterations_allocate_no_vector(self, preconditioner):
        n = 20_000
        d = np.linspace(2.5, 1e3, n)
        y = np.empty(n)
        samples = []  # (live bytes, peak since the previous apply)

        def apply_(x):
            samples.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            # SPD tridiagonal, in place
            np.multiply(d, x, out=y)
            y[1:] -= x[:-1]
            y[:-1] -= x[1:]
            return y

        op = PermutedOperator(
            apply_, Permutation.identity(n), np.float64, diagonal=lambda: d
        )
        b = np.random.default_rng(7).normal(size=n)
        tracemalloc.start()
        try:
            res = conjugate_gradient(
                op, b, tol=1e-30, max_iter=50, preconditioner=preconditioner
            )
        finally:
            tracemalloc.stop()
        assert res.iterations == 50
        growth = [
            peak - live for (live, _), (_, peak) in zip(samples, samples[1:])
        ]
        assert len(growth) == 49
        assert max(growth) < 8 * n
