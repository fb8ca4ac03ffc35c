"""End-to-end integration tests crossing module boundaries."""

import numpy as np
import pytest

from repro.distributed import (
    DIRAC_IB,
    KernelCost,
    build_plan,
    distributed_spmv,
    partition_rows,
    simulate_mode,
    stats_from_plan,
    strong_scaling,
)
from repro.formats import CSRMatrix, convert
from repro.gpu import C2050, C2070, simulate_spmv, spmv_with_transfers
from repro.matrices import generate, row_length_histogram
from repro.perfmodel import alpha_from_balance, model_cpu_crs
from repro.solvers import conjugate_gradient, lanczos


class TestTableIPipeline:
    """The full Table I flow on one suite matrix at tiny scale."""

    @pytest.fixture(scope="class")
    def samg(self):
        return generate("sAMG", scale=512)

    def test_reduction_and_performance_shape(self, samg):
        dev = C2070(ecc=True).scaled(512)
        er = convert(samg, "ELLPACK-R")
        pj = convert(samg, "pJDS")
        e = convert(samg, "ELLPACK")
        assert pj.data_reduction_vs(e) > 0.5
        r_er = simulate_spmv(er, dev, "DP")
        r_pj = simulate_spmv(pj, dev, "DP")
        # sAMG: pJDS must not lose (Table I shows it winning)
        assert r_pj.gflops >= 0.9 * r_er.gflops

    def test_alpha_bridge_model_vs_simulator(self, samg):
        """The simulator's measured balance inverts to a sane alpha."""
        dev = C2070(ecc=True).scaled(512)
        rep = simulate_spmv(convert(samg, "pJDS"), dev, "DP")
        alpha = alpha_from_balance(rep.code_balance, samg.avg_row_length, "DP")
        assert -0.5 <= alpha <= 16.0

    def test_cpu_row(self, samg):
        rep = model_cpu_crs(samg, scale=512)
        assert 2.0 < rep.gflops < 10.0

    def test_pcie_makes_samg_unattractive(self, samg):
        """Sect. III: sAMG's effective GF/s drops below the CPU level."""
        dev = C2070(ecc=True).scaled(512)
        kernel = simulate_spmv(convert(samg, "ELLPACK-R"), dev, "DP")
        eff = spmv_with_transfers(kernel, dev)
        assert eff.gflops < kernel.gflops
        assert eff.pcie_penalty > 0.3


class TestHistogramPipeline:
    def test_fig3_shapes(self):
        """DLR1 mass near the max, sAMG mass at short rows."""
        dlr1 = generate("DLR1", scale=512)
        samg = generate("sAMG", scale=512)
        h_dlr1 = row_length_histogram(dlr1)
        h_samg = row_length_histogram(samg)
        assert h_dlr1.share_at_least(int(0.8 * dlr1.row_lengths().max())) > 0.7
        assert h_samg.share_at_least(15) < 0.05


class TestDistributedPipeline:
    @pytest.mark.usefixtures("no_leaks")
    def test_runtime_and_simulator_share_plan(self):
        """The same CommPlan drives correctness and timing."""
        coo = generate("sAMG", scale=512)
        csr = CSRMatrix.from_coo(coo)
        part = partition_rows(csr.nrows, 4, row_weights=csr.row_lengths())
        plan = build_plan(csr, part)
        # functional execution
        x = np.random.default_rng(0).normal(size=csr.nrows)
        assert np.allclose(distributed_spmv(plan, x), csr.spmv(x), atol=1e-9)
        # timing simulation from the same plan
        stats = stats_from_plan(plan, itemsize=8, workload_scale=512)
        for mode in ("vector", "naive", "task"):
            res = simulate_mode(mode, stats, C2050(ecc=True), DIRAC_IB)
            assert res.gflops > 0

    def test_fig5_shape_uhbr_like(self):
        """Task mode leads and stays reasonably efficient."""
        coo = generate("UHBR", scale=256)
        s = strong_scaling(
            coo,
            [2, 8],
            device=C2050(ecc=True),
            cost=KernelCost.from_alpha(0.25),
            workload_scale=256,
            matrix_name="UHBR",
        )
        t2 = s.gflops_at("task", 2)
        t8 = s.gflops_at("task", 8)
        assert t8 > 2.0 * t2  # still scaling
        assert s.gflops_at("task", 8) >= s.gflops_at("vector", 8)


class TestSolverPipeline:
    def test_cg_on_distributed_verified_matrix(self):
        """CG on pJDS equals dense solve on the same suite matrix."""
        from repro.matrices import poisson2d

        A = poisson2d(14, 9)
        b = np.random.default_rng(1).normal(size=A.nrows)
        res = conjugate_gradient(convert(A, "pJDS", block_rows=16), b, tol=1e-10)
        assert res.converged
        assert np.allclose(A.todense() @ res.x, b, atol=1e-6)

    def test_lanczos_on_symmetrised_hmep(self):
        """The HMEp use case: ground state of a symmetric Hamiltonian."""
        coo = generate("HMEp", scale=2048, seed=1)
        # symmetrise: H = (A + A^T)/2
        t = coo.transpose()
        import numpy as _np

        from repro.formats import COOMatrix

        rows = _np.concatenate([coo.rows, t.rows])
        cols = _np.concatenate([coo.cols, t.cols])
        vals = _np.concatenate([coo.values * 0.5, t.values * 0.5])
        H = COOMatrix(rows, cols, vals, coo.shape)
        res = lanczos(convert(H, "pJDS"), num_eigenvalues=1, tol=1e-8, max_iter=300)
        dense_min = _np.linalg.eigvalsh(H.todense()).min()
        assert res.ground_state_energy == pytest.approx(dense_min, abs=1e-5)


class TestMemoryFeasibility:
    def test_dlr2_fits_only_with_pjds(self):
        """Paper: DLR2 (DP) fits a C2050 only in pJDS — scale-invariant."""
        coo = generate("DLR2", scale=64)
        dev = C2050().scaled(64)
        er_bytes = convert(coo, "ELLPACK-R").nbytes
        pj_bytes = convert(coo, "pJDS").nbytes
        assert er_bytes > dev.memory_bytes
        assert pj_bytes < dev.memory_bytes
