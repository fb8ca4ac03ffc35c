"""Tests for the distributed extensions: process backend, weak scaling,
communication analysis."""

import numpy as np
import pytest

from repro.distributed import (
    KernelCost,
    analyse_plan,
    build_plan,
    distributed_spmv,
    partition_rows,
    weak_scaling,
)
from repro.formats import CSRMatrix
from repro.gpu import C2050
from repro.matrices import banded_sparse, generate

from _test_common import random_coo

pytestmark = pytest.mark.usefixtures("no_leaks")


class TestProcessBackend:
    @pytest.mark.parametrize("nparts", [1, 3, 4])
    def test_matches_serial(self, nparts):
        csr = CSRMatrix.from_coo(random_coo(60, seed=241, max_row=7))
        plan = build_plan(csr, partition_rows(csr.nrows, nparts))
        x = np.random.default_rng(nparts).normal(size=csr.nrows)
        y = distributed_spmv(plan, x, backend="processes")
        assert np.allclose(y, csr.spmv(x), atol=1e-10)

    def test_matches_thread_backend(self):
        csr = CSRMatrix.from_coo(random_coo(50, seed=242))
        plan = build_plan(csr, partition_rows(csr.nrows, 3))
        x = np.random.default_rng(0).normal(size=csr.nrows)
        yt = distributed_spmv(plan, x, backend="threads")
        yp = distributed_spmv(plan, x, backend="processes")
        assert np.array_equal(yt, yp)

    def test_unknown_backend(self):
        csr = CSRMatrix.from_coo(random_coo(20, seed=243))
        plan = build_plan(csr, partition_rows(20, 2))
        with pytest.raises(ValueError, match="backend"):
            distributed_spmv(plan, np.ones(20), backend="mpi")

    def test_x_shape_checked(self):
        csr = CSRMatrix.from_coo(random_coo(20, seed=244))
        plan = build_plan(csr, partition_rows(20, 2))
        with pytest.raises(ValueError, match="shape"):
            distributed_spmv(plan, np.ones(19), backend="processes")


class TestWeakScaling:
    @pytest.fixture(scope="class")
    def series(self):
        def factory(nodes):
            return banded_sparse(
                200 * nodes, 30, np.full(200 * nodes, 12), seed=nodes
            )

        return weak_scaling(
            factory,
            [1, 2, 4],
            device=C2050(ecc=True),
            cost=KernelCost.from_alpha(0.3),
            workload_scale=64,
            matrix_name="weak",
        )

    def test_throughput_grows(self, series):
        task = series.series("task")
        assert task[1].gflops > 1.5 * task[0].gflops
        assert task[2].gflops > 1.5 * task[1].gflops

    def test_iteration_time_roughly_constant(self, series):
        """The weak-scaling signature: constant time per iteration."""
        task = series.series("task")
        times = [p.iteration_seconds for p in task]
        assert max(times) / min(times) < 1.6

    def test_all_modes_present(self, series):
        for mode in ("vector", "naive", "task"):
            assert len(series.series(mode)) == 3


class TestCommAnalysis:
    def test_banded_matrix_not_comm_bound(self):
        coo = banded_sparse(400, 20, np.full(400, 10), seed=251)
        csr = CSRMatrix.from_coo(coo)
        plan = build_plan(csr, partition_rows(400, 4), with_matrices=False)
        st = analyse_plan(plan)
        assert st.nparts == 4
        assert st.total_nnz == coo.nnz
        assert st.max_neighbors <= 2  # banded: only adjacent ranks
        assert not st.communication_bound

    def test_random_matrix_comm_heavy(self):
        coo = random_coo(200, seed=252, max_row=4, empty_row_fraction=0.0)
        csr = CSRMatrix.from_coo(coo)
        plan = build_plan(csr, partition_rows(200, 8), with_matrices=False)
        st = analyse_plan(plan)
        assert st.max_neighbors == 7  # everyone talks to everyone
        assert st.nonlocal_nnz_fraction > 0.5

    def test_single_rank_no_comm(self):
        csr = CSRMatrix.from_coo(random_coo(50, seed=253))
        plan = build_plan(csr, partition_rows(50, 1), with_matrices=False)
        st = analyse_plan(plan)
        assert st.total_halo_elements == 0
        assert st.comm_to_compute_bytes == 0.0
        assert not st.communication_bound

    def test_dlr1_vs_uhbr_scaling_verdict(self):
        """The Fig. 5 dichotomy, predicted from the plan alone."""
        ratios = {}
        for key, scale in (("DLR1", 128), ("UHBR", 256)):
            coo = generate(key, scale=scale)
            csr = CSRMatrix.from_coo(coo)
            plan = build_plan(
                csr,
                partition_rows(csr.nrows, 16, row_weights=csr.row_lengths()),
                with_matrices=False,
            )
            ratios[key] = analyse_plan(plan).mean_halo_ratio
        assert ratios["DLR1"] > 3 * ratios["UHBR"]

    def test_load_balance_with_weights(self):
        coo = generate("DLR2", scale=512)
        csr = CSRMatrix.from_coo(coo)
        plan = build_plan(
            csr,
            partition_rows(csr.nrows, 8, row_weights=csr.row_lengths()),
            with_matrices=False,
        )
        st = analyse_plan(plan)
        assert st.nnz_imbalance < 1.2
