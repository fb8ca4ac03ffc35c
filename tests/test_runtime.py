"""Tests for the distributed spMVM runtime and its persistent rank pool."""

import multiprocessing as mp

import numpy as np
import pytest

from repro.distributed import (
    RUNTIME_MODES,
    RankPool,
    build_plan,
    distributed_spmv,
    partition_rows,
    rank_spmv,
)
from repro.faults import FaultEvent, FaultPlan, InjectedFault
from repro.formats import CSRMatrix, convert

from _test_common import random_coo

pytestmark = pytest.mark.usefixtures("no_leaks")

BACKENDS = ("threads", "processes")


def _setup(n=80, nparts=4, seed=161, max_row=9):
    csr = CSRMatrix.from_coo(random_coo(n, seed=seed, max_row=max_row))
    return csr, _balanced_plan(csr, nparts)


def _balanced_plan(csr, nparts):
    part = partition_rows(csr.nrows, nparts, row_weights=csr.row_lengths())
    return build_plan(csr, part)


class TestDistributedSpmv:
    @pytest.mark.parametrize("nparts", [1, 2, 3, 5, 8])
    def test_matches_serial(self, nparts):
        """Vector mode runs the unsplit kernel: bitwise serial."""
        csr, plan = _setup(nparts=nparts)
        x = np.random.default_rng(nparts).normal(size=csr.nrows)
        for backend in BACKENDS:
            y = distributed_spmv(plan, x, backend=backend)
            assert np.array_equal(y, csr.spmv(x)), backend

    def test_repeated_calls_stable(self):
        csr, plan = _setup(nparts=4)
        x = np.random.default_rng(0).normal(size=csr.nrows)
        y1 = distributed_spmv(plan, x)
        y2 = distributed_spmv(plan, x)
        assert np.array_equal(y1, y2)

    def test_float32(self):
        csr = CSRMatrix.from_coo(random_coo(40, seed=162, dtype=np.float32))
        plan = build_plan(csr, partition_rows(40, 3))
        x = np.random.default_rng(1).normal(size=40).astype(np.float32)
        y = distributed_spmv(plan, x)
        assert y.dtype == np.float32
        assert np.array_equal(y, csr.spmv(x))

    def test_suite_matrix(self):
        from repro.matrices import generate

        coo = generate("sAMG", scale=512)
        csr = CSRMatrix.from_coo(coo)
        plan = build_plan(csr, partition_rows(csr.nrows, 6, row_weights=csr.row_lengths()))
        x = np.random.default_rng(2).normal(size=csr.nrows)
        assert np.array_equal(distributed_spmv(plan, x), csr.spmv(x))

    def test_wrong_x_shape(self):
        _, plan = _setup()
        with pytest.raises(ValueError, match="shape"):
            distributed_spmv(plan, np.ones(7))

    def test_requires_matrices(self):
        csr = CSRMatrix.from_coo(random_coo(30, seed=163))
        plan = build_plan(csr, partition_rows(30, 2), with_matrices=False)
        with pytest.raises((ValueError, RuntimeError), match="with_matrices|failed"):
            distributed_spmv(plan, np.ones(30))

    def test_block_diagonal_no_messages(self):
        from repro.formats import COOMatrix

        n = 40
        rows = np.arange(n)
        cols = (rows // 10) * 10 + (rows + 1) % 10
        coo = COOMatrix(rows, cols, np.arange(1.0, n + 1), (n, n))
        csr = CSRMatrix.from_coo(coo)
        plan = build_plan(csr, partition_rows(n, 4))
        x = np.random.default_rng(3).normal(size=n)
        assert np.array_equal(distributed_spmv(plan, x), csr.spmv(x))


@pytest.mark.parametrize("backend", BACKENDS)
class TestPersistentPool:
    """One rank pool serves many applies (the former ParallelSpMV contract)."""

    @pytest.fixture(scope="class")
    def csr(self):
        return CSRMatrix.from_coo(random_coo(90, seed=11, max_row=16))

    @pytest.fixture(scope="class")
    def x(self, csr):
        return np.random.default_rng(7).standard_normal(csr.ncols)

    @pytest.mark.parametrize("nworkers", [1, 3])
    def test_vector_mode_bitwise_matches_serial(self, backend, csr, x, nworkers):
        y_serial = csr.spmv(x)
        plan = _balanced_plan(csr, nworkers)
        with RankPool(plan, backend=backend, mode="vector") as op:
            y1 = op.apply(x)
            y2 = op.apply(x)
        assert np.array_equal(y1, y_serial)  # bitwise, any rank count
        assert np.array_equal(y2, y_serial)

    def test_task_mode_matches_to_rounding(self, backend, csr, x):
        plan = _balanced_plan(csr, 3)
        with RankPool(plan, backend=backend, mode="task") as op:
            y = op.apply(x)
        assert np.allclose(y, csr.spmv(x), atol=1e-12)

    def test_accepts_any_format(self, backend, csr, x):
        m = convert(csr.to_coo(), "pJDS")
        plan = _balanced_plan(CSRMatrix.from_coo(m.to_coo()), 2)
        with RankPool(plan, backend=backend) as op:
            assert np.array_equal(op.apply(x), csr.spmv(x))

    def test_out_parameter_and_validation(self, backend, csr, x):
        with RankPool(_balanced_plan(csr, 2), backend=backend) as op:
            out = np.empty(csr.nrows)
            y = op.apply(x, out=out)
            assert y is out
            with pytest.raises(ValueError, match="shape"):
                op.apply(x[:-1])
        with pytest.raises(RuntimeError, match="closed"):
            op.apply(x)

    def test_invalid_mode(self, backend, csr):
        with pytest.raises(ValueError, match="mode"):
            RankPool(_balanced_plan(csr, 2), backend=backend, mode="warp")

    def test_recovers_after_failed_round(self, backend, csr, x):
        """A crashed round (no retry) restarts the workers; the next
        apply on the same operator is bitwise correct."""
        crash = FaultPlan((FaultEvent("rank_crash", 0.1, target={"rank": 1}),))
        with RankPool(
            _balanced_plan(csr, 3), backend=backend, timeout=2.0
        ) as op:
            with pytest.raises(InjectedFault, match="rank_crash"):
                op.run(x, faults=crash.injector())
            assert np.array_equal(op.apply(x), csr.spmv(x))
            # the crashed round's children are gone, the new ones serve
            assert len(mp.active_children()) == (3 if backend == "processes" else 0)


@pytest.mark.parametrize("mode", RUNTIME_MODES)
def test_fresh_x_every_round(mode):
    """The receive buffers are reused across rounds: 20 rounds, each
    with its own x, give every round's own answer on both backends."""
    from repro.matrices import generate

    csr = CSRMatrix.from_coo(generate("sAMG", scale=512))
    plan = _balanced_plan(csr, 3)
    xs = np.random.default_rng(12).standard_normal((20, csr.ncols))
    ys = {}
    for backend in BACKENDS:
        with RankPool(plan, backend=backend, mode=mode) as pool:
            ys[backend] = [pool.run(x) for x in xs]
    for x, y_threads, y_procs in zip(xs, ys["threads"], ys["processes"]):
        assert np.array_equal(y_threads, y_procs)
        if mode == "vector":
            assert np.array_equal(y_threads, csr.spmv(x))
        else:
            assert np.allclose(y_threads, csr.spmv(x), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
def test_task_mode_ranks_hold_no_unsplit_block(backend):
    """Task mode runs each rank's local/nonlocal split, so its ranks keep
    no unsplit copy of their rows (a forked rank would inherit it)."""
    csr, plan = _setup(nparts=3)
    x = np.random.default_rng(13).standard_normal(csr.ncols)
    with RankPool(plan, backend=backend, mode="vector") as pool:
        assert sum(rank.block.nnz for rank in pool.ranks) == csr.nnz
    with RankPool(plan, backend=backend, mode="task") as pool:
        assert all(rank.block is None for rank in pool.ranks)
        assert all(rank.xcols is None for rank in pool.ranks)
        np.testing.assert_allclose(pool.run(x), csr.spmv(x), rtol=1e-12, atol=1e-12)


def test_process_pool_forks_once():
    """20 applies on one process-backed operator: same children, same bits."""
    csr, plan = _setup(nparts=3)
    x = np.random.default_rng(8).normal(size=csr.nrows)
    with RankPool(plan, backend="processes") as op:
        y0 = op.apply(x)
        pids = {p.pid for p in mp.active_children()}
        assert len(pids) == 3
        for _ in range(19):
            assert np.array_equal(op.apply(x), y0)
            assert {p.pid for p in mp.active_children()} == pids
    assert np.array_equal(y0, csr.spmv(x))


class TestRankSpmv:
    def test_single_rank_equivalence(self):
        csr, plan = _setup(nparts=1)
        x = np.random.default_rng(4).normal(size=csr.nrows)
        rp = plan.ranks[0]
        halo = np.zeros(rp.nonlocal_matrix.ncols, dtype=x.dtype)
        assert np.allclose(rank_spmv(rp, x, halo), csr.spmv(x))

    def test_rank_rows_with_manual_halo(self):
        csr, plan = _setup(nparts=3)
        x = np.random.default_rng(5).normal(size=csr.nrows)
        ref = csr.spmv(x)
        for rp in plan.ranks:
            lo, hi = rp.row_range
            if rp.halo_cols is not None and rp.halo_cols.size:
                halo = x[rp.halo_cols]
            else:
                halo = np.zeros(rp.nonlocal_matrix.ncols, dtype=x.dtype)
            y = rank_spmv(rp, x[lo:hi], halo)
            assert np.allclose(y, ref[lo:hi], atol=1e-10)

    def test_stats_only_plan_rejected(self):
        csr = CSRMatrix.from_coo(random_coo(20, seed=164))
        plan = build_plan(csr, partition_rows(20, 2), with_matrices=False)
        with pytest.raises(ValueError, match="with_matrices"):
            rank_spmv(plan.ranks[0], np.ones(plan.ranks[0].local_rows), np.ones(1))


class TestDistributedTimeout:
    """Satellite coverage for the DistributedTimeout taxonomy."""

    @staticmethod
    def _doctored_plan(nparts=2):
        """A plan whose rank 0 expects a halo message nobody will send."""
        import dataclasses

        csr, plan = _setup(nparts=nparts)
        phantom = max(r.rank for r in plan.ranks) + 7
        doctored = dataclasses.replace(
            plan.ranks[0],
            recv_cols={**plan.ranks[0].recv_cols, phantom: np.array([0])},
        )
        return csr, dataclasses.replace(
            plan, ranks=[doctored, *plan.ranks[1:]]
        )

    def test_message_carries_structured_fields(self):
        from repro.distributed import DistributedTimeout

        exc = DistributedTimeout([2, 0], 1.5, "waitall (still expecting [9])")
        assert exc.stuck_ranks == [2, 0]
        assert exc.timeout == 1.5
        assert exc.where == "waitall (still expecting [9])"
        msg = str(exc)
        assert "timed out after 1.5s" in msg
        assert "during waitall (still expecting [9])" in msg
        assert "stuck ranks: 2, 0" in msg

    def test_message_unknown_ranks_placeholder(self):
        from repro.distributed import DistributedTimeout

        assert "stuck ranks: <unknown>" in str(DistributedTimeout([], 2.0, "join"))

    def test_identifies_stuck_rank_and_phase(self):
        from repro.distributed import DistributedTimeout

        csr, bad_plan = self._doctored_plan()
        with pytest.raises(DistributedTimeout) as exc:
            distributed_spmv(bad_plan, np.ones(csr.nrows), timeout=0.2)
        # rank 0 is the one waiting on the phantom sender; depending on
        # who notices first the failure surfaces from the rank's waitall
        # or the driver's join -- both must name rank 0 and the phase.
        assert exc.value.stuck_ranks == [0]
        assert exc.value.where == "join" or exc.value.where.startswith("waitall")
        assert "during" in str(exc.value)
        assert "stuck ranks: 0" in str(exc.value)

    def test_daemon_workers_do_not_leak(self):
        import threading
        import time

        from repro.distributed import DistributedTimeout

        csr, bad_plan = self._doctored_plan()
        with pytest.raises(DistributedTimeout):
            distributed_spmv(bad_plan, np.ones(csr.nrows), timeout=0.2)
        # stuck rank threads are daemons blocked on inbox.get(timeout=...);
        # they drain within one extra timeout period instead of leaking.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            alive = [
                t
                for t in threading.enumerate()
                if t.name.startswith("rank-") and t.is_alive()
            ]
            if not alive:
                break
            assert all(t.daemon for t in alive)  # never non-daemon
            time.sleep(0.05)
        assert not alive
