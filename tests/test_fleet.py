"""Tests for the sharded serve fleet: placement, parity, concurrency, chaos.

Parity discipline: the fleet pins every shard to the same
``csr_scipy`` kernel variant the single-server reference uses, and
row-block results are concatenated in plan order — so the sharded
answer must be *bitwise* identical to the unsharded one, not merely
close.
"""

import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro import obs
from repro.faults import FaultEvent, FaultPlan
from repro.engine import bind
from repro.formats import COOMatrix, convert
from repro.matrices import generate, poisson2d
from repro.obs.slo import SLOMonitor, default_fleet_slos
from repro.kernels.compiled import backend_status
from repro.serve import (
    Client,
    Fleet,
    FleetDegraded,
    FleetRouter,
    MatrixRegistry,
    ShardDown,
    SpMVServer,
)
from repro.serve.fleet import (
    ShardConfig,
    block_name,
    plan_for_shard,
)
from repro.serve import router as router_mod
from repro.serve.router import place_blocks, rendezvous_order
from repro.utils.workers import mp_context

pytestmark = pytest.mark.usefixtures("no_leaks")

VARIANT = "csr_scipy"


def small_csr():
    return convert(poisson2d(24), "CRS")


def suite_csr():
    return convert(generate("sAMG", scale=2048, seed=0), "CRS")


import contextlib


@contextlib.contextmanager
def reference_client(csr, name="ref"):
    reg = MatrixRegistry(tune=False)
    reg.register(name, matrix=csr, variant=VARIANT)
    client = Client(SpMVServer(reg, workers=1))
    try:
        yield client
    finally:
        client.close()


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset_all()
    yield
    obs.disable()
    obs.reset_all()


# ---------------------------------------------------------------------------
# rendezvous placement
# ---------------------------------------------------------------------------
class TestHashRing:
    """The placement order: shard ids ranked by a seeded rendezvous
    hash.  Adding or removing a shard is ranking the changed id set."""

    KEYS = [f"key-{i}" for i in range(300)]
    SHARDS = [0, 1, 2, 3]

    @staticmethod
    def owner(key, shards, seed=0):
        return rendezvous_order(key, shards, seed)[0]

    def test_deterministic_given_seed(self):
        a = [rendezvous_order(k, self.SHARDS, seed=7) for k in self.KEYS]
        b = [rendezvous_order(k, self.SHARDS, seed=7) for k in self.KEYS]
        assert a == b

    def test_seed_changes_layout(self):
        a = [self.owner(k, self.SHARDS, seed=0) for k in self.KEYS]
        b = [self.owner(k, self.SHARDS, seed=1) for k in self.KEYS]
        assert a != b

    def test_preference_covers_all_shards_distinctly(self):
        for key in self.KEYS[:50]:
            pref = rendezvous_order(key, self.SHARDS)
            assert sorted(pref) == [0, 1, 2, 3]

    def test_add_moves_only_keys_to_new_shard(self):
        before = {k: self.owner(k, self.SHARDS) for k in self.KEYS}
        moved = 0
        for k in self.KEYS:
            after = self.owner(k, self.SHARDS + [4])
            if after != before[k]:
                moved += 1
                # stability: a key only ever moves to the new shard
                assert after == 4, (k, before[k], after)
        # expected movement is ~1/5 of keys; assert a generous bound
        assert 0 < moved <= len(self.KEYS) * 0.45

    def test_remove_moves_only_keys_of_removed_shard(self):
        before = {k: self.owner(k, self.SHARDS) for k in self.KEYS}
        for k in self.KEYS:
            after = self.owner(k, [0, 1, 3])
            if before[k] != 2:
                assert after == before[k]
            else:
                assert after != 2

    def test_place_blocks_honors_replication_factor(self):
        order = rendezvous_order("A", self.SHARDS)
        assignment = place_blocks(order, nblocks=6, replicas=2)
        assert len(assignment) == 6
        for replicas in assignment:
            assert len(replicas) == 2
            assert len(set(replicas)) == 2

    def test_replicas_use_chained_declustering(self):
        # consecutive blocks should not all pile onto one replica pair
        order = rendezvous_order("A", self.SHARDS)
        assignment = place_blocks(order, nblocks=4, replicas=2)
        primaries = {r[0] for r in assignment}
        assert len(primaries) > 1


# ---------------------------------------------------------------------------
# scatter/gather parity against the single-server reference
# ---------------------------------------------------------------------------
class TestShardedParity:
    @pytest.mark.parametrize("blocks", [2, 3])
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_spmv_bitwise_equal(self, blocks, replicas):
        csr = small_csr()
        rng = np.random.default_rng(blocks * 10 + replicas)
        x = rng.standard_normal(csr.ncols)
        with reference_client(csr) as ref:
            y_ref = ref.spmv("ref", x)
        with Fleet(3, mode="inproc", workers=1) as fleet:
            router = FleetRouter(fleet, replicas=replicas)
            router.register("A", csr, blocks=blocks)
            y = router.spmv("A", x)
        assert np.array_equal(y, y_ref)

    @pytest.mark.parametrize("blocks", [2, 3])
    def test_spmm_bitwise_equal(self, blocks):
        csr = small_csr()
        rng = np.random.default_rng(blocks)
        X = rng.standard_normal((csr.ncols, 3))
        reg = MatrixRegistry(tune=False)
        reg.register("ref", matrix=csr, variant=VARIANT)
        with reg.acquire("ref") as lease:
            Y_ref = lease.clone_for("t").spmm(X)
        with Fleet(3, mode="inproc", workers=1) as fleet:
            router = FleetRouter(fleet)
            router.register("A", csr, blocks=blocks)
            Y = router.operator("A").apply_block(X)
        assert np.array_equal(Y, Y_ref)

    def test_suite_matrix_parity(self):
        csr = suite_csr()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(csr.ncols)
        with reference_client(csr) as ref:
            y_ref = ref.spmv("ref", x)
        with Fleet(4, mode="inproc", workers=1) as fleet:
            router = FleetRouter(fleet, replicas=2)
            router.register("A", csr)
            assert np.array_equal(router.spmv("A", x), y_ref)

    @pytest.mark.parametrize(
        "shards, replicas, plan",
        [(1, 1, None), (2, 2, "fleet")],
        ids=["shards=1/replicas=1/plan=none", "shards=2/replicas=2/plan=fleet"],
    )
    def test_router_drill_bitwise(self, shards, replicas, plan):
        """A one-shard fleet, and a replicated pair under the ``fleet``
        plan (the last shard killed, shard 0's worker slowed), answer
        with the unsharded bits."""
        csr = small_csr()
        x = np.random.default_rng(0).standard_normal(csr.ncols)
        ref = bind(csr, tune=False, variant=VARIANT).spmv(x)
        with Fleet(shards, mode="inproc", workers=1) as fleet:
            router = FleetRouter(fleet, replicas=replicas)
            router.register("A", csr, blocks=2)
            if plan is not None:
                router.faults = FaultPlan.named(
                    plan, nranks=shards, workers=1, delay_s=0.01
                ).injector()
            y = router.spmv("A", x, timeout=30.0)
            if plan is not None:
                assert router.faults.injected
                assert router.health()["status"] == "degraded"
        assert np.array_equal(y, ref)

    def test_cg_solve_identical_iterates(self):
        # CG over the routed operator must walk the exact same iterate
        # sequence as the single-server solve: bitwise x, same count
        csr = small_csr()
        b = np.ones(csr.ncols)
        with reference_client(csr) as ref:
            res_ref = ref.solve("ref", b, tol=1e-8)
        with Fleet(2, mode="inproc", workers=1) as fleet:
            router = FleetRouter(fleet)
            router.register("A", csr)
            res = router.solve("A", b, tol=1e-8)
        assert res["converged"] and res_ref["converged"]
        assert res["iterations"] == res_ref["iterations"]
        assert np.array_equal(res["x"], res_ref["x"])

    def test_rejects_bad_shapes(self):
        csr = small_csr()
        with Fleet(2, mode="inproc", workers=1) as fleet:
            router = FleetRouter(fleet)
            router.register("A", csr)
            with pytest.raises(ValueError):
                router.spmv("A", np.ones(csr.ncols + 1))
            with pytest.raises(ValueError):
                router.operator("A").apply_block(np.ones((3, csr.ncols)))

    @pytest.mark.parametrize("blocks", [0, -3])
    def test_rejects_fewer_than_one_block(self, blocks):
        csr = small_csr()
        with Fleet(2, mode="inproc", workers=1) as fleet:
            with pytest.raises(ValueError, match="blocks must be >= 1"):
                FleetRouter(fleet, blocks=blocks)
            router = FleetRouter(fleet)
            with pytest.raises(ValueError, match="blocks must be >= 1"):
                router.register("A", csr, blocks=blocks)
            assert router.names() == []

    def test_placement_partitions_by_nnz(self):
        csr = small_csr()
        with Fleet(2, mode="inproc", workers=1) as fleet:
            router = FleetRouter(fleet)
            pl = router.register("A", csr, blocks=2)
            assert pl.nblocks == 2
            (lo0, hi0), (lo1, hi1) = pl.partition
            assert lo0 == 0 and hi1 == csr.nrows and hi0 == lo1
            desc = pl.describe()
            assert len(desc["blocks"]) == 2


# ---------------------------------------------------------------------------
# concurrency: the blocks of one request run on their shards at once
# ---------------------------------------------------------------------------
class TestConcurrency:
    NBLOCKS = 3

    @pytest.mark.parametrize("mode", ["inproc", "process"])
    def test_blocks_of_one_request_overlap(self, mode, monkeypatch):
        """Every shard kernel waits at a barrier for all the others.

        The request can only finish, bitwise, if the router has every
        block kernel in flight at the same time; a router that waited
        for one block before sending the next would break the barrier.
        """
        from repro.engine.bound import BoundMatrix

        if mode == "process":
            ctx = mp_context()
            # a semaphore that only counts arrivals, not ctx.Barrier: a
            # Barrier keeps its state in multiprocessing's heap, whose
            # arena (a /dev/shm file and 2 fds) outlives the test
            arrived = ctx.Semaphore(0)

            def wait_for_every_block():
                arrived.release()
                deadline = time.monotonic() + 10
                while arrived.get_value() < self.NBLOCKS:
                    if time.monotonic() > deadline:
                        raise threading.BrokenBarrierError
                    time.sleep(0.001)
        else:
            wait_for_every_block = threading.Barrier(
                self.NBLOCKS, timeout=10
            ).wait
        csr = small_csr()
        x = np.random.default_rng(11).standard_normal(csr.ncols)
        with reference_client(csr) as ref:
            y_ref = ref.spmv("ref", x)
        real_spmm = BoundMatrix.spmm

        def spmm_after_every_block_arrives(self, X, *args, **kwargs):
            wait_for_every_block()
            return real_spmm(self, X, *args, **kwargs)

        # patched before the fleet exists, so forked shards inherit it
        monkeypatch.setattr(BoundMatrix, "spmm", spmm_after_every_block_arrives)
        with Fleet(self.NBLOCKS, mode=mode, workers=1) as fleet:
            router = FleetRouter(fleet, replicas=1)
            pl = router.register("A", csr, blocks=self.NBLOCKS)
            assert len({r[0] for r in pl.replicas}) == self.NBLOCKS
            y, report = router.spmv_detail("A", x, timeout=60)
        assert report["status"] == "ok"
        assert np.array_equal(y, y_ref)


# ---------------------------------------------------------------------------
# process transport
# ---------------------------------------------------------------------------
class TestProcessShards:
    def test_spmv_parity_across_processes(self):
        csr = small_csr()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(csr.ncols)
        with reference_client(csr) as ref:
            y_ref = ref.spmv("ref", x)
        with Fleet(2, mode="process", workers=1) as fleet:
            router = FleetRouter(fleet)
            router.register("A", csr)
            assert np.array_equal(router.spmv("A", x, timeout=60), y_ref)

    def test_killed_process_fails_over_to_replica(self):
        csr = small_csr()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(csr.ncols)
        with reference_client(csr) as ref:
            y_ref = ref.spmv("ref", x)
        with Fleet(2, mode="process", workers=1) as fleet:
            router = FleetRouter(fleet, replicas=2)
            router.register("A", csr)
            assert np.array_equal(router.spmv("A", x, timeout=60), y_ref)
            fleet.kill(1)
            assert np.array_equal(router.spmv("A", x, timeout=60), y_ref)
            assert router.health()["status"] == "degraded"

    def test_shard_batches_run_the_rank0_spmm(self):
        """Shards bind their blocks untuned: their batches run the
        format's rank-0 spmm kernel and stay bitwise."""
        csr = small_csr()
        rng = np.random.default_rng(3)
        X = rng.standard_normal((csr.ncols, 4))
        with reference_client(csr) as ref:
            y_ref = ref.spmv("ref", X[:, 0])
        reg = MatrixRegistry(tune=False)
        reg.register("ref", matrix=csr, variant=VARIANT)
        with reg.acquire("ref") as lease:
            Y_ref = lease.clone_for("t").spmm(X)
        with Fleet(2, mode="process", workers=1) as fleet:
            router = FleetRouter(fleet)
            router.register("A", csr)
            assert np.array_equal(router.spmv("A", X[:, 0], timeout=60), y_ref)
            Y = router.operator("A").apply_block(X)
            shards = router.stats()["shards"]
        assert np.array_equal(Y, Y_ref)
        spmv = bind(csr, tune=False, variant=VARIANT)
        for j in range(X.shape[1]):
            assert np.array_equal(Y[:, j], spmv.spmv(X[:, j].copy()))
        cnative = backend_status()["cnative"]["available"]
        rank0 = "spmm_csr_cc" if cnative else "spmm_csr"
        rows = [r for s in shards for r in s["registry"]["resident"]]
        assert len(rows) == 2
        for row in rows:
            assert row["variant"] == VARIANT
            assert row["spmm_variant"] == rank0

    def test_shards_fork_from_a_loaded_registry(self):
        """A cold parent loads the kernel registry before it forks a
        shard, so no shard pays for loading it on its first request."""
        import os
        import subprocess

        code = (
            "import repro.ops.registry as registry\n"
            "import repro.serve.fleet as fleet\n"
            "print('cold:', registry._LOADED)\n"
            "real = fleet.mp_context()\n"
            "class Ctx:\n"
            "    Pipe = staticmethod(real.Pipe)\n"
            "    def Process(self, **kw):\n"
            "        print('at fork:', registry._LOADED)\n"
            "        return real.Process(**kw)\n"
            "fleet.mp_context = Ctx\n"
            "with fleet.Fleet(1, mode='process', workers=1):\n"
            "    pass\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        assert out.split("\n")[:2] == ["cold: False", "at fork: True"]

    def test_rectangular_with_an_empty_block_is_bitwise(self):
        # rows 0 and 29 carry every entry: the nnz-balanced 3-way split
        # falls back to even thirds, so block 1 is rows 10..19, all empty
        rng = np.random.default_rng(11)
        cols = np.concatenate([rng.choice(50, 20, replace=False) for _ in range(2)])
        rows = np.repeat([0, 29], 20)
        coo = COOMatrix(rows, cols, rng.standard_normal(40), (30, 50))
        csr = convert(coo, "CRS")
        x = rng.standard_normal(50)
        X = rng.standard_normal((50, 3))
        ref = bind(csr, variant=VARIANT)
        with Fleet(2, mode="process", workers=1) as fleet:
            router = FleetRouter(fleet)
            pl = router.register("A", csr, blocks=3)
            assert pl.block_range(1) == (10, 20)
            assert csr.row_lengths()[10:20].sum() == 0
            assert all(len(c) < csr.ncols for c in pl.cols)
            assert np.array_equal(router.spmv("A", x, timeout=60), ref.spmv(x))
            Y = router.operator("A").apply_block(X)
            assert np.array_equal(Y, ref.spmm(X))
            kb = router.stats()["transport_kb_per_req"]
        # four spmv requests (x, then one per column of X), each sending
        # every block's columns and receiving all 30 rows
        assert kb["x"] == pytest.approx(sum(len(c) for c in pl.cols) * 8 / 1024)
        assert kb["y"] == pytest.approx(30 * 8 / 1024)

    def test_every_request_hedged_stays_bitwise(self):
        # hedge delay 0: each block also goes to its replica at once,
        # and the loser answers into its own slot after the winner
        csr = small_csr()
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((200, csr.ncols))
        ref = bind(csr, variant=VARIANT)
        with Fleet(2, mode="process", workers=1) as fleet:
            router = FleetRouter(fleet, replicas=2, hedge_delay_ms=0)
            router.register("A", csr)
            for x in xs:
                assert np.array_equal(router.spmv("A", x, timeout=60), ref.spmv(x))
            # a block answered before the router looks again is not hedged
            assert router.stats()["hedges"] >= len(xs) // 4

    def test_more_callers_than_cores_share_slots_safely(self):
        # four callers, every request hedged, a short switch interval:
        # a slot handed to a second request before its own reply would
        # mix one caller's x into another's answer
        csr = small_csr()
        rng = np.random.default_rng(8)
        xs = rng.standard_normal((4, 40, csr.ncols))
        ref = bind(csr, variant=VARIANT)
        wrong = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Fleet(2, mode="process", workers=2) as fleet:
                router = FleetRouter(fleet, replicas=2, hedge_delay_ms=0)
                router.register("A", csr)

                def load(j):
                    for x in xs[j]:
                        y = router.spmv("A", x, timeout=60)
                        if not np.array_equal(y, ref.spmv(x)):
                            wrong.append(j)

                threads = [threading.Thread(target=load, args=(j,)) for j in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert router.stats()["requests"]["ok"] == xs.shape[0] * xs.shape[1]
        finally:
            sys.setswitchinterval(interval)
        assert not wrong

    def test_kill_with_requests_in_flight_leaks_nothing(self):
        csr = small_csr()
        rng = np.random.default_rng(6)
        xs = rng.standard_normal((8, csr.ncols))
        ref = bind(csr, variant=VARIANT)
        y_refs = [ref.spmv(x) for x in xs]
        wrong, errors, served = [], [], []
        stop = threading.Event()
        with Fleet(2, mode="process", workers=1) as fleet:
            router = FleetRouter(fleet, replicas=2)
            router.register("A", csr)

            def load(j):
                i = j
                while not stop.is_set():
                    try:
                        y = router.spmv("A", xs[i % 8], timeout=60)
                    except Exception as exc:  # noqa: BLE001 - asserted below
                        errors.append(exc)
                        return
                    served.append(i)
                    if not np.array_equal(y, y_refs[i % 8]):
                        wrong.append(i)
                    i += 1

            threads = [threading.Thread(target=load, args=(j,)) for j in range(2)]
            for t in threads:
                t.start()
            time.sleep(0.3)
            fleet.kill(0)
            time.sleep(0.3)
            stop.set()
            for t in threads:
                t.join(timeout=60)
            assert router.health()["status"] == "degraded"
        assert served and not wrong and not errors


# ---------------------------------------------------------------------------
# degradation: partial answers and hard failures
# ---------------------------------------------------------------------------
class TestDegradedAnswers:
    def test_partial_answer_zero_fills_missing_blocks(self):
        csr = small_csr()
        x = np.ones(csr.ncols)
        with reference_client(csr) as ref:
            y_ref = ref.spmv("ref", x)
        with Fleet(2, mode="inproc", workers=1) as fleet:
            router = FleetRouter(fleet, replicas=1, allow_partial=True)
            pl = router.register("A", csr, blocks=2)
            victim = pl.replicas[1][0]
            fleet.kill(victim)
            y, report = router.spmv_detail("A", x)
        assert report["status"] == "partial"
        assert report["missing_blocks"] == [1]
        lo, hi = pl.block_range(1)
        assert np.all(y[lo:hi] == 0.0)
        ok_lo, ok_hi = pl.block_range(0)
        assert np.array_equal(y[ok_lo:ok_hi], y_ref[ok_lo:ok_hi])

    def test_strict_mode_raises_fleet_degraded(self):
        csr = small_csr()
        with Fleet(2, mode="inproc", workers=1) as fleet:
            router = FleetRouter(fleet, replicas=1, allow_partial=False)
            pl = router.register("A", csr, blocks=2)
            fleet.kill(pl.replicas[0][0])
            with pytest.raises(FleetDegraded):
                router.spmv("A", np.ones(csr.ncols))

    def test_submitting_to_killed_shard_raises_shard_down(self):
        csr = small_csr()
        with Fleet(2, mode="inproc", workers=1) as fleet:
            fleet.shard(0).register_block("A", 0, csr)
            fleet.kill(0)
            with pytest.raises(ShardDown):
                fleet.shard(0).submit("A", 0, np.ones(csr.ncols))
            assert fleet.alive_ids() == [1]


# ---------------------------------------------------------------------------
# hedging
# ---------------------------------------------------------------------------
class TestHedging:
    def test_router_hedges_slow_primary_and_stays_exact(self, monkeypatch):
        from repro.engine.bound import BoundMatrix

        csr = small_csr()
        rng = np.random.default_rng(5)
        x = rng.standard_normal(csr.ncols)
        with reference_client(csr) as ref:
            y_ref = ref.spmv("ref", x)
        # the first shard kernel of the request (one block's primary)
        # is held until the request has returned; every other runs
        held, release = threading.Lock(), threading.Event()
        real_spmm = BoundMatrix.spmm

        def spmm_holding_the_first(self, X, *args, **kwargs):
            if held.acquire(blocking=False):
                assert release.wait(10)
            return real_spmm(self, X, *args, **kwargs)

        monkeypatch.setattr(BoundMatrix, "spmm", spmm_holding_the_first)
        with Fleet(2, mode="inproc", workers=1, max_batch=1) as fleet:
            try:
                router = FleetRouter(fleet, replicas=2, hedge_delay_ms=5.0)
                router.register("A", csr, blocks=2)
                y, report = router.spmv_detail("A", x, timeout=30)
                assert np.array_equal(y, y_ref)
                # the held primary cannot answer, so only a hedge to
                # its replica can have finished the request
                assert report["hedges"] >= 1
                assert router.stats()["hedges"] >= 1
            finally:
                release.set()
            # losers were discarded, not leaked: a second request on a
            # clean fleet still answers exactly
            assert np.array_equal(router.spmv("A", x, timeout=30), y_ref)

    def test_router_absorbs_late_loser_error(self, monkeypatch):
        # a losing hedge whose error lands *after* the win must be
        # swallowed by the discard callback, not raised at the next
        # interaction with the router
        csr = small_csr()
        x = np.ones(csr.ncols)
        absorbed: list = []
        real_absorb = router_mod._absorb

        def absorb(fut):
            real_absorb(fut)
            absorbed.append(fut.exception())

        monkeypatch.setattr(router_mod, "_absorb", absorb)
        with Fleet(2, mode="inproc", workers=1, max_batch=1) as fleet:
            router = FleetRouter(fleet, replicas=2, hedge_delay_ms=1.0)
            pl = router.register("A", csr, blocks=1)
            primary = fleet.shard(pl.replicas[0][0])
            stuck: list[Future] = []
            real_submit = primary.submit

            def submit(key, block, xb, deadline_ms=None):
                if not stuck:
                    fut = Future()
                    fut.set_running_or_notify_cancel()  # uncancellable
                    stuck.append(fut)
                    return fut
                return real_submit(key, block, xb, deadline_ms)

            primary.submit = submit
            y, report = router.spmv_detail("A", x, timeout=30.0)
            assert np.array_equal(y, bind(csr, variant=VARIANT).spmv(x))
            assert report["hedges"] == 1 and report["status"] == "ok"
            assert absorbed == []
            stuck[0].set_exception(RuntimeError("late replica failure"))
            assert len(absorbed) == 1
            assert isinstance(absorbed[0], RuntimeError)
            # the late error reached no caller: the next request is clean
            y2, report2 = router.spmv_detail("A", x, timeout=30.0)
            assert np.array_equal(y2, y) and report2["status"] == "ok"
            assert router.stats()["requests"]["error"] == 0


# ---------------------------------------------------------------------------
# fault-plan routing to shards
# ---------------------------------------------------------------------------
class TestPlanForShard:
    def test_filters_by_shard_and_strips_label(self):
        plan = FaultPlan.named("fleet", nranks=2, workers=1, delay_s=0.01)
        for_zero = plan_for_shard(plan, 0)
        # shard_kill is router-consumed, never shipped to a shard
        assert all(ev.kind != "shard_kill" for ev in for_zero)
        slow = [ev for ev in for_zero if ev.kind == "slow_worker"]
        assert len(slow) == 1
        assert "shard" not in slow[0].labels
        # shard 1 owns nothing after filtering: collapses to no plan
        assert plan_for_shard(plan, 1) is None

    def test_untargeted_events_reach_every_shard(self):
        plan = FaultPlan(
            (FaultEvent("kernel_exception", 0.1, layer="serve"),),
            name="wild",
        )
        for sid in (0, 1, 2):
            kinds = [ev.kind for ev in plan_for_shard(plan, sid)]
            assert kinds == ["kernel_exception"]

    def test_shard_config_is_frozen(self):
        cfg = ShardConfig(shard_id=0)
        with pytest.raises(Exception):
            cfg.shard_id = 1
        assert block_name("A", 2) == "A@2"


# ---------------------------------------------------------------------------
# the chaos drill: shard killed mid-load, SLO fires exactly once
# ---------------------------------------------------------------------------
class TestChaosDrill:
    def test_shard_kill_mid_load_keeps_answers_and_fires_slo_once(self):
        obs.enable()
        csr = small_csr()
        x = np.ones(csr.ncols)
        with reference_client(csr) as ref:
            y_ref = ref.spmv("ref", x)
        monitor = SLOMonitor(
            default_fleet_slos(
                p99_latency_s=30.0,  # only the error-rate SLO may fire
                error_budget=0.001,
                window_s=10.0,
                fast_window_s=2.0,
            )
        )
        # every shard worker rests 0.15 s before taking each batch, so
        # the victim's only worker is still busy with the plug below (or
        # the rest before it) when the kill lands
        slow = FaultPlan(
            (FaultEvent("slow_worker", 0.0, layer="serve", times=0,
                        delay_s=0.15),),
            name="busy-workers",
        )
        fleet = Fleet(2, mode="inproc", workers=1, max_batch=1, faults=slow)
        router = FleetRouter(fleet, replicas=2)
        try:
            pl = router.register("A", csr, blocks=2)
            victim = pl.replicas[0][0]

            monitor.tick(now=0.0)  # baseline for the error-rate deltas
            for _ in range(3):  # healthy phase
                assert np.array_equal(router.spmv("A", x, timeout=30), y_ref)
            monitor.tick(now=1.0)

            # occupy the victim's only worker, then start a request that
            # queues behind it — guaranteed in flight when the kill lands
            plug = fleet.shard(victim).submit("A", 0, x[pl.cols[0]])
            caught = {}

            def in_flight():
                caught["result"] = router.spmv_detail("A", x, timeout=30)

            t = threading.Thread(target=in_flight)
            t.start()
            time.sleep(0.05)
            plan = FaultPlan(
                (
                    FaultEvent(
                        "shard_kill", 0.1, layer="serve",
                        target={"shard": victim},
                    ),
                ),
                name="drill",
            )
            router.faults = plan.injector()
            # this request consumes the kill; it sees the victim down
            # before launching, so it routes cleanly to the survivor
            assert np.array_equal(router.spmv("A", x, timeout=30), y_ref)
            t.join(timeout=30)
            assert not t.is_alive()
            y_deg, report = caught["result"]
            assert np.array_equal(y_deg, y_ref)
            assert report["status"] == "degraded"
            assert report["failovers"] >= 1
            try:  # the plug died with its shard (or just beat the kill)
                plug.result(timeout=5)
            except Exception:
                pass

            monitor.tick(now=2.0)  # degraded traffic lands in this delta
            for _ in range(3):  # recovery phase: replica serves cleanly
                assert np.array_equal(router.spmv("A", x, timeout=30), y_ref)
            for now in (3.0, 4.0, 5.0, 6.0, 7.0):
                monitor.tick(now=now)

            alerts = [
                ev for ev in monitor.events()
                if ev["slo"] == "fleet-error-rate"
            ]
            assert [a["state"] for a in alerts] == ["firing", "resolved"]
            assert router.stats()["failovers"] >= 1
            assert router.health()["status"] == "degraded"
        finally:
            router.close()
            monitor.stop()


# ---------------------------------------------------------------------------
# router stats / health surface
# ---------------------------------------------------------------------------
class TestFleetStats:
    def test_stats_shape(self):
        csr = small_csr()
        with Fleet(2, mode="inproc", workers=1) as fleet:
            router = FleetRouter(fleet, replicas=2)
            router.register("A", csr)
            router.spmv("A", np.ones(csr.ncols))
            stats = router.stats()
        assert stats["fleet"] is True
        assert stats["nshards"] == 2 and stats["replicas"] == 2
        assert stats["requests"]["ok"] == 1
        assert len(stats["shards"]) == 2
        assert "A" in stats["placements"]
        assert stats["latency_ms"] and all(
            v >= 0 for v in stats["latency_ms"].values()
        )

    def test_health_transitions(self):
        with Fleet(2, mode="inproc", workers=1) as fleet:
            router = FleetRouter(fleet)
            assert router.health()["status"] == "ok"
            fleet.kill(0)
            health = router.health()
            assert health["status"] == "degraded"
            assert health["shards_alive"] == [1]
            fleet.kill(1)
            assert router.health()["status"] == "down"
