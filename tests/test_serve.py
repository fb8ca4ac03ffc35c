"""Tests for the repro.serve concurrent SpMV serving subsystem.

Covers the acceptance criteria of the serving PR:

(a) coalescing — N concurrent requests execute as <= ceil(N/max_batch)
    spmm calls, responses bitwise-identical to serial BoundMatrix.spmv
    (variant pinned to the stored-order scipy delegate);
(b) the reject policy fails fast with ServerOverloaded while in-flight
    work completes;
(c) an expired request never reaches a worker;
(d) LRU eviction never touches an in-use (leased) matrix;

plus registry semantics, all three backpressure policies, lifecycle,
the in-process Client (solve/eigsh), the HTTP front-end, and the obs
integration (span parenting + serving metrics).
"""

import http.client
import json
import math
import re
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse

import numpy as np
import pytest

from repro import obs
from repro.engine import bind
from repro.faults import FaultPlan, RetryPolicy
from repro.formats import CSRMatrix, convert
from repro.matrices import poisson2d
from repro.serve import (
    POLICIES,
    Client,
    DeadlineExceeded,
    MatrixNotFound,
    MatrixRegistry,
    ServerClosed,
    ServerOverloaded,
    SpMVServer,
    make_http_server,
)

from _test_common import random_coo

pytestmark = pytest.mark.usefixtures("no_leaks")

#: stored-order scipy delegate: spmv and spmm-by-columns are bitwise equal
VARIANT = "csr_scipy"


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset_all()
    yield
    obs.disable()
    obs.reset_all()


def make_csr(n=60, seed=3, max_row=7):
    return CSRMatrix.from_coo(random_coo(n, seed=seed, max_row=max_row))


def make_csr32(n=60, seed=3, max_row=7):
    coo = random_coo(n, seed=seed, max_row=max_row).astype(np.float32)
    return CSRMatrix.from_coo(coo)


def make_registry(names=("A",), n=60, seed=3, **kw):
    reg = MatrixRegistry(**kw)
    for i, name in enumerate(names):
        reg.register(name, matrix=make_csr(n, seed=seed + i), variant=VARIANT)
    return reg


def vectors(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) for _ in range(k)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_register_needs_exactly_one_source(self):
        reg = MatrixRegistry()
        with pytest.raises(ValueError, match="exactly one"):
            reg.register("A")
        with pytest.raises(ValueError, match="exactly one"):
            reg.register("A", lambda: make_csr(), matrix=make_csr())

    def test_lazy_load_and_hit_counting(self):
        calls = []

        def loader():
            calls.append(1)
            return make_csr()

        reg = MatrixRegistry()
        reg.register("A", loader, variant=VARIANT)
        assert reg.resident() == [] and not calls
        with reg.acquire("A") as lease:
            assert lease.name == "A"
            assert lease.nbytes > 0
        with reg.acquire("A"):
            pass
        assert len(calls) == 1  # loaded once, second acquire is a hit
        assert reg.loads == 1 and reg.hits == 1
        assert reg.resident() == ["A"]

    def test_unknown_matrix_raises_with_hint(self):
        reg = make_registry(("A", "B"))
        with pytest.raises(MatrixNotFound, match=r"'Z'.*'A', 'B'"):
            reg.acquire("Z")

    def test_has_and_names(self):
        reg = make_registry(("B", "A"))
        assert reg.names() == ["A", "B"]
        assert reg.has("A") and not reg.has("Z")

    def test_lru_eviction_under_budget(self):
        reg = make_registry(("A", "B", "C"), n=60)
        with reg.acquire("A") as la:
            per = la.nbytes
        budget = int(per * 2.2)  # room for ~2 matrices
        reg.budget_bytes = budget
        with reg.acquire("B"):
            pass
        with reg.acquire("C"):
            pass
        assert reg.evictions >= 1
        assert reg.resident_bytes <= budget
        assert "C" in reg.resident()  # newest survives

    def test_eviction_never_touches_leased_matrix(self):
        """Acceptance (d): an in-use matrix is never evicted."""
        reg = make_registry(("A", "B", "C"), n=60)
        with reg.acquire("A") as la:
            reg.budget_bytes = int(la.nbytes * 2.2)
            with reg.acquire("B"):
                pass
            with reg.acquire("C"):
                pass
            # A is leased: it must survive even though it is LRU-oldest
            assert "A" in reg.resident()
            assert "B" not in reg.resident()  # idle LRU victim
        # after release, a further load may evict A normally
        assert reg.evictions >= 1

    def test_over_budget_when_everything_leased(self):
        reg = make_registry(("A", "B"), n=60)
        with reg.acquire("A") as la:
            reg.budget_bytes = int(la.nbytes * 1.1)  # < 2 matrices
            with reg.acquire("B"):
                # both leased: correctness beats the bound
                assert set(reg.resident()) == {"A", "B"}
                assert reg.resident_bytes > reg.budget_bytes

    def test_clone_for_caches_per_token(self):
        reg = make_registry()
        with reg.acquire("A") as lease:
            c0 = lease.clone_for(0)
            c0b = lease.clone_for(0)
            c1 = lease.clone_for(1)
        assert c0 is c0b
        assert c0 is not c1
        assert c0.matrix is c1.matrix  # matrix data shared
        assert c0.workspace is not c1.workspace  # scratch private

    def test_release_is_idempotent(self):
        reg = make_registry()
        lease = reg.acquire("A")
        lease.release()
        lease.release()  # no refcount underflow
        with reg.acquire("A"):
            pass

    def test_register_suite_lazy(self):
        reg = MatrixRegistry(tune=False)
        reg.register_suite("amg", "sAMG", scale=48, seed=1)
        assert reg.has("amg") and reg.resident() == []
        with reg.acquire("amg") as lease:
            assert lease.matrix.name == "pJDS"
            assert lease.bound.shape[0] > 0

    def test_stats_snapshot(self):
        reg = make_registry(("A",))
        with reg.acquire("A"):
            s = reg.stats()
        assert s["registered"] == ["A"]
        assert s["resident"][0]["name"] == "A"
        assert s["resident"][0]["refcount"] == 1
        assert s["resident_bytes"] == s["resident"][0]["nbytes"]

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_bytes"):
            MatrixRegistry(budget_bytes=0)


# ---------------------------------------------------------------------------
# coalescing (acceptance a)
# ---------------------------------------------------------------------------
class TestCoalescing:
    def test_batches_coalesce_and_match_serial_bitwise(self):
        """24 queued requests, max_batch=8 -> <= 3 spmm calls, bitwise-equal."""
        csr = make_csr(n=80, seed=11)
        reg = MatrixRegistry()
        reg.register("A", matrix=csr, variant=VARIANT)
        xs = vectors(csr.ncols, 24, seed=2)
        serial = bind(csr, tune=False, variant=VARIANT)
        refs = [serial.spmv(x) for x in xs]

        server = SpMVServer(
            reg, max_batch=8, workers=1, autostart=False
        )
        futures = [server.submit("A", x) for x in xs]
        assert server.queue_depth == 24
        server.start()
        results = [f.result(timeout=10) for f in futures]
        server.close()

        assert server.spmm_calls <= math.ceil(24 / 8)
        assert server.batches_executed == server.spmm_calls
        for got, ref in zip(results, refs):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)  # bitwise

    def test_lone_request_dispatches_at_once(self):
        """A free worker never waits for batch-mates (no batching window)."""
        reg = make_registry()
        with SpMVServer(reg, max_batch=64, workers=1) as server:
            server.spmv("A", np.ones(60), timeout=10)  # warm the clone
            t0 = time.perf_counter()
            y = server.spmv("A", np.ones(60), timeout=10)
            elapsed = time.perf_counter() - t0
        assert y.shape == (60,)
        assert server.spmm_calls == 2  # two single-column batches
        assert elapsed < 0.5

    def test_batches_form_under_load(self, monkeypatch):
        """Requests queued while the only worker is busy form one batch."""
        from repro.engine.bound import BoundMatrix

        entered, release = threading.Event(), threading.Event()
        widths = []
        real_spmm = BoundMatrix.spmm

        def gated_spmm(self, X, *args, **kwargs):
            widths.append(X.shape[1])
            entered.set()
            assert release.wait(10)
            return real_spmm(self, X, *args, **kwargs)

        monkeypatch.setattr(BoundMatrix, "spmm", gated_spmm)
        csr = make_csr()
        reg = MatrixRegistry()
        reg.register("A", matrix=csr, variant=VARIANT)
        xs = vectors(csr.ncols, 6, seed=4)
        serial = bind(csr, tune=False, variant=VARIANT)
        with SpMVServer(reg, max_batch=16, workers=1) as server:
            futures = [server.submit("A", xs[0])]
            assert entered.wait(10)  # the worker is inside the first batch
            futures += [server.submit("A", x) for x in xs[1:]]
            assert server.queue_depth == 5
            release.set()
            results = [f.result(timeout=10) for f in futures]
        assert widths == [1, 5]
        for got, x in zip(results, xs):
            np.testing.assert_array_equal(got, serial.spmv(x))

    def test_batches_are_per_matrix(self):
        reg = make_registry(("A", "B"), n=50, seed=9)
        server = SpMVServer(
            reg, max_batch=16, workers=1, autostart=False
        )
        fa = [server.submit("A", x) for x in vectors(50, 3, seed=1)]
        fb = [server.submit("B", x) for x in vectors(50, 3, seed=2)]
        server.start()
        for f in fa + fb:
            assert f.result(timeout=10).shape == (50,)
        server.close()
        assert server.spmm_calls == 2  # one batch per matrix
        stats = server.stats()
        assert stats["per_matrix"]["A"]["vectors"] == 3
        assert stats["per_matrix"]["B"]["vectors"] == 3

    def test_stats_counts_and_mean_batch_size(self):
        reg = make_registry()
        server = SpMVServer(
            reg, max_batch=4, workers=1, autostart=False
        )
        futures = [server.submit("A", x) for x in vectors(60, 8)]
        server.start()
        for f in futures:
            f.result(timeout=10)
        server.close()
        s = server.stats()
        assert s["requests"]["ok"] == 8
        assert s["batched_vectors"] == 8
        assert s["spmm_calls"] == 2
        assert s["mean_batch_size"] == pytest.approx(4.0)
        assert s["latency_ms"]["count"] == 8
        assert s["latency_ms"]["p50"] is not None

    def test_bad_vector_fails_alone_batch_survives(self):
        reg = make_registry()
        server = SpMVServer(
            reg, max_batch=8, workers=1, autostart=False
        )
        good = [server.submit("A", x) for x in vectors(60, 3)]
        bad = server.submit("A", np.ones(61))  # wrong length
        server.start()
        for f in good:
            assert f.result(timeout=10).shape == (60,)
        with pytest.raises(ValueError):
            bad.result(timeout=10)
        server.close()
        assert server.stats()["requests"]["error"] == 1

    def test_submit_validates_inputs(self):
        reg = make_registry()
        with SpMVServer(reg, autostart=False) as server:
            with pytest.raises(MatrixNotFound):
                server.submit("Z", np.ones(60))
            with pytest.raises(ValueError, match="1-D"):
                server.submit("A", np.ones((60, 2)))
            with pytest.raises(ValueError, match="deadline_ms"):
                server.submit("A", np.ones(60), deadline_ms=0)


# ---------------------------------------------------------------------------
# backpressure (acceptance b)
# ---------------------------------------------------------------------------
class TestBackpressure:
    def test_reject_fails_fast_inflight_completes(self):
        """Acceptance (b): reject raises; already-admitted work finishes."""
        csr = make_csr()
        reg = MatrixRegistry()
        reg.register("A", matrix=csr, variant=VARIANT)
        server = SpMVServer(
            reg,
            max_queue=2,
            policy="reject",
            max_batch=4,
            workers=1,
            autostart=False,
        )
        xs = vectors(60, 2)
        inflight = [server.submit("A", x) for x in xs]
        with pytest.raises(ServerOverloaded, match="queue full"):
            server.submit("A", np.ones(60))
        server.start()
        serial = bind(csr, tune=False, variant=VARIANT)
        for f, x in zip(inflight, xs):
            np.testing.assert_array_equal(f.result(timeout=10), serial.spmv(x))
        server.close()
        s = server.stats()
        assert s["requests"] == {**s["requests"], "ok": 2, "rejected": 1}

    def test_shed_oldest_drops_head_admits_newcomer(self):
        reg = make_registry()
        server = SpMVServer(
            reg,
            max_queue=2,
            policy="shed-oldest",
            workers=1,
            autostart=False,
        )
        f1 = server.submit("A", np.ones(60))
        f2 = server.submit("A", np.ones(60))
        f3 = server.submit("A", np.ones(60))  # sheds f1
        with pytest.raises(ServerOverloaded, match="shed"):
            f1.result(timeout=1)
        assert server.queue_depth == 2
        server.start()
        assert f2.result(timeout=10).shape == (60,)
        assert f3.result(timeout=10).shape == (60,)
        server.close()
        assert server.stats()["requests"]["shed"] == 1

    def test_block_waits_for_space(self):
        reg = make_registry()
        server = SpMVServer(
            reg,
            max_queue=2,
            policy="block",
            workers=1,
            autostart=False,
        )
        server.submit("A", np.ones(60))
        server.submit("A", np.ones(60))
        admitted = []

        def blocked_submit():
            admitted.append(server.spmv("A", np.ones(60), timeout=10))

        t = threading.Thread(target=blocked_submit, daemon=True)
        t.start()
        time.sleep(0.05)
        assert not admitted  # still blocked at admission
        server.start()  # draining the queue unblocks the submitter
        t.join(timeout=10)
        assert len(admitted) == 1 and admitted[0].shape == (60,)
        server.close()

    def test_block_admission_timeout(self):
        reg = make_registry()
        server = SpMVServer(
            reg, max_queue=1, policy="block", autostart=False
        )
        server.submit("A", np.ones(60))
        t0 = time.perf_counter()
        with pytest.raises(ServerOverloaded, match="block timeout"):
            server.submit("A", np.ones(60), admission_timeout_s=0.05)
        assert time.perf_counter() - t0 < 5.0
        server.close(drain=False)

    def test_invalid_policy_rejected(self):
        reg = make_registry()
        with pytest.raises(ValueError, match="policy"):
            SpMVServer(reg, policy="drop-newest")


# ---------------------------------------------------------------------------
# deadlines (acceptance c)
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_expired_request_never_executes(self):
        """Acceptance (c): a request whose deadline passed is never run."""
        reg = make_registry()
        server = SpMVServer(
            reg, max_batch=4, workers=1, autostart=False
        )
        doomed = server.submit("A", np.ones(60), deadline_ms=10)
        time.sleep(0.05)  # let the deadline lapse while workers are off
        server.start()
        with pytest.raises(DeadlineExceeded, match="deadline exceeded"):
            doomed.result(timeout=10)
        server.close()
        assert server.spmm_calls == 0  # never reached a worker
        assert server.stats()["requests"]["expired"] == 1

    def test_each_request_expires_alone(self):
        reg = make_registry()
        server = SpMVServer(
            reg, max_batch=8, workers=1, autostart=False
        )
        doomed = server.submit("A", np.ones(60), deadline_ms=10)
        alive = server.submit("A", np.ones(60))
        time.sleep(0.05)
        server.start()
        assert alive.result(timeout=10).shape == (60,)
        with pytest.raises(DeadlineExceeded):
            doomed.result(timeout=10)
        server.close()
        assert server.stats()["requests"]["ok"] == 1
        assert server.stats()["requests"]["expired"] == 1

    def test_generous_deadline_is_met(self):
        reg = make_registry()
        with SpMVServer(reg, workers=1) as server:
            y = server.spmv("A", np.ones(60), deadline_ms=30_000, timeout=10)
        assert y.shape == (60,)

    def test_degraded_fallback_maps_expiry_to_deadline_exceeded(self):
        """Regression: a request that expires while queued for the
        degraded (all-workers-dead) fallback path must fail with
        :class:`DeadlineExceeded` (504), not a generic ``ServeError``.
        """
        from repro.faults import FaultEvent, FaultPlan

        inj = FaultPlan(
            (FaultEvent("worker_crash", 0.1, layer="serve",
                        target={"worker": 0}),)
        ).injector()
        reg = make_registry()
        server = SpMVServer(
            reg, max_batch=4, workers=1, faults=inj,
            autostart=False,
        )
        try:
            # enqueue, let the deadline lapse with the pool still off,
            # then start: the lone worker dies to the injected crash and
            # the degraded loop inherits an already-expired request
            doomed = server.submit("A", np.ones(60), deadline_ms=10)
            time.sleep(0.05)
            server.start()
            with pytest.raises(DeadlineExceeded, match="deadline exceeded"):
                doomed.result(timeout=10)
            deadline = time.monotonic() + 5.0
            while not server.degraded and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.degraded and server.live_workers == 0
            assert isinstance(doomed.exception(), DeadlineExceeded)
            assert doomed.exception().http_status == 504
            # a live request still completes through the fallback
            y = server.spmv("A", np.ones(60), deadline_ms=30_000, timeout=10)
            assert y.shape == (60,)
            assert server.stats()["requests"]["expired"] >= 1
        finally:
            server.close()


# ---------------------------------------------------------------------------
# lifecycle + concurrency
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_close_drains_pending(self):
        csr = make_csr()
        reg = MatrixRegistry()
        reg.register("A", matrix=csr, variant=VARIANT)
        server = SpMVServer(
            reg, max_batch=4, workers=1, autostart=False
        )
        xs = vectors(60, 3)
        futures = [server.submit("A", x) for x in xs]
        server.start()
        server.close(drain=True)  # forces under-full batch out
        serial = bind(csr, tune=False, variant=VARIANT)
        for f, x in zip(futures, xs):
            np.testing.assert_array_equal(f.result(timeout=1), serial.spmv(x))

    def test_cancelled_queued_request_never_executes(self):
        """A queued future cancelled before a worker takes it is dropped
        (the fleet router discards a queued hedge loser this way)."""
        csr = make_csr()
        reg = MatrixRegistry()
        reg.register("A", matrix=csr, variant=VARIANT)
        server = SpMVServer(reg, max_batch=4, workers=1, autostart=False)
        xs = vectors(60, 2, seed=9)
        doomed = server.submit("A", xs[0])
        assert doomed.cancel()
        alive = server.submit("A", xs[1])
        server.start()
        y = alive.result(timeout=10)
        server.close()
        np.testing.assert_array_equal(
            y, bind(csr, tune=False, variant=VARIANT).spmv(xs[1])
        )
        stats = server.stats()
        assert stats["requests"]["cancelled"] == 1
        assert stats["requests"]["ok"] == 1
        assert stats["batched_vectors"] == 1  # never stacked into a batch
        assert stats["queue_depth"] == 0

    def test_close_without_drain_fails_pending(self):
        reg = make_registry()
        server = SpMVServer(reg, autostart=False)
        f = server.submit("A", np.ones(60))
        server.close(drain=False)
        with pytest.raises(ServerClosed):
            f.result(timeout=1)

    def test_submit_after_close_raises(self):
        reg = make_registry()
        server = SpMVServer(reg, workers=1)
        server.close()
        with pytest.raises(ServerClosed):
            server.submit("A", np.ones(60))
        with pytest.raises(ServerClosed):
            server.start()

    def test_context_manager_closes(self):
        reg = make_registry()
        with SpMVServer(reg, workers=1) as server:
            assert server.spmv("A", np.ones(60), timeout=10).shape == (60,)
        with pytest.raises(ServerClosed):
            server.submit("A", np.ones(60))

    def test_concurrent_clients_all_correct(self):
        """6 threads x 10 requests across 2 workers, all bitwise-correct."""
        csr = make_csr(n=70, seed=21)
        reg = MatrixRegistry()
        reg.register("A", matrix=csr, variant=VARIANT)
        serial = bind(csr, tune=False, variant=VARIANT)
        errors = []

        with SpMVServer(reg, max_batch=8, workers=2) as server:

            def hammer(seed):
                rng = np.random.default_rng(seed)
                for _ in range(10):
                    x = rng.standard_normal(70)
                    y = server.spmv("A", x, timeout=30)
                    if not np.array_equal(y, serial.spmv(x)):
                        errors.append(seed)

            threads = [
                threading.Thread(target=hammer, args=(s,), daemon=True)
                for s in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not errors
        s = server.stats()
        assert s["requests"]["ok"] == 60
        assert s["batches"] <= 60  # at least some coalescing headroom


# ---------------------------------------------------------------------------
# caller runs: a blocking spmv borrows a parked worker instead of queueing
# ---------------------------------------------------------------------------
def wait_parked(server, n, timeout=5.0):
    """Wait until ``n`` workers are parked (idle, borrowable)."""
    deadline = time.monotonic() + timeout
    while len(server._parked) < n:
        assert time.monotonic() < deadline, "workers never parked"
        time.sleep(0.001)


def gate_spmm(monkeypatch):
    """Hold every ``BoundMatrix.spmm`` until released; record who ran it."""
    from repro.engine.bound import BoundMatrix

    entered, release = threading.Event(), threading.Event()
    calls = []
    real_spmm = BoundMatrix.spmm

    def gated_spmm(self, X, *args, **kwargs):
        calls.append((threading.current_thread(), self, X.shape[1]))
        entered.set()
        assert release.wait(10)
        return real_spmm(self, X, *args, **kwargs)

    monkeypatch.setattr(BoundMatrix, "spmm", gated_spmm)
    return entered, release, calls


class TestCallerRuns:
    def test_idle_spmv_runs_on_calling_thread_with_worker_clone(
        self, monkeypatch
    ):
        entered, release, calls = gate_spmm(monkeypatch)
        release.set()
        csr = make_csr()
        reg = MatrixRegistry()
        reg.register("A", matrix=csr, variant=VARIANT)
        x = vectors(csr.ncols, 1, seed=5)[0]
        with SpMVServer(reg, workers=1) as server:
            wait_parked(server, 1)
            y = server.spmv("A", x, timeout=10)
            with reg.acquire("A") as lease:
                clone0 = lease.clone_for(0)
            assert server.queue_depth == 0
            assert server._parked == [0]  # handed back, still asleep
        ((thread, bound, width),) = calls
        assert thread is threading.current_thread()
        assert bound is clone0
        assert width == 1
        np.testing.assert_array_equal(
            y, bind(csr, tune=False, variant=VARIANT).spmv(x)
        )
        stats = server.stats()
        assert stats["requests"]["ok"] == 1
        assert stats["batches"] == stats["inline_batches"] == 1

    def test_submit_while_worker_borrowed_completes_on_hand_back(
        self, monkeypatch
    ):
        entered, release, calls = gate_spmm(monkeypatch)
        csr = make_csr()
        reg = MatrixRegistry()
        reg.register("A", matrix=csr, variant=VARIANT)
        xs = vectors(csr.ncols, 2, seed=6)
        serial = bind(csr, tune=False, variant=VARIANT)
        with SpMVServer(reg, workers=1) as server:
            wait_parked(server, 1)
            inline = {}
            caller = threading.Thread(
                target=lambda: inline.setdefault(
                    "y", server.spmv("A", xs[0], timeout=10)
                ),
                daemon=True,
            )
            caller.start()
            assert entered.wait(10)  # the caller holds worker 0
            fut = server.submit("A", xs[1])
            time.sleep(0.05)
            assert not fut.done() and server.queue_depth == 1
            release.set()
            y1 = fut.result(timeout=10)
            caller.join(10)
        assert [c[0] for c in calls][0] is caller
        assert calls[1][0].name == "serve-worker-0"
        np.testing.assert_array_equal(inline["y"], serial.spmv(xs[0]))
        np.testing.assert_array_equal(y1, serial.spmv(xs[1]))
        assert server.stats()["inline_batches"] == 1

    def test_close_waits_for_inline_batch(self, monkeypatch):
        entered, release, calls = gate_spmm(monkeypatch)
        reg = make_registry()
        server = SpMVServer(reg, workers=1)
        wait_parked(server, 1)
        inline = {}
        caller = threading.Thread(
            target=lambda: inline.setdefault(
                "y", server.spmv("A", np.ones(60), timeout=10)
            ),
            daemon=True,
        )
        caller.start()
        assert entered.wait(10)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        time.sleep(0.05)
        assert closer.is_alive()  # close() waits for the borrowed worker
        with pytest.raises(ServerClosed):
            server.spmv("A", np.ones(60))  # and refuses new work
        release.set()
        closer.join(10)
        assert not closer.is_alive()
        caller.join(10)
        assert inline["y"].shape == (60,)
        assert server.live_workers == 0
        assert server.stats()["requests"]["ok"] == 1

    def test_spmv_queues_when_nothing_is_parked(self):
        reg = make_registry()
        server = SpMVServer(reg, workers=1, autostart=False)
        fut_thread = {}

        def call():
            fut_thread["y"] = server.spmv("A", np.ones(60), timeout=10)

        t = threading.Thread(target=call, daemon=True)
        t.start()
        deadline = time.monotonic() + 5
        while server.queue_depth == 0:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        server.start()
        t.join(10)
        server.close()
        assert fut_thread["y"].shape == (60,)
        assert server.stats()["inline_batches"] == 0

    def test_stress_mixed_inline_and_queued(self):
        """More callers and workers than cores, fast thread switching:
        every request completes once and bitwise, none is lost."""
        import sys

        csr = make_csr(n=70, seed=22)
        reg = MatrixRegistry()
        reg.register("A", matrix=csr, variant=VARIANT)
        serial = bind(csr, tune=False, variant=VARIANT)
        errors = []
        per_thread = 40
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SpMVServer(reg, max_batch=4, workers=3) as server:

                def call(seed):
                    rng = np.random.default_rng(seed)
                    for i in range(per_thread):
                        x = rng.standard_normal(70)
                        if i % 3:
                            y = server.spmv("A", x, timeout=30)
                        else:
                            y = server.submit("A", x).result(timeout=30)
                        if not np.array_equal(y, serial.spmv(x)):
                            errors.append(seed)

                threads = [
                    threading.Thread(target=call, args=(s,), daemon=True)
                    for s in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert not errors
        stats = server.stats()
        assert stats["requests"]["ok"] == 6 * per_thread
        assert stats["batched_vectors"] == 6 * per_thread
        assert stats["inline_batches"] <= stats["batches"]
        assert server.live_workers == 0 and not server._borrowed

    def test_inline_batch_span_is_a_linked_trace_root(self):
        obs.enable()
        reg = make_registry()
        with SpMVServer(reg, workers=1) as server:
            wait_parked(server, 1)
            with obs.span("front") as front:
                server.spmv("A", np.ones(60), timeout=10)
        tracer = obs.get_tracer()
        (batch,) = tracer.find("serve.batch")
        (req,) = tracer.find("serve.request")
        assert batch.parent_id is None and batch.trace_id != front.trace_id
        assert req.parent_id == front.span_id
        assert batch.links == ((front.trace_id, req.span_id),)
        assert batch.thread == threading.current_thread().name


# ---------------------------------------------------------------------------
# round trip: every policy, plain, under the serve fault plan, and traced
# ---------------------------------------------------------------------------
class TestPolicyRoundTrip:
    @pytest.mark.parametrize("run", ["plain", "serve-plan", "traced"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bitwise(self, policy, run):
        """Each policy answers bitwise, also while the ``serve`` plan
        crashes both workers, fails a registry load and raises in a
        kernel; a traced request leaves a ``serve.request`` span."""
        csr = make_csr()
        faults = None
        if run == "serve-plan":
            faults = FaultPlan.named("serve", workers=2).injector()
        if run == "traced":
            obs.enable()
        reg = MatrixRegistry()
        reg.register("A", matrix=csr, variant=VARIANT)
        server = SpMVServer(reg, policy=policy, workers=2, faults=faults)
        try:
            client = Client(server, retry=RetryPolicy(max_attempts=4))
            x = np.random.default_rng(0).standard_normal(csr.ncols)
            y = client.spmv("A", x, timeout=30.0)
        finally:
            server.close()
        assert np.array_equal(y, bind(csr, tune=False, variant=VARIANT).spmv(x))
        if faults is not None:
            assert faults.injected
        if run == "traced":
            from repro.obs.spans import get_tracer

            assert "serve.request" in {s.name for s in get_tracer().finished()}


# ---------------------------------------------------------------------------
# client (solve / eigsh)
# ---------------------------------------------------------------------------
class TestClient:
    @pytest.fixture()
    def client(self):
        reg = MatrixRegistry(tune=False)
        reg.register("poisson", matrix=convert(poisson2d(7), "CRS"))
        server = SpMVServer(reg, workers=1)
        yield Client(server)
        server.close()

    def test_spmv_roundtrip(self, client):
        y = client.spmv("poisson", np.ones(49))
        np.testing.assert_allclose(y, poisson2d(7).spmv(np.ones(49)))

    def test_solve_cg(self, client):
        rng = np.random.default_rng(5)
        b = rng.standard_normal(49)
        res = client.solve("poisson", b, tol=1e-10)
        assert res["converged"]
        dense = poisson2d(7).todense()
        np.testing.assert_allclose(res["x"], np.linalg.solve(dense, b), atol=1e-6)
        assert res["iterations"] > 0 and res["seconds"] >= 0

    def test_solve_unknown_method(self, client):
        with pytest.raises(ValueError, match="unknown solve method"):
            client.solve("poisson", np.ones(49), method="qr")

    def test_eigsh_smallest(self, client):
        res = client.eigsh("poisson", num_eigenvalues=2, tol=1e-8)
        dense = poisson2d(7).todense()
        expect = np.sort(np.linalg.eigvalsh(dense))[:2]
        np.testing.assert_allclose(res["eigenvalues"], expect, atol=1e-6)

    def test_health_and_stats(self, client):
        h = client.health()
        assert h["status"] == "ok"
        assert "poisson" in h["resident"] or h["resident"] == []
        assert client.stats()["policy"] == "block"

    def test_solve_pins_matrix_against_eviction(self):
        reg = MatrixRegistry(tune=False)
        reg.register("poisson", matrix=convert(poisson2d(7), "CRS"))
        server = SpMVServer(reg, workers=1)
        client = Client(server)
        res = client.solve("poisson", np.ones(49))
        assert res["spmv_count"] > 0
        # the lease was released: registry sees no dangling refcount
        assert reg.stats()["resident"][0]["refcount"] == 0
        server.close()


# ---------------------------------------------------------------------------
# HTTP front-end
# ---------------------------------------------------------------------------
class TestHTTP:
    @pytest.fixture()
    def served(self):
        reg = MatrixRegistry(tune=False)
        reg.register("A", matrix=make_csr(), variant=VARIANT)
        reg.register("A32", matrix=make_csr32(), variant=VARIANT)
        reg.register("poisson", matrix=convert(poisson2d(6), "CRS"))
        server = SpMVServer(reg, workers=1)
        client = Client(server)
        httpd = make_http_server(client, port=0)
        t = threading.Thread(target=httpd.serve_forever, daemon=True)
        t.start()
        yield f"http://127.0.0.1:{httpd.server_address[1]}", client
        httpd.shutdown()
        httpd.server_close()
        t.join(timeout=10)
        server.close()

    @pytest.fixture()
    def endpoint(self, served):
        return served[0]

    @staticmethod
    def _post(base, path, payload):
        req = urllib.request.Request(
            base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())

    @staticmethod
    def _post_raw(base, path, data: bytes):
        req = urllib.request.Request(
            base + path, data=data, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read()

    @staticmethod
    def _get(base, path):
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            return resp.status, resp.read()

    @staticmethod
    def _assert_bitwise(got, want):
        got = np.asarray(got, dtype=np.float64)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_spmv_roundtrip(self, endpoint):
        csr = make_csr()
        x = np.arange(60, dtype=np.float64)
        status, body = self._post(endpoint, "/v1/spmv", {"matrix": "A", "x": x.tolist()})
        assert status == 200
        assert body["matrix"] == "A" and body["n"] == 60
        serial = bind(csr, tune=False, variant=VARIANT)
        np.testing.assert_array_equal(np.asarray(body["y"]), serial.spmv(x))

    def test_unknown_matrix_is_404(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(endpoint, "/v1/spmv", {"matrix": "Z", "x": [1.0]})
        assert exc.value.code == 404
        body = json.loads(exc.value.read())
        assert body["type"] == "MatrixNotFound"

    def test_bad_request_is_400(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(endpoint, "/v1/spmv", {"matrix": "A"})  # no x
        exc.value.close()
        assert exc.value.code == 400

    def test_solve_cg(self, endpoint):
        status, body = self._post(
            endpoint,
            "/v1/solve",
            {"matrix": "poisson", "b": [1.0] * 36, "tol": 1e-10},
        )
        assert status == 200
        assert body["converged"] and body["method"] == "cg"
        dense = poisson2d(6).todense()
        np.testing.assert_allclose(
            np.asarray(body["x"]), np.linalg.solve(dense, np.ones(36)), atol=1e-6
        )

    def test_solve_lanczos(self, endpoint):
        status, body = self._post(
            endpoint,
            "/v1/solve",
            {"matrix": "poisson", "method": "lanczos", "num_eigenvalues": 1},
        )
        assert status == 200
        smallest = np.sort(np.linalg.eigvalsh(poisson2d(6).todense()))[0]
        np.testing.assert_allclose(body["eigenvalues"][0], smallest, atol=1e-6)

    def test_healthz(self, endpoint):
        status, raw = self._get(endpoint, "/healthz")
        body = json.loads(raw)
        assert status == 200 and body["status"] == "ok"
        assert body["uptime_s"] >= 0

    def test_keep_alive_replies_do_not_wait_for_delayed_acks(self, endpoint):
        """Head and body go out in one send: a small reply written in two
        waits for the client's delayed ACK (about 40 ms on Linux) before
        its body leaves, so 11 replies on one connection would take
        about half a second."""
        url = urlparse(endpoint)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
        try:
            t0 = time.perf_counter()
            for path, status in [("/healthz", 200)] * 10 + [("/nope", 404)]:
                conn.request("GET", path)
                resp = conn.getresponse()
                assert resp.status == status
                assert json.loads(resp.read())
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        assert elapsed < 0.1, f"11 keep-alive replies took {elapsed * 1e3:.0f} ms"

    def test_statz(self, endpoint):
        self._post(endpoint, "/v1/spmv", {"matrix": "A", "x": [0.0] * 60})
        status, raw = self._get(endpoint, "/statz")
        body = json.loads(raw)
        assert status == 200
        assert body["requests"]["ok"] >= 1
        assert "A" in body["registry"]["registered"]

    def test_statz_prometheus(self, endpoint):
        obs.enable()
        self._post(endpoint, "/v1/spmv", {"matrix": "A", "x": [0.0] * 60})
        status, raw = self._get(endpoint, "/statz?format=prometheus")
        text = raw.decode()
        assert status == 200
        assert "serve_requests_total" in text
        assert 'quantile="0.5"' in text  # the Summary exposition

    def test_unknown_endpoint_404(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(endpoint, "/v2/nothing")
        exc.value.close()
        assert exc.value.code == 404

    # -- wire contract: replies parse (stdlib json) to today's doubles ----
    def test_spmv_reply_is_bitwise_through_stdlib_json(self, endpoint):
        rng = np.random.default_rng(7)
        x = np.concatenate([[-0.0, 5e-324, 1e16, 1e-7], rng.standard_normal(56)])
        status, body = self._post(endpoint, "/v1/spmv", {"matrix": "A", "x": x.tolist()})
        assert status == 200
        want = bind(make_csr(), tune=False, variant=VARIANT).spmv(x)
        self._assert_bitwise(body["y"], want)

    def test_float32_matrix_replies_float64_of_its_result(self, endpoint):
        # float32 shortest digits would parse to other doubles than the
        # float64 values the reply has always carried
        x = np.random.default_rng(8).standard_normal(60)
        status, body = self._post(endpoint, "/v1/spmv", {"matrix": "A32", "x": x.tolist()})
        assert status == 200
        y32 = bind(make_csr32(), tune=False, variant=VARIANT).spmv(x)
        assert y32.dtype == np.float32
        self._assert_bitwise(body["y"], y32.astype(np.float64))

    def test_nan_in_x_is_accepted_and_echoed_as_nan_tokens(self, endpoint):
        x = np.ones(60)
        x[make_csr().to_coo().cols[0]] = np.nan
        raw = json.dumps({"matrix": "A", "x": x.tolist()}).encode()
        assert b"NaN" in raw  # the stdlib token, which strict JSON parsers reject
        status, reply = self._post_raw(endpoint, "/v1/spmv", raw)
        assert status == 200
        assert b"NaN" in reply and b"null" not in reply
        y = np.asarray(json.loads(reply)["y"])
        assert np.isnan(y).any()
        np.testing.assert_array_equal(
            y, bind(make_csr(), tune=False, variant=VARIANT).spmv(x)
        )

    def test_malformed_body_is_400(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post_raw(endpoint, "/v1/spmv", b'{"matrix": "A", "x": [1.0,')
        assert exc.value.code == 400
        assert "error" in json.loads(exc.value.read())

    def test_untraced_reply_layout(self, endpoint):
        # perfbench's serve-http workload (split_seconds) strips the
        # trailing '"seconds": <float>}' by byte search before it
        # verifies a reply: that layout is part of the wire contract
        x = np.arange(60, dtype=np.float64)
        status, raw = self._post_raw(
            endpoint, "/v1/spmv", json.dumps({"matrix": "A", "x": x.tolist()}).encode()
        )
        assert status == 200
        assert raw.startswith(b'{"matrix": "A", "y": [')
        assert re.search(rb', "n": 60, "seconds": [0-9.e+-]+\}$', raw)
        i = raw.rfind(b'"seconds": ')
        assert float(raw[i + 11:].rstrip(b"} \n")) == json.loads(raw)["seconds"]
        assert b"trace_id" not in raw

    def test_solve_replies_are_bitwise_against_the_client(self, served):
        base, client = served
        b = np.random.default_rng(9).standard_normal(36)
        status, body = self._post(
            base, "/v1/solve", {"matrix": "poisson", "b": b.tolist(), "tol": 1e-10}
        )
        assert status == 200
        self._assert_bitwise(body["x"], client.solve("poisson", b, tol=1e-10)["x"])
        status, body = self._post(
            base,
            "/v1/solve",
            {"matrix": "poisson", "method": "lanczos", "num_eigenvalues": 2},
        )
        assert status == 200
        want = client.eigsh("poisson", num_eigenvalues=2)
        self._assert_bitwise(body["eigenvalues"], np.asarray(want["eigenvalues"]))
        self._assert_bitwise(body["residual_norms"], np.asarray(want["residual_norms"]))

    def test_encoder_keeps_stdlib_values(self):
        from repro.serve.http import _dumps

        v = np.array([-0.0, 5e-324, 1e16, 1e-7, 1e308, -2.5, 1 / 3])
        f32 = (np.arange(1, 8, dtype=np.float32) / 3)[::-1]  # strided float32
        payload = {"a": v, "b": f32, "c": np.array([np.inf, -np.inf, np.nan]), "k": 1}
        got = json.loads(_dumps(payload))
        want = json.loads(
            json.dumps({k: u.tolist() if k in "abc" else u for k, u in payload.items()})
        )
        assert list(got) == list(want)
        for key in "abc":
            self._assert_bitwise(got[key], np.asarray(want[key], dtype=np.float64))
        assert got["k"] == 1
        assert _dumps({"s": "x", "n": None}) == json.dumps({"s": "x", "n": None}).encode()


# ---------------------------------------------------------------------------
# obs integration
# ---------------------------------------------------------------------------
class TestObsIntegration:
    def test_metrics_and_span_parenting(self):
        obs.enable()
        reg = make_registry()
        server = SpMVServer(
            reg, max_batch=4, workers=1, autostart=False
        )
        futures = [server.submit("A", x) for x in vectors(60, 4)]
        server.start()
        for f in futures:
            f.result(timeout=10)
        server.close()

        reg_metrics = obs.get_registry()
        ok = reg_metrics.get("serve_requests_total").labels(matrix="A", status="ok")
        assert ok.value == 4
        assert reg_metrics.get("serve_batches_total").labels(matrix="A").value == 1
        assert reg_metrics.get("serve_queue_depth").labels().value == 0

        from repro.obs.spans import get_tracer

        tracer = get_tracer()
        batches = [s for s in tracer.finished() if s.name == "serve.batch"]
        requests = [s for s in tracer.finished() if s.name == "serve.request"]
        assert len(batches) == 1 and len(requests) == 4
        # one batch span *linking* the 4 request spans, each request
        # span in its own trace (bare submits mint one trace each)
        batch = batches[0]
        linked = {sid for _, sid in batch.links}
        traces = set()
        for s in requests:
            assert s.span_id in linked  # the batch links back to it
            assert s.trace_id
            traces.add(s.trace_id)
            assert s.start <= s.end
            assert s.attrs["matrix"] == "A"
        assert len(traces) == 4
        assert {t for t, _ in batch.links} == traces
        # each request's causal tree reaches the shared batch + kernel
        for s in requests:
            tree = obs.render_trace(s.trace_id)
            assert "serve.batch" in tree and "engine.spmm" in tree

    def test_latency_summary_in_prometheus_text(self):
        obs.enable()
        reg = make_registry()
        with SpMVServer(reg, workers=1) as server:
            server.spmv("A", np.ones(60), timeout=10)
        text = obs.prometheus_text()
        assert "serve_request_seconds" in text
        assert "serve_request_seconds_count" in text
        assert 'quantile="0.99"' in text

    def test_server_stats_work_with_obs_disabled(self):
        reg = make_registry()
        with SpMVServer(reg, workers=1) as server:
            server.spmv("A", np.ones(60), timeout=10)
        s = server.stats()
        assert s["requests"]["ok"] == 1
        assert s["latency_ms"]["p95"] is not None
