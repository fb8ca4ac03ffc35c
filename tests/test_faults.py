"""Chaos matrix for repro.faults: deterministic injection + recovery.

The core acceptance grid: (threads, processes) x (vector, task) x fault
kind.  With a retry policy every run recovers to a **bitwise identical**
result; without one every run fails with a *typed* error naming the
faulting rank or edge.  Same seed => same schedule => same injections.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.distributed import (
    HaloExchangeTimeout,
    build_plan,
    distributed_spmv,
    partition_rows,
)
from repro.faults import (
    FAULT_KINDS,
    NAMED_PLANS,
    FaultEvent,
    FaultPlan,
    InjectedFault,
    RetryExhausted,
    RetryPolicy,
    call_with_retry,
)
from repro.formats import CSRMatrix

from _test_common import random_coo

pytestmark = pytest.mark.usefixtures("no_leaks")

BACKENDS = ("threads", "processes")
MODES = ("vector", "task")
RETRY = RetryPolicy(max_attempts=3)


def _setup(n=72, nparts=3, seed=161, max_row=9):
    csr = CSRMatrix.from_coo(random_coo(n, seed=seed, max_row=max_row))
    part = partition_rows(csr.nrows, nparts, row_weights=csr.row_lengths())
    return csr, build_plan(csr, part)


def _one_event_plan(kind, **target):
    delay = 0.01 if kind in ("halo_delay", "slow_worker") else 0.0
    return FaultPlan(
        (FaultEvent(kind, 0.1, target=target, delay_s=delay),), name=f"one:{kind}"
    )


# ---------------------------------------------------------------------------
# fault plans: seeded determinism + schedule semantics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan.generate(42, nranks=4)
        b = FaultPlan.generate(42, nranks=4)
        assert a.events == b.events
        assert a.validate() is a

    def test_different_seeds_differ(self):
        assert FaultPlan.generate(1, nranks=4).events != FaultPlan.generate(
            2, nranks=4
        ).events

    @pytest.mark.parametrize("name", sorted(NAMED_PLANS))
    def test_named_plans_validate(self, name):
        plan = FaultPlan.named(name, nranks=4, workers=2)
        plan.validate()
        assert len(plan) > 0
        assert all(ev.kind in FAULT_KINDS for ev in plan)

    def test_unknown_plan_raises(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            FaultPlan.named("nope")

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meteor_strike", 0.1)

    def test_events_sorted_by_when(self):
        plan = FaultPlan(
            (
                FaultEvent("rank_crash", 0.9, target={"rank": 0}),
                FaultEvent("rank_crash", 0.1, target={"rank": 1}),
            )
        )
        assert [ev.when for ev in plan] == [0.1, 0.9]

    def test_target_matching_is_subset(self):
        ev = FaultEvent("halo_drop", 0.1, target={"rank": 0, "dst": 1})
        assert ev.matches("distributed", rank=0, dst=1)
        assert not ev.matches("distributed", rank=0, dst=2)
        assert not ev.matches("distributed", rank=0)  # dst missing
        assert not ev.matches("serve", rank=0, dst=1)
        wild = FaultEvent("kernel_exception", 0.1, layer="serve")
        assert wild.matches("serve", matrix="A", worker=3)


class TestInjector:
    def test_budget_consumed(self):
        inj = _one_event_plan("rank_crash", rank=0).injector()
        assert inj.take_one("rank_crash", "distributed", "t", rank=0) is not None
        assert inj.take_one("rank_crash", "distributed", "t", rank=0) is None
        assert inj.injected == 1

    def test_unlimited_budget(self):
        plan = FaultPlan((FaultEvent("rank_crash", 0.1, target={"rank": 0}, times=0),))
        inj = plan.injector()
        for _ in range(5):
            assert inj.take_one("rank_crash", "distributed", "t", rank=0) is not None
        assert inj.injected == 5

    def test_unfired_reporting(self):
        plan = FaultPlan.named("smoke", nranks=4)
        inj = plan.injector()
        assert len(inj.unfired()) == len(plan)
        inj.rank_directives(0)
        assert len(inj.unfired()) < len(plan)

    def test_rank_directives_are_plain_data(self):
        inj = FaultPlan.named("smoke", nranks=2).injector()
        for r in range(2):
            for d in inj.rank_directives(r):
                assert isinstance(d, dict) and "kind" in d

    def test_report_shape(self):
        inj = FaultPlan.named("smoke", nranks=4).injector()
        inj.rank_directives(0)
        inj.note_retry("distributed")
        inj.note_recovered("distributed")
        rep = inj.report()
        assert rep["plan"] == "smoke"
        assert rep["retried"] == 1 and rep["recovered"] == 1
        assert sum(rep["injected_by_kind"].values()) == rep["injected"]


# ---------------------------------------------------------------------------
# retry policies
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_capped_exponential(self):
        p = RetryPolicy(max_attempts=5, base_delay_s=0.1, delay_cap_s=0.25)
        assert p.delay(1) == pytest.approx(0.1)
        assert p.delay(2) == pytest.approx(0.2)
        assert p.delay(3) == pytest.approx(0.25)  # capped
        assert p.delay(4) == pytest.approx(0.25)

    def test_jitter_is_deterministic(self):
        p = RetryPolicy(base_delay_s=0.1, jitter_s=0.05, seed=7)
        q = RetryPolicy(base_delay_s=0.1, jitter_s=0.05, seed=7)
        assert [p.delay(i) for i in range(1, 4)] == [q.delay(i) for i in range(1, 4)]
        r = RetryPolicy(base_delay_s=0.1, jitter_s=0.05, seed=8)
        assert [p.delay(i) for i in range(1, 4)] != [r.delay(i) for i in range(1, 4)]

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="budget"):
            RetryPolicy(budget=-1)

    def test_call_with_retry_recovers(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise InjectedFault("kernel_exception", "test")
            return "ok"

        assert (
            call_with_retry(flaky, RetryPolicy(max_attempts=3), site="t") == "ok"
        )
        assert calls["n"] == 3

    def test_call_with_retry_exhausts_with_history(self):
        def always():
            raise InjectedFault("kernel_exception", "test")

        with pytest.raises(RetryExhausted) as e:
            call_with_retry(always, RetryPolicy(max_attempts=2), site="t")
        assert e.value.attempts == 2
        assert len(e.value.history) == 2
        assert all(isinstance(h, InjectedFault) for h in e.value.history)

    def test_non_retryable_propagates_immediately(self):
        calls = {"n": 0}

        def bad():
            calls["n"] += 1
            raise KeyError("not a fault")

        with pytest.raises(KeyError):
            call_with_retry(bad, RetryPolicy(max_attempts=5), site="t")
        assert calls["n"] == 1


# ---------------------------------------------------------------------------
# the chaos matrix: backend x mode x fault plan
# ---------------------------------------------------------------------------

#: (fault plan, expected verdict, target of a ``one:<kind>`` drill,
#: backends).  "recover" means the retried run gives the fault-free
#: bits; "exhaust" means the retry budget dies with a typed
#: RetryExhausted, which is what ``stubborn`` is for.  A process drill
#: is an order of magnitude slower, so that backend runs the composite
#: smoke plan plus one crash and one dropped halo edge.
CHAOS_DRILLS = [
    ("crashes", "recover", None, ("threads",)),
    ("exchange", "recover", None, ("threads",)),
    ("smoke", "recover", None, ("threads", "processes")),
    ("stubborn", "exhaust", None, ("threads",)),
    ("one:rank_crash", "recover", {"rank": 1}, ("threads", "processes")),
    ("one:kernel_exception", "recover", {"rank": 0}, ("threads",)),
    ("one:slow_worker", "recover", {"rank": 2}, ("threads",)),
    ("one:halo_drop", "recover", {"rank": 0, "dst": 1}, ("threads", "processes")),
    ("one:halo_delay", "recover", {"rank": 1, "dst": 0}, ("threads",)),
]

CHAOS_CELLS = [
    pytest.param(
        backend, mode, plan, expect, target,
        id=f"backend={backend}/fault-plan={plan}/mode={mode}",
    )
    for plan, expect, target, backends in CHAOS_DRILLS
    for backend in backends
    for mode in MODES
]


class TestChaosMatrix:
    @pytest.mark.parametrize("backend, mode, plan_name, expect, target", CHAOS_CELLS)
    def test_cell(self, backend, mode, plan_name, expect, target):
        """Every drill recovers bitwise, or exhausts its retries when
        that is the plan's documented verdict (``stubborn``)."""
        _, plan = _setup(nparts=4)
        x = np.random.default_rng(3).normal(size=plan.ncols)
        y_ref = distributed_spmv(plan, x, mode=mode)
        if plan_name.startswith("one:"):
            faults = _one_event_plan(plan_name[len("one:"):], **target)
        else:
            faults = FaultPlan.named(plan_name, nranks=4, delay_s=0.01)
        run = dict(
            backend=backend, mode=mode, faults=faults.injector(), retry=RETRY,
            timeout=4.0 if backend == "processes" else 2.0,
        )
        if expect == "exhaust":
            with pytest.raises(RetryExhausted):
                distributed_spmv(plan, x, **run)
        else:
            assert np.array_equal(distributed_spmv(plan, x, **run), y_ref)

    def test_mode_contracts(self):
        """Vector mode (the unsplit kernel) is bitwise serial on both
        backends; task mode (the split) is bitwise equal across
        backends and matches vector mode to rounding."""
        csr, plan = _setup(nparts=4)
        x = np.random.default_rng(6).normal(size=plan.ncols)
        y = {
            (b, m): distributed_spmv(plan, x, backend=b, mode=m)
            for b in BACKENDS for m in MODES
        }
        for b in BACKENDS:
            assert np.array_equal(y[b, "vector"], csr.spmv(x))
        assert np.array_equal(y["threads", "task"], y["processes", "task"])
        assert np.allclose(y["threads", "task"], y["threads", "vector"], atol=1e-12)

    def test_same_seed_same_injections(self):
        _, plan = _setup()
        x = np.random.default_rng(7).normal(size=plan.ncols)
        fp = FaultPlan.generate(99, nranks=3, delay_s=0.005)
        runs = []
        for _ in range(2):
            inj = fp.injector()
            y = distributed_spmv(
                plan, x, faults=inj, retry=RetryPolicy(max_attempts=4),
                timeout=0.5,
            )
            runs.append((y, inj.injected_by_kind()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    # -- typed failures without retry -----------------------------------
    def test_crash_without_retry_is_typed(self):
        _, plan = _setup()
        x = np.random.default_rng(8).normal(size=plan.ncols)
        inj = _one_event_plan("rank_crash", rank=1).injector()
        with pytest.raises(InjectedFault, match="rank_crash"):
            distributed_spmv(plan, x, faults=inj, timeout=0.5)

    def test_halo_drop_without_retry_names_missing_edge(self):
        _, plan = _setup()
        x = np.random.default_rng(8).normal(size=plan.ncols)
        # pick a real edge of this plan so the drop actually starves
        edges = [
            (p.rank, dst) for p in plan.ranks for dst in p.send_cols
        ]
        assert edges, "test matrix must have at least one halo edge"
        src, dst = edges[0]
        inj = _one_event_plan("halo_drop", rank=src, dst=dst).injector()
        with pytest.raises(HaloExchangeTimeout) as e:
            distributed_spmv(plan, x, faults=inj, timeout=0.3)
        assert e.value.rank == dst
        assert src in e.value.neighbors
        assert e.value.direction == "recv"
        assert e.value.where.startswith("waitall")

    def test_processes_crash_without_retry_is_typed(self):
        _, plan = _setup()
        x = np.random.default_rng(8).normal(size=plan.ncols)
        inj = _one_event_plan("rank_crash", rank=0).injector()
        with pytest.raises(InjectedFault, match="rank_crash"):
            distributed_spmv(
                plan, x, backend="processes", faults=inj, timeout=2.0
            )

    def test_stubborn_crash_exhausts_retries(self):
        _, plan = _setup()
        x = np.random.default_rng(9).normal(size=plan.ncols)
        inj = FaultPlan.named("stubborn", nranks=3).injector()
        with pytest.raises(RetryExhausted) as e:
            distributed_spmv(plan, x, faults=inj, retry=RETRY, timeout=0.5)
        assert e.value.attempts == RETRY.max_attempts
        assert len(e.value.history) == RETRY.max_attempts

    def test_shared_budget_exhausts(self):
        _, plan = _setup(nparts=4)
        x = np.random.default_rng(10).normal(size=plan.ncols)
        inj = FaultPlan.named("crashes", nranks=4).injector()
        with pytest.raises(RetryExhausted, match="budget"):
            distributed_spmv(
                plan, x, faults=inj,
                retry=RetryPolicy(max_attempts=3, budget=1), timeout=0.5,
            )


# ---------------------------------------------------------------------------
# process backend hygiene (the leak regression)
# ---------------------------------------------------------------------------


class TestProcessHygiene:
    def _assert_no_children(self):
        deadline = time.monotonic() + 5.0
        while mp.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not mp.active_children(), (
            f"leaked children: {mp.active_children()}"
        )

    def test_no_leak_after_success(self):
        _, plan = _setup()
        x = np.random.default_rng(1).normal(size=plan.ncols)
        distributed_spmv(plan, x, backend="processes", timeout=5.0)
        self._assert_no_children()

    def test_no_leak_after_crash_failure(self):
        _, plan = _setup()
        x = np.random.default_rng(1).normal(size=plan.ncols)
        inj = _one_event_plan("rank_crash", rank=0).injector()
        with pytest.raises(InjectedFault):
            distributed_spmv(
                plan, x, backend="processes", faults=inj, timeout=2.0
            )
        self._assert_no_children()

    def test_no_leak_after_halo_starvation(self):
        """Dropped halo => stuck children; the driver must reap them."""
        _, plan = _setup()
        x = np.random.default_rng(1).normal(size=plan.ncols)
        edges = [(p.rank, dst) for p in plan.ranks for dst in p.send_cols]
        src, dst = edges[0]
        inj = _one_event_plan("halo_drop", rank=src, dst=dst).injector()
        with pytest.raises(Exception):
            distributed_spmv(
                plan, x, backend="processes", faults=inj, timeout=0.5
            )
        self._assert_no_children()


# ---------------------------------------------------------------------------
# engine + simulator layers
# ---------------------------------------------------------------------------


class TestEngineFaults:
    def test_bound_spmv_fault_and_clone_share_budget(self):
        from repro.engine import bind

        csr, _ = _setup()
        fp = FaultPlan(
            (FaultEvent("kernel_exception", 0.1, layer="engine"),)
        )
        inj = fp.injector()
        bound = bind(csr, variant="csr_scipy", faults=inj)
        clone = bound.clone()
        assert clone.faults is inj
        x = np.random.default_rng(2).normal(size=csr.ncols)
        with pytest.raises(InjectedFault, match="kernel_exception"):
            bound.spmv(x)
        # budget (times=1) is global across clones: the clone now works
        y = clone.spmv(x)
        assert np.array_equal(y, bound.spmv(x))

    def test_retrying_around_engine_fault(self):
        from repro.engine import bind

        csr, _ = _setup()
        inj = FaultPlan(
            (FaultEvent("kernel_exception", 0.1, layer="engine"),)
        ).injector()
        bound = bind(csr, variant="csr_scipy", faults=inj)
        x = np.random.default_rng(2).normal(size=csr.ncols)
        y = call_with_retry(lambda: bound.spmv(x).copy(), RETRY, site="engine")
        ref = bind(csr, variant="csr_scipy").spmv(x)
        assert np.array_equal(y, ref)


class TestSimulatorPerturbation:
    def test_perturbation_slows_simulated_iteration(self):
        from repro.distributed import DIRAC_IB, simulate_mode, stats_from_plan
        from repro.gpu.device import C2050

        _, plan = _setup(nparts=4)
        stats = stats_from_plan(plan)
        base = simulate_mode("task", stats, C2050(), DIRAC_IB)
        fp = FaultPlan(
            (
                FaultEvent("slow_worker", 0.1, layer="sim",
                           target={"rank": 1}, delay_s=1.0),
                FaultEvent("halo_delay", 0.2, layer="sim",
                           target={"rank": 2}, delay_s=2.0),
            )
        )
        inj = fp.injector()
        pert = simulate_mode("task", stats, C2050(), DIRAC_IB, faults=inj)
        assert pert.iteration_seconds > base.iteration_seconds
        markers = [
            iv.label for iv in pert.timeline.intervals if iv.resource == "fault"
        ]
        assert "fault:slow_worker" in markers
        assert "fault:halo_delay" in markers
        assert inj.injected == 2
        # events consumed: a replay with the same injector is clean
        again = simulate_mode("task", stats, C2050(), DIRAC_IB, faults=inj)
        assert again.iteration_seconds == base.iteration_seconds


# ---------------------------------------------------------------------------
# serve layer: degraded mode + client retry (scheduler details in test_serve)
# ---------------------------------------------------------------------------


class TestServeChaos:
    def _server(self, faults=None, workers=2, registry_faults=None):
        from repro.serve import MatrixRegistry, SpMVServer

        csr, _ = _setup()
        reg = MatrixRegistry(faults=registry_faults)
        reg.register("A", matrix=csr, variant="csr_scipy")
        srv = SpMVServer(
            reg, workers=workers, faults=faults
        )
        return csr, srv

    def test_client_retries_registry_load_failure(self):
        from repro.serve import Client, RegistryLoadFailed

        inj = FaultPlan(
            (FaultEvent("registry_load_failure", 0.1, layer="serve"),)
        ).injector()
        csr, srv = self._server(registry_faults=inj)
        try:
            x = np.random.default_rng(0).normal(size=csr.ncols)
            with pytest.raises(RegistryLoadFailed):
                Client(srv).spmv("A", x, timeout=5.0)
            # spec stays registered: a retrying client succeeds
            y = Client(srv, retry=RETRY).spmv("A", x, timeout=5.0)
            assert y.shape == (csr.nrows,)
        finally:
            srv.close()

    def test_all_workers_dead_sheds_to_degraded(self):
        fp = FaultPlan(
            tuple(
                FaultEvent("worker_crash", 0.1 + 0.1 * w, layer="serve",
                           target={"worker": w})
                for w in range(2)
            )
        )
        inj = fp.injector()
        csr, srv = self._server(faults=inj, workers=2)
        try:
            deadline = time.monotonic() + 5.0
            while srv.live_workers > 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert srv.live_workers == 0
            assert srv.degraded
            from repro.engine import bind

            x = np.random.default_rng(0).normal(size=csr.ncols)
            y = srv.spmv("A", x, timeout=5.0)
            # bitwise vs the same kernel variant the server runs
            ref = bind(csr, variant="csr_scipy").spmv(x)
            assert np.array_equal(y, ref)
            stats = srv.stats()
            assert stats["degraded"] is True
            assert stats["degraded_requests"] >= 1
            assert len(stats["worker_deaths"]) == 2
        finally:
            srv.close()

    def test_retried_request_survives_kernel_fault(self):
        from repro.serve import Client

        inj = FaultPlan(
            (FaultEvent("kernel_exception", 0.1, layer="serve"),)
        ).injector()
        csr, srv = self._server(faults=inj, workers=1)
        try:
            x = np.random.default_rng(0).normal(size=csr.ncols)
            y = Client(srv, retry=RETRY).spmv("A", x, timeout=5.0)
            np.testing.assert_allclose(y, csr.spmv(x), rtol=1e-12)
            # the first attempt took the fault; the retry answered
            assert inj.injected_by_kind() == {"kernel_exception": 1}
            requests = srv.stats()["requests"]
            assert requests["error"] == 1 and requests["ok"] == 1
        finally:
            srv.close()


# ---------------------------------------------------------------------------
# CLI + soak
# ---------------------------------------------------------------------------


class TestChaosCLI:
    def test_smoke_plan_exits_zero(self, capsys):
        import io

        from repro.cli import main

        out = io.StringIO()
        rc = main(
            [
                "chaos", "--plan", "smoke", "--backend", "threads",
                "--scale", "512", "--timeout", "2",
            ],
            out=out,
        )
        text = out.getvalue()
        assert rc == 0
        assert "verdict: all faults recovered" in text
        assert "faults_injected_total" in text

    def test_unknown_plan_exits_nonzero(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        assert main(["chaos", "--plan", "no-such-plan"], out=out) == 2
        assert "unknown plan" in out.getvalue()


@pytest.mark.soak
class TestSoak:
    """Long generated schedules; excluded from tier-1 (run with -m soak)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_soak_plan_recovers(self, backend):
        _, plan = _setup(n=120, nparts=4)
        x = np.random.default_rng(11).normal(size=plan.ncols)
        y_ref = distributed_spmv(plan, x)
        inj = FaultPlan.named("soak", nranks=4, delay_s=0.005).injector()
        y = distributed_spmv(
            plan, x, backend=backend, faults=inj,
            retry=RetryPolicy(max_attempts=6), timeout=2.0,
        )
        assert np.array_equal(y, y_ref)
