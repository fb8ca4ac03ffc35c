"""End-to-end request tracing: ids, links, adoption, fork propagation.

The tentpole contract under test: every span carries a ``trace_id``
minted at the front-end and inherited down the stack; a
:class:`~repro.obs.spans.SpanContext` survives pickling, so the
multiprocessing distributed backend ships a request's identity across
the address-space boundary; worker spans travel home over the result
queue and are *adopted* — remapped onto the driver's span-id space
with the cross-process parent link intact; and injected faults
annotate the victim span so ``repro obs trace`` shows them in situ.
"""

import pickle
import threading

import numpy as np
import pytest

from repro import obs
from repro.distributed import build_plan, distributed_spmv, partition_rows
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.plan import FaultEvent
from repro.formats import CSRMatrix
from repro.obs.spans import Span

from _test_common import random_coo

pytestmark = pytest.mark.usefixtures("no_leaks")


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset_all()
    yield
    obs.disable()
    obs.reset_all()


@pytest.fixture
def enabled():
    obs.enable()
    yield


def _setup_plan(n=60, nparts=3, seed=13):
    csr = CSRMatrix.from_coo(random_coo(n, seed=seed, max_row=7))
    part = partition_rows(csr.nrows, nparts, row_weights=csr.row_lengths())
    return csr, build_plan(csr, part)


# ---------------------------------------------------------------------------
# trace ids
# ---------------------------------------------------------------------------


class TestTraceIds:
    def test_root_span_mints_trace(self, enabled):
        with obs.span("root") as sp:
            assert len(sp.trace_id) == 16
            int(sp.trace_id, 16)  # hex

    def test_children_inherit_the_trace(self, enabled):
        with obs.span("a") as a:
            with obs.span("b") as b:
                with obs.span("c") as c:
                    pass
        assert a.trace_id == b.trace_id == c.trace_id
        assert b.parent_id == a.span_id and c.parent_id == b.span_id

    def test_sibling_roots_get_distinct_traces(self, enabled):
        with obs.span("first") as a:
            pass
        with obs.span("second") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_trace_root_honors_caller_id(self, enabled):
        given = "cafe" * 4
        with obs.trace_root("http.spmv", trace_id=given) as sp:
            assert sp.trace_id == given
            with obs.span("inner") as inner:
                pass
        assert inner.trace_id == given

    def test_trace_root_detaches_from_enclosing_span(self, enabled):
        with obs.span("outer") as outer:
            with obs.trace_root("fresh") as fresh:
                pass
        assert fresh.trace_id != outer.trace_id
        assert fresh.parent_id is None

    def test_disabled_records_nothing(self):
        with obs.span("root") as sp:
            pass
        assert obs.current_trace() is None
        assert obs.get_tracer().finished() == []
        assert getattr(sp, "span_id", None) is None


# ---------------------------------------------------------------------------
# context capture / pickling / cross-thread attach
# ---------------------------------------------------------------------------


class TestSpanContext:
    def test_capture_and_pickle_round_trip(self, enabled):
        with obs.span("parent") as sp:
            ctx = obs.capture_context()
        assert ctx.span_id == sp.span_id
        assert ctx.trace_id == sp.trace_id
        rt = pickle.loads(pickle.dumps(ctx))
        assert rt == ctx

    def test_attach_context_across_thread(self, enabled):
        with obs.span("driver") as driver:
            ctx = obs.capture_context()

            def worker():
                with obs.attach_context(ctx):
                    with obs.span("worker.task"):
                        pass

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        task = obs.get_tracer().find("worker.task")[0]
        assert task.parent_id == driver.span_id
        assert task.trace_id == driver.trace_id

    def test_attach_empty_context_detaches(self, enabled):
        with obs.span("front") as front:
            with obs.attach_context(obs.SpanContext(None)):
                with obs.span("detached") as sp:
                    pass
            with obs.span("child") as child:
                pass
        assert sp.parent_id is None and sp.trace_id != front.trace_id
        assert child.parent_id == front.span_id


# ---------------------------------------------------------------------------
# adoption (the cross-process ingest path)
# ---------------------------------------------------------------------------


class TestAdopt:
    # worker ids live in the pid-salted range isolate_forked() sets up,
    # so they are disjoint from driver ids by construction
    _W = 7 << 32

    def test_remaps_internal_ids_keeps_external_parent(self, enabled):
        with obs.span("driver") as driver:
            pass
        tid = driver.trace_id
        shipped = [
            Span("w.root", self._W + 1, driver.span_id, 0.0, 1.0,
                 trace_id=tid),
            Span("w.child", self._W + 2, driver.span_id, 0.0, 0.5,
                 trace_id=tid),
        ]
        assert obs.adopt_spans(shipped) == 2
        w_root = obs.get_tracer().find("w.root")[0]
        w_child = obs.get_tracer().find("w.child")[0]
        assert w_root.span_id != self._W + 1
        assert w_child.span_id != w_root.span_id
        # external parent (the driver span) kept verbatim on both
        assert w_root.parent_id == driver.span_id
        assert w_child.parent_id == driver.span_id

    def test_rewrites_parents_within_the_batch(self, enabled):
        with obs.span("driver") as driver:
            pass
        shipped = [
            Span("w.a", self._W + 1, driver.span_id, 0.0, 1.0,
                 trace_id=driver.trace_id),
            Span("w.b", self._W + 2, self._W + 1, 0.2, 0.8,
                 trace_id=driver.trace_id),
        ]
        obs.adopt_spans(shipped)
        a = obs.get_tracer().find("w.a")[0]
        b = obs.get_tracer().find("w.b")[0]
        assert b.parent_id == a.span_id

    def test_forked_isolation_moves_id_range(self, enabled):
        tr = obs.Tracer()
        with tr.span("x"):
            pass
        tr.isolate_forked()
        assert tr.finished() == []
        assert tr.next_id() >= 1 << 32


# ---------------------------------------------------------------------------
# tree reconstruction + link grafting
# ---------------------------------------------------------------------------


class TestTraceTree:
    def _seed_linked_traces(self):
        """Two request traces sharing one linked batch span."""
        tr = obs.get_tracer()
        req_a = Span("serve.request", tr.next_id(), None, 0.0, 3.0,
                     trace_id="a" * 16, attrs={"matrix": "m"})
        req_b = Span("serve.request", tr.next_id(), None, 0.1, 3.0,
                     trace_id="b" * 16)
        batch = Span("serve.batch", tr.next_id(), None, 1.0, 2.0,
                     trace_id="c" * 16,
                     links=(("a" * 16, req_a.span_id), ("b" * 16, req_b.span_id)))
        kernel = Span("engine.spmm", tr.next_id(), batch.span_id, 1.2, 1.8,
                      trace_id="c" * 16)
        for s in (req_a, req_b, batch, kernel):
            tr.add_finished(s)
        return req_a, req_b, batch, kernel

    def test_linked_batch_grafts_with_descendants(self, enabled):
        req_a, _, batch, kernel = self._seed_linked_traces()
        roots = obs.build_trace("a" * 16)
        assert len(roots) == 1 and roots[0].span.span_id == req_a.span_id
        grafted = roots[0].children[0]
        assert grafted.span.span_id == batch.span_id and grafted.via_link
        assert grafted.children[0].span.span_id == kernel.span_id

    def test_both_request_traces_see_the_shared_batch(self, enabled):
        self._seed_linked_traces()
        for tid in ("a" * 16, "b" * 16):
            text = obs.render_trace(tid)
            assert "serve.batch" in text and "engine.spmm" in text
            assert "~" in text  # via-link marker

    def test_list_traces_and_prefix_resolution(self, enabled):
        self._seed_linked_traces()
        rows = obs.list_traces()
        assert {r["trace_id"] for r in rows} == {"a" * 16, "b" * 16, "c" * 16}
        assert obs.find_trace_id("a" * 4) == "a" * 16
        with pytest.raises(KeyError):
            obs.find_trace_id("dead")
        tr = obs.get_tracer()
        tr.add_finished(Span("x", tr.next_id(), None, 0.0, 1.0,
                             trace_id="ab" + "c" * 14))
        with pytest.raises(ValueError):
            obs.find_trace_id("a")

    def test_jsonl_round_trip_preserves_traces(self, enabled, tmp_path):
        self._seed_linked_traces()
        path = tmp_path / "spans.jsonl"
        obs.write_jsonl(str(path))
        spans = obs.read_spans_jsonl(str(path))
        assert len(spans) == 4
        batch = [s for s in spans if s.name == "serve.batch"][0]
        assert len(batch.links) == 2
        text = obs.render_trace("a" * 16, spans)
        assert "engine.spmm" in text


# ---------------------------------------------------------------------------
# multiprocessing backend propagation (satellite: fork survival)
# ---------------------------------------------------------------------------


class TestProcessBackendPropagation:
    def test_trace_id_survives_fork_and_parent_links_hold(self, enabled):
        csr, plan = _setup_plan()
        x = np.random.default_rng(3).normal(size=csr.ncols)
        with obs.trace_root("test.request") as root:
            y = distributed_spmv(plan, x, backend="processes", timeout=30.0)
        np.testing.assert_allclose(y, csr.spmv(x), rtol=1e-12)

        spans = obs.get_tracer().finished()
        drv = [s for s in spans if s.name == "distributed_spmv"]
        assert len(drv) == 1 and drv[0].trace_id == root.trace_id
        rank_spans = [s for s in spans if s.name == "rank.spmv"]
        assert len(rank_spans) == 3
        by_id = {s.span_id: s for s in spans}
        for s in rank_spans:
            assert s.trace_id == root.trace_id
            # walk to the top: must terminate at the request root
            cur = s
            for _ in range(10):
                if cur.parent_id is None or cur.parent_id not in by_id:
                    break
                cur = by_id[cur.parent_id]
            assert cur.name == "test.request"
        # adopted ids are unique in the driver space
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))
        text = obs.render_trace(root.trace_id)
        assert "distributed_spmv" in text and "rank.spmv" in text

    def test_injected_fault_annotates_victim_across_fork(self, enabled):
        csr, plan = _setup_plan()
        x = np.random.default_rng(4).normal(size=csr.ncols)
        faults = FaultPlan(
            events=(
                FaultEvent(kind="kernel_exception", when=0.1,
                           layer="distributed", target={"rank": 1}),
            ),
            name="test-fork-fault",
        ).injector()
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        with obs.trace_root("test.request") as root:
            y = distributed_spmv(
                plan, x, backend="processes", timeout=30.0,
                faults=faults, retry=retry,
            )
        np.testing.assert_allclose(y, csr.spmv(x), rtol=1e-12)
        assert faults.injected == 1

        spans = obs.get_tracer().finished()
        applied = [s for s in spans if s.name == "fault.applied"]
        assert len(applied) == 1
        assert applied[0].attrs["kind"] == "kernel_exception"
        assert applied[0].attrs["rank"] == 1
        assert applied[0].trace_id == root.trace_id
        # the victim's recovery also lands in the same trace
        recover = [s for s in spans if s.name == "rank.recover"]
        assert recover and all(s.trace_id == root.trace_id for s in recover)
        text = obs.render_trace(root.trace_id)
        assert "fault.applied" in text and "rank.recover" in text

    def test_threads_and_processes_spans_agree(self, enabled):
        csr, plan = _setup_plan()
        x = np.random.default_rng(5).normal(size=csr.ncols)

        def names_for(backend):
            obs.reset_spans()
            with obs.trace_root("r"):
                distributed_spmv(plan, x, backend=backend, timeout=30.0)
            return sorted(
                s.name for s in obs.get_tracer().finished()
                if s.name.startswith("rank.")
            )

        assert names_for("threads") == names_for("processes")
