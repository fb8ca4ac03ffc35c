"""Tests for the repro.obs observability layer.

Covers the metrics registry (counters/gauges/log-bucketed histograms),
span parenting across the threaded distributed runtime, the
Timeline->span bridge, the Chrome trace-event schema, the Prometheus
text round-trip and the zero-cost-when-disabled guarantee.
"""

import io
import json
import math
import threading

import numpy as np
import pytest

from repro import obs
from repro.distributed import build_plan, distributed_spmv, partition_rows
from repro.formats import CSRMatrix

from _test_common import random_coo

pytestmark = pytest.mark.usefixtures("no_leaks")


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts disabled with empty registry/tracer."""
    obs.disable()
    obs.reset_all()
    yield
    obs.disable()
    obs.reset_all()


@pytest.fixture
def enabled():
    obs.enable()
    yield


def _setup_plan(n=80, nparts=4, seed=161):
    csr = CSRMatrix.from_coo(random_coo(n, seed=seed, max_row=9))
    part = partition_rows(csr.nrows, nparts, row_weights=csr.row_lengths())
    return csr, build_plan(csr, part)


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_inc(self, enabled):
        fam = obs.counter("requests_total", "help text")
        fam.inc(2, route="a")
        fam.inc(3, route="a")
        fam.inc(1, route="b")
        assert fam.labels(route="a").value == 5
        assert fam.labels(route="b").value == 1

    def test_counter_rejects_negative(self, enabled):
        with pytest.raises(ValueError):
            obs.counter("c_total").labels().inc(-1)

    def test_gauge_set(self, enabled):
        obs.set_gauge("residual", 0.5, solver="cg")
        obs.set_gauge("residual", 0.25, solver="cg")
        assert obs.get_registry().get("residual").labels(solver="cg").value == 0.25

    def test_kind_conflict(self, enabled):
        obs.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            obs.get_registry().gauge("x_total")

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            obs.counter("bad name")
        with pytest.raises(ValueError):
            obs.counter("1bad")

    def test_module_shortcuts_noop_when_disabled(self):
        obs.inc("nope_total", 5)
        obs.set_gauge("nope", 5)
        obs.observe("nope_hist", 5)
        assert obs.get_registry().families() == []

    def test_thread_safety(self, enabled):
        fam = obs.counter("race_total")

        def work():
            for _ in range(1000):
                fam.inc(1, t="x")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # CPython dict/float += under the GIL; children created once
        assert fam.labels(t="x").value == 4000


class TestHistogram:
    def test_bucket_boundaries(self, enabled):
        h = obs.histogram("lat_seconds").labels()
        # exact powers of two land in their own bucket (le is inclusive)
        h.observe(1.0)
        h.observe(2.0)
        h.observe(2.1)  # -> le=4
        h.observe(0.5)  # -> le=0.5
        buckets = dict(h.buckets())
        assert buckets[1.0] == 2  # cumulative: 0.5 and 1.0
        assert buckets[2.0] == 3
        assert buckets[4.0] == 4
        assert buckets[math.inf] == 4

    def test_exponents_exact_at_boundaries(self):
        h = obs.Histogram()
        for k in range(-10, 11):
            v = 2.0 ** k
            assert h.bucket_exponent(v) == k, v
            assert h.bucket_exponent(v * 1.001) == k + 1

    def test_underflow_bucket(self, enabled):
        h = obs.histogram("h").labels()
        h.observe(0.0)
        h.observe(-3.0)
        h.observe(4.0)
        buckets = h.buckets()
        assert buckets[-1] == (math.inf, 3)
        # the two non-positive observations are cumulative below 4.0
        assert any(b < 4.0 and c == 2 for b, c in buckets)

    def test_sum_count_mean(self, enabled):
        h = obs.histogram("h2").labels()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(6.0)
        assert h.mean == pytest.approx(2.0)

    def test_custom_growth(self):
        h = obs.Histogram(growth=10.0)
        h.observe(5.0)  # -> le = 10
        h.observe(50.0)  # -> le = 100
        bounds = [b for b, _ in h.buckets()]
        assert 10.0 in bounds and 100.0 in bounds


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_same_thread(self, enabled):
        with obs.span("outer") as o:
            with obs.span("inner") as i:
                pass
        spans = {s.name: s for s in obs.get_tracer().finished()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert o.span_id == spans["outer"].span_id
        assert i.duration >= 0.0

    def test_null_span_when_disabled(self):
        with obs.span("ghost") as sp:
            sp.set_attr("k", "v")
        assert obs.get_tracer().finished() == []
        assert sp.span_id is None

    def test_cross_thread_parenting(self, enabled):
        got = {}

        def worker(ctx):
            with obs.attach_context(ctx):
                with obs.span("child") as sp:
                    got["parent"] = sp.parent_id

        with obs.span("root") as root:
            ctx = obs.capture_context()
            t = threading.Thread(target=worker, args=(ctx,))
            t.start()
            t.join()
        assert got["parent"] == root.span_id

    def test_concurrent_threads_isolated(self, enabled):
        """Two threads' span stacks must not interleave."""
        barrier = threading.Barrier(2)

        def worker(name):
            with obs.span(name):
                barrier.wait()
                with obs.span(f"{name}.inner"):
                    pass

        ts = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        spans = {s.name: s for s in obs.get_tracer().finished()}
        assert spans["t0.inner"].parent_id == spans["t0"].span_id
        assert spans["t1.inner"].parent_id == spans["t1"].span_id


class TestDistributedSpans:
    def test_rank_spans_parent_under_root(self, enabled):
        csr, plan = _setup_plan(nparts=4)
        x = np.random.default_rng(0).normal(size=csr.nrows)
        distributed_spmv(plan, x)
        spans = obs.get_tracer().finished()
        roots = [s for s in spans if s.name == "distributed_spmv"]
        assert len(roots) == 1
        root = roots[0]
        for name in ("rank.gather", "rank.send", "rank.waitall", "rank.spmv"):
            children = [s for s in spans if s.name == name]
            assert len(children) == 4, name
            assert all(c.parent_id == root.span_id for c in children)
            assert sorted(c.attrs["rank"] for c in children) == [0, 1, 2, 3]

    def test_halo_bytes_counter(self, enabled):
        csr, plan = _setup_plan(nparts=3)
        x = np.random.default_rng(1).normal(size=csr.nrows)
        distributed_spmv(plan, x)
        fam = obs.get_registry().get("halo_bytes_sent")
        assert fam is not None
        total = sum(child.value for _, child in fam.samples())
        expected = 8 * sum(
            idx.size for p in plan.ranks for idx in p.send_cols.values()
        )
        assert total == expected

    def test_timeline_bridge(self, enabled):
        from repro.distributed import (
            DIRAC_IB,
            KernelCost,
            simulate_mode,
            stats_from_plan,
        )
        from repro.gpu import C2050

        csr, plan = _setup_plan(nparts=4)
        stats = stats_from_plan(plan, itemsize=8)
        simulate_mode("task", stats, C2050(), DIRAC_IB, KernelCost.from_alpha(0.25))
        spans = obs.get_tracer().finished()
        root = next(s for s in spans if s.name == "distributed_spmv")
        children = [s for s in spans if s.parent_id == root.span_id]
        # every rank contributes spans on gpu, pcie and thread0 tracks
        per_rank = {}
        for s in children:
            per_rank.setdefault(s.attrs["rank"], set()).add(s.attrs["resource"])
        assert set(per_rank) == {0, 1, 2, 3}
        for resources in per_rank.values():
            assert {"gpu", "pcie", "thread0"} <= resources


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


class TestChromeTrace:
    def test_schema(self, enabled):
        csr, plan = _setup_plan(nparts=2)
        distributed_spmv(plan, np.ones(csr.nrows))
        doc = obs.chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete, "no complete events exported"
        for e in doc["traceEvents"]:
            assert e["ph"] in ("X", "M")
            assert "pid" in e and "tid" in e and "name" in e
            if e["ph"] == "X":
                assert isinstance(e["ts"], float) and e["ts"] >= 0.0
                assert isinstance(e["dur"], float) and e["dur"] >= 0.0

    def test_json_serializable_and_writer(self, enabled, tmp_path):
        with obs.span("work", rank=1, resource="gpu"):
            pass
        path = tmp_path / "trace.json"
        n = obs.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n
        ev = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert ev["pid"] == 1 and ev["tid"] == "gpu"

    def test_rank_tracks(self, enabled):
        with obs.span("a", rank=3, resource="nic"):
            pass
        doc = obs.chrome_trace()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {e["name"] for e in meta}


class TestPrometheus:
    def test_exposition_contains_types_and_help(self, enabled):
        obs.counter("spmv_bytes_total", "traffic").inc(10, format="pJDS")
        text = obs.prometheus_text()
        assert "# HELP spmv_bytes_total traffic" in text
        assert "# TYPE spmv_bytes_total counter" in text
        assert 'spmv_bytes_total{format="pJDS"} 10' in text

    def test_round_trip(self, enabled):
        obs.counter("bytes_total").inc(1024, src="val", fmt="pJDS")
        obs.gauge("ratio").set(0.8184, kind="l2")
        h = obs.histogram("lat").labels(op="spmv")
        for v in (0.5, 1.0, 3.0):
            h.observe(v)
        text = obs.prometheus_text()
        parsed = obs.parse_prometheus_text(text)
        assert parsed["bytes_total"]["kind"] == "counter"
        key = (("fmt", "pJDS"), ("src", "val"))
        assert parsed["bytes_total"]["samples"][("bytes_total", key)] == 1024
        assert parsed["ratio"]["samples"][
            ("ratio", (("kind", "l2"),))
        ] == pytest.approx(0.8184)
        hist = parsed["lat"]
        assert hist["kind"] == "histogram"
        assert hist["samples"][("lat_count", (("op", "spmv"),))] == 3
        assert hist["samples"][("lat_sum", (("op", "spmv"),))] == pytest.approx(4.5)
        inf_key = (("le", "+Inf"), ("op", "spmv"))
        assert hist["samples"][("lat_bucket", inf_key)] == 3

    def test_label_escaping(self, enabled):
        obs.counter("esc_total").inc(1, path='a"b\\c')
        text = obs.prometheus_text()
        assert r"a\"b\\c" in text


class TestJsonl:
    def test_spans_and_metrics_lines(self, enabled):
        with obs.span("s", rank=0):
            obs.inc("c_total", 1)
        buf = io.StringIO()
        n = obs.write_jsonl(buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(lines) == n == 2
        kinds = {rec["type"] for rec in lines}
        assert kinds == {"span", "metric"}


# ---------------------------------------------------------------------------
# zero-cost / bit-identical when disabled
# ---------------------------------------------------------------------------


class TestDisabledIsFree:
    def test_distributed_results_bit_identical(self):
        csr, plan = _setup_plan(nparts=4)
        x = np.random.default_rng(7).normal(size=csr.nrows)
        y_disabled = distributed_spmv(plan, x)
        obs.enable()
        y_enabled = distributed_spmv(plan, x)
        obs.disable()
        assert np.array_equal(y_disabled, y_enabled)
        assert obs.get_tracer().finished()  # enabled run recorded spans

    def test_simulate_spmv_bit_identical(self):
        from repro.formats import convert
        from repro.gpu import C2070, simulate_spmv

        m = convert(random_coo(50, seed=3), "pJDS")
        r1 = simulate_spmv(m, C2070())
        obs.enable()
        r2 = simulate_spmv(m, C2070())
        obs.disable()
        assert r1 == r2
        assert obs.get_registry().get("spmv_bytes_total") is not None

    def test_nothing_recorded_when_disabled(self):
        csr, plan = _setup_plan(nparts=2)
        distributed_spmv(plan, np.ones(csr.nrows))
        assert obs.get_tracer().finished() == []
        assert obs.get_registry().families() == []

    def test_solver_gauges_only_when_enabled(self):
        from repro.matrices import poisson2d
        from repro.solvers import conjugate_gradient

        m = CSRMatrix.from_coo(poisson2d(8, 8))
        b = np.ones(m.nrows)
        conjugate_gradient(m, b)
        assert obs.get_registry().get("solver_residual") is None
        obs.enable()
        res = conjugate_gradient(m, b)
        obs.disable()
        fam = obs.get_registry().get("solver_residual")
        assert fam.labels(solver="cg").value == pytest.approx(res.residual_norm)
        iters = obs.get_registry().get("solver_iterations_total")
        assert iters.labels(solver="cg").value == res.iterations


# ---------------------------------------------------------------------------
# runtime satellites: output shape + timeout
# ---------------------------------------------------------------------------


class TestRuntimeSatellites:
    def test_result_has_row_dimension(self):
        csr, plan = _setup_plan(nparts=3)
        y = distributed_spmv(plan, np.ones(csr.nrows))
        assert y.shape == (plan.partition.nrows,)

    def test_timeout_names_stuck_rank(self, enabled):
        import dataclasses

        csr, plan = _setup_plan(nparts=2)
        # doctor rank 0 to expect a message from a rank that never sends
        doctored = dataclasses.replace(
            plan.ranks[0],
            recv_cols={**plan.ranks[0].recv_cols, 9: np.array([0])},
        )
        bad_plan = dataclasses.replace(plan, ranks=[doctored, plan.ranks[1]])
        from repro.distributed import DistributedTimeout

        with pytest.raises(DistributedTimeout, match=r"stuck ranks: 0"):
            distributed_spmv(bad_plan, np.ones(csr.nrows), timeout=0.2)
        fam = obs.get_registry().get("distributed_timeouts_total")
        assert fam is not None
        assert sum(c.value for _, c in fam.samples()) >= 1

    def test_timeout_validation(self):
        csr, plan = _setup_plan(nparts=2)
        with pytest.raises(ValueError, match="timeout"):
            distributed_spmv(plan, np.ones(csr.nrows), timeout=0.0)

    def test_workers_are_daemon(self):
        seen = []
        orig = threading.Thread.start

        def spy(self):
            if self.name.startswith("rank-"):
                seen.append(self.daemon)
            return orig(self)

        csr, plan = _setup_plan(nparts=2)
        threading.Thread.start = spy
        try:
            distributed_spmv(plan, np.ones(csr.nrows))
        finally:
            threading.Thread.start = orig
        assert seen and all(seen)


# ---------------------------------------------------------------------------
# summary metric (p50/p95/p99 sliding window)
# ---------------------------------------------------------------------------
class TestSummary:
    def test_nearest_rank_quantiles(self, enabled):
        s = obs.summary("req_seconds").labels()
        for v in range(1, 101):  # 1..100
            s.observe(float(v))
        assert s.quantile(0.5) == 50.0
        assert s.quantile(0.95) == 95.0
        assert s.quantile(0.99) == 99.0
        assert s.quantile(1.0) == 100.0

    def test_snapshot_covers_configured_quantiles(self, enabled):
        fam = obs.get_registry().summary("lat", quantiles=(0.5, 0.9))
        child = fam.labels(op="spmv")
        for v in (1.0, 2.0, 3.0, 4.0):
            child.observe(v)
        snap = child.snapshot()
        assert set(snap) == {0.5, 0.9}
        assert snap[0.5] == 2.0
        assert snap[0.9] == 4.0

    def test_empty_summary_is_nan(self, enabled):
        s = obs.summary("empty_seconds").labels()
        assert math.isnan(s.quantile(0.5))
        assert all(math.isnan(v) for v in s.snapshot().values())
        with pytest.raises(RuntimeError, match="no observations"):
            s.mean

    def test_sliding_window_forgets_old_values(self, enabled):
        fam = obs.get_registry().summary("win_seconds", window=10)
        s = fam.labels()
        for _ in range(10):
            s.observe(1000.0)  # ancient outliers
        for _ in range(10):
            s.observe(1.0)  # recent behaviour fills the window
        assert s.quantile(0.99) == 1.0  # outliers aged out
        # but cumulative sum/count keep full history (Prometheus semantics)
        assert s.count == 20
        assert s.sum == pytest.approx(10010.0)
        assert s.mean == pytest.approx(500.5)

    def test_module_shortcut_noop_when_disabled(self):
        obs.observe_summary("off_seconds", 1.0, op="x")
        assert obs.get_registry().get("off_seconds") is None

    def test_kind_conflict_with_histogram(self, enabled):
        obs.histogram("mixed_seconds").labels().observe(1.0)
        with pytest.raises(ValueError, match="already registered"):
            obs.summary("mixed_seconds")

    def test_prometheus_exposition(self, enabled):
        for v in (0.1, 0.2, 0.3):
            obs.observe_summary("sz_seconds", v, op="spmv")
        text = obs.prometheus_text()
        assert "# TYPE sz_seconds summary" in text
        assert 'sz_seconds{op="spmv",quantile="0.5"} 0.2' in text
        assert 'sz_seconds{op="spmv",quantile="0.99"} 0.3' in text
        assert 'sz_seconds_sum{op="spmv"}' in text
        assert 'sz_seconds_count{op="spmv"} 3' in text

    def test_prometheus_empty_summary_is_nan_line(self, enabled):
        obs.summary("idle_seconds").labels()
        text = obs.prometheus_text()
        assert 'idle_seconds{quantile="0.5"} NaN' in text
        assert "idle_seconds_count 0" in text

    def test_prometheus_round_trip(self, enabled):
        for v in (1.0, 2.0, 4.0):
            obs.observe_summary("rt_seconds", v)
        parsed = obs.parse_prometheus_text(obs.prometheus_text())
        fam = parsed["rt_seconds"]
        assert fam["kind"] == "summary"
        assert fam["samples"][("rt_seconds_count", ())] == 3
        assert fam["samples"][("rt_seconds_sum", ())] == pytest.approx(7.0)
        q50 = (("quantile", "0.5"),)
        assert fam["samples"][("rt_seconds", q50)] == 2.0

    def test_jsonl_quantile_record(self, enabled):
        obs.observe_summary("jl_seconds", 0.5, op="x")
        buf = io.StringIO()
        obs.write_jsonl(buf)
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        summaries = [
            r for r in records
            if r.get("type") == "metric" and r.get("name") == "jl_seconds"
        ]
        assert summaries, records
        rec = summaries[0]
        assert rec["kind"] == "summary"
        assert rec["quantiles"]["0.5"] == 0.5
        assert rec["count"] == 1

    def test_thread_safety(self, enabled):
        fam = obs.get_registry().summary("ts_seconds", window=4096)

        def work():
            child = fam.labels(t="x")
            for _ in range(1000):
                child.observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert fam.labels(t="x").count == 4000
