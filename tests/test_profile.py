"""Tests for the attribution profiler and the Prometheus exposition.

Profiler: Eq.-1 model arithmetic, sample aggregation, the engine
integration (BoundMatrix feeds samples through the generation-keyed
hot-path cache), table rendering and metric publication.

Prometheus: label-value and HELP escaping plus the Summary
``_sum``/``_count`` exposition the exporter must emit.
"""

import numpy as np
import pytest

from repro import obs
from repro.obs.profile import (
    KernelSample,
    KernelStats,
    Profiler,
    model_bytes_per_flop,
    render_table,
)
from repro.perfmodel.balance import code_balance_dp

from _test_common import random_coo


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


# ---------------------------------------------------------------------------
# profiler model arithmetic + aggregation
# ---------------------------------------------------------------------------


class TestProfilerMath:
    def test_model_bytes_per_flop_is_eq1_lower_bound(self):
        # alpha = 1/Nnzr: B = 6 + 4/Nnzr + 8/Nnzr
        for nnzr in (1.0, 7.0, 50.0):
            assert model_bytes_per_flop(nnzr) == pytest.approx(
                6.0 + 12.0 / nnzr
            )
        assert model_bytes_per_flop(10.0, alpha=1.0) == pytest.approx(
            code_balance_dp(1.0, 10.0)
        )

    def test_kernel_stats_aggregation(self):
        st = KernelStats("m", "CRS", "v", "spmv")
        for sec in (2e-3, 1e-3, 3e-3):
            st.calls += 1
            st.add(KernelSample("m", "CRS", "v", "spmv", sec, nnz=500_000,
                                nnzr=10.0))
        assert st.samples == 3 and st.calls == 3
        assert st.best_s == 1e-3
        assert st.total_s == pytest.approx(6e-3)
        want_gflops = 2 * 500_000 / 1e-3 / 1e9
        assert st.achieved_gflops == pytest.approx(want_gflops)
        assert st.achieved_gbs == pytest.approx(want_gflops * st.balance)
        assert st.model_gflops(10.0) == pytest.approx(10.0 / st.balance)
        assert st.efficiency(10.0) == pytest.approx(
            want_gflops / (10.0 / st.balance)
        )
        row = st.row(10.0)
        assert row["matrix"] == "m" and row["best_ms"] == pytest.approx(1.0)

    def test_spmm_flops_scale_with_block(self):
        st = KernelStats("m", "CRS", "v", "spmm")
        st.add(KernelSample("m", "CRS", "v", "spmm", 1e-3, nnz=1000,
                            nnzr=5.0, block=8))
        assert st.flops == 2.0 * 1000 * 8

    def test_table_sorted_by_total_time(self):
        p = Profiler()
        p.set_reference_bandwidth(10.0)
        p.record(KernelSample("light", "CRS", "v", "spmv", 1e-4, 100, 5.0))
        for _ in range(5):
            p.record(KernelSample("heavy", "CRS", "v", "spmv", 1e-3, 100, 5.0))
        rows = p.table()
        assert [r["matrix"] for r in rows] == ["heavy", "light"]
        assert rows[0]["model_bw_gbs"] == 10.0

    def test_reset_bumps_generation(self):
        p = Profiler()
        g = p.generation
        p.reset()
        assert p.generation == g + 1

    def test_set_sample_every_rejects_negative(self):
        with pytest.raises(ValueError):
            obs.profile.set_sample_every(-1)

    def test_render_table(self):
        p = Profiler()
        p.set_reference_bandwidth(10.0)
        p.record(KernelSample("sAMG", "pJDS", "jds_scipy", "spmv",
                              1e-3, 120_000, 7.3))
        text = render_table(p.table())
        assert "GF/s" in text and "eff" in text
        assert "sAMG" in text and "jds_scipy" in text
        assert "model bandwidth: 10.0 GB/s" in text
        assert "(no kernel samples recorded)" in render_table([])


class TestEngineIntegration:
    def _bound(self, label="tiny"):
        from repro.engine import bind
        from repro.formats import CSRMatrix

        csr = CSRMatrix.from_coo(random_coo(50, seed=11, max_row=6))
        return bind(csr, tune=False, label=label), csr

    def test_spmv_feeds_attribution_table(self, enabled):
        b, csr = self._bound()
        x = np.ones(csr.ncols)
        for _ in range(4):
            b.spmv(x)
        rows = obs.profile.attribution_table(bandwidth_gbs=10.0)
        assert len(rows) == 1
        r = rows[0]
        assert r["matrix"] == "tiny" and r["op"] == "spmv"
        assert r["calls"] == 4 and r["samples"] == 4
        assert r["nnz"] == csr.nnz
        assert r["achieved_gflops"] > 0

    def test_sample_every_thins_but_counts_all_calls(self, enabled):
        obs.profile.set_sample_every(4)
        try:
            b, csr = self._bound()
            x = np.ones(csr.ncols)
            for _ in range(8):
                b.spmv(x)
            rows = obs.profile.attribution_table(bandwidth_gbs=10.0)
            assert rows[0]["calls"] == 8
            assert rows[0]["samples"] == 2  # calls 1 and 5
        finally:
            obs.profile.set_sample_every(1)

    def test_disabled_records_nothing(self):
        b, csr = self._bound()
        b.spmv(np.ones(csr.ncols))
        obs.enable()
        assert obs.profile.attribution_table(bandwidth_gbs=10.0) == []

    def test_profile_reset_invalidates_handle_cache(self, enabled):
        b, csr = self._bound()
        x = np.ones(csr.ncols)
        b.spmv(x)
        obs.profile.reset_profile()
        b.spmv(x)
        rows = obs.profile.attribution_table(bandwidth_gbs=10.0)
        assert rows[0]["calls"] == 1  # stale slot dropped with the cache

    def test_publish_exports_gauges(self, enabled):
        b, csr = self._bound()
        b.spmv(np.ones(csr.ncols))
        n = obs.profile.publish_metrics(bandwidth_gbs=10.0)
        assert n == 1
        text = obs.prometheus_text()
        assert 'profile_achieved_gbs{format="CRS"' in text
        assert "profile_kernel_calls" in text


# ---------------------------------------------------------------------------
# prometheus exposition details
# ---------------------------------------------------------------------------


class TestPrometheusEscaping:
    def test_label_values_escaped(self, enabled):
        obs.inc("weird_total", 1, path='a\\b"c\nd')
        text = obs.prometheus_text()
        line = [ln for ln in text.splitlines() if ln.startswith("weird_total{")]
        assert line == ['weird_total{path="a\\\\b\\"c\\nd"} 1']
        # and the parser reads the original value back
        parsed = obs.parse_prometheus_text(text)
        samples = parsed["weird_total"]["samples"]
        assert samples[("weird_total", (("path", 'a\\b"c\nd'),))] == 1

    def test_help_text_escaped(self, enabled):
        obs.counter("multi_total", "line one\nline two \\ done").inc(1)
        text = obs.prometheus_text()
        help_line = [
            ln for ln in text.splitlines()
            if ln.startswith("# HELP multi_total")
        ][0]
        assert "\n" not in help_line[1:]  # single physical line
        assert help_line == "# HELP multi_total line one\\nline two \\\\ done"

    def test_summary_emits_quantiles_sum_and_count(self, enabled):
        for v in (0.1, 0.2, 0.3, 0.4):
            obs.observe_summary("lat_seconds", v, matrix="A")
        text = obs.prometheus_text()
        assert 'lat_seconds{matrix="A",quantile="0.99"}' in text
        assert 'lat_seconds_count{matrix="A"} 4' in text
        sum_line = [
            ln for ln in text.splitlines()
            if ln.startswith('lat_seconds_sum{matrix="A"}')
        ][0]
        assert float(sum_line.split()[-1]) == pytest.approx(1.0)
