"""Tests for the zero-allocation autotuned execution engine."""

import numpy as np
import pytest

from repro.engine import (
    BoundMatrix,
    Workspace,
    autotune,
    bind,
    fingerprint,
    get_variant,
    spmm_permuted,
    tune_candidates,
    variants_for,
)
from repro.ops import stored_csr_triplet
from repro.formats import convert
from repro.matrices.cache import TunerCache

from _test_common import ALL_FORMATS, PERMUTING_FORMATS, random_coo


@pytest.fixture(scope="module")
def coo():
    return random_coo(90, seed=11, max_row=16)


@pytest.fixture(scope="module")
def samg():
    from repro.matrices import generate

    return generate("sAMG", scale=512, seed=0)


@pytest.fixture(scope="module")
def x(coo):
    return np.random.default_rng(7).standard_normal(coo.ncols)


@pytest.fixture(scope="module")
def y_ref(coo, x):
    return coo.spmv(x)


# ---------------------------------------------------------------------------
class TestWorkspace:
    def test_buffers_are_persistent(self):
        ws = Workspace()
        a = ws.buf("a", 16, np.float64)
        b = ws.buf("a", 16, np.float64)
        assert a is b
        assert ws.allocations == 1

    def test_shape_mismatch_raises(self):
        ws = Workspace()
        ws.buf("a", 16, np.float64)
        with pytest.raises(ValueError, match="requested"):
            ws.buf("a", 17, np.float64)

    def test_const_factory_called_once(self):
        ws = Workspace()
        calls = []
        ws.const("c", lambda: calls.append(1) or np.arange(3))
        ws.const("c", lambda: calls.append(1) or np.arange(3))
        assert len(calls) == 1


# ---------------------------------------------------------------------------
class TestVariants:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_every_variant_matches_reference(self, fmt, coo, x, y_ref):
        m = convert(coo, fmt)
        for v in variants_for(m):
            b = bind(m, variant=v.name)
            assert np.allclose(b.spmv(x), y_ref, atol=1e-12), v.name

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_warm_calls_match_cold(self, fmt, coo, x, y_ref):
        """Workspace reuse must not change results (satellite check)."""
        m = convert(coo, fmt)
        for v in variants_for(m):
            cold = bind(m, variant=v.name).spmv(x)
            b = bind(m, variant=v.name)
            for _ in range(3):
                warm = b.spmv(x)
            assert np.array_equal(cold, warm), v.name
            assert b.calls == 3

    @pytest.mark.parametrize("fmt", PERMUTING_FORMATS)
    def test_permuted_variants(self, fmt, coo, x, y_ref):
        m = convert(coo, fmt)
        for v in variants_for(m):
            if not v.supports_permuted:
                continue
            b = bind(m, variant=v.name)
            xp = m.permutation.to_permuted(x)
            yp = b.spmv_permuted(xp)
            assert np.allclose(
                m.permutation.to_original(yp.copy()), y_ref, atol=1e-12
            ), v.name

    def test_unknown_variant_raises(self, coo):
        m = convert(coo, "CRS")
        with pytest.raises(KeyError):
            get_variant(m, "nonexistent")

    def test_out_parameter_zero_alloc(self, coo, x, y_ref):
        m = convert(coo, "CRS")
        b = bind(m, tune=False)
        out = np.empty(m.nrows)
        y = b.spmv(x, out=out)
        assert y is out
        assert np.allclose(y, y_ref, atol=1e-12)


# ---------------------------------------------------------------------------
class TestTuner:
    def test_fingerprint_structure_sensitive(self, coo):
        a = convert(coo, "CRS")
        b = convert(random_coo(90, seed=12, max_row=16), "CRS")
        same = convert(coo, "CRS")
        assert fingerprint(a) == fingerprint(same)
        assert fingerprint(a) != fingerprint(b)

    def test_autotune_deterministic(self, coo):
        """Same seed + no cache -> timings may differ but the decision
        must be a valid variant; with a cache the decision replays."""
        m = convert(coo, "pJDS")
        cache = TunerCache(persist=False)
        r1 = autotune(m, reps=1, seed=0, cache=cache)
        r2 = autotune(m, reps=1, seed=0, cache=cache)
        assert not r1.cache_hit
        assert r2.cache_hit
        assert r1.variant == r2.variant
        assert r1.variant in {v.name for v in variants_for(m)}
        # measured candidates recorded; a lone candidate is not timed
        raced = [v.name for v in tune_candidates(m)]
        assert list(r1.timings) == (raced if len(raced) > 1 else [])

    def test_cache_round_trip(self, coo, tmp_path):
        m = convert(coo, "CRS")
        path = tmp_path / "tuner.json"
        c1 = TunerCache(path)
        r1 = autotune(m, reps=1, cache=c1)
        c2 = TunerCache(path)  # fresh instance, same file
        r2 = autotune(m, reps=1, cache=c2)
        assert r2.cache_hit
        assert r2.variant == r1.variant
        assert len(c2) == 1

    def test_stale_cache_entry_retunes(self, coo, tmp_path):
        m = convert(coo, "CRS")
        cache = TunerCache(tmp_path / "tuner.json")
        cache.put(fingerprint(m), {"variant": "deleted_kernel"})
        r = autotune(m, reps=1, cache=cache)
        assert not r.cache_hit
        assert r.variant in {v.name for v in variants_for(m)}

    @pytest.mark.parametrize("fmt", ["CRS", "pJDS", "ELLPACK-R"])
    def test_races_only_compiled_kernels(self, fmt, coo):
        """Every registered kernel is compiled (scipy or cnative), so
        the whole roster races."""
        m = convert(coo, fmt)
        roster = [v.name for v in variants_for(m)]
        assert all(
            {"scipy", "cnative"} & set(v.tags) for v in variants_for(m)
        ), roster
        assert [v.name for v in tune_candidates(m)] == roster
        r = autotune(m, reps=1, cache=TunerCache(persist=False))
        # with the cnative tier off the scipy delegate is alone: untimed
        assert list(r.timings) == (roster if len(roster) > 1 else [])
        assert r.variant in roster

    @pytest.mark.parametrize(
        "fmt,variant", [("COO", "coo_scipy"), ("BELLPACK", "bell_scipy")]
    )
    def test_lone_kernel_formats_choose_it_untimed(self, fmt, variant, coo):
        """Their scipy kernel is the lone candidate: chosen untimed, and
        the decision is cached under the usual fingerprint."""
        m = convert(coo, fmt)
        assert [v.name for v in tune_candidates(m)] == [variant]
        cache = TunerCache(persist=False)
        r = autotune(m, reps=1, cache=cache)
        assert r.timings == {} and r.variant == variant
        assert not r.cache_hit and r.fingerprint == fingerprint(m)
        assert cache.get(r.fingerprint)["variant"] == variant
        assert autotune(m, reps=1, cache=cache).cache_hit

    def test_lone_candidate_runs_no_kernel(self, coo, monkeypatch):
        """A lone candidate is never run: no warm-up, no timed reps."""
        from repro.engine import tuner

        calls = []
        monkeypatch.setattr(
            tuner, "_time_variant", lambda *a, **k: calls.append(a) or 1.0
        )
        r = autotune(convert(coo, "COO"), cache=TunerCache(persist=False))
        assert r.variant == "coo_scipy" and calls == []
        crs = convert(coo, "CRS")
        autotune(crs, cache=TunerCache(persist=False))
        raced = len(tune_candidates(crs))
        assert len(calls) == (raced if raced > 1 else 0)

    def test_entry_under_an_older_roster_digest_reraces(self, coo):
        """A decision cached under an older roster (here one that still
        held a since-deleted kernel, which it pinned) is not replayed:
        the fingerprint digests the raced roster, so the matrix re-races
        once."""
        import hashlib

        m = convert(coo, "CRS")
        fp = fingerprint(m)
        old = ",".join([v.name for v in variants_for(m)] + ["deleted_kernel"])
        old_fp = fp.replace(
            fp.split(":vs", 1)[1].split(":", 1)[0],
            hashlib.sha1(old.encode()).hexdigest()[:8],
        )
        assert old_fp != fp
        cache = TunerCache(persist=False)
        cache.put(old_fp, {"variant": "deleted_kernel", "timings": {}})
        r = autotune(m, reps=1, cache=cache)
        assert not r.cache_hit and r.fingerprint == fp
        assert r.variant != "deleted_kernel"
        assert autotune(m, reps=1, cache=cache).cache_hit

    def test_bind_uses_tuned_variant(self, coo):
        m = convert(coo, "pJDS")
        cache = TunerCache(persist=False)
        b = bind(m, reps=1, cache=cache)
        assert isinstance(b, BoundMatrix)
        assert b.tune_result is not None
        assert b.variant_name == b.tune_result.variant


# ---------------------------------------------------------------------------
class TestModelGuidedTuning:
    """The Eq.-1 predictor + the kernel-tier component of the fingerprint."""

    def test_fingerprint_includes_kernel_tier_set(self, coo, monkeypatch):
        """A cache warmed under one tier set must not replay under
        another (e.g. a C compiler installed after the cache was written)."""
        from repro.kernels import compiled

        m = convert(coo, "CRS")
        fp_before = fingerprint(m)
        monkeypatch.setattr(
            compiled, "kernel_tiers",
            lambda: ("scipy-x", "cnative-cc-0000ffff"),
        )
        fp_after = fingerprint(m)
        assert fp_before != fp_after
        # and the structural prefix is unchanged — only the tier digest
        assert fp_before.rsplit(":kt", 1)[0] == fp_after.rsplit(":kt", 1)[0]

    def test_tier_change_invalidates_cached_decision(self, coo, monkeypatch):
        from repro.kernels import compiled

        m = convert(coo, "CRS")
        cache = TunerCache(persist=False)
        r1 = autotune(m, reps=1, cache=cache)
        assert autotune(m, reps=1, cache=cache).cache_hit
        monkeypatch.setattr(
            compiled, "kernel_tiers", lambda: ("scipy-x",)
        )
        r2 = autotune(m, reps=1, cache=cache)
        assert not r2.cache_hit  # new tier set -> retune, not replay
        assert r2.fingerprint != r1.fingerprint

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_predicted_slots_are_the_swept_arrays(self, fmt, samg):
        """Eq. 1's slot count for every kernel is the length of the
        arrays that kernel sweeps, padding and fill included."""
        from repro.ops.spmv_kernels import _bsr_view
        from repro.perfmodel.predict import predict_spmv

        swept = {
            "coo_scipy": lambda m: m.values.size,
            "bell_scipy": lambda m: _bsr_view(m)[2].size,
            "csr_cc": lambda m: m.data.size,
            # the rectangle's first nrows rows, not the padded ones
            "ell_cc": lambda m: m.val[:, : m.nrows].size,
            "jds_cc": lambda m: m.val.size,
            "sell_cc": lambda m: m.val.size,
            "cmrs_cc": lambda m: m.val.size,
            "argcsr_cc": lambda m: m.val.size,
        }
        m = convert(samg, fmt)
        for p in predict_spmv(m, bandwidth_gbs=20.0):
            if "stored-csr" in p.tags:
                want = stored_csr_triplet(m)[1].size
            else:
                want = swept[p.name](m)
            assert p.slots == want, (fmt, p.name)

    def test_predictions_are_positive_and_ordered(self, coo):
        from repro.perfmodel.predict import predict_spmv

        m = convert(coo, "SELL-C-sigma")
        preds = predict_spmv(m, bandwidth_gbs=20.0)
        assert preds, "empty prediction list"
        secs = [p.predicted_seconds for p in preds]
        assert all(s > 0 for s in secs)
        assert secs == sorted(secs)
        names = {p.name for p in preds}
        assert names == {v.name for v in variants_for(m)}


# ---------------------------------------------------------------------------
class TestOperator:
    def test_permuted_operator(self, coo, x, y_ref):
        m = convert(coo, "pJDS")
        op = bind(m, tune=False).spmv_permuted
        xp = m.permutation.to_permuted(x)
        yp = op(xp)
        assert np.allclose(m.permutation.to_original(yp.copy()), y_ref, atol=1e-12)


# ---------------------------------------------------------------------------
class TestSpMM:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_percolumn(self, fmt, order, coo):
        """Batched kernels must agree with the per-column reference."""
        m = convert(coo, fmt)
        X = np.asarray(
            np.random.default_rng(3).standard_normal((coo.ncols, 6)), order=order
        )
        ref = np.column_stack(
            [coo.spmv(np.ascontiguousarray(X[:, j])) for j in range(6)]
        )
        assert np.allclose(m.spmm(X), ref, atol=1e-12)
        assert np.allclose(m.spmm_percolumn(X), ref, atol=1e-12)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_bound_spmm_with_workspace(self, fmt, coo):
        m = convert(coo, fmt)
        b = bind(m, tune=False)
        X = np.random.default_rng(4).standard_normal((coo.ncols, 4))
        ref = m.spmm_percolumn(X)
        Y1 = b.spmm(X)
        Y2 = b.spmm(X)  # workspace-warm call
        assert np.allclose(Y1, ref, atol=1e-12)
        assert np.array_equal(Y1, Y2)

    @pytest.mark.parametrize("fmt", PERMUTING_FORMATS)
    def test_spmm_permuted(self, fmt, coo):
        m = convert(coo, fmt)
        if not hasattr(m, "spmv_permuted"):
            pytest.skip("no stored-basis kernel")
        P = m.permutation
        X = np.random.default_rng(5).standard_normal((coo.ncols, 3))
        Xp = np.column_stack([P.to_permuted(X[:, j].copy()) for j in range(3)])
        Yp = spmm_permuted(m, np.ascontiguousarray(Xp))
        Y = np.column_stack([P.to_original(Yp[:, j].copy()) for j in range(3)])
        assert np.allclose(Y, m.spmm_percolumn(X), atol=1e-12)

    @pytest.mark.parametrize("fmt", ["JDS", "pJDS"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_spmm_permuted_columns_are_jds_scipy_spmv(self, fmt, order):
        """Each column of a stored-basis batch is bitwise the
        ``jds_scipy`` ``spmv_permuted`` of that column, whatever the
        memory order of the block and its output."""
        m = convert(random_coo(3_000, seed=43, max_row=24), fmt)
        rng = np.random.default_rng(44)
        Xp = np.asarray(rng.standard_normal((m.ncols, 5)), order=order)
        out = np.full((m.nrows, 5), np.nan, order=order)
        Yp = spmm_permuted(m, Xp, out=out, ws=Workspace())
        assert Yp is out
        ref = bind(m, tune=False, variant="jds_scipy")
        for j in range(Xp.shape[1]):
            np.testing.assert_array_equal(
                Yp[:, j],
                ref.spmv_permuted(np.ascontiguousarray(Xp[:, j])),
                err_msg=f"{fmt}/{order}/col={j}",
            )

    def test_float32_native(self, coo):
        m = convert(coo.astype(np.float32), "CRS")
        X = np.random.default_rng(6).standard_normal((coo.ncols, 3)).astype(
            np.float32
        )
        Y = m.spmm(X)
        assert Y.dtype == np.float32
        assert np.allclose(Y, m.spmm_percolumn(X), atol=1e-4)


# ---------------------------------------------------------------------------
class TestCompiledDelegates:
    """The scipy-backed stored-CSR delegate kernels."""

    @pytest.mark.parametrize(
        "fmt", ["CRS", "ELLPACK", "ELLPACK-R", "JDS", "pJDS", "SELL-C-sigma"]
    )
    def test_scipy_variant_registered(self, fmt, coo):
        m = convert(coo, fmt)
        names = {v.name for v in variants_for(m)}
        assert any(n.endswith("_scipy") for n in names), names

    @pytest.mark.parametrize("fmt", ["CRS", "pJDS", "SELL-C-sigma"])
    def test_stored_csr_triplet_cached(self, fmt, coo):
        m = convert(coo, fmt)
        t1 = stored_csr_triplet(m)
        t2 = stored_csr_triplet(m)
        assert all(a is b for a, b in zip(t1, t2))
        # indices stay inside the column space (padding points at col 0)
        indptr, indices, _ = t1
        assert indptr[0] == 0 and np.all(np.diff(indptr) >= 0)
        if indices.size:
            assert 0 <= indices.min() and indices.max() < m.ncols


# ---------------------------------------------------------------------------
class TestAliasing:
    def test_spmv_out_aliases_input_raises(self, coo):
        m = convert(coo, "CRS")
        x = np.random.default_rng(0).standard_normal(coo.ncols)
        with pytest.raises(ValueError, match="alias"):
            m.spmv(x, out=x)

    def test_spmm_out_aliases_input_raises(self, coo):
        m = convert(coo, "CRS")
        X = np.random.default_rng(0).standard_normal((coo.ncols, 2))
        with pytest.raises(ValueError, match="alias"):
            m.spmm(X, out=X)


# ---------------------------------------------------------------------------
def test_import_stays_in_engine():
    """``import repro.engine`` loads neither the distributed layer nor
    the GPU model."""
    import subprocess
    import sys

    code = (
        "import sys, repro.engine; "
        "print(sorted(k for k in sys.modules "
        "if k.startswith(('repro.distributed', 'repro.gpu'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
class TestSolverIntegration:
    def test_engine_cg_matches_plain(self, spd_coo):
        from repro.solvers import conjugate_gradient

        p = convert(spd_coo, "pJDS")
        b = np.random.default_rng(0).standard_normal(spd_coo.nrows)
        r_plain = conjugate_gradient(p, b)
        r_engine = conjugate_gradient(bind(p), b)
        assert r_engine.converged
        assert np.allclose(r_plain.x, r_engine.x, atol=1e-6)

    def test_engine_kpm_preserves_spmv_count(self, spd_coo):
        from repro.solvers import kpm_spectral_density

        p = convert(spd_coo, "pJDS")
        r = kpm_spectral_density(
            bind(p), num_moments=16, num_vectors=3, bounds=(0.0, 8.0)
        )
        assert r.spmv_count == 3 * 15


class TestClone:
    """BoundMatrix.clone(): shared data + decision, private scratch."""

    def test_clone_shares_matrix_and_decision(self, coo):
        b = bind(convert(coo, "CRS"), tune=False)
        c = b.clone()
        assert c is not b
        assert c.matrix is b.matrix  # zero-copy matrix data
        assert c.variant is b.variant
        assert c.tune_result is b.tune_result
        assert c.workspace is not b.workspace  # fresh scratch

    def test_clone_matches_original_bitwise(self, coo, x):
        b = bind(convert(coo, "CRS"), tune=False, variant="csr_scipy")
        c = b.clone()
        np.testing.assert_array_equal(c.spmv(x), b.spmv(x))

    def test_clone_call_counters_independent(self, coo, x):
        b = bind(convert(coo, "CRS"), tune=False)
        c = b.clone()
        b.spmv(x)
        b.spmv(x)
        c.spmv(x)
        assert b.calls == 2
        assert c.calls == 1

    def test_clones_safe_across_threads(self, coo, x, y_ref):
        """Concurrent spmv on per-thread clones never corrupts results."""
        import threading

        proto = bind(convert(coo, "pJDS"), tune=False)
        errors = []

        def work():
            mine = proto.clone()
            for _ in range(50):
                if not np.allclose(mine.spmv(x), y_ref):
                    errors.append(threading.current_thread().name)
                    return

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
