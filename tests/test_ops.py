"""Tests for :mod:`repro.ops` — the central kernel registry, the
LinearOperator protocol and the cross-backend adapters.

The parity matrix sweeps every registered format x kernel variant x
operation {spmv, spmm, permuted} against a dense reference, on random
inputs *and* the pathological shapes (empty rows, a single dense row,
0x0, non-contiguous RHS).
"""

from __future__ import annotations

import numpy as np
import pytest

from _test_common import (
    ALL_FORMATS,
    MATRIX_CLASSES,
    PARITY_GRID,
    empty_coo,
    random_coo,
    single_dense_row_coo,
)
from repro.engine import Workspace, bind
from repro.formats import (
    COOMatrix,
    CSRMatrix,
    available_formats,
    convert,
    register_format,
)
from repro.formats.base import SparseMatrixFormat
from repro.formats.conversions import FORMATS
from repro.ops import (
    BoundOperator,
    CountingOperator,
    KernelSpec,
    LinearOperator,
    PermutedOperator,
    apply_repeated,
    as_linear_operator,
    get_kernel,
    get_variant,
    kernels_for,
    register_kernel,
    registry_rows,
    solver_operator,
    spmm_dispatch,
    variant_names_for,
    variants_for,
)
from repro.ops.registry import _REGISTRY


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def dense_of(coo: COOMatrix) -> np.ndarray:
    return coo.todense()


# ---------------------------------------------------------------------------
# satellite: format registry behaviour
# ---------------------------------------------------------------------------

class TestFormatRegistry:
    def test_available_formats_sorted(self):
        names = available_formats()
        assert names == sorted(names)
        for expected in ALL_FORMATS:
            assert expected in names

    def test_collision_raises(self):
        class Impostor:
            name = "CRS"

        # the error must name the existing registrant so the collision
        # is debuggable from the message alone (satellite fix)
        with pytest.raises(
            ValueError,
            match="already registered by repro.formats.csr.CSRMatrix",
        ):
            register_format(Impostor)
        # the real class is untouched
        assert FORMATS["CRS"] is CSRMatrix

    def test_reregistration_is_idempotent(self):
        assert register_format(CSRMatrix) is CSRMatrix

    def test_new_format_registers_and_sorts(self):
        class ZZZFormat:
            name = "zzz-test-only"

        try:
            register_format(ZZZFormat)
            names = available_formats()
            assert "zzz-test-only" in names
            assert names == sorted(names)
        finally:
            FORMATS.pop("zzz-test-only", None)


# ---------------------------------------------------------------------------
# tentpole: kernel registry behaviour
# ---------------------------------------------------------------------------

#: the full spmv roster per format, in rank order: the scipy kernel,
#: then the cnative kernel
_SPMV_ROSTERS = {
    "COO": ["coo_scipy"],
    "CRS": ["csr_scipy", "csr_cc"],
    "ELLPACK": ["ell_scipy", "ell_cc"],
    "ELLPACK-R": ["ell_scipy", "ell_cc"],
    "ELLR-T": ["ell_scipy", "ell_cc"],
    "JDS": ["jds_scipy", "jds_cc"],
    "pJDS": ["jds_scipy", "jds_cc"],
    "SELL-C-sigma": ["sell_scipy", "sell_cc"],
    "CMRS": ["cmrs_scipy", "cmrs_cc"],
    "ARG-CSR": ["argcsr_scipy", "argcsr_cc"],
    "BELLPACK": ["bell_scipy"],
}


class TestKernelRegistry:
    def test_every_format_has_spmv_candidates(self):
        assert set(ALL_FORMATS) <= set(_SPMV_ROSTERS)
        for name, full in _SPMV_ROSTERS.items():
            m = convert(random_coo(20, seed=1), name)
            expected = [
                v for v in full if _CNATIVE_OK or not v.endswith("_cc")
            ]
            assert variant_names_for(m) == expected, name

    def test_duplicate_kernel_name_raises(self):
        def clash(m, ws, x, y, permuted=False):  # pragma: no cover
            raise AssertionError("never called")

        with pytest.raises(ValueError, match="already registered"):
            register_kernel(CSRMatrix, "spmv", name="csr_scipy")(clash)
        # registry unchanged by the failed attempt
        roster = variant_names_for(CSRMatrix)
        assert roster.count("csr_scipy") == 1

    def test_reregistering_same_function_is_idempotent(self):
        spec = get_variant(CSRMatrix, "csr_scipy")
        out = register_kernel(CSRMatrix, "spmv", name="csr_scipy")(spec.run)
        assert out is spec.run
        assert variant_names_for(CSRMatrix).count("csr_scipy") == 1

    def test_subclass_inherits_and_can_override(self):
        class _Base:
            pass

        class _Sub(_Base):
            pass

        try:

            @register_kernel(_Base, "spmv", name="base_kernel")
            def _base(m, ws, x, y, permuted=False):
                pass

            assert variant_names_for(_Sub) == ["base_kernel"]

            @register_kernel(_Sub, "spmv", name="sub_kernel")
            def _sub(m, ws, x, y, permuted=False):
                pass

            # own table shadows the inherited one entirely
            assert variant_names_for(_Sub) == ["sub_kernel"]
            assert variant_names_for(_Base) == ["base_kernel"]
        finally:
            # later registry_rows() calls must list only real kernels
            _REGISTRY.pop((_Base, "spmv"), None)
            _REGISTRY.pop((_Sub, "spmv"), None)
        names = {r["variant"] for r in registry_rows()}
        assert not names & {"base_kernel", "sub_kernel"}

    def test_unregistered_format_has_no_kernels(self):
        """A format nobody registered gets empty rosters, and its
        unbound spmv raises a ``TypeError`` naming the format."""

        class _Bare(SparseMatrixFormat):
            name = "bare-test-only"

            def to_coo(self):  # pragma: no cover
                raise NotImplementedError

            @classmethod
            def from_coo(cls, coo, **kw):  # pragma: no cover
                raise NotImplementedError

            def memory_breakdown(self):  # pragma: no cover
                return {}

            def row_lengths(self):  # pragma: no cover
                raise NotImplementedError

        bare = _Bare((3, 3), nnz=0, dtype=np.float64)
        assert kernels_for(bare, "spmv") == []
        assert kernels_for(bare, "spmm") == []
        with pytest.raises(TypeError, match="bare-test-only"):
            bare.spmv(np.ones(3))
        with pytest.raises(TypeError, match="bare-test-only"):
            bind(bare)

    def test_get_variant_keyerror_lists_candidates(self):
        m = convert(random_coo(10, seed=2), "CRS")
        with pytest.raises(KeyError, match="no variant 'nope' for CSRMatrix"):
            get_variant(m, "nope")

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError, match="op must be one of"):
            kernels_for(CSRMatrix, "transpose")
        with pytest.raises(ValueError, match="op must be one of"):
            register_kernel(CSRMatrix, "transpose", name="x")

    def test_registry_rows_snapshot(self):
        rows = registry_rows()
        assert rows, "registry snapshot is empty"
        keys = {"format", "op", "variant", "supports_permuted", "tags", "rank"}
        for r in rows:
            assert keys <= set(r)
        # deterministic: sorted by (format, op), ranks contiguous from 0
        fmt_op = [(r["format"], r["op"]) for r in rows]
        assert fmt_op == sorted(fmt_op)
        spmv_crs = [r for r in rows if r["format"] == "CRS" and r["op"] == "spmv"]
        assert [r["rank"] for r in spmv_crs] == list(range(len(spmv_crs)))
        assert any(r["op"] == "spmm" for r in rows)


# ---------------------------------------------------------------------------
# one spmv per format: every spmv path runs a registry kernel
# ---------------------------------------------------------------------------

from repro.matrices import SUITE_KEYS, generate  # noqa: E402

#: sAMG at scale 256 (13,300 rows, rows of up to 70 entries): the NumPy
#: ``reduceat`` bodies the formats used to carry sum long rows in
#: another order than any registered kernel, so on CRS, CMRS and
#: ARG-CSR their bits differed here
_SAMG_COO = generate("sAMG", scale=256, seed=0)


def _assert_bits(got, ref, what):
    assert got.dtype == ref.dtype, what
    assert np.array_equal(got, ref), (
        f"{what}: max |diff| {float(np.max(np.abs(got - ref)))}"
    )


class TestOneSpmvPerFormat:
    """The unbound spmv, a bound spmv of every variant, each column of
    spmm and the raw-format operator all give the same bits."""

    @pytest.mark.parametrize("fmt", available_formats())
    def test_every_spmv_path_is_bitwise_float64(self, fmt):
        m = convert(_SAMG_COO, fmt)
        rng = np.random.default_rng(31)
        x = rng.standard_normal(m.ncols)
        X = rng.standard_normal((m.ncols, 3))
        y = m.spmv(x)
        for v in variant_names_for(m):
            _assert_bits(bind(m, variant=v).spmv(x), y, f"{fmt}/{v}")
        op = as_linear_operator(m)
        _assert_bits(op.apply(x), y, f"{fmt}/as_linear_operator.apply")
        for Y, what in ((m.spmm(X), "spmm"), (op.apply_block(X), "apply_block")):
            for j in range(X.shape[1]):
                _assert_bits(
                    Y[:, j], m.spmv(X[:, j]), f"{fmt}/{what} column {j}"
                )
        if hasattr(m, "spmv_permuted"):
            xp = m.permutation.to_permuted(x)
            yp = m.spmv_permuted(xp)
            _assert_bits(
                bind(m, variant="jds_scipy").spmv_permuted(xp), yp,
                f"{fmt}/spmv_permuted",
            )
            _assert_bits(m.permutation.to_original(yp), y, f"{fmt}/permuted")

    @pytest.mark.parametrize("fmt", available_formats())
    def test_rank0_paths_are_bitwise_float32(self, fmt):
        """At float32 the ``*_bincount`` kernels accumulate in float64,
        so only the rank-0 paths are compared."""
        m = convert(_SAMG_COO.astype(np.float32), fmt)
        rng = np.random.default_rng(32)
        x = rng.standard_normal(m.ncols).astype(np.float32)
        X = rng.standard_normal((m.ncols, 2)).astype(np.float32)
        y = m.spmv(x)
        _assert_bits(bind(m, tune=False).spmv(x), y, f"{fmt}/rank-0 bound")
        Y = m.spmm(X)
        for j in range(X.shape[1]):
            _assert_bits(Y[:, j], m.spmv(X[:, j]), f"{fmt}/spmm column {j}")


    def test_formats_load_without_the_kernel_layers(self):
        """``repro.formats`` and ``repro.core`` import neither
        ``repro.ops`` nor ``repro.engine``: the spmv dispatch they run
        is imported late, at the first call."""
        import os
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro.formats, repro.core\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('repro.ops', 'repro.engine'))))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(_REPO_ROOT, "src"))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=_REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "[]"


class TestEverySuiteMatrix:
    @pytest.mark.parametrize("key", SUITE_KEYS)
    def test_every_variant_gives_the_unbound_bits(self, key):
        """Every kernel of every format runs on each paper matrix
        (UHBR's 1.1 M entries at scale 512 included) and gives the
        unbound spmv's bits."""
        coo = generate(key, scale=512, seed=0)
        x = np.random.default_rng(0).standard_normal(coo.ncols)
        for fmt in available_formats():
            m = convert(coo, fmt)
            y = m.spmv(x)
            for v in variant_names_for(m):
                _assert_bits(
                    bind(m, tune=False, variant=v).spmv(x), y, f"{key}/{fmt}/{v}"
                )


class TestBatchWorkspace:
    @pytest.mark.parametrize("fmt", ["pJDS", "SELL-C-sigma", "COO"])
    def test_widths_1_to_16_hold_the_widest_blocks_only(self, fmt):
        """A handle that ran every width from 1 to 16 holds no more
        workspace than one that ran only width 16, and its batches
        have the unbound spmm's bits."""
        m = convert(generate("sAMG", scale=1024, seed=0), fmt)
        W = np.random.default_rng(33).standard_normal((m.ncols, 16))
        widest = bind(m, tune=False)
        widest.spmm(np.asfortranarray(W))
        bound = bind(m, tune=False)
        for k in range(1, 17):
            X = W[:, :k]  # not C-contiguous below k = 16
            _assert_bits(bound.spmm(X), m.spmm(X), f"{fmt}/k={k}")
        assert bound.workspace.nbytes <= widest.workspace.nbytes, fmt


# ---------------------------------------------------------------------------
# satellite: the parity matrix (format x variant x {spmv, spmm, permuted})
# ---------------------------------------------------------------------------

#: the package's own spmv kernels, read before any test registers a
#: throwaway kernel on a test-local class
_REGISTERED_SPMV = {r["variant"] for r in registry_rows() if r["op"] == "spmv"}


class TestParityMatrix:
    @pytest.mark.parametrize("fmt, kernels, cls", PARITY_GRID)
    def test_cell(self, fmt, kernels, cls):
        """Each kernel matches the dense product and returns the CRS
        matrix's bits, at float64 and at float32 (one answer)."""
        coo64 = MATRIX_CLASSES[cls]()
        x64 = np.random.default_rng(17).standard_normal(coo64.shape[1])
        for dtype, rtol, atol in ((np.float64, 1e-10, 1e-12), (np.float32, 1e-5, 1e-5)):
            coo = COOMatrix(
                coo64.rows, coo64.cols, coo64.values.astype(dtype), coo64.shape,
                sum_duplicates=False,
            )
            x = x64.astype(dtype)
            ref = dense_of(coo) @ x
            crs = convert(coo, "CRS").spmv(x)
            m = convert(coo, fmt)
            for name in kernels:
                y = bind(m, tune=False, variant=name).spmv(x)
                where = f"{fmt}/{name}/{cls}/{np.dtype(dtype).name}"
                np.testing.assert_allclose(y, ref, rtol=rtol, atol=atol, err_msg=where)
                np.testing.assert_array_equal(y, crs, err_msg=where)

    def test_grid_covers_every_registered_spmv_kernel(self):
        """Every spmv kernel in the registry has a parity case, and
        every format meets every matrix class: a kernel registered on
        a class no format resolves to fails here instead of going
        unchecked."""
        checked = {name for p in PARITY_GRID for name in p.values[1]}
        assert checked == _REGISTERED_SPMV
        pairs = {(p.values[0], p.values[2]) for p in PARITY_GRID}
        assert pairs == {(f, c) for f in available_formats() for c in MATRIX_CLASSES}

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_spmv_noncontiguous_rhs(self, fmt):
        coo = random_coo(30, seed=9)
        m = convert(coo, fmt)
        A = dense_of(coo)
        rng = np.random.default_rng(8)
        wide = rng.standard_normal(2 * m.ncols)
        x = wide[::2]
        assert not x.flags.c_contiguous
        ref = A @ x
        for name in variant_names_for(m):
            got = bind(m, tune=False, variant=name).spmv(x)
            np.testing.assert_allclose(
                got, ref, rtol=1e-12, atol=1e-12, err_msg=f"{fmt}/{name}"
            )

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_spmv_empty_matrix(self, fmt):
        m = convert(empty_coo(), fmt)
        assert m.shape == (0, 0)
        for name in variant_names_for(m):
            got = bind(m, tune=False, variant=name).spmv(np.empty(0))
            assert got.shape == (0,)

    @pytest.mark.parametrize("order", ["C", "F", "sliced"])
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_spmm_parity(self, fmt, order):
        coo = random_coo(35, seed=13)
        m = convert(coo, fmt)
        A = dense_of(coo)
        rng = np.random.default_rng(14)
        if order == "sliced":
            X = rng.standard_normal((m.ncols, 8))[:, ::2]
            assert not X.flags.c_contiguous and not X.flags.f_contiguous
        else:
            X = np.asarray(
                rng.standard_normal((m.ncols, 4)), order=order
            )
        ref = A @ X
        got = m.spmm(X)
        np.testing.assert_allclose(
            got, ref, rtol=1e-12, atol=1e-12, err_msg=f"{fmt}/{order}"
        )
        # direct dispatch entry point (validated inputs)
        out = np.zeros((m.nrows, X.shape[1]), dtype=m.dtype)
        got2 = spmm_dispatch(m, np.asarray(X, dtype=m.dtype), out, Workspace())
        np.testing.assert_allclose(got2, ref, rtol=1e-12, atol=1e-12)
        # every registered variant on one workspace while the batch
        # width changes: scratch buffers must not be pinned to one k
        ws = Workspace()
        for spec in kernels_for(m, "spmm"):
            for k in (2, 3, 2):
                Xk = X[:, :k]
                if order != "sliced":
                    Xk = np.asarray(Xk, order=order)
                out = np.zeros((m.nrows, k), dtype=m.dtype)
                got = spec.run(m, Xk, out, ws)
                np.testing.assert_allclose(
                    got, ref[:, :k], rtol=1e-12, atol=1e-12,
                    err_msg=f"{fmt}/{spec.name}/k={k}",
                )

    @pytest.mark.parametrize("fmt", ["JDS", "pJDS"])
    def test_permuted_basis_every_variant(self, fmt):
        coo = random_coo(48, seed=21)
        m = convert(coo, fmt)
        A = dense_of(coo)
        rng = np.random.default_rng(22)
        x = rng.standard_normal(m.ncols)
        ref = A @ x
        perm = m.permutation
        x_perm = perm.to_permuted(x)
        permuting = [v for v in variants_for(m) if v.supports_permuted]
        assert permuting, f"{fmt} roster has no permuted-capable kernels"
        for v in permuting:
            bound = bind(m, tune=False, variant=v.name)
            y_stored = bound.spmv_permuted(x_perm)
            np.testing.assert_allclose(
                perm.to_original(y_stored), ref, rtol=1e-12, atol=1e-12,
                err_msg=f"{fmt}/{v.name}",
            )

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_solver_operator_roundtrip(self, fmt):
        coo = random_coo(32, seed=17, min_row=1, empty_row_fraction=0.0)
        m = convert(coo, fmt)
        A = dense_of(coo)
        rng = np.random.default_rng(18)
        x = rng.standard_normal(m.ncols)
        op = solver_operator(m)
        got = op.leave(op.apply(op.enter(x)))
        np.testing.assert_allclose(got, A @ x, rtol=1e-12, atol=1e-12)
        # block analogue
        X = rng.standard_normal((m.ncols, 3))
        Xp = np.ascontiguousarray(
            np.stack([op.enter(X[:, j]) for j in range(3)], axis=1)
        )
        Yp = op.apply_block(Xp)
        Y = np.stack([op.leave(Yp[:, j]) for j in range(3)], axis=1)
        np.testing.assert_allclose(Y, A @ X, rtol=1e-12, atol=1e-12)
        # diagonal comes back in original order
        np.testing.assert_allclose(op.diagonal(), np.diag(A))


# ---------------------------------------------------------------------------
# satellite: the optional compiled kernel tier (cnative)
# ---------------------------------------------------------------------------

import pathlib  # noqa: E402

from repro.kernels import compiled as compiled_mod  # noqa: E402

_REPO_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
_CNATIVE_OK = compiled_mod.backend_status()["cnative"]["available"]

#: format -> its cnative spmv, which sums each row in ascending column
#: order from zero as CRS's ``csr_scipy`` does, so agreement with the
#: CRS matrix is *bitwise*, not just allclose
_CNATIVE_SPMV = {
    "CRS": "csr_cc",
    "ELLPACK-R": "ell_cc",
    "pJDS": "jds_cc",
    "SELL-C-sigma": "sell_cc",
    "CMRS": "cmrs_cc",
    "ARG-CSR": "argcsr_cc",
}

#: format -> its scipy-delegate spmv, whose bits every spmm column has
_SCIPY_SPMV = {
    "CRS": "csr_scipy",
    "ELLPACK-R": "ell_scipy",
    "pJDS": "jds_scipy",
    "SELL-C-sigma": "sell_scipy",
    "CMRS": "cmrs_scipy",
    "ARG-CSR": "argcsr_scipy",
}

#: compiled spmm kernel -> the scipy spmm kernel of the same format;
#: both are the one stored-CSR batch body, swept in entry order by the
#: C ``csr_spmm`` and scipy's ``csr_matvecs``, so float64 agreement is
#: bitwise
_SPMM_PAIRS = {
    "CRS": ("spmm_csr_cc", "spmm_csr"),
    "ELLPACK-R": ("spmm_ell_cc", "spmm_ell"),
    "pJDS": ("spmm_jds_cc", "spmm_jds"),
    "SELL-C-sigma": ("spmm_sell_cc", "spmm_sell"),
    "CMRS": ("spmm_cmrs_cc", "spmm_cmrs"),
    "ARG-CSR": ("spmm_argcsr_cc", "spmm_argcsr"),
}


def _multi_chunk_coo():
    return random_coo(12_000, seed=41, max_row=24, empty_row_fraction=0.2)


def _long_row_coo(row=7):
    """50 x 40,000 with one full row: longer than a compiled entry
    chunk, so chunk boundaries fall inside the row."""
    n = 40_000
    rng = np.random.default_rng(42)
    rows = np.concatenate([np.full(n, row), rng.integers(0, 50, 2_000)])
    cols = np.concatenate([np.arange(n), rng.integers(0, n, 2_000)])
    return COOMatrix(rows, cols, rng.standard_normal(rows.size), (50, n))


def _compiled_case_matrices():
    return {
        "random-square": random_coo(60, seed=3),
        # empty rows stress the row-pointer walk / zero-length jagged tail
        "empty-rows": random_coo(50, seed=31, empty_row_fraction=0.4),
        "single-dense-row": single_dense_row_coo(),
        # more rows than a row block, more entries than an entry chunk
        "multi-chunk": _multi_chunk_coo(),
        "long-row": _long_row_coo(),
        # ... inside CMRS's last strip, which 50 rows leave partial
        "long-row-last-strip": _long_row_coo(row=48),
    }


class TestCompiledTier:
    def test_module_imports_and_reports_status(self):
        status = compiled_mod.backend_status()
        assert set(status) == {"cnative"}
        for rec in status.values():
            assert "available" in rec
        tiers = compiled_mod.kernel_tiers()
        assert tiers[0].startswith("scipy-")

    def test_guarded_import_registers_nothing_when_disabled(self):
        """With every backend disabled the module must import cleanly,
        register nothing, and leave the CLI working (satellite 2)."""
        import json
        import os
        import subprocess
        import sys

        code = (
            "import json\n"
            "from repro.ops import variant_names_for, kernel_tiers\n"
            "from repro.formats.csr import CSRMatrix\n"
            "from repro.kernels import compiled\n"
            "print(json.dumps({'roster': variant_names_for(CSRMatrix),"
            " 'tiers': list(kernel_tiers()),"
            " 'status': compiled.backend_status()}))\n"
        )
        env = dict(os.environ, REPRO_COMPILED_DISABLE="cnative")
        env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=_REPO_ROOT,
            capture_output=True, text=True, check=True,
        )
        got = json.loads(out.stdout)
        # this module's own registrations (the scipy kernels are not
        # guarded by the env knob)
        compiled_names = {
            r["variant"] for r in registry_rows()
            if "cnative" in r["tags"]
        }
        assert compiled_names or not _CNATIVE_OK
        assert not (set(got["roster"]) & compiled_names)
        assert [t.split("-")[0] for t in got["tiers"]] == ["scipy"]
        assert not got["status"]["cnative"]["available"]
        # ... and the registry CLI still answers
        cli = subprocess.run(
            [sys.executable, "-m", "repro", "ops", "list"], env=env,
            cwd=_REPO_ROOT, capture_output=True, text=True, check=True,
        )
        assert "kernels registered" in cli.stdout
        for name in compiled_names:
            assert name not in cli.stdout

    @pytest.mark.skipif(not _CNATIVE_OK, reason="no cnative backend")
    @pytest.mark.parametrize(
        "fmt", sorted(_CNATIVE_SPMV),
        ids=[f"{f}-cnative" for f in sorted(_CNATIVE_SPMV)],
    )
    def test_spmv_bitwise_vs_csr_scipy(self, fmt):
        name = _CNATIVE_SPMV[fmt]
        for case, coo in _compiled_case_matrices().items():
            m = convert(coo, fmt)
            assert name in variant_names_for(m), f"{name} not in roster"
            rng = np.random.default_rng(7)
            x = rng.standard_normal(m.ncols)
            # y is a prefix of a larger buffer: nothing past it is written
            buf = np.full(m.nrows + 8, 7.0)
            got = bind(m, tune=False, variant=name).spmv(x, out=buf[: m.nrows])
            ref = bind(convert(coo, "CRS"), tune=False, variant="csr_scipy").spmv(x)
            np.testing.assert_array_equal(
                got, ref, err_msg=f"{fmt}/{name}/{case} not bitwise"
            )
            assert np.all(buf[m.nrows:] == 7.0), f"{fmt}/{name}/{case} wrote past y"

    @pytest.mark.skipif(not _CNATIVE_OK, reason="no cnative backend")
    @pytest.mark.parametrize("fmt", sorted(_CNATIVE_SPMV))
    def test_spmv_compiled_noncontiguous_and_empty(self, fmt):
        name = _CNATIVE_SPMV[fmt]
        # non-contiguous RHS: the glue must densify without changing bits
        coo = random_coo(30, seed=9)
        m = convert(coo, fmt)
        rng = np.random.default_rng(8)
        wide = rng.standard_normal(2 * m.ncols)
        x = wide[::2]
        assert not x.flags.c_contiguous
        got = bind(m, tune=False, variant=name).spmv(x)
        ref = bind(m, tune=False, variant=name).spmv(np.ascontiguousarray(x))
        np.testing.assert_array_equal(got, ref)
        # 0x0 degenerate
        z = convert(empty_coo(), fmt)
        out = bind(z, tune=False, variant=name).spmv(np.empty(0))
        assert out.shape == (0,)

    @pytest.mark.skipif(not _CNATIVE_OK, reason="no cnative backend")
    @pytest.mark.parametrize("fmt", ["JDS", "pJDS"])
    def test_spmv_compiled_permuted_bitwise(self, fmt):
        coo = random_coo(48, seed=21)
        m = convert(coo, fmt)
        rng = np.random.default_rng(22)
        x_perm = m.permutation.to_permuted(rng.standard_normal(m.ncols))
        spec = get_variant(m, "jds_cc")
        assert spec.supports_permuted
        got = bind(m, tune=False, variant="jds_cc").spmv_permuted(x_perm).copy()
        ref = bind(m, tune=False, variant="jds_scipy").spmv_permuted(x_perm)
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.skipif(not _CNATIVE_OK, reason="no cnative backend")
    @pytest.mark.parametrize("order", ["C", "F", "sliced"])
    @pytest.mark.parametrize("fmt", sorted(_SPMM_PAIRS))
    def test_spmm_compiled_parity(self, fmt, order):
        name, ref_name = _SPMM_PAIRS[fmt]
        coo = random_coo(35, seed=13)
        m = convert(coo, fmt)
        A = dense_of(coo)
        rng = np.random.default_rng(14)
        # k == 1 takes the C kernel's scalar row loop; k == 0 is a no-op;
        # 3, 5 and 7 leave every remainder of the 4/2/1 column tiles
        for k in (0, 1, 2, 3, 4, 5, 7, 16):
            if order == "sliced":
                X = rng.standard_normal((m.ncols, 2 * k))[:, ::2]
            else:
                X = np.asarray(rng.standard_normal((m.ncols, k)), order=order)
            Xc = np.ascontiguousarray(X, dtype=m.dtype)
            outs = {}
            for kname in (name, ref_name):
                out = np.zeros((m.nrows, k), dtype=m.dtype)
                outs[kname] = get_kernel(m, kname, "spmm").run(
                    m, Xc, out, Workspace()
                )
            msg = f"{fmt}/{name}/{order}/k={k}"
            np.testing.assert_array_equal(outs[name], outs[ref_name], err_msg=msg)
            np.testing.assert_allclose(
                outs[name], A @ X, rtol=1e-12, atol=1e-12, err_msg=msg
            )

    @pytest.mark.parametrize(
        "fmt,spmm_name,spmv_name",
        [(f, _SPMM_PAIRS[f][1], v) for f, v in _SCIPY_SPMV.items()],
    )
    def test_scipy_spmm_one_column_is_spmv(self, fmt, spmm_name, spmv_name):
        """A 1-column scipy-backed batch is bitwise the variant's spmv."""
        for coo in (random_coo(35, seed=13), _multi_chunk_coo()):
            m = convert(coo, fmt)
            x = np.random.default_rng(15).standard_normal(m.ncols)
            out = np.full((m.nrows, 1), np.nan, dtype=m.dtype)
            got = get_kernel(m, spmm_name, "spmm").run(
                m, x[:, None].copy(), out, Workspace()
            )
            ref = bind(m, tune=False, variant=spmv_name).spmv(x)
            np.testing.assert_array_equal(got[:, 0], ref, err_msg=fmt)

    @pytest.mark.parametrize("fmt", sorted(_SPMM_PAIRS))
    def test_bound_spmm_runs_the_rank0_kernel(self, fmt):
        """Every variant's bound matrix batches through the format's
        rank-0 spmm kernel (the compiled one when the tier is built),
        and all of them agree bitwise."""
        cc_name, np_name = _SPMM_PAIRS[fmt]
        want = cc_name if _CNATIVE_OK else np_name
        for coo in (random_coo(40, seed=17), _multi_chunk_coo()):
            m = convert(coo, fmt)
            assert kernels_for(m, "spmm")[0].name == want
            X = np.random.default_rng(18).standard_normal((m.ncols, 3))
            outs = {}
            for variant in variant_names_for(m):
                bound = bind(m, tune=False, variant=variant)
                assert bound.spmm_variant_name == want, variant
                outs[variant] = bound.spmm(X)
            ref = outs[_SCIPY_SPMV[fmt]]
            for variant, got in outs.items():
                np.testing.assert_array_equal(
                    got, ref, err_msg=f"{fmt}/{variant}/n={m.nrows}"
                )

    @staticmethod
    def _assert_columns_are_scipy_spmv(m, X, Y, msg):
        ref = bind(m, tune=False, variant=_SCIPY_SPMV[m.name])
        for j in range(X.shape[1]):
            np.testing.assert_array_equal(
                Y[:, j], ref.spmv(np.ascontiguousarray(X[:, j])),
                err_msg=f"{msg}/col={j}",
            )

    @pytest.mark.parametrize("fmt", sorted(_SPMM_PAIRS))
    def test_spmm_bits_ignore_the_order_of_x(self, fmt):
        """A C-order, Fortran-order or sliced X gives every column the
        bits of the ``*_scipy`` spmv, on every variant's handle and
        through the unbound ``fmt.spmm``."""
        m = convert(_multi_chunk_coo(), fmt)
        W = np.random.default_rng(23).standard_normal((m.ncols, 8))
        blocks = {
            "C": np.ascontiguousarray(W[:, :4]),
            "F": np.asfortranarray(W[:, :4]),
            "sliced": W[:, ::2],
        }
        for order, X in blocks.items():
            self._assert_columns_are_scipy_spmv(
                m, X, m.spmm(X), f"{fmt}/unbound/{order}"
            )
            for variant in variant_names_for(m):
                Y = bind(m, tune=False, variant=variant).spmm(X)
                self._assert_columns_are_scipy_spmv(
                    m, X, Y, f"{fmt}/{variant}/{order}"
                )

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_spmm_columns_are_the_spmv(self, fmt):
        """Every format's batch, fused or the per-column default (COO,
        BELLPACK), gives each column the bits of its spmv, which are
        the CRS matrix's bits."""
        coo = random_coo(500, seed=26, empty_row_fraction=0.2)
        m = convert(coo, fmt)
        crs = convert(coo, "CRS")
        X = np.random.default_rng(26).standard_normal((m.ncols, 3))
        for Y in (m.spmm(X), bind(m, tune=False).spmm(X)):
            for j in range(X.shape[1]):
                xj = np.ascontiguousarray(X[:, j])
                np.testing.assert_array_equal(Y[:, j], m.spmv(xj), err_msg=fmt)
                np.testing.assert_array_equal(Y[:, j], crs.spmv(xj), err_msg=fmt)

    @pytest.mark.parametrize("fmt", sorted(_SPMM_PAIRS))
    def test_spmm_fortran_out_is_bitwise(self, fmt):
        """A Fortran-order ``out`` is written with the bits a C-order
        one gets, on every variant's handle."""
        m = convert(_multi_chunk_coo(), fmt)
        X = np.random.default_rng(24).standard_normal((m.ncols, 5))
        for variant in variant_names_for(m):
            out = np.full((m.nrows, 5), np.nan, order="F")
            Y = bind(m, tune=False, variant=variant).spmm(X, out=out)
            assert Y is out
            self._assert_columns_are_scipy_spmv(m, X, Y, f"{fmt}/{variant}")

    @pytest.mark.parametrize("fmt", ["pJDS", "SELL-C-sigma"])
    def test_spmm_batch_widths_change_on_one_handle(self, fmt):
        """Widths 1, 3, 2, 5, 1 on one handle: each batch runs the
        rank-0 kernel and is bitwise the ``*_scipy`` spmv, column by
        column, whatever width came before it."""
        m = convert(_multi_chunk_coo(), fmt)
        rank0 = kernels_for(m, "spmm")[0].name
        W = np.random.default_rng(25).standard_normal((m.ncols, 5))
        for variant in variant_names_for(m):
            bound = bind(m, tune=False, variant=variant)
            assert bound.spmm_variant_name == rank0, variant
            for k in (1, 3, 2, 5, 1):
                X = W[:, :k]
                self._assert_columns_are_scipy_spmv(
                    m, X, bound.spmm(X), f"{fmt}/{variant}/k={k}"
                )

    def test_registry_order_is_import_order_free(self):
        """Loading the compiled tier before the NumPy spmm kernels must
        not change any candidate list: ``registry_rows()`` equals the
        plain ``import repro`` snapshot."""
        import os
        import subprocess
        import sys

        rows = (
            "from repro.ops.registry import registry_rows\n"
            "print(json.dumps(registry_rows()))\n"
        )
        firsts = (
            "import repro\n",
            "from repro.ops import kernel_tiers\nkernel_tiers()\n",
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(_REPO_ROOT, "src"))
        snaps = [
            subprocess.run(
                [sys.executable, "-c", "import json\n" + first + rows],
                env=env, cwd=_REPO_ROOT, capture_output=True, text=True,
                check=True,
            ).stdout
            for first in firsts
        ]
        assert snaps[0] == snaps[1]
        assert '"spmm_csr"' in snaps[0]

    @pytest.mark.skipif(not _CNATIVE_OK, reason="no cnative backend")
    def test_spmm_noncontiguous_falls_back(self):
        """The cnative spmm takes a Fortran-order X and out itself (no
        hand-off to another kernel) and writes the C-order bits."""
        coo = random_coo(25, seed=19)
        m = convert(coo, "CRS")
        A = dense_of(coo)
        spec = next(
            k for k in kernels_for(m, "spmm") if k.name == "spmm_csr_cc"
        )
        X = np.asfortranarray(
            np.random.default_rng(20).standard_normal((m.ncols, 4))
        )
        out = np.zeros((m.nrows, 4), dtype=m.dtype, order="F")
        got = spec.run(m, X, out, Workspace())
        assert got is out
        np.testing.assert_allclose(got, A @ X, rtol=1e-12, atol=1e-12)
        ref = spec.run(
            m, np.ascontiguousarray(X), np.zeros((m.nrows, 4)), Workspace()
        )
        np.testing.assert_array_equal(got, ref)

    def test_new_format_rosters_fall_back_when_disabled(self):
        """With ``REPRO_COMPILED_DISABLE=all`` the CMRS / ARG-CSR
        rosters must hold no compiled variants and the remaining
        vectorised kernels must still match the dense oracle."""
        import json
        import os
        import subprocess
        import sys

        code = (
            "import json\n"
            "import numpy as np\n"
            "from repro.engine import bind\n"
            "from repro.formats import convert, COOMatrix\n"
            "from repro.ops import variant_names_for\n"
            "rng = np.random.default_rng(5)\n"
            "d = (rng.random((40, 33)) < 0.2) * rng.standard_normal((40, 33))\n"
            "coo = COOMatrix.from_dense(d)\n"
            "out = {}\n"
            "for fmt in ('CMRS', 'ARG-CSR'):\n"
            "    m = convert(coo, fmt)\n"
            "    x = rng.standard_normal(m.ncols)\n"
            "    y = bind(m, tune=False).spmv(x)\n"
            "    out[fmt] = {'roster': variant_names_for(m),\n"
            "                'ok': bool(np.allclose(y, d @ x, atol=1e-9))}\n"
            "print(json.dumps(out))\n"
        )
        env = dict(os.environ, REPRO_COMPILED_DISABLE="all")
        env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=_REPO_ROOT,
            capture_output=True, text=True, check=True,
        )
        got = json.loads(proc.stdout)
        for fmt in ("CMRS", "ARG-CSR"):
            roster = got[fmt]["roster"]
            assert roster, fmt
            assert not any(n.endswith("_cc") for n in roster), roster
            assert got[fmt]["ok"], fmt

    def test_compiled_variants_carry_tier_tags(self):
        rows = registry_rows()
        for r in rows:
            if r["variant"].endswith("_cc") or "_cc" in r["variant"]:
                assert r["tags"] == ["cnative"], r


# ---------------------------------------------------------------------------
# the compiled tier's thread pool: concurrent callers, fork
# ---------------------------------------------------------------------------

needs_cnative = pytest.mark.skipif(not _CNATIVE_OK, reason="no cnative backend")


def _pool_poisson(nx: int):
    """5-point Poisson on an ``nx`` x ``nx`` grid as CRS and pJDS."""
    from repro.matrices.generators import poisson2d

    coo = poisson2d(nx)
    return convert(coo, "CRS"), convert(coo, "pJDS")


def _fork_child(conn, jds, x, a):
    from repro.solvers import vector

    try:
        y = bind(jds, tune=False, variant="jds_cc").spmv(x)
        conn.send((vector.dot(a, a), y))
    finally:
        conn.close()


@needs_cnative
class TestComputePool:
    """The compiled tier's thread pool under concurrency and fork."""

    def test_concurrent_callers_bitwise(self):
        """Four Python threads call kernels at once (ctypes drops the
        GIL): a caller that finds the pool busy runs inline, and no
        chunk of one caller's job runs against another's buffers."""
        import sys
        import threading

        from repro.solvers import vector

        csr, jds = _pool_poisson(128)
        rng = np.random.default_rng(44)
        x = rng.standard_normal(jds.ncols)
        X = rng.standard_normal((csr.ncols, 8))
        n = 1 << 16
        p, ap, x0, r0 = (rng.standard_normal(n) for _ in range(4))

        def run_once(jb, ws):
            xs, rs = x0.copy(), r0.copy()
            rr = vector.cg_update(0.37, p, ap, xs, rs)
            out = np.zeros((csr.nrows, 8))
            get_kernel(csr, "spmm_csr_cc", "spmm").run(csr, X, out, ws)
            return jb.spmv(x).copy(), out, xs, rs, rr

        ref = run_once(bind(jds, tune=False, variant="jds_cc"), Workspace())
        start = threading.Barrier(4)
        bad: list[str] = []

        def caller(tid):
            jb = bind(jds, tune=False, variant="jds_cc")
            ws = Workspace()
            start.wait(timeout=30)
            for i in range(50):
                got = run_once(jb, ws)
                names = ("spmv", "spmm", "x", "r", "rr")
                for what, g, want in zip(names, got, ref):
                    if not np.array_equal(g, want):
                        bad.append(f"thread {tid} call {i}: {what}")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(t,)) for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not bad, bad[:5]

    def test_kernels_run_in_a_forked_child(self):
        """The pool restarts in a forked child (an OpenMP team does not
        survive fork: the child's first parallel call hung)."""
        from repro.solvers import vector
        from repro.utils.workers import mp_context

        _, jds = _pool_poisson(128)
        rng = np.random.default_rng(45)
        x = rng.standard_normal(jds.ncols)
        a = rng.standard_normal(1 << 20)
        y = bind(jds, tune=False, variant="jds_cc").spmv(x)
        want = (vector.dot(a, a), y)
        ctx = mp_context()
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_fork_child, args=(send, jds, x, a))
        proc.start()
        send.close()
        try:
            got = recv.recv() if recv.poll(60) else None
            proc.join(timeout=60)
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()
            recv.close()
        assert proc.exitcode == 0
        proc.close()
        assert got is not None
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])


# ---------------------------------------------------------------------------
# tentpole: the LinearOperator protocol
# ---------------------------------------------------------------------------

class TestLinearOperatorProtocol:
    def test_as_linear_operator_passthrough_and_adapt(self):
        m = convert(random_coo(20, seed=4), "CRS")
        op = as_linear_operator(m)
        assert isinstance(op, BoundOperator)
        assert as_linear_operator(op) is op
        bound = bind(m, tune=False)
        bop = as_linear_operator(bound)
        assert bop.shape == m.shape and bop.dtype == m.dtype
        with pytest.raises(TypeError, match="cannot adapt"):
            as_linear_operator(object())

    def test_apply_permuted_raises_for_flat_formats(self):
        m = convert(random_coo(16, seed=5), "CRS")
        with pytest.raises(TypeError, match="no permuted-basis kernel"):
            as_linear_operator(m).apply_permuted(np.ones(16))

    def test_solver_operator_requires_square(self):
        m = convert(random_coo(20, 30, seed=6), "CRS")
        with pytest.raises(ValueError, match="square"):
            solver_operator(m)

    def test_solver_operator_identity_for_flat_formats(self):
        m = convert(random_coo(24, seed=7), "ELLPACK")
        op = solver_operator(m)
        assert op.permutation.is_identity
        x = np.arange(24, dtype=float)
        np.testing.assert_array_equal(op.enter(x), x)

    def test_counting_operator_accounting(self):
        m = convert(random_coo(20, seed=8), "pJDS")
        op = CountingOperator(solver_operator(m))
        x = np.ones(20)
        op.apply(op.enter(x))
        assert op.count == 1
        op.apply_block(np.ones((20, 5)))
        assert op.count == 6
        op.apply_permuted(np.ones(20))
        assert op.count == 7
        op.reset()
        assert op.count == 0
        # extras delegate to the wrapped PermutedOperator
        assert op.permutation is not None
        assert op.size == 20
        np.testing.assert_allclose(
            op.leave(op.enter(x)), x
        )

    def test_counting_operator_publishes_to_obs(self):
        from repro import obs

        m = convert(random_coo(12, seed=9), "CRS")
        op = CountingOperator(as_linear_operator(m))
        op.apply(np.ones(12))
        obs.reset()
        obs.enable()
        try:
            total = op.publish("test-solver")
            assert total == 1
            fam = obs.counter("solver_spmv_total")
            assert fam.labels(solver="test-solver").value == 1
        finally:
            obs.disable()
            obs.reset()

    def test_apply_repeated(self):
        coo = random_coo(18, seed=10)
        m = convert(coo, "CRS")
        A = dense_of(coo)
        x = np.random.default_rng(1).standard_normal(18)
        np.testing.assert_allclose(apply_repeated(m, x, 1), A @ x)
        np.testing.assert_allclose(
            apply_repeated(m, x, 3), A @ (A @ (A @ x)), rtol=1e-10
        )
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            apply_repeated(m, x, 0)

    def test_permuted_operator_without_diagonal(self):
        from repro.core.sorting import Permutation

        op = PermutedOperator(
            lambda x: 2.0 * x, Permutation.identity(4), np.float64
        )
        with pytest.raises(NotImplementedError, match="without a diagonal"):
            op.diagonal()
        np.testing.assert_allclose(op.apply(np.ones(4)), 2.0 * np.ones(4))

    def test_kernel_spec_is_frozen(self):
        spec = KernelSpec("x", lambda *a: None)
        with pytest.raises(Exception):
            spec.name = "y"

    def test_protocol_base_defaults(self):
        class _Two(LinearOperator):
            @property
            def shape(self):
                return (3, 3)

            @property
            def dtype(self):
                return np.dtype(np.float64)

            def apply(self, x, out=None):
                y = 2.0 * np.asarray(x)
                if out is not None:
                    out[:] = y
                    return out
                return y

        op = _Two()
        assert op.nrows == 3 and op.ncols == 3
        X = np.eye(3)
        np.testing.assert_allclose(op.apply_block(X), 2.0 * X)
        with pytest.raises(TypeError):
            op.apply_permuted(np.ones(3))
        with pytest.raises(NotImplementedError):
            op.diagonal()


# ---------------------------------------------------------------------------
# cross-backend adapters (distributed / serve)
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("no_leaks")
class TestBackendAdapters:
    def test_distributed_operator_processes(self):
        from repro.distributed import RankPool

        coo = random_coo(64, seed=31)
        m = convert(coo, "CRS")
        A = dense_of(coo)
        x = np.random.default_rng(2).standard_normal(64)
        with RankPool(_balanced_plan(m, 2), backend="processes") as op:
            # vector mode is bitwise-identical to the serial kernel
            np.testing.assert_array_equal(op.apply(x), m.spmv(x))
            np.testing.assert_allclose(op.apply(x), A @ x)
            assert op.shape == (64, 64)
            out = np.empty(64)
            assert op.apply(x, out=out) is out
        # solvers accept it through the uniform entry point
        sop = solver_operator_from_backend(m, A, x)
        np.testing.assert_allclose(sop, A @ x)

    def test_distributed_operator(self):
        from repro.distributed import RankPool, build_plan, partition_rows

        coo = random_coo(60, seed=32)
        m = convert(coo, "CRS")
        A = dense_of(coo)
        x = np.random.default_rng(3).standard_normal(60)
        plan = build_plan(m, partition_rows(60, 3))
        with RankPool(plan) as op:
            assert op.shape == (60, 60)
            y1 = op.apply(x)
            np.testing.assert_allclose(y1, A @ x)
            # deterministic: repeated applies are bitwise-identical
            np.testing.assert_array_equal(y1, op.apply(x))

    def test_serve_operator(self):
        """A matrix served by the fleet, viewed as the router's operator."""
        from repro.serve import Fleet, FleetRouter

        coo = random_coo(40, seed=33)
        m = convert(coo, "CRS")
        A = dense_of(coo)
        x = np.random.default_rng(4).standard_normal(40)
        serial = bind(m, tune=False)
        with Fleet(2, mode="inproc", max_batch=4, workers=1) as fleet:
            router = FleetRouter(fleet)
            router.register("A", m)
            op = router.operator("A")
            assert op.shape == (40, 40) and op.dtype == m.dtype
            # scatter/gather over shard batches is bitwise-identical to
            # the pinned serial variant
            np.testing.assert_array_equal(op.apply(x), serial.spmv(x))
            np.testing.assert_allclose(op.apply(x), A @ x)
            sop = solver_operator(op)
            np.testing.assert_allclose(sop.apply(x), A @ x)


def _balanced_plan(m, nparts):
    from repro.distributed import build_plan, partition_rows

    part = partition_rows(m.nrows, nparts, row_weights=m.row_lengths())
    return build_plan(m, part)


def solver_operator_from_backend(m, A, x):
    """solver_operator over a generic backend adapter (identity basis)."""
    from repro.distributed import RankPool

    with RankPool(_balanced_plan(m, 2), backend="processes") as dop:
        op = solver_operator(dop)
        assert op.permutation.is_identity
        return op.leave(op.apply(op.enter(x)))
