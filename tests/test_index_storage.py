"""Index storage: every nnz-sized index array a kernel streams is int32.

Eq. (1) charges 4 bytes per stored index and ``memory_breakdown``
accounts 4; the arrays hold 4.  Offsets and all index arithmetic stay
int64, so products such as ``row * ncols`` cannot wrap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import bind
from repro.engine import tuner
from repro.formats import (
    STORED_INDEX_DTYPE,
    COOMatrix,
    CSRMatrix,
    IndexRangeError,
    available_formats,
    convert,
)
from repro.formats.base import INDEX_DTYPE
from repro.matrices import generate
from repro.matrices.analysis import structure_stats
from repro.matrices.cache import TunerCache
from repro.matrices.generators import banded_sparse
from repro.ops import stored_csr_triplet, variant_names_for
from repro.ops.spmv_kernels import stored_csr_views

#: the nnz-sized index arrays each format's kernels stream
STREAMED_INDEX_ARRAYS = {
    "COO": ("rows", "cols"),
    "CRS": ("indices",),
    "ELLPACK": ("col",),
    "ELLPACK-R": ("col",),
    "ELLR-T": ("col",),
    "BELLPACK": ("_col",),
    "JDS": ("col_idx",),
    "pJDS": ("col_idx",),
    "SELL-C-sigma": ("col_idx",),
    "CMRS": ("col_idx", "row_in_strip"),
    "ARG-CSR": ("col_idx",),
}

#: rows and columns of sAMG@64, whose product passes 2**31
SAMG64_N = 53_203

_COO = generate("sAMG", scale=1024, seed=0)


def _int32(a, what):
    assert np.asarray(a).dtype == STORED_INDEX_DTYPE, f"{what}: {a.dtype}"


class TestStoredIndexDtype:
    def test_every_registered_format_is_listed(self):
        assert sorted(STREAMED_INDEX_ARRAYS) == sorted(available_formats())

    @pytest.mark.parametrize("fmt", available_formats())
    def test_convert_stores_int32_indices(self, fmt):
        m = convert(_COO, fmt)
        for name in STREAMED_INDEX_ARRAYS[fmt]:
            _int32(getattr(m, name), f"{fmt}.{name}")
        _int32(m.to_coo().cols, f"{fmt}.to_coo().cols")

    @pytest.mark.parametrize("fmt", ["JDS", "pJDS"])
    def test_permuted_columns_are_int32(self, fmt):
        m = convert(_COO, fmt)
        _int32(m._permuted_col_idx(), f"{fmt} permuted col_idx")  # noqa: SLF001

    @pytest.mark.parametrize(
        "fmt", ["CRS", "ELLPACK", "pJDS", "SELL-C-sigma", "CMRS", "ARG-CSR"]
    )
    def test_stored_csr_views_have_int32_columns(self, fmt):
        m = convert(_COO, fmt)
        indptr, indices, _ = stored_csr_triplet(m)
        _int32(indices, f"{fmt} view indices")
        assert indptr.dtype == indices.dtype  # one scipy index type

    @pytest.mark.parametrize("fmt", ["CRS", "CMRS"])
    def test_csr_views_alias_the_matrix_columns(self, fmt):
        """No narrowed copy is cached beside the format's own array."""
        m = convert(_COO, fmt)
        own = m.indices if fmt == "CRS" else m.col_idx
        assert np.shares_memory(stored_csr_triplet(m)[1], own)

    def test_offsets_stay_int64(self):
        assert convert(_COO, "CRS").indptr.dtype == INDEX_DTYPE
        assert convert(_COO, "pJDS").col_start.dtype == INDEX_DTYPE
        assert convert(_COO, "SELL-C-sigma").chunk_ptr.dtype == INDEX_DTYPE
        assert convert(_COO, "CMRS").strip_ptr.dtype == INDEX_DTYPE


class TestFleetRoundTrip:
    def test_compact_columns_emits_int32(self):
        from repro.serve.router import compact_columns

        csr = convert(_COO, "CRS")
        block, cols = compact_columns(csr, 10, 200)
        _int32(block.indices, "block indices")
        np.testing.assert_array_equal(
            cols[block.indices], csr.indices[csr.indptr[10]:csr.indptr[200]]
        )

    def test_block_transport_keeps_int32(self):
        import mmap

        from repro.serve.fleet import _copy_in, _copy_out

        csr = convert(_COO, "CRS")
        arrays = (csr.indptr, csr.indices, csr.data)
        mm = mmap.mmap(-1, sum(a.nbytes for a in arrays))
        try:
            layout = _copy_in(mm, arrays)
            back = CSRMatrix(*_copy_out(mm, layout), csr.shape)
        finally:
            mm.close()
        _int32(back.indices, "shipped indices")
        for a, b in zip(arrays, (back.indptr, back.indices, back.data)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestIndexRange:
    def test_ncols_of_2_31_raises_named_error(self):
        with pytest.raises(IndexRangeError, match="cols"):
            COOMatrix([0], [0], [1.0], (1, 2**31))

    def test_nrows_of_2_31_raises_named_error(self):
        with pytest.raises(IndexRangeError, match="rows"):
            COOMatrix([0], [0], [1.0], (2**31, 1))

    def test_csr_ncols_of_2_31_raises_named_error(self):
        with pytest.raises(IndexRangeError):
            CSRMatrix([0, 1], [5], [1.0], (1, 2**31))

    def test_just_below_the_limit_is_stored(self):
        m = COOMatrix([0], [2**31 - 2], [1.0], (1, 2**31 - 1))
        _int32(m.cols, "cols")
        assert int(m.cols[0]) == 2**31 - 2

    def test_index_range_error_is_a_value_error(self):
        assert issubclass(IndexRangeError, ValueError)


class TestIndexArithmeticStaysWide:
    """int32 rows times an int dimension would wrap at sAMG@64 sizes."""

    def test_generator_band_centre(self):
        n = SAMG64_N
        coo = banded_sparse(n, 8, np.ones(n, dtype=np.int64), seed=0)
        assert int(np.abs(coo.cols.astype(np.int64) - coo.rows).max()) < 8

    def test_structure_stats_band_centre(self):
        n = SAMG64_N
        coo = COOMatrix([n - 1], [n - 1], [1.0], (n, n))
        assert structure_stats(coo).mean_abs_col_distance == 0.0


class TestTunerDropsLosingViews:
    def _fixed(self, monkeypatch, winner):
        def fake(variant, matrix, ws, x, y, reps):
            variant.run(matrix, ws, x, y)  # builds what the variant builds
            return 1.0 if variant.name == winner else 2.0

        monkeypatch.setattr(tuner, "_time_variant", fake)

    def test_view_of_a_losing_scipy_kernel_is_dropped(self, monkeypatch):
        m = convert(_COO, "pJDS")
        loser = [v for v in variant_names_for(m) if v != "jds_scipy"][-1]
        self._fixed(monkeypatch, loser)
        b = bind(m, cache=TunerCache(persist=False))
        assert b.variant_name == loser
        assert stored_csr_views(m) == {}
        # a batch rebuilds the view it needs
        X = np.ones((m.ncols, 2))
        np.testing.assert_array_equal(b.spmm(X), m.spmm(X))

    def test_view_of_a_winning_scipy_kernel_is_kept(self, monkeypatch):
        m = convert(_COO, "pJDS")
        self._fixed(monkeypatch, "jds_scipy")
        bind(m, cache=TunerCache(persist=False))
        assert "orig" in stored_csr_views(m)


class TestBatchStacking:
    @pytest.mark.parametrize("fmt", ["CRS", "pJDS", "SELL-C-sigma", "COO"])
    def test_rhs_block_is_read_in_place(self, fmt):
        m = convert(_COO, fmt)
        b = bind(m, tune=False)
        W = np.random.default_rng(3).standard_normal((m.ncols, 3))
        X = np.stack(list(W.T), axis=1, out=b.rhs_block(3))
        Y = b.spmm(X)
        np.testing.assert_array_equal(Y, m.spmm(W))
        allocations = b.workspace.allocations
        X = np.stack(list(W.T[:2]), axis=1, out=b.rhs_block(2))
        assert np.shares_memory(X, b.rhs_block(3))
        np.testing.assert_array_equal(b.spmm(X), m.spmm(W[:, :2]))
        assert b.workspace.allocations == allocations
