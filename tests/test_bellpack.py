"""Tests for the BELLPACK blocked format."""

import numpy as np
import pytest

from repro.formats import BELLPACKMatrix, COOMatrix, convert
from repro.matrices import SUITE_KEYS, block_sparse, generate

from _test_common import random_coo


@pytest.fixture(scope="module")
def blocky():
    """A matrix made of dense 4x4 blocks (perfect tiling case)."""
    return block_sparse(8, 8, 4, np.array([3, 1, 4, 2, 5, 2, 3, 1]), seed=211)


@pytest.fixture(scope="module")
def scattered():
    return random_coo(50, seed=212, max_row=8)


class TestCorrectness:
    def test_spmv_on_block_matrix(self, blocky):
        m = BELLPACKMatrix.from_coo(blocky, block_rows=4)
        x = np.random.default_rng(0).normal(size=blocky.ncols)
        assert np.allclose(m.spmv(x), blocky.spmv(x))

    def test_spmv_on_scattered_matrix(self, scattered):
        m = BELLPACKMatrix.from_coo(scattered, block_rows=3)
        x = np.random.default_rng(1).normal(size=scattered.ncols)
        assert np.allclose(m.spmv(x), scattered.spmv(x))

    def test_rectangular_blocks(self, scattered):
        m = BELLPACKMatrix.from_coo(scattered, block_rows=2, block_cols=5)
        x = np.random.default_rng(2).normal(size=scattered.ncols)
        assert np.allclose(m.spmv(x), scattered.spmv(x))

    def test_non_dividing_dimensions(self):
        coo = random_coo(17, 23, seed=213, max_row=5)
        m = BELLPACKMatrix.from_coo(coo, block_rows=4)
        x = np.random.default_rng(3).normal(size=23)
        assert np.allclose(m.spmv(x), coo.spmv(x))

    def test_roundtrip_structural(self, blocky):
        """to_coo recovers the structural non-zeros (explicit zeros
        inside blocks are indistinguishable from padding)."""
        m = BELLPACKMatrix.from_coo(blocky, block_rows=4)
        assert np.allclose(m.to_coo().todense(), blocky.todense())

    def test_empty_matrix(self):
        coo = COOMatrix([], [], [], (6, 6))
        m = BELLPACKMatrix.from_coo(coo, block_rows=3)
        assert np.all(m.spmv(np.ones(6)) == 0.0)

    def test_single_block(self):
        coo = COOMatrix([0, 1], [1, 0], [2.0, 3.0], (2, 2))
        m = BELLPACKMatrix.from_coo(coo, block_rows=2)
        assert m.nblockrows == 1
        assert m.width == 1
        assert np.allclose(m.spmv(np.array([1.0, 2.0])), [4.0, 3.0])


def _to_coo_per_block(m):
    """BELLPACK -> COO triplets block by block: every non-zero of each
    stored block (slot j < blocks_per_row[b]) in slot, block-row and
    row-major order, clipped to the matrix shape."""
    br, bc = m.block_shape
    val, col = m._val, m._col
    rows, cols, vals = [], [], []
    for j in range(m.width):
        for b in np.nonzero(m.blocks_per_row > j)[0]:
            r, c = np.nonzero(val[j, b])
            rows.append(b * br + r)
            cols.append(col[j, b] * bc + c)
            vals.append(val[j, b][r, c])
    rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    vals = np.concatenate(vals) if vals else np.empty(0, dtype=m.dtype)
    keep = (rows < m.nrows) & (cols < m.ncols)
    return COOMatrix(rows[keep], cols[keep], vals[keep], m.shape,
                     sum_duplicates=False)


def _assert_same_coo(got, want):
    for name in ("rows", "cols", "values"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


class TestToCOO:
    @pytest.mark.parametrize("br,bc", [(4, 4), (3, 3), (2, 5)])
    def test_matches_per_block_walk(self, scattered, br, bc):
        m = BELLPACKMatrix.from_coo(scattered, block_rows=br, block_cols=bc)
        _assert_same_coo(m.to_coo(), _to_coo_per_block(m))
        _assert_same_coo(m.to_coo(), scattered)

    def test_drops_explicit_zeros_and_clips_edge_blocks(self):
        """Explicit zeros inside a block are dropped; entries of edge
        blocks past nrows/ncols and of slots past a block-row's count
        are not part of the matrix."""
        coo = random_coo(17, 23, seed=214, max_row=5)
        m = BELLPACKMatrix.from_coo(coo, block_rows=4, block_cols=3)
        val = m._val.copy()
        val[0, -1, -1, :] = 7.0  # rows 17..19 of the last block-row
        val[0, 0, 0, :] = 0.0  # explicit zeros in a stored block
        val[:, :, :, -1] += 5.0  # column 23 of the edge block-column
        short = int(np.argmin(m.blocks_per_row))
        val[-1, short] = 3.0  # a padding slot
        assert m.blocks_per_row[short] < m.width
        edge = BELLPACKMatrix(val, m._col, m.blocks_per_row, m.shape, m.nnz)
        got = edge.to_coo()
        _assert_same_coo(got, _to_coo_per_block(edge))
        assert got.rows.max() < 17 and got.cols.max() < 23
        assert np.all(got.values != 0)

    def test_explicit_zeros_stay_entries(self):
        """Zeros the matrix was built with are entries, not fill: they
        survive the round trip and count in row_lengths and nnz."""
        from repro.formats import verify_format

        coo = COOMatrix([0, 0, 2, 4], [0, 3, 1, 4], [0.0, 1.5, -0.0, 2.0], (5, 5))
        m = BELLPACKMatrix.from_coo(coo, block_rows=2)
        _assert_same_coo(m.to_coo(), coo)
        assert np.array_equal(m.row_lengths(), coo.row_lengths())
        verify_format(m)

    def test_empty(self):
        m = BELLPACKMatrix.from_coo(COOMatrix([], [], [], (6, 6)), block_rows=3)
        _assert_same_coo(m.to_coo(), _to_coo_per_block(m))
        assert m.to_coo().nnz == 0


class TestFootprint:
    def test_perfect_tiling_low_fill(self, blocky):
        m = BELLPACKMatrix.from_coo(blocky, block_rows=4)
        # fill = padding of block-rows to the max block count only
        assert m.fill_ratio < 3.0

    def test_scattered_matrix_high_fill(self, scattered):
        """The paper's point: blocked formats need real block structure."""
        m = BELLPACKMatrix.from_coo(scattered, block_rows=4)
        assert m.fill_ratio > 3.0

    def test_dlr2_beats_pjds_on_index_bytes(self):
        """On a genuinely 5x5-blocked matrix BELLPACK amortises the
        column index 25x; pJDS still wins on value padding."""
        coo = generate("DLR2", scale=512)
        bell = BELLPACKMatrix.from_coo(coo, block_rows=5)
        pjds = convert(coo, "pJDS")
        assert bell.memory_breakdown()["col_idx"] < pjds.memory_breakdown()["col_idx"]

    def test_memory_breakdown_fields(self, blocky):
        m = BELLPACKMatrix.from_coo(blocky, block_rows=4)
        bd = m.memory_breakdown()
        assert set(bd) == {"val", "col_idx", "blocks_per_row"}
        assert bd["val"] == m.stored_blocks * 16 * 8

    def test_row_lengths(self, blocky):
        m = BELLPACKMatrix.from_coo(blocky, block_rows=4)
        assert np.array_equal(m.row_lengths(), blocky.row_lengths())

    @pytest.mark.parametrize("key", SUITE_KEYS)
    def test_row_lengths_match_coo_on_suite(self, key):
        m = convert(generate(key, scale=512, seed=0), "BELLPACK")
        got, want = m.row_lengths(), m.to_coo().row_lengths()
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_row_lengths_empty(self):
        m = BELLPACKMatrix.from_coo(COOMatrix([], [], [], (7, 6)), block_rows=3)
        got = m.row_lengths()
        assert got.shape == (7,) and not got.any()
        assert got.dtype == m.to_coo().row_lengths().dtype

    def test_row_lengths_skip_zeros_padding_and_edges(self):
        """Hand-set values that to_coo drops are not counted either."""
        coo = random_coo(17, 23, seed=214, max_row=5)
        m = BELLPACKMatrix.from_coo(coo, block_rows=4, block_cols=3)
        val = m._val.copy()
        val[0, -1, -1, :] = 7.0  # rows 17..19 of the last block-row
        val[0, 0, 0, :] = 0.0  # explicit zeros in a stored block
        val[:, :, :, -1] += 5.0  # column 23 of the edge block-column
        short = int(np.argmin(m.blocks_per_row))
        val[-1, short] = 3.0  # a padding slot
        edge = BELLPACKMatrix(val, m._col, m.blocks_per_row, m.shape, m.nnz)
        assert np.array_equal(edge.row_lengths(), edge.to_coo().row_lengths())


class TestValidation:
    def test_unknown_kwarg(self, scattered):
        with pytest.raises(TypeError, match="unexpected"):
            BELLPACKMatrix.from_coo(scattered, sigma=2)

    def test_registered(self, scattered):
        m = convert(scattered, "BELLPACK", block_rows=2)
        assert isinstance(m, BELLPACKMatrix)

    def test_bad_block_size(self, scattered):
        with pytest.raises(ValueError):
            BELLPACKMatrix.from_coo(scattered, block_rows=0)
