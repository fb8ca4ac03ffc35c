"""Unit tests for classic JDS and the shared jagged machinery."""

import contextlib

import numpy as np
import pytest

from repro.core import JDSMatrix, PJDSMatrix, Permutation, jagged_fill
from repro.core import jds
from repro.formats import COOMatrix
from repro.kernels import compiled

from _test_common import random_coo


@pytest.fixture(scope="module")
def coo() -> COOMatrix:
    return random_coo(55, seed=51)


def _scatter_formula(coo, perm, padded):
    """The jagged layout entry by entry: the j-th stored entry of
    original row r sits at stored position k = perm.inverse[r] of
    jagged column j, flat slot ``col_start[j] + k``, where column j
    holds one slot per stored row with padded length > j."""
    width = int(padded[0]) if len(padded) else 0
    col_start = [0]
    for j in range(width):
        col_start.append(col_start[-1] + int(np.count_nonzero(padded > j)))
    val = np.zeros(col_start[-1], dtype=coo.dtype)
    col_idx = np.zeros(col_start[-1], dtype=np.int32)
    seen = {}
    for r, c, v in zip(coo.rows.tolist(), coo.cols.tolist(), coo.values):
        j = seen.get(r, 0)
        seen[r] = j + 1
        pos = col_start[j] + int(perm.inverse[r])
        val[pos] = v
        col_idx[pos] = c
    lengths = np.bincount(coo.rows, minlength=coo.nrows)[perm.perm]
    return val, col_idx, np.asarray(col_start, dtype=np.int64), lengths


_FILL_GRID = pytest.mark.parametrize(
    "fmt,kw",
    [
        (PJDSMatrix, {}),
        (PJDSMatrix, {"block_rows": 4}),
        (PJDSMatrix, {"block_rows": 4, "sigma": 8}),
        (JDSMatrix, {}),
        (JDSMatrix, {"sigma": 8}),
    ],
)

#: matrices the compiled set-up kernels are checked on
_SETUP_CASES = {
    "empty_rows": lambda: random_coo(70, seed=55, max_row=11, empty_row_fraction=0.3),
    "float32": lambda: random_coo(
        70, seed=56, max_row=11, dtype=np.float32, empty_row_fraction=0.3
    ),
    "nnz0": lambda: COOMatrix([], [], [], (0, 0)),
    "one_row": lambda: random_coo(1, 9, seed=57, max_row=6, min_row=1),
    "all_rows_empty": lambda: COOMatrix([], [], [], (7, 7)),
}


@pytest.fixture
def compiled_ran(monkeypatch):
    """Names of the compiled set-up kernels that ran (the wrappers
    return ``False`` and write nothing when the tier is off)."""
    ran = []
    for name in ("_fill_cc", "_rows_cc"):
        def spy(*args, _real=getattr(jds, name), _name=name):
            done = _real(*args)
            if done:
                ran.append(_name)
            return done

        monkeypatch.setattr(jds, name, spy)
    return ran


@contextlib.contextmanager
def _numpy_only():
    """The set-up runs its NumPy bodies inside this block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jds, "_cnative", lambda: None)
        yield


def _assert_bitwise(got, want, names):
    for name, g, w in zip(names, got, want):
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


_TIER = compiled._CNATIVE is not None


class TestJaggedFill:
    @_FILL_GRID
    @pytest.mark.parametrize("seed", [52, 53, 54])
    def test_matches_scatter_formula(self, fmt, kw, seed):
        """Bitwise the per-entry scatter, on random COO with empty rows."""
        coo = random_coo(70, seed=seed, max_row=11, empty_row_fraction=0.3)
        assert np.any(coo.row_lengths() == 0)
        m = fmt.from_coo(coo, **kw)
        want = _scatter_formula(coo, m.permutation, m.padded_lengths)
        got = (m.val, m.col_idx, m.col_start, m.rowmax)
        got_fill = jagged_fill(coo, m.permutation, m.padded_lengths)
        for name, w, g, f in zip(("val", "col_idx", "col_start", "rowmax"),
                                 want, got, got_fill):
            assert g.dtype == f.dtype, name
            np.testing.assert_array_equal(g, w, err_msg=name)
            np.testing.assert_array_equal(f, g, err_msg=name)

    @_FILL_GRID
    @pytest.mark.parametrize("case", sorted(_SETUP_CASES))
    def test_compiled_fill_matches_numpy(self, fmt, kw, case, compiled_ran):
        """The compiled fill is bitwise the NumPy fill, and it ran."""
        coo = _SETUP_CASES[case]()
        m = fmt.from_coo(coo, **kw)
        assert compiled_ran == (["_fill_cc"] if _TIER else [])
        with _numpy_only():
            ref = fmt.from_coo(coo, **kw)
        names = ("val", "col_idx", "col_start", "rowmax", "padded", "perm")

        def arrays(a):
            return (a.val, a.col_idx, a.col_start, a.rowmax,
                    a.padded_lengths, a.permutation.perm)

        _assert_bitwise(arrays(m), arrays(ref), names)
        assert m.val.dtype == coo.dtype

    @_FILL_GRID
    @pytest.mark.parametrize("case", sorted(_SETUP_CASES))
    def test_compiled_view_matches_numpy(self, fmt, kw, case, compiled_ran):
        """The compiled stored-row view is bitwise the NumPy view in
        both bases, built alone or sharing the other basis's values."""
        m = fmt.from_coo(_SETUP_CASES[case](), **kw)
        bases = (False, True) if m.nrows == m.ncols else (False,)
        names = ("indptr", "indices", "data")
        del compiled_ran[:]
        got = {p: m._stored_rows(p) for p in bases}
        data = got[False][2]
        shared = [m._stored_rows(True, data)] if len(bases) == 2 else []
        assert compiled_ran == (["_rows_cc"] * (len(got) + len(shared)) if _TIER else [])
        with _numpy_only():
            want = {p: m._stored_rows(p) for p in bases}
            shared += [m._stored_rows(True, data)] if shared else []
        for p in bases:
            _assert_bitwise(got[p], want[p], names)
        for view in shared:
            assert view[2] is data
            _assert_bitwise(view, want[True], names)
        indptr, indices, data = got[False]
        assert indptr[-1] == m.total_slots == indices.shape[0] == data.shape[0]
        np.testing.assert_array_equal(np.diff(indptr), m.padded_lengths)

    def test_permuted_view_needs_a_square_matrix(self):
        m = PJDSMatrix.from_coo(random_coo(6, 9, seed=58))
        with pytest.raises(ValueError, match="square"):
            m._stored_rows(True)

    def test_prefix_property(self, coo):
        lengths = coo.row_lengths()
        perm = Permutation(np.argsort(-lengths, kind="stable"))
        sorted_lengths = lengths[perm.perm]
        val, col, cs, true_l = jagged_fill(coo, perm, sorted_lengths)
        assert cs[-1] == coo.nnz  # no padding when padded == true
        assert np.array_equal(true_l, sorted_lengths)
        # column lengths are the counts of rows longer than j
        for j in range(len(cs) - 1):
            assert cs[j + 1] - cs[j] == int(np.count_nonzero(sorted_lengths > j))

    def test_rejects_increasing_padded_lengths(self, coo):
        perm = Permutation.identity(coo.nrows)
        bad = np.arange(coo.nrows)  # increasing
        with pytest.raises(ValueError, match="non-increasing"):
            jagged_fill(coo, perm, bad)

    def test_rejects_too_small_padding(self, coo):
        lengths = coo.row_lengths()
        perm = Permutation(np.argsort(-lengths, kind="stable"))
        with pytest.raises(ValueError, match="smaller"):
            jagged_fill(coo, perm, np.zeros(coo.nrows, dtype=np.int64))

    def test_wrong_shape_rejected(self, coo):
        perm = Permutation.identity(coo.nrows)
        with pytest.raises(ValueError, match="shape"):
            jagged_fill(coo, perm, np.zeros(3, dtype=np.int64))


class TestJDS:
    def test_spmv_matches_coo(self, coo):
        m = JDSMatrix.from_coo(coo)
        x = np.random.default_rng(0).normal(size=coo.ncols)
        assert np.allclose(m.spmv(x), coo.spmv(x))

    def test_zero_storage_overhead(self, coo):
        m = JDSMatrix.from_coo(coo)
        assert m.total_slots == coo.nnz
        assert m.padding_overhead == 0.0

    def test_equals_pjds_block_one(self, coo):
        j = JDSMatrix.from_coo(coo)
        p = PJDSMatrix.from_coo(coo, block_rows=1)
        assert j.total_slots == p.total_slots
        assert np.array_equal(j.col_start, p.col_start)
        assert np.array_equal(j.permutation.perm, p.permutation.perm)

    def test_roundtrip(self, coo):
        m = JDSMatrix.from_coo(coo)
        assert np.allclose(m.to_coo().todense(), coo.todense())

    def test_row_lengths_original_order(self, coo):
        m = JDSMatrix.from_coo(coo)
        assert np.array_equal(m.row_lengths(), coo.row_lengths())

    def test_memory_breakdown_fields(self, coo):
        m = JDSMatrix.from_coo(coo)
        bd = m.memory_breakdown()
        assert set(bd) == {"val", "col_idx", "col_start", "perm"}
        assert bd["val"] == coo.nnz * 8

    def test_sigma_windowed(self, coo):
        x = np.random.default_rng(1).normal(size=coo.ncols)
        for sigma in (1, 7, 1000):
            m = JDSMatrix.from_coo(coo, sigma=sigma)
            assert np.allclose(m.spmv(x), coo.spmv(x)), sigma

    def test_sigma_windowed_padding_appears(self, coo):
        """Windowed sorting forces the running-max lift => padding."""
        m = JDSMatrix.from_coo(coo, sigma=5)
        assert m.total_slots >= coo.nnz

    def test_width(self, coo):
        m = JDSMatrix.from_coo(coo)
        assert m.width == int(coo.row_lengths().max())

    def test_empty_rows_supported(self):
        coo = COOMatrix([0], [0], [1.0], (5, 5))
        m = JDSMatrix.from_coo(coo)
        x = np.ones(5)
        y = m.spmv(x)
        assert y[0] == 1.0
        assert np.all(y[1:] == 0.0)

    def test_unknown_kwarg_rejected(self, coo):
        with pytest.raises(TypeError, match="unexpected"):
            JDSMatrix.from_coo(coo, block_rows=4)

    def test_views_readonly(self, coo):
        m = JDSMatrix.from_coo(coo)
        for arr in (m.val, m.col_idx, m.col_start, m.rowmax, m.padded_lengths):
            with pytest.raises(ValueError):
                arr[0] = 0
