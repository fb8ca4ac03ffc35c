"""Tests for the reference (paper listing) kernels and the dispatch
entry points (:mod:`repro.engine` operators, :mod:`repro.ops`)."""

import numpy as np
import pytest

from repro.engine import bind
from repro.formats import convert
from repro.kernels import (
    csr_spmv_reference,
    ellpack_r_spmv_reference,
    ellpack_spmv_reference,
    pjds_spmv_reference,
)
from repro.ops import apply_repeated, as_linear_operator

from _test_common import random_coo


@pytest.fixture(scope="module")
def coo():
    return random_coo(40, seed=81)


@pytest.fixture(scope="module")
def x(coo):
    return np.random.default_rng(0).normal(size=coo.ncols)


class TestListingTranscriptions:
    def test_listing1_ellpack_r(self, coo, x):
        """Listing 1 agrees with the vectorised ELLPACK-R kernel."""
        m = convert(coo, "ELLPACK-R", row_pad=1)
        ref = ellpack_r_spmv_reference(
            m.val.ravel(), m.col.ravel(), m.rowmax, coo.nrows, m.width, x
        )
        assert np.allclose(ref, coo.spmv(x))

    def test_listing1_with_row_padding(self, coo, x):
        m = convert(coo, "ELLPACK-R", row_pad=32)
        ref = ellpack_r_spmv_reference(
            m.val.ravel(), m.col.ravel(), m.rowmax, coo.nrows, m.width, x
        )
        assert np.allclose(ref, coo.spmv(x))

    def test_plain_ellpack_computes_padding_safely(self, coo, x):
        """The plain kernel streams the zero fill; result is unchanged."""
        m = convert(coo, "ELLPACK", row_pad=1)
        ref = ellpack_spmv_reference(
            m.val.ravel(), m.col.ravel(), coo.nrows, m.width, x
        )
        assert np.allclose(ref, coo.spmv(x))

    def test_listing2_pjds(self, coo, x):
        """Listing 2 agrees with the vectorised pJDS kernel (stored order)."""
        p = convert(coo, "pJDS", block_rows=8)
        acc = pjds_spmv_reference(
            p.val, p.col_idx, p.col_start, p.rowmax, coo.nrows, x
        )
        y = np.empty(coo.nrows)
        y[p.permutation.perm] = acc
        assert np.allclose(y, coo.spmv(x))

    def test_listing2_jds(self, coo, x):
        j = convert(coo, "JDS")
        acc = pjds_spmv_reference(
            j.val, j.col_idx, j.col_start, j.rowmax, coo.nrows, x
        )
        y = np.empty(coo.nrows)
        y[j.permutation.perm] = acc
        assert np.allclose(y, coo.spmv(x))

    def test_csr_reference(self, coo, x):
        m = convert(coo, "CRS")
        ref = csr_spmv_reference(m.indptr, m.indices, m.data, x)
        assert np.allclose(ref, coo.spmv(x))


class TestDispatch:
    def test_spmv_helper(self, coo, x):
        m = convert(coo, "CRS")
        assert np.allclose(as_linear_operator(m).apply(x), m.spmv(x))

    def test_operator_plain(self, coo, x):
        p = convert(coo, "pJDS", block_rows=8)
        op = bind(p, tune=False).spmv
        assert np.allclose(op(x), coo.spmv(x))

    def test_operator_permuted(self, coo, x):
        p = convert(coo, "pJDS", block_rows=8)
        op = bind(p, tune=False).spmv_permuted
        xp = p.permutation.to_permuted(x)
        assert np.allclose(p.permutation.to_original(op(xp)), coo.spmv(x))

    def test_operator_permuted_unsupported(self, coo, x):
        m = convert(coo, "CRS")
        op = bind(m, tune=False).spmv_permuted
        with pytest.raises(TypeError, match="permuted"):
            op(x)

    def test_power_apply(self, coo, x):
        m = convert(coo, "CRS")
        y = apply_repeated(m, x, 3)
        assert np.allclose(y, m.spmv(m.spmv(m.spmv(x))))

    def test_power_apply_one(self, coo, x):
        m = convert(coo, "CRS")
        assert np.allclose(apply_repeated(m, x, 1), m.spmv(x))

    def test_power_apply_bad_reps(self, coo, x):
        m = convert(coo, "CRS")
        with pytest.raises(ValueError):
            apply_repeated(m, x, 0)
