"""Tests for the format-invariant checker."""

import numpy as np
import pytest

from repro.formats import (
    COOMatrix,
    CSRMatrix,
    FormatInvariantError,
    convert,
    verify_format,
)

from _test_common import ALL_FORMATS, random_coo


class TestHealthyFormats:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_all_formats_pass(self, fmt):
        coo = random_coo(45, seed=231)
        verify_format(convert(coo, fmt))

    @pytest.mark.parametrize("fmt", ["pJDS", "SELL-C-sigma"])
    def test_sigma_variants_pass(self, fmt):
        coo = random_coo(45, seed=232)
        verify_format(convert(coo, fmt, sigma=7))

    def test_float32_tolerance(self):
        coo = random_coo(40, seed=233, dtype=np.float32)
        verify_format(convert(coo, "pJDS"))

    def test_empty_matrix(self):
        verify_format(COOMatrix([], [], [], (3, 3)))

    def test_skip_spmv(self):
        coo = random_coo(30, seed=234)
        verify_format(convert(coo, "pJDS"), check_spmv=False)


class TestViolations:
    def test_corrupted_rowmax_detected(self):
        """Inflating a true row length breaks the nnz bookkeeping."""
        coo = random_coo(30, seed=235)
        m = convert(coo, "pJDS")
        m._true_lengths.flags.writeable = True
        m._true_lengths[0] += 1  # inflate the longest row
        with pytest.raises(
            FormatInvariantError, match="padded|nnz|row_lengths"
        ):
            verify_format(m)

    def test_corrupted_col_start_detected(self):
        coo = random_coo(30, seed=236)
        m = convert(coo, "pJDS")
        m._col_start.flags.writeable = True
        m._col_start[1] = -1  # non-monotone vs col_start[0] = 0
        with pytest.raises(FormatInvariantError, match="monotone|col_start"):
            verify_format(m)

    def test_inconsistent_nnz_detected(self):
        coo = random_coo(30, seed=237)
        m = convert(coo, "CRS")
        m._nnz += 1  # bookkeeping lie
        with pytest.raises(FormatInvariantError, match="nnz|row_lengths"):
            verify_format(m)

    def test_broken_custom_format_detected(self):
        """A user format whose breakdown omits 'val' is rejected."""

        class Broken(CSRMatrix):
            name = "broken"

            def memory_breakdown(self):
                return {"data": 8}

        coo = random_coo(10, seed=238)
        src = CSRMatrix.from_coo(coo)
        m = Broken(src.indptr.copy(), src.indices.copy(), src.data.copy(), src.shape)
        with pytest.raises(FormatInvariantError, match="val"):
            verify_format(m)

    def test_negative_breakdown_detected(self):
        class Negative(CSRMatrix):
            name = "negative"

            def memory_breakdown(self):
                return {"val": -1}

        coo = random_coo(10, seed=239)
        src = CSRMatrix.from_coo(coo)
        m = Negative(src.indptr.copy(), src.indices.copy(), src.data.copy(), src.shape)
        with pytest.raises(FormatInvariantError, match="negative"):
            verify_format(m)
