"""The format shootout grid: one measured row per (matrix, format)."""

import pytest

from repro.formats import available_formats, convert
from repro.gpu import C2070, simulate_spmv
from repro.matrices import generate
from repro.ops import get_variant
from repro.perfmodel.shootout import FORMAT_KWARGS, shootout

SCALE = 512


@pytest.fixture(scope="module")
def rows():
    return shootout(("sAMG",), SCALE, reps=3)


@pytest.fixture(scope="module")
def stored():
    coo = generate("sAMG", scale=SCALE)
    return {
        fmt: convert(coo, fmt, **FORMAT_KWARGS.get(fmt, {}))
        for fmt in available_formats()
    }


def test_rows_cover_the_registered_roster(rows):
    assert [r["format"] for r in rows] == list(available_formats())
    assert {r["matrix"] for r in rows} == {"sAMG"}


def test_native_streams_the_format_not_a_scipy_delegate(rows, stored):
    for r in rows:
        m = stored[r["format"]]
        assert "scipy" not in get_variant(m, r["native"]).tags, r["format"]
        tier_times = [t for t in (r["numpy_s"], r["cnative_s"]) if t is not None]
        assert r["native_s"] == min(tier_times)
        if r["row_order"] is not None:
            assert "scipy" in get_variant(m, r["row_order"]).tags


def test_useful_gflops_counts_two_flops_per_nonzero(rows):
    for r in rows:
        assert r["useful_gflops"] == pytest.approx(2 * r["nnz"] / r["native_s"] / 1e9)


def test_device_columns_none_only_where_the_model_rejects(rows, stored):
    dev = C2070(ecc=True).scaled(SCALE)
    for r in rows:
        cols = (r["device_gflops"], r["device_mib"], r["device_alpha"])
        if r["device_gflops"] is None:
            assert cols == (None, None, None)
            with pytest.raises(TypeError):
                simulate_spmv(stored[r["format"]], dev, "DP")
        else:
            assert None not in cols, r["format"]


def test_baseline_and_ceiling_columns(rows):
    crs = next(r for r in rows if r["format"] == "CRS")
    assert crs["row_order"] == "csr_scipy"
    for r in rows:
        assert r["csr_scipy_s"] == crs["row_order_s"]
        assert r["working_set_bytes"] > 0 and r["ceiling_gbs"] > 0
        assert r["roofline_efficiency"] > 0
        assert r["eq1_s"] > 0
