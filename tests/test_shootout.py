"""The format shootout grid: one measured row per (matrix, format)."""

import pytest

from repro.formats import available_formats, convert
from repro.gpu import C2070, simulate_spmv
from repro.matrices import generate
from repro.ops import get_variant, variants_for
from repro.ops.registry import STORED_CSR_TAG
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
    """Native is never the stored-CSR delegate while the format has
    another kernel: COO and BELLPACK stream their own triplets and
    tiles, the others their cnative kernel when the tier is built."""
    for r in rows:
        m = stored[r["format"]]
        tags = get_variant(m, r["native"]).tags
        if len(variants_for(m)) > 1 or r["row_order"] is None:
            assert STORED_CSR_TAG not in tags, r["format"]
        assert r["native_tier"] == ("cnative" if "cnative" in tags else "scipy")
        if r["row_order"] is not None:
            assert STORED_CSR_TAG in get_variant(m, r["row_order"]).tags
    native = {r["format"]: r["native"] for r in rows}
    assert native["COO"] == "coo_scipy" and native["BELLPACK"] == "bell_scipy"


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


def test_one_row_per_cell_with_the_compiled_tier_off():
    """With every compiled backend disabled, the formats whose only
    kernel is the stored-CSR delegate still get a row, which names
    the delegate as what ran."""
    import json
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    code = (
        "import json\n"
        "from repro.perfmodel.shootout import shootout\n"
        "rows = shootout(('sAMG',), 2048, reps=1)\n"
        "print(json.dumps([[r['format'], r['native'], r['native_tier'],"
        " r['row_order']] for r in rows]))\n"
    )
    env = dict(os.environ, REPRO_COMPILED_DISABLE="all")
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=root,
        capture_output=True, text=True, check=True,
    )
    got = {f: (n, t, ro) for f, n, t, ro in json.loads(proc.stdout)}
    assert sorted(got) == available_formats()
    for fmt, (native, tier, row_order) in got.items():
        assert tier == "scipy", fmt
        if fmt in ("COO", "BELLPACK"):
            assert row_order is None and native.endswith("_scipy"), fmt
        else:
            assert native == row_order, fmt
