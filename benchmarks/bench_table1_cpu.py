"""Table I, last row: Westmere-EP CRS (DP) baseline.

Paper values: DLR1 5.7, DLR2 5.8, HMEp 3.9, sAMG 4.1 GF/s.  The model
is bandwidth-limited CRS with a cache-derived alpha; the wall-clock
bench times the CRS kernel the unbound ``spmv`` runs (the format's
rank-0 registry kernel, named in the printout) for reference.
"""

import numpy as np
import pytest

from repro.ops import kernels_for
from repro.perfmodel import model_cpu_crs
from repro.utils import gflops

from _bench_common import SCALE, TABLE1_KEYS, emit_table

PAPER_CPU = {"DLR1": 5.7, "DLR2": 5.8, "HMEp": 3.9, "sAMG": 4.1}


@pytest.fixture(scope="module")
def cpu_table(suite_coo):
    rows = {}
    for key in TABLE1_KEYS:
        rep = model_cpu_crs(suite_coo[key], scale=SCALE)
        rows[key] = rep
    lines = [f"{'matrix':6s} {'model GF/s':>10s} {'paper GF/s':>10s} {'alpha':>6s}"]
    for key in TABLE1_KEYS:
        r = rows[key]
        lines.append(
            f"{key:6s} {r.gflops:10.2f} {PAPER_CPU[key]:10.1f} {r.alpha:6.2f}"
        )
    emit_table("table1_cpu", lines)
    return rows


def test_cpu_model_within_band(cpu_table):
    for key, rep in cpu_table.items():
        assert rep.gflops == pytest.approx(PAPER_CPU[key], rel=0.45)


def test_dlr_class_faster_than_low_nnzr(cpu_table):
    """The paper's ordering: DLR matrices lead the CPU row."""
    assert cpu_table["DLR1"].gflops > cpu_table["sAMG"].gflops
    assert cpu_table["DLR2"].gflops > cpu_table["HMEp"].gflops


def test_gpu_kernel_beats_cpu_for_dlr(suite_formats, cpu_table):
    """Sect. III: DLR-class matrices keep a 'substantial advantage'."""
    from repro.gpu import C2070, simulate_spmv

    dev = C2070(ecc=True).scaled(SCALE)
    rep = simulate_spmv(suite_formats("DLR1", "ELLPACK-R"), dev, "DP")
    assert rep.gflops > 1.5 * cpu_table["DLR1"].gflops


@pytest.mark.parametrize("key", TABLE1_KEYS)
def test_bench_crs_rank0_kernel(benchmark, suite_formats, key):
    """Real wall-clock of the CRS spMVM the unbound ``spmv`` runs."""
    m = suite_formats(key, "CRS")
    kernel = kernels_for(m, "spmv")[0].name
    x = np.random.default_rng(0).normal(size=m.ncols)
    out = np.zeros(m.nrows)
    result = benchmark(m.spmv, x, out=out)
    assert result is out
    # report the achieved host GF/s for context (not a paper number)
    rate = gflops(m.nnz, benchmark.stats["mean"])
    print(f"  CRS {kernel} {key}: {rate:.3f} GF/s")
