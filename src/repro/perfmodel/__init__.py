"""Analytic performance models of Sect. II-B (Eqs. 1-4) + CPU baseline."""

from repro.perfmodel.balance import (
    alpha_bounds,
    alpha_from_balance,
    code_balance,
    code_balance_dp,
    code_balance_sp,
    predicted_gflops,
)
from repro.perfmodel.cpu import (
    WESTMERE_BANDWIDTH_GBS,
    CPUReport,
    cpu_crs_gflops,
    crs_code_balance_dp,
    estimate_alpha_cpu,
    model_cpu_crs,
)
from repro.perfmodel.roofline import (
    RooflinePoint,
    attainable_gflops,
    ridge_intensity,
    roofline_series,
    spmv_intensity,
)
from repro.perfmodel.pcie_model import (
    PCIeAnalysis,
    analyse,
    nnzr_lower_bound_10pct,
    nnzr_upper_bound_50pct,
    t_mvm,
    t_pci,
)
from repro.perfmodel.predict import (
    TIER_EFFICIENCY,
    VariantPrediction,
    explain_rows,
    predict_spmv,
    variant_tier,
)

__all__ = [
    "alpha_bounds",
    "alpha_from_balance",
    "code_balance",
    "code_balance_dp",
    "code_balance_sp",
    "predicted_gflops",
    "WESTMERE_BANDWIDTH_GBS",
    "CPUReport",
    "cpu_crs_gflops",
    "crs_code_balance_dp",
    "estimate_alpha_cpu",
    "model_cpu_crs",
    "PCIeAnalysis",
    "analyse",
    "nnzr_lower_bound_10pct",
    "nnzr_upper_bound_50pct",
    "t_mvm",
    "t_pci",
    "RooflinePoint",
    "attainable_gflops",
    "ridge_intensity",
    "roofline_series",
    "spmv_intensity",
    "TIER_EFFICIENCY",
    "VariantPrediction",
    "explain_rows",
    "predict_spmv",
    "variant_tier",
]
