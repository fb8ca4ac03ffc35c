"""Shared utilities: validation and timing helpers."""

from repro.utils.timing import Stopwatch, flops_per_spmv, gflops
from repro.utils.validation import (
    as_1d_array,
    check_dense_vector,
    check_dtype,
    check_index_array,
    check_nonnegative_int,
    check_positive_int,
    check_shape,
)

__all__ = [
    "Stopwatch",
    "flops_per_spmv",
    "gflops",
    "as_1d_array",
    "check_dense_vector",
    "check_dtype",
    "check_index_array",
    "check_nonnegative_int",
    "check_positive_int",
    "check_shape",
]
