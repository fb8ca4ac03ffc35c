"""Argument and array validation helpers shared across the package.

These helpers centralise the defensive checks that every public
constructor performs, so error messages are uniform and the hot paths
(kernels) can assume validated inputs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "check_dense_vector",
    "check_dtype",
    "check_index_array",
    "check_nonnegative_int",
    "check_positive_int",
    "check_shape",
    "as_1d_array",
]

#: dtypes accepted for matrix values (paper uses SP and DP floats).
SUPPORTED_VALUE_DTYPES = (np.float32, np.float64)


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``.

    Raises
    ------
    TypeError
        If ``value`` is not an integral type.
    ValueError
        If ``value`` is not strictly positive.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return int(value)


def check_nonnegative_int(value: int, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_dtype(dtype: np.dtype | type, name: str = "dtype") -> np.dtype:
    """Validate a floating value dtype (float32/float64) and return it."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(
            f"{name} must be float32 or float64 (paper: SP/DP), got {dt}"
        )
    return dt


def as_1d_array(
    data: Iterable, dtype: np.dtype | type | None = None, name: str = "array"
) -> np.ndarray:
    """Convert ``data`` to a contiguous 1-D ndarray, validating rank."""
    arr = np.ascontiguousarray(data, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def check_index_array(
    indices: np.ndarray, upper: int, name: str = "indices", dtype=np.int64
) -> np.ndarray:
    """Validate an integer index array with entries in ``[0, upper)``.

    Returns the array converted to ``dtype`` (default ``int64``, the
    package-wide arithmetic type; ``None`` keeps an integer array's
    own dtype, and makes an empty one int64); the range is checked
    before any conversion.
    """
    arr = np.ascontiguousarray(indices)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"{name} must be integer-typed, got {arr.dtype}")
    if arr.size:
        lo = int(arr.min())
        hi = int(arr.max())
        if lo < 0 or hi >= upper:
            raise ValueError(
                f"{name} entries must lie in [0, {upper}), got range [{lo}, {hi}]"
            )
    if dtype is None:
        if np.issubdtype(arr.dtype, np.integer):
            return arr
        dtype = np.int64  # an empty list arrives as float64
    return arr.astype(dtype, copy=False)


def check_shape(
    shape: Sequence[int], *, allow_empty: bool = False
) -> tuple[int, int]:
    """Validate a 2-tuple matrix shape of positive integers.

    ``allow_empty=True`` additionally admits the fully degenerate
    ``(0, 0)`` matrix (a pathological input the format kernels must
    handle gracefully); half-empty shapes like ``(0, 2)`` stay
    rejected, and the default keeps the strict contract.
    """
    if len(shape) != 2:
        raise ValueError(f"shape must be (nrows, ncols), got {tuple(shape)}")
    if allow_empty and shape[0] == 0 and shape[1] == 0:
        return (0, 0)
    nrows = check_positive_int(shape[0], "nrows")
    ncols = check_positive_int(shape[1], "ncols")
    return (nrows, ncols)


def check_dense_vector(
    x: np.ndarray, length: int, dtype: np.dtype | None = None, name: str = "x"
) -> np.ndarray:
    """Validate a dense RHS/LHS vector of the given length.

    The returned array is contiguous; it is converted to ``dtype`` when one
    is given (matching the matrix value dtype keeps kernels allocation-free).
    """
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    return arr
