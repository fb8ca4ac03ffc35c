"""In-place float64 vector kernels for the Krylov solvers.

Besides its spMVM, a CG iteration does a handful of BLAS-1 steps: two
dot products, two axpys and one ``p = z + beta * p``.  Done through
NumPy they allocate a temporary per step and wake OpenBLAS's thread
pool, which then fights the OpenMP pool of the compiled spmv kernels
for the same cores.  When the ``cnative`` tier is loaded these helpers
run as C loops in that same OpenMP pool (see
:mod:`repro.kernels.compiled`), in place and without temporaries.

The NumPy bodies below are both the reference and the fallback (taken
for non-float64 or non-contiguous operands, and when the tier is off
via ``REPRO_COMPILED_DISABLE``).  The element-wise updates of the two
paths agree bitwise; the reductions differ only in summation order.
"""

from __future__ import annotations

import ctypes
from typing import Callable

import numpy as np

from repro.ops.registry import _ensure_loaded

__all__ = ["dot", "cg_update", "xpby", "float64_apply"]

#: block length of the NumPy fallback's scaled temporaries (64 KiB)
_BLOCK = 8192


def _cg_update_np(alpha, p, ap, x, r) -> float:
    for s in range(0, x.shape[0], _BLOCK):
        e = s + _BLOCK
        x[s:e] += alpha * p[s:e]
        r[s:e] -= alpha * ap[s:e]
    return float(np.dot(r, r))


def _xpby_np(z, beta, p) -> None:
    p *= beta
    p += z


def _bind():
    # load the whole registry first, so importing the solvers does not
    # change the order in which the kernel modules register
    _ensure_loaded()
    from repro.kernels.compiled import _CNATIVE

    if _CNATIVE is None:
        return None
    i64, f64, ptr = ctypes.c_longlong, ctypes.c_double, ctypes.c_void_p
    lib = _CNATIVE.lib
    for name, restype, argtypes in (
        ("vec_dot_f64", f64, (i64, ptr, ptr)),
        ("cg_update_f64", f64, (i64, f64, ptr, ptr, ptr, ptr)),
        ("vec_xpby_f64", None, (i64, ptr, f64, ptr)),
    ):
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


#: the loaded cnative library, or ``None`` (NumPy bodies only)
_LIB = _bind()


def _native(*arrays: np.ndarray) -> bool:
    n = arrays[0].shape[0]
    return _LIB is not None and all(
        a.dtype == np.float64 and a.flags.c_contiguous and a.shape == (n,)
        for a in arrays
    )


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b``."""
    if _native(a, b):
        return _LIB.vec_dot_f64(a.shape[0], a.ctypes.data, b.ctypes.data)
    return float(np.dot(a, b))


def cg_update(
    alpha: float, p: np.ndarray, ap: np.ndarray, x: np.ndarray, r: np.ndarray
) -> float:
    """``x += alpha * p; r -= alpha * ap`` in place; returns ``r . r``.

    ``p`` may be the same array as ``r`` (BiCGSTAB's second half-step).
    """
    if _native(p, ap, x, r):
        return _LIB.cg_update_f64(
            x.shape[0], alpha, p.ctypes.data, ap.ctypes.data,
            x.ctypes.data, r.ctypes.data,
        )
    return _cg_update_np(alpha, p, ap, x, r)


def xpby(z: np.ndarray, beta: float, p: np.ndarray) -> None:
    """``p = z + beta * p`` in place."""
    if _native(z, p):
        _LIB.vec_xpby_f64(p.shape[0], z.ctypes.data, beta, p.ctypes.data)
    else:
        _xpby_np(z, beta, p)


def float64_apply(op) -> Callable[[np.ndarray], np.ndarray]:
    """``op.apply`` as a float64-to-float64 map that allocates nothing.

    A float64 operator is returned as is.  Otherwise the argument goes
    through one persistent staging buffer of ``op.dtype`` and the
    product comes back in one persistent float64 buffer.  Either way
    the result may be overwritten by the next call.
    """
    if op.dtype == np.float64:
        return op.apply
    stage = np.empty(op.shape[1], dtype=op.dtype)
    out = np.empty(op.shape[0], dtype=np.float64)

    def apply(v: np.ndarray) -> np.ndarray:
        stage[:] = v
        out[:] = op.apply(stage)
        return out

    return apply
