"""In-place float64 vector kernels for the Krylov solvers.

Besides its spMVM, a CG iteration does a handful of BLAS-1 steps: two
dot products, two axpys and one ``p = z + beta * p``.  Done through
NumPy they allocate a temporary per step and wake OpenBLAS's thread
pool, whose idle spin then steals a core from the compiled spmv
kernels.  When the ``cnative`` tier is loaded these helpers run as C
loops in the spmv kernels' own thread pool (see
:mod:`repro.kernels.compiled`), in place and without temporaries.

The NumPy bodies below are both the reference and the fallback (taken
for non-float64 or non-contiguous operands, and when the tier is off
via ``REPRO_COMPILED_DISABLE``).  The two paths agree bitwise: a
reduction sums each 4096-element block in 256 interleaved
accumulators, adds those pairwise by halving and then adds the block
sums in block order, whatever the thread count; the NumPy bodies
follow the same order without calling BLAS.
"""

from __future__ import annotations

import ctypes
from typing import Callable

import numpy as np

from repro.ops.registry import _ensure_loaded

__all__ = ["dot", "cg_update", "xpby", "float64_apply"]

#: elements per reduction block; each block is summed in
#: ``_VEC_LANES`` interleaved accumulators (lane ``l`` adds elements
#: ``l, l + 256, ...`` in turn), which are then added pairwise by
#: halving, and the block sums are added in block order
_VEC_BLOCK = 4096
_VEC_LANES = 256
#: elements per step of the NumPy fallback (64 KiB temporaries, less
#: than a solver vector), a multiple of ``_VEC_BLOCK``
_BLOCK = 8192


def _block_lanes(prod: np.ndarray) -> np.ndarray:
    """The ``(blocks, _VEC_LANES)`` accumulators of ``prod``'s blocks.

    ``np.add.reduce`` over the rows of a ``(blocks, 16, 256)`` view
    adds each lane's elements in order (the loop runs along the
    lanes, so NumPy's pairwise summation never applies); the short
    last block's partial row goes to its first lanes.
    """
    m = prod.shape[0]
    full = m - m % _VEC_BLOCK
    lanes = np.add.reduce(
        prod[:full].reshape(-1, _VEC_BLOCK // _VEC_LANES, _VEC_LANES),
        axis=1, initial=0,
    )
    if full == m:
        return lanes
    tail = prod[full:]
    rows = tail.shape[0] - tail.shape[0] % _VEC_LANES
    last = np.add.reduce(tail[:rows].reshape(-1, _VEC_LANES), axis=0, initial=0)
    last[: tail.shape[0] - rows] += tail[rows:]
    return np.concatenate([lanes, last[None]])


def _sum_in_order(lanes: list[np.ndarray]) -> float:
    if not lanes:
        return 0.0
    acc = np.concatenate(lanes)
    w = _VEC_LANES
    while w > 1:
        w //= 2
        acc = acc[:, :w] + acc[:, w:2 * w]
    # cumsum adds strictly left to right (np.sum would pair up terms);
    # the leading zero is the C kernels' initial sum
    return float(np.cumsum(np.concatenate([np.zeros(1, acc.dtype), acc[:, 0]]))[-1])


def _dot_np(a, b) -> float:
    n = a.shape[0]
    tmp = np.empty(min(n, _BLOCK), np.result_type(a, b))
    lanes = []
    for s in range(0, n, _BLOCK):
        t = tmp[: min(n - s, _BLOCK)]
        np.multiply(a[s:s + _BLOCK], b[s:s + _BLOCK], out=t)
        lanes.append(_block_lanes(t))
    return _sum_in_order(lanes)


def _cg_update_np(alpha, p, ap, x, r) -> float:
    lanes = []
    for s in range(0, x.shape[0], _BLOCK):
        e = s + _BLOCK
        x[s:e] += alpha * p[s:e]
        r[s:e] -= alpha * ap[s:e]
        lanes.append(_block_lanes(r[s:e] * r[s:e]))
    return _sum_in_order(lanes)


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
    return _dot_np(a, b)


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
