"""Reusable per-matrix scratch buffers for allocation-free kernels.

The paper's Eq. (1) argument is that spMVM is bandwidth-bound; a NumPy
host kernel that allocates O(nnz) temporaries per call fights the
allocator and the memory subsystem instead of streaming the matrix.
A :class:`Workspace` owns named persistent buffers so a bound kernel's
steady-state inner loop touches only pre-existing memory:

* ``prod``-style O(nnz) scratch for gathered/products,
* float64 accumulation scratch for the prefix-sum CSR variant,
* O(nrows) accumulators and output staging.

Buffers are created lazily on first request and re-used verbatim on
every following call; :attr:`Workspace.allocations` counts creations so
tests can assert the steady state allocates nothing new.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Named pool of persistent ndarray scratch buffers.

    A workspace is bound to one matrix instance (the engine creates one
    per :class:`~repro.engine.bound.BoundMatrix`); buffer shapes are
    fixed after first creation, and requesting the same name with a
    different shape/dtype raises, which catches kernel bookkeeping bugs
    early instead of silently reallocating every call.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._consts: dict[str, object] = {}
        self.allocations = 0

    def buf(self, name: str, shape, dtype) -> np.ndarray:
        """Get-or-create the persistent buffer ``name``.

        The content of a returned buffer is *undefined*; kernels must
        fully overwrite it (or explicitly ``fill(0)``) before reading.
        """
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        dtype = np.dtype(dtype)
        arr = self._buffers.get(name)
        if arr is None:
            arr = np.empty(shape, dtype=dtype)
            self._buffers[name] = arr
            self.allocations += 1
            return arr
        if arr.shape != shape or arr.dtype != dtype:
            raise ValueError(
                f"workspace buffer {name!r} requested as {shape}/{dtype} but "
                f"exists as {arr.shape}/{arr.dtype}"
            )
        return arr

    def grow(self, name: str, size: int, dtype) -> np.ndarray:
        """Get the flat buffer ``name`` with room for ``size`` elements.

        Unlike :meth:`buf`, a request for more room than the buffer has
        replaces it with one of exactly ``size`` elements, so the buffer
        is as large as the largest request so far; callers view a
        prefix.  Its content is undefined.
        """
        dtype = np.dtype(dtype)
        arr = self._buffers.get(name)
        if arr is None or arr.shape[0] < size or arr.dtype != dtype:
            arr = self._buffers[name] = np.empty(int(size), dtype=dtype)
            self.allocations += 1
        return arr

    def const(self, name: str, factory):
        """Get-or-create a precomputed constant (index arrays, run maps).

        ``factory`` is called once; the result is cached under ``name``.
        Unlike :meth:`buf`, constants are treated as immutable by the
        kernels.
        """
        if name not in self._consts:
            self._consts[name] = factory()
            self.allocations += 1
        return self._consts[name]

    @property
    def nbytes(self) -> int:
        """Total bytes held by the scratch buffers (not the constants)."""
        return int(sum(b.nbytes for b in self._buffers.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Workspace {len(self._buffers)} buffers, "
            f"{len(self._consts)} consts, {self.nbytes} bytes>"
        )
