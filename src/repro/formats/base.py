"""Abstract base class for sparse matrix storage formats.

Every format in :mod:`repro.formats` and :mod:`repro.core` derives from
:class:`SparseMatrixFormat`.  The contract is deliberately small:

* construction from / conversion to COO (the interchange format),
* ``spmv`` (sparse matrix-vector multiply, ``y = A @ x``), which runs
  the format's rank-0 kernel from the central registry
  (:mod:`repro.ops`), the same one a bound matrix runs untuned,
* byte-exact storage accounting (``memory_breakdown``), which Table I of
  the paper is built on,
* row-length introspection, which both the pJDS construction and the
  Fig. 3 histograms are built on.

Formats are immutable after construction; all arrays are private and the
kernels receive them through read-only views.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.utils.validation import check_dense_vector, check_index_array

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.formats.coo import COOMatrix

__all__ = [
    "SparseMatrixFormat",
    "INDEX_DTYPE",
    "STORED_INDEX_DTYPE",
    "IndexRangeError",
    "check_index_bound",
    "index_nbytes",
    "stored_indices",
]

#: Dtype of offsets (``indptr``, ``col_start``, ``chunk_ptr``,
#: ``strip_ptr``, ``group_ptr``), of per-row arrays and of all index
#: arithmetic.  Offsets are *stored* at 8 bytes but *accounted* at 4
#: (``index_nbytes``), as the paper counts them; they are O(rows), so
#: the difference is small.
INDEX_DTYPE = np.int64

#: Dtype of every nnz-sized index array a kernel streams: the column
#: indices of every format, COO's row indices and CMRS's
#: ``row_in_strip``.  The paper stores indices as 4-byte integers, and
#: Eq. (1) charges 4 bytes per entry, so storage is what is accounted.
STORED_INDEX_DTYPE = np.int32

#: Storage bytes per index entry used in all memory accounting.
INDEX_STORAGE_BYTES = 4

#: First dimension a stored (int32) index cannot address.
_STORED_INDEX_LIMIT = 2**31


class IndexRangeError(ValueError):
    """A dimension of ``2**31`` or more, beyond the 4-byte stored indices."""


def index_nbytes(count: int) -> int:
    """Device-storage bytes for ``count`` index entries (4 bytes each)."""
    return int(count) * INDEX_STORAGE_BYTES


def check_index_bound(bound: int, name: str) -> None:
    """Raise :class:`IndexRangeError` when ``bound`` is ``2**31`` or more.

    ``bound`` is the dimension an index array addresses: ``ncols`` for
    column indices, ``nrows`` for row indices.
    """
    if bound >= _STORED_INDEX_LIMIT:
        raise IndexRangeError(
            f"{name} indexes a dimension of {bound}; stored indices are "
            f"4 bytes, so dimensions must be below {_STORED_INDEX_LIMIT}"
        )


def stored_indices(
    indices, bound: int, name: str, *, validate: bool = False, order=None
) -> np.ndarray:
    """``indices`` as the C-contiguous int32 array a kernel streams.

    ``bound`` is checked by :func:`check_index_bound`.  ``validate=True``
    also checks that the entries lie in ``[0, bound)`` (before narrowing,
    so no entry wraps).  ``order`` gathers ``indices[order]`` straight
    into the int32 array, with no wide copy between.  Otherwise an array
    that is already int32 and contiguous is returned as it is.
    """
    check_index_bound(bound, name)
    if validate:
        indices = check_index_array(indices, bound, name, dtype=None)
    if order is not None:
        out = np.empty(len(order), dtype=STORED_INDEX_DTYPE)
        return np.take(indices, order, out=out, mode="clip")
    return np.ascontiguousarray(indices, dtype=STORED_INDEX_DTYPE)


class SparseMatrixFormat(abc.ABC):
    """Common interface of all sparse storage formats.

    Subclasses must set :attr:`name` and implement the abstract methods.
    """

    #: Short human-readable format name (e.g. ``"pJDS"``); class attribute.
    name: str = "abstract"

    def __init__(self, shape: tuple[int, int], nnz: int, dtype: np.dtype):
        self._shape = (int(shape[0]), int(shape[1]))
        self._nnz = int(nnz)
        self._dtype = np.dtype(dtype)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape ``(nrows, ncols)``."""
        return self._shape

    @property
    def nrows(self) -> int:
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored *non-zero* entries (excludes format padding)."""
        return self._nnz

    @property
    def dtype(self) -> np.dtype:
        """Value dtype (float32 = paper's SP, float64 = DP)."""
        return self._dtype

    @property
    def value_itemsize(self) -> int:
        """Bytes per stored value (4 for SP, 8 for DP)."""
        return self._dtype.itemsize

    @property
    def avg_row_length(self) -> float:
        """The paper's ``Nnzr``: average number of non-zeros per row."""
        return self._nnz / self._shape[0]

    # ------------------------------------------------------------------
    # abstract interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def to_coo(self) -> "COOMatrix":
        """Convert to the COO interchange format (canonical ordering)."""

    @classmethod
    @abc.abstractmethod
    def from_coo(cls, coo: "COOMatrix", **kwargs) -> "SparseMatrixFormat":
        """Build this format from a COO matrix."""

    @abc.abstractmethod
    def memory_breakdown(self) -> Mapping[str, int]:
        """Per-array device storage bytes, e.g. ``{"val": ..., "col_idx": ...}``.

        Values are accounted at :attr:`value_itemsize` bytes per (possibly
        padded) stored element and indices at 4 bytes per entry, matching
        the paper's footprint discussion (and the int32 storage of every
        nnz-sized index array).
        """

    @abc.abstractmethod
    def row_lengths(self) -> np.ndarray:
        """Number of non-zeros of each row, in original row order."""

    # ------------------------------------------------------------------
    # derived helpers
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total device storage bytes (sum of :meth:`memory_breakdown`)."""
        return int(sum(self.memory_breakdown().values()))

    @property
    def stored_elements(self) -> int:
        """Number of value slots held in device memory, *including* padding."""
        return self.memory_breakdown()["val"] // self.value_itemsize

    @property
    def padding_overhead(self) -> float:
        """Fraction of stored value slots that are padding (zero fill)."""
        stored = self.stored_elements
        if stored == 0:
            return 0.0
        return 1.0 - self._nnz / stored

    def max_row_length(self) -> int:
        """The paper's ``Nmax_nzr``."""
        lengths = self.row_lengths()
        return int(lengths.max()) if lengths.size else 0

    def check_rhs(self, x: np.ndarray) -> np.ndarray:
        """Validate an RHS vector and coerce it to the value dtype."""
        return check_dense_vector(x, self.ncols, dtype=self._dtype, name="x")

    def alloc_result(
        self, out: np.ndarray | None, x: np.ndarray | None = None
    ) -> np.ndarray:
        """Return a result vector, reusing ``out`` when provided.

        The vector's content is undefined: every spmv kernel fully
        writes it.  When ``x`` (the already-coerced RHS) is passed, an
        explicit aliasing check rejects ``spmv(x, out=x)``-style calls:
        kernels write ``out`` before they have finished reading ``x``,
        so an aliased output would silently corrupt the result.
        Callers that want in-place semantics must go through a distinct
        buffer (e.g. the ping-pong operator of :mod:`repro.engine`).
        """
        if out is None:
            return np.empty(self.nrows, dtype=self._dtype)
        result = check_dense_vector(out, self.nrows, name="out")
        if result.dtype != self._dtype:
            raise ValueError(
                f"out has dtype {result.dtype}, expected {self._dtype}"
            )
        if result is not out or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous ndarray")
        if x is not None and np.may_share_memory(result, x):
            raise ValueError(
                "out aliases the input vector x; kernels overwrite out "
                "while still reading x — pass a separate output buffer"
            )
        return result

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compute ``y = A @ x`` with the format's rank-0 registry kernel.

        The kernel is the one :func:`repro.engine.bind` takes untuned,
        so the result is bitwise a bound handle's and each column of
        :meth:`spmm`'s.

        Parameters
        ----------
        x : ndarray
            Dense RHS vector of length ``ncols``.
        out : ndarray, optional
            Preallocated result vector of length ``nrows``; overwritten.

        Returns
        -------
        ndarray
            The result ``y`` in the matrix's *original* row ordering
            (permuting formats undo their permutation).

        Raises
        ------
        TypeError
            When no spmv kernel is registered for the format.
        """
        x = self.check_rhs(x)
        y = self.alloc_result(out, x)
        from repro.engine.workspace import Workspace  # late: avoid cycle
        from repro.ops.spmm_kernels import spmv_dispatch

        return spmv_dispatch(self, x, y, Workspace())

    def todense(self) -> np.ndarray:
        """Materialise as a dense ndarray (small matrices / tests only)."""
        return self.to_coo().todense()

    def to_dense(self) -> np.ndarray:
        """Alias of :meth:`todense` (the registry-facing spelling)."""
        return self.todense()

    @classmethod
    def from_dense(cls, dense: np.ndarray, **kwargs) -> "SparseMatrixFormat":
        """Build this format from a dense 2-D array via COO interchange.

        Non-zero entries of ``dense`` become stored entries; format
        kwargs (e.g. chunk sizes) pass through to :meth:`from_coo`.
        COO overrides this with a direct constructor.
        """
        from repro.formats.coo import COOMatrix

        return cls.from_coo(COOMatrix.from_dense(dense), **kwargs)

    def check_rhs_block(
        self, X: np.ndarray, out: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate an (ncols, k) RHS block and its (nrows, k) output."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[0] != self.ncols:
            raise ValueError(
                f"X must have shape ({self.ncols}, k), got {X.shape}"
            )
        if X.dtype != self._dtype:
            X = X.astype(self._dtype)
        k = X.shape[1]
        if out is None:
            out = np.empty((self.nrows, k), dtype=self._dtype)
        elif out.shape != (self.nrows, k) or out.dtype != self._dtype:
            raise ValueError(
                f"out must be a ({self.nrows}, {k}) array of {self._dtype}"
            )
        elif np.may_share_memory(out, X):
            raise ValueError(
                "out aliases the input block X; pass a separate buffer"
            )
        return X, out

    def spmm(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Multi-vector product ``Y = A @ X`` for ``X`` of shape (ncols, k).

        Block Krylov methods and KPM batches use this.  Dispatch goes
        through the batched block-of-vectors kernels registered under
        ``op="spmm"`` in the central registry (:mod:`repro.ops`, one
        fused sweep over the stored entries per format); formats
        without a registered kernel fall back to
        :meth:`spmm_percolumn`.
        """
        X, out = self.check_rhs_block(X, out)
        from repro.ops.spmm_kernels import spmm_dispatch  # late: avoid cycle

        return spmm_dispatch(self, X, out)

    def spmm_percolumn(
        self, X: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Reference multi-vector product looping :meth:`spmv` per column.

        Kept as the oracle the batched kernels are tested against.  For
        Fortran-ordered ``X`` the column views are already contiguous,
        so no per-column copy happens.
        """
        X, out = self.check_rhs_block(X, out)
        col_buf = np.zeros(self.nrows, dtype=self._dtype)
        for j in range(X.shape[1]):
            xj = X[:, j]
            if not xj.flags.c_contiguous:
                xj = np.ascontiguousarray(xj)
            out[:, j] = self.spmv(xj, out=col_buf)
        return out

    def diagonal(self) -> np.ndarray:
        """Main-diagonal entries (missing entries are 0).

        Used by the Jacobi preconditioner; square matrices only.
        """
        if self.nrows != self.ncols:
            raise ValueError("diagonal() requires a square matrix")
        coo = self.to_coo()
        diag = np.zeros(self.nrows, dtype=self._dtype)
        on_diag = coo.rows == coo.cols
        diag[coo.rows[on_diag]] = coo.values[on_diag]
        return diag

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.nrows}x{self.ncols} "
            f"nnz={self.nnz} dtype={self.dtype} bytes={self.nbytes}>"
        )
