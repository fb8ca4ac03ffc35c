"""The unified ``LinearOperator`` protocol and its core adapters.

Every consumer of spMVM in this package — the five Krylov/Chebyshev
solvers, the benchmarks, the serving layer, and the distributed
runtime — ultimately needs the same tiny surface: *apply the matrix to
a vector (or a block of vectors), tell me your shape and dtype*.

:class:`LinearOperator`
    The protocol base class: ``apply(x, out=None)``,
    ``apply_block(X, out=None)``, ``apply_permuted(x_perm)``,
    ``shape``/``dtype``/``diagonal()``.
:class:`BoundOperator`
    The adapter over an engine-bound
    :class:`~repro.engine.bound.BoundMatrix`; a raw
    :class:`~repro.formats.base.SparseMatrixFormat` is adapted as the
    ``BoundOperator`` of its untuned binding.
:class:`PermutedOperator`
    The Sect. II-A stored-basis workflow operator the solvers iterate
    on (permute once in, iterate, permute once out).
:class:`CountingOperator`
    Composable wrapper that counts spmv-equivalents (one per ``apply``,
    ``k`` per ``(n, k)`` ``apply_block``) and publishes the total to
    :mod:`repro.obs`.

The other backends are operators of their own:
:class:`~repro.distributed.runtime.RankPool` (the distributed
runtime) and the serve fleet's ``RoutedOperator``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import obs
from repro.core.sorting import Permutation

__all__ = [
    "LinearOperator",
    "BoundOperator",
    "PermutedOperator",
    "CountingOperator",
    "as_linear_operator",
    "solver_operator",
    "apply_repeated",
]


class LinearOperator:
    """Minimal protocol every spMVM consumer in the package codes against.

    Subclasses must implement :meth:`apply` and the ``shape``/``dtype``
    properties; ``apply_block`` has a per-column default and
    ``apply_permuted``/``diagonal`` raise until an adapter provides
    them.  The operator may be rectangular: ``apply`` maps a length-
    ``ncols`` vector to a length-``nrows`` one.
    """

    @property
    def shape(self) -> tuple[int, int]:
        raise NotImplementedError

    @property
    def dtype(self) -> np.dtype:
        raise NotImplementedError

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x``; with ``out`` the call is allocation-free."""
        raise NotImplementedError

    def apply_block(
        self, X: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``Y = A @ X`` for an ``(ncols, k)`` block (default: per column)."""
        X = np.asarray(X)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if out is None:
            out = np.empty((self.nrows, X.shape[1]), dtype=self.dtype)
        for j in range(X.shape[1]):
            out[:, j] = self.apply(np.ascontiguousarray(X[:, j]))
        return out

    def apply_permuted(self, x_perm: np.ndarray) -> np.ndarray:
        """Stored-basis product (jagged formats only)."""
        raise TypeError(
            f"{type(self).__name__} has no permuted-basis kernel"
        )

    def diagonal(self) -> np.ndarray:
        """Main diagonal in the original row order (preconditioners)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not expose a diagonal"
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


class BoundOperator(LinearOperator):
    """Adapter over an engine-bound matrix (tuned kernel + workspace)."""

    def __init__(self, bound):
        self.bound = bound

    @property
    def shape(self) -> tuple[int, int]:
        return self.bound.shape

    @property
    def dtype(self) -> np.dtype:
        return self.bound.dtype

    def apply(self, x, out=None):
        return self.bound.spmv(x, out=out)

    def apply_block(self, X, out=None):
        return self.bound.spmm(X, out=out)

    def apply_permuted(self, x_perm):
        return self.bound.spmv_permuted(x_perm)

    def diagonal(self):
        return self.bound.matrix.diagonal()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        b = self.bound
        return (
            f"<BoundOperator {b.matrix.name} {b.nrows}x{b.ncols} "
            f"variant={b.variant.name}>"
        )


class PermutedOperator(LinearOperator):
    """Square linear operator working in a format's stored basis.

    For jagged formats the ``apply`` closure is the zero-copy
    ``spmv_permuted`` kernel; for permutation-free formats it is plain
    ``spmv`` and the basis maps are identities.  ``apply_block`` is
    the multi-vector analogue (stored-basis SpMM); when no batched
    closure is supplied it degrades to a per-column loop.

    ``diagonal`` (the original-order diagonal) feeds the Jacobi
    preconditioner; ``base`` keeps the underlying operator reachable.
    """

    def __init__(
        self,
        apply_: Callable[[np.ndarray], np.ndarray],
        permutation: Permutation,
        dtype: np.dtype,
        apply_block: Callable[[np.ndarray], np.ndarray] | None = None,
        *,
        diagonal: Callable[[], np.ndarray] | None = None,
        base: LinearOperator | None = None,
    ):
        self._apply = apply_
        self._apply_block = apply_block
        self._perm = permutation
        self._dtype = np.dtype(dtype)
        self._diagonal = diagonal
        self.base = base

    @property
    def size(self) -> int:
        return self._perm.size

    @property
    def shape(self) -> tuple[int, int]:
        n = self._perm.size
        return (n, n)

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def permutation(self) -> Permutation:
        return self._perm

    def apply(self, x_perm: np.ndarray, out: np.ndarray | None = None):
        """One operator application in the stored basis."""
        y = self._apply(x_perm)
        if out is not None:
            out[:] = y
            return out
        return y

    __call__ = apply

    def apply_permuted(self, x_perm: np.ndarray) -> np.ndarray:
        # the operator *is* the stored-basis application
        return self._apply(x_perm)

    def apply_block(
        self, X_perm: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched stored-basis application, ``Y~ = (P A P^T) X~``.

        Always returns a freshly owned ``(n, k)`` array (safe to keep
        across subsequent applications).
        """
        if self._apply_block is not None:
            Y = np.array(self._apply_block(X_perm), copy=True)
            if out is not None:
                out[:] = Y
                return out
            return Y
        if out is None:
            out = np.empty_like(X_perm)
        for j in range(X_perm.shape[1]):
            out[:, j] = self._apply(np.ascontiguousarray(X_perm[:, j]))
        return out

    def diagonal(self) -> np.ndarray:
        """Main diagonal in the *original* row ordering."""
        if self._diagonal is None:
            raise NotImplementedError(
                "this PermutedOperator was built without a diagonal accessor"
            )
        return self._diagonal()

    def enter(self, x: np.ndarray) -> np.ndarray:
        """Map a vector from the original into the stored basis."""
        return np.ascontiguousarray(self._perm.to_permuted(x), dtype=self._dtype)

    def leave(self, x_perm: np.ndarray) -> np.ndarray:
        """Map a stored-basis vector back to the original ordering."""
        return self._perm.to_original(x_perm)


class CountingOperator(LinearOperator):
    """Wrapper counting spmv-equivalents through any operator.

    ``apply``/``apply_permuted`` add one, an ``(n, k)`` ``apply_block``
    adds ``k`` — the paper's dominant-cost accounting.  Unknown
    attributes (``enter``/``leave``/``permutation``/``size``/...)
    delegate to the wrapped operator, so a counted
    :class:`PermutedOperator` still drives the full Sect. II-A solver
    workflow.  :meth:`publish` emits the running total to the
    ``solver_spmv_total`` counter of :mod:`repro.obs`.
    """

    def __init__(self, base: LinearOperator):
        self._base = base
        self.count = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self._base.shape

    @property
    def dtype(self) -> np.dtype:
        return self._base.dtype

    def apply(self, x, out=None):
        self.count += 1
        return self._base.apply(x, out=out)

    def apply_block(self, X, out=None):
        self.count += int(np.asarray(X).shape[1])
        return self._base.apply_block(X, out=out)

    def apply_permuted(self, x_perm):
        self.count += 1
        return self._base.apply_permuted(x_perm)

    def diagonal(self):
        return self._base.diagonal()

    def __call__(self, x):
        return self.apply(x)

    def __getattr__(self, name):
        # delegation for the PermutedOperator extras (enter/leave/...)
        return getattr(self._base, name)

    def reset(self) -> None:
        self.count = 0

    def publish(self, solver: str) -> int:
        """Emit the running total as ``solver_spmv_total{solver=...}``."""
        if obs.enabled():
            obs.inc("solver_spmv_total", self.count, solver=solver)
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CountingOperator count={self.count} base={self._base!r}>"


# ---------------------------------------------------------------------------


def as_linear_operator(obj) -> LinearOperator:
    """Coerce anything spMVM-shaped to a :class:`LinearOperator`.

    Accepts an existing operator (returned unchanged), an engine
    :class:`~repro.engine.bound.BoundMatrix`, or a raw format instance,
    which is bound untuned (``bind(m, tune=False)``: the format's
    rank-0 kernel, the one its unbound ``spmv`` runs).  A caller who
    wants tuned kernels passes ``bind(m)``.  The operator owns the
    bound handle and its workspace, so, like a ``BoundMatrix``, it must
    not be shared across threads.
    """
    if isinstance(obj, LinearOperator):
        return obj
    from repro.engine.bound import BoundMatrix, bind
    from repro.formats.base import SparseMatrixFormat

    if isinstance(obj, SparseMatrixFormat):
        obj = bind(obj, tune=False)
    if isinstance(obj, BoundMatrix):
        return BoundOperator(obj)
    raise TypeError(
        f"cannot adapt {type(obj).__name__} to a LinearOperator"
    )


def solver_operator(matrix) -> PermutedOperator:
    """Wrap any square operator source for the permuted-basis workflow.

    This is the one entry point all five solvers use: raw formats,
    engine-bound matrices, and arbitrary :class:`LinearOperator`
    instances (distributed rank pool, serving client) all
    come out as a :class:`PermutedOperator` — jagged formats iterate in
    their stored basis, everything else behind an identity permutation.
    """
    base = as_linear_operator(matrix)
    if base.nrows != base.ncols:
        raise ValueError("solvers require a square matrix")
    if isinstance(base, PermutedOperator):
        return base
    if isinstance(base, BoundOperator):
        from repro.core.jds import JaggedDiagonalsBase
        from repro.ops.spmm_kernels import spmm_permuted

        bound = base.bound
        m = bound.matrix
        if bound.variant.supports_permuted and isinstance(m, JaggedDiagonalsBase):
            return PermutedOperator(
                bound.spmv_permuted,
                m.permutation,
                m.dtype,
                apply_block=lambda X: spmm_permuted(m, X, ws=bound.workspace),
                diagonal=m.diagonal,
                base=base,
            )
        return PermutedOperator(
            lambda x: bound.spmv(x),
            Permutation.identity(m.nrows),
            m.dtype,
            apply_block=lambda X: bound.spmm(X),
            diagonal=m.diagonal,
            base=base,
        )
    # generic operator (rank pool / serve / fleet):
    # identity basis, diagonal only if the operator overrides it
    diag = (
        base.diagonal
        if type(base).diagonal is not LinearOperator.diagonal
        else None
    )
    return PermutedOperator(
        lambda x: base.apply(x),
        Permutation.identity(base.nrows),
        base.dtype,
        apply_block=lambda X: base.apply_block(X),
        diagonal=diag,
        base=base,
    )


def apply_repeated(matrix, x: np.ndarray, repetitions: int) -> np.ndarray:
    """Apply the operator ``repetitions`` times with ping-pong buffers.

    Allocates one result and one scratch buffer regardless of the
    repetition count.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    op = as_linear_operator(matrix)
    y = op.apply(x)
    if repetitions == 1:
        return y
    buf = np.empty_like(y)
    for _ in range(repetitions - 1):
        buf = op.apply(y, out=buf)
        y, buf = buf, y
    return y
