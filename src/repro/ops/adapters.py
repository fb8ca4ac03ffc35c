"""Cross-backend :class:`~repro.ops.protocol.LinearOperator` adapters.

The protocol module covers the single-process format/engine paths;
this module adapts the two "big iron" execution backends so the
solvers (and anything else coded against the protocol) can run
unchanged on top of them:

:class:`DistributedOperator`
    A persistent pool of the per-rank halo-exchange runtime
    (:class:`repro.distributed.runtime.RankPool`), on threads or on
    processes.
:class:`ServeOperator`
    A registered matrix behind a serving
    :class:`~repro.serve.client.Client` — every ``apply`` goes through
    the micro-batching scheduler, so concurrent solver instances
    coalesce like HTTP traffic.

Both present the identity permutation to the solver layer: the
backends consume and produce original-order vectors, any storage
permutation is an implementation detail behind the wire.
"""

from __future__ import annotations

import numpy as np

from repro.ops.protocol import LinearOperator

__all__ = [
    "DistributedOperator",
    "ServeOperator",
]


class DistributedOperator(LinearOperator):
    """Operator over a persistent pool of the halo-exchange runtime.

    Each ``apply`` is one round of the plan's rank pool
    (:class:`repro.distributed.runtime.RankPool`): scatter the global
    RHS, exchange halos, compute, gather — one full distributed spMVM
    per solver iteration, exactly the execution the paper's
    strong-scaling experiments time.  The workers start on the first
    ``apply`` and persist until :meth:`close` (or the end of a ``with``
    block).  ``mode="vector"`` is bitwise equal to the serial
    ``CSRMatrix.spmv`` (each rank runs the same rank-0 kernel);
    ``mode="task"`` runs the overlap split.
    """

    def __init__(
        self,
        comm_plan,
        *,
        backend: str = "threads",
        mode: str = "vector",
        timeout: float = 60.0,
    ):
        from repro.distributed.runtime import RankPool

        self.pool = RankPool(comm_plan, backend=backend, mode=mode, timeout=timeout)

    @property
    def shape(self) -> tuple[int, int]:
        return self.pool.shape

    @property
    def dtype(self) -> np.dtype:
        return self.pool.dtype

    def apply(self, x, out=None):
        return self.pool.run(x, out=out)

    def close(self) -> None:
        """Stop the pool's workers (idempotent)."""
        self.pool.close()

    def __enter__(self) -> "DistributedOperator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = self.pool
        return (
            f"<DistributedOperator {p.n}x{p.n} ranks={len(p.ranks)} "
            f"backend={p.backend} mode={p.mode}>"
        )


class ServeOperator(LinearOperator):
    """A matrix registered with a serving client, viewed as an operator.

    The shape/dtype are pinned once at construction (via a short
    registry lease); every subsequent ``apply`` is an ordinary client
    ``spmv`` call through the admission-controlled, micro-batching
    scheduler.
    """

    def __init__(
        self,
        client,
        name: str,
        *,
        deadline_ms: float | None = None,
        timeout: float | None = None,
    ):
        self.client = client
        self.name = name
        self.deadline_ms = deadline_ms
        self.timeout = timeout
        with client.server.registry.acquire(name) as lease:
            self._shape = lease.bound.shape
            self._dtype = np.dtype(lease.bound.dtype)

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def apply(self, x, out=None):
        y = self.client.spmv(
            self.name, x, deadline_ms=self.deadline_ms, timeout=self.timeout
        )
        if out is not None:
            out[:] = y
            return out
        return y

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ServeOperator {self.name!r} {self._shape[0]}x{self._shape[1]}>"
