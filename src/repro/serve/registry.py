"""Named, refcounted, byte-budgeted pool of resident bound matrices.

The registry is the server's working set: matrices are *registered* as
cheap named specs (a loader callable, or a live instance), *loaded*
lazily on first use — assembly + :func:`repro.engine.bind` through the
autotuner — and kept resident as refcounted
:class:`~repro.engine.bound.BoundMatrix` prototypes.  A byte budget
bounds residency: loading past the budget evicts least-recently-used
idle entries, but **never** an entry somebody holds a lease on
(eviction under load would invalidate in-flight batches).

Concurrency contract: one :class:`~repro.engine.bound.BoundMatrix` is
not safe for two threads (shared workspace scratch), so leases hand out
per-worker *clones* — shared matrix data + tune decision, private
scratch — via :meth:`MatrixLease.clone_for`.  Clones are cached per
(matrix, worker) pair, so the steady state allocates nothing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.engine.bound import BoundMatrix, bind
from repro.formats.base import SparseMatrixFormat
from repro.serve.errors import MatrixNotFound, RegistryLoadFailed

__all__ = ["MatrixSpec", "MatrixLease", "MatrixRegistry"]


@dataclass(frozen=True)
class MatrixSpec:
    """How to produce (and bind) one named matrix."""

    name: str
    loader: Callable[[], SparseMatrixFormat]
    #: force a spmv kernel variant (skips autotuning); ``None`` =
    #: autotune.  Batches always run the format's rank-0 spmm kernel;
    #: pinning a stored-order sequential variant (``*_scipy``,
    #: ``*_cc``) makes unbatched answers bitwise the batched ones —
    #: see docs/serving.md.
    variant: str | None = None
    tune: bool = True


class _Entry:
    """One resident matrix: bound prototype + refcount + clone pool."""

    __slots__ = ("name", "bound", "nbytes", "refcount", "clones")

    def __init__(self, name: str, bound: BoundMatrix):
        self.name = name
        self.bound = bound
        self.nbytes = int(bound.matrix.nbytes)
        self.refcount = 0
        self.clones: dict[object, BoundMatrix] = {}


class MatrixLease:
    """A refcounted handle on a resident matrix (context manager).

    While any lease is open the entry cannot be evicted.  Always
    release (use ``with registry.acquire(name) as lease:``) — a leaked
    lease pins the matrix in memory forever.
    """

    def __init__(self, registry: "MatrixRegistry", entry: _Entry):
        self._registry = registry
        self._entry = entry
        self._released = False

    # -- data access -------------------------------------------------------
    @property
    def name(self) -> str:
        return self._entry.name

    @property
    def bound(self) -> BoundMatrix:
        """The shared prototype — single-threaded use only."""
        return self._entry.bound

    @property
    def matrix(self) -> SparseMatrixFormat:
        return self._entry.bound.matrix

    @property
    def nbytes(self) -> int:
        return self._entry.nbytes

    def clone_for(self, token: object) -> BoundMatrix:
        """A worker-private clone, cached under ``token``.

        Each scheduler worker passes a stable token (its index), so
        repeated batches against the same matrix reuse one clone and
        its warmed-up workspace buffers.
        """
        with self._registry._lock:
            clone = self._entry.clones.get(token)
            if clone is None:
                clone = self._entry.bound.clone()
                self._entry.clones[token] = clone
            return clone

    # -- lifecycle ---------------------------------------------------------
    def release(self) -> None:
        if not self._released:
            self._released = True
            self._registry._release(self._entry)

    def __enter__(self) -> "MatrixLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class MatrixRegistry:
    """Loads, binds, pins and evicts named matrices under a byte budget."""

    def __init__(
        self,
        *,
        budget_bytes: int | None = None,
        tune: bool = True,
        tuner_cache=None,
        faults=None,
    ):
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be > 0, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._tune = tune
        self._tuner_cache = tuner_cache
        #: optional :class:`~repro.faults.inject.FaultInjector`; its
        #: ``registry_load_failure`` events fire at the load site below
        self.faults = faults
        self._specs: dict[str, MatrixSpec] = {}
        #: LRU order: oldest first; move_to_end on every acquire
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self.loads = 0
        self.hits = 0
        self.evictions = 0

    # -- registration ------------------------------------------------------
    def register(
        self,
        name: str,
        loader: Callable[[], SparseMatrixFormat] | None = None,
        *,
        matrix: SparseMatrixFormat | None = None,
        variant: str | None = None,
        tune: bool | None = None,
    ) -> MatrixSpec:
        """Register ``name`` with a loader callable or a live instance."""
        if (loader is None) == (matrix is None):
            raise ValueError("register() needs exactly one of loader= or matrix=")
        if loader is None:
            inst = matrix

            def loader() -> SparseMatrixFormat:  # noqa: F811 - closure
                return inst

        spec = MatrixSpec(
            name=name,
            loader=loader,
            variant=variant,
            tune=self._tune if tune is None else tune,
        )
        with self._lock:
            self._specs[name] = spec
        return spec

    def register_suite(
        self,
        name: str,
        key: str | None = None,
        *,
        fmt: str = "pJDS",
        scale: int = 64,
        seed: int = 0,
        variant: str | None = None,
    ) -> MatrixSpec:
        """Register a paper-suite generator matrix (lazy assembly)."""
        key = key or name

        def loader() -> SparseMatrixFormat:
            from repro.formats import convert
            from repro.matrices import generate

            return convert(generate(key, scale=scale, seed=seed), fmt)

        return self.register(name, loader, variant=variant)

    def names(self) -> list[str]:
        """All registered names (resident or not), sorted."""
        with self._lock:
            return sorted(self._specs)

    def has(self, name: str) -> bool:
        """True when ``name`` is registered (loaded or loadable)."""
        with self._lock:
            return name in self._specs

    def resident(self) -> list[str]:
        """Names currently loaded, LRU-oldest first."""
        with self._lock:
            return list(self._entries)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return sum(e.nbytes for e in self._entries.values())

    # -- acquire / release -------------------------------------------------
    def acquire(self, name: str) -> MatrixLease:
        """Pin ``name`` resident (loading + binding it if needed)."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None:
                self.hits += 1
                entry.refcount += 1
                self._entries.move_to_end(name)
                if obs.enabled():
                    obs.inc("serve_registry_hits_total", 1, matrix=name)
                return MatrixLease(self, entry)
            spec = self._specs.get(name)
            if spec is None:
                raise MatrixNotFound(name, self.names())
            try:
                with obs.span("serve.registry_load", matrix=name):
                    if self.faults is not None:
                        self.faults.load_fault(name)
                    matrix = spec.loader()
                    bound = bind(
                        matrix,
                        tune=spec.tune,
                        variant=spec.variant,
                        cache=self._tuner_cache,
                        label=name,  # attribution tables report the served name
                    )
            except Exception as exc:
                # the spec stays registered: the next acquire retries
                if obs.enabled():
                    obs.inc("serve_registry_load_failures_total", 1, matrix=name)
                raise RegistryLoadFailed(
                    name, f"{type(exc).__name__}: {exc}"
                ) from exc
            entry = _Entry(name, bound)
            entry.refcount = 1  # pin before eviction can see it
            self._entries[name] = entry
            self.loads += 1
            if obs.enabled():
                obs.inc("serve_registry_loads_total", 1, matrix=name)
            self._evict_to_budget()
            self._publish_gauges()
            return MatrixLease(self, entry)

    def _release(self, entry: _Entry) -> None:
        with self._lock:
            entry.refcount -= 1
            if entry.refcount < 0:  # pragma: no cover - defensive
                raise AssertionError(f"refcount underflow for {entry.name}")
            # a release may unblock a pending over-budget state
            if self.budget_bytes is not None:
                self._evict_to_budget()
                self._publish_gauges()

    def _evict_to_budget(self) -> None:
        """Drop LRU idle entries until under budget (lock held).

        In-use entries (refcount > 0) are never touched; if only
        in-use entries remain the registry runs over budget — serving
        correctness beats the residency bound.
        """
        if self.budget_bytes is None:
            return
        total = sum(e.nbytes for e in self._entries.values())
        if total <= self.budget_bytes:
            return
        for name in list(self._entries):  # oldest first
            if total <= self.budget_bytes:
                break
            entry = self._entries[name]
            if entry.refcount > 0:
                continue
            del self._entries[name]
            total -= entry.nbytes
            self.evictions += 1
            if obs.enabled():
                obs.inc("serve_registry_evictions_total", 1, matrix=name)

    def _publish_gauges(self) -> None:
        if obs.enabled():
            obs.set_gauge(
                "serve_registry_bytes",
                sum(e.nbytes for e in self._entries.values()),
            )
            obs.set_gauge("serve_registry_resident", len(self._entries))

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict:
        """JSON-friendly snapshot for /statz."""
        with self._lock:
            return {
                "registered": self.names(),
                "resident": [
                    {
                        "name": e.name,
                        "format": e.bound.matrix.name,
                        "shape": list(e.bound.shape),
                        "nnz": e.bound.nnz,
                        "nbytes": e.nbytes,
                        "variant": e.bound.variant_name,
                        "spmm_variant": e.bound.spmm_variant_name,
                        "refcount": e.refcount,
                        "clones": len(e.clones),
                    }
                    for e in self._entries.values()
                ],
                "resident_bytes": sum(e.nbytes for e in self._entries.values()),
                "budget_bytes": self.budget_bytes,
                "loads": self.loads,
                "hits": self.hits,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MatrixRegistry {len(self._entries)}/{len(self._specs)} resident, "
            f"{self.resident_bytes} bytes (budget {self.budget_bytes})>"
        )
