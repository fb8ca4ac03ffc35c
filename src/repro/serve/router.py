"""Front-end router of the serve fleet: placement, scatter/gather, hedging.

The :class:`FleetRouter` is the fleet's single client-facing surface —
``spmv`` / ``solve`` / ``eigsh`` / ``stats`` / ``health`` / ``names`` /
``close``, the calls the HTTP front-end and the CLI make on the
in-process :class:`~repro.serve.client.Client` — so they serve either
one unchanged.

**Placement.**  A registered matrix is split into contiguous row
blocks by the same nnz-balanced
:func:`~repro.distributed.partition.partition_rows` plans the
distributed runtime uses (Sect. III of the paper: one device per row
block).  Which shards own which blocks comes from a seeded rendezvous
order (:func:`rendezvous_order`): the shard ids sorted by a hash of
``(seed, key, shard)``.  Block ``b``'s primary is the ``b``-th entry of
that order (round-robin over it when there are more blocks than
shards), and its replicas chain along the next entries (*chained
declustering* — a dead shard's load spreads over its neighbours
instead of doubling one survivor).  Assignment is deterministic per
seed.

**Column compaction.**  As in the paper's Sect. III, where a rank
receives only the elements of x its rows touch, each block is stored on
its shards with only the columns it reads: ``register`` marks them in a
bool mask, keeps their ids in :attr:`Placement.cols`, and renumbers the
block's column indices by the mask's running count.  The renumbering
is monotone, so every row keeps its stored order and sums the same
products in the same order.

**Scatter/gather.**  ``spmv`` sends each block's ``x[cols]`` to one
live replica of that block and concatenates the row-block results in
plan order — bitwise-equal to the single-server answer, because a CRS
row's reduction never crosses a block boundary.  Failures walk the
replica chain (*failover*); after ``hedge_delay_ms`` without an answer a
backup request races the slow replica (*hedging*).  A losing replica
is discarded: cancelled while it is still queued on its shard, its
late result or error swallowed once it runs, so it can never surface
through a call that already has an answer.  When every replica of some
block is gone the router either zero-fills those rows
(``allow_partial=True``, ``status="partial"``) or raises
:class:`~repro.serve.errors.FleetDegraded`.

``solve``/``eigsh`` run the package's own iterative solvers over a
:class:`RoutedOperator` whose every ``apply`` is a routed spmv — so a
fleet solve performs the *same float operations in the same order* as
a single-server solve, and bitwise parity of spmv lifts to bitwise
parity of solutions.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.distributed.partition import RowPartition, partition_rows
from repro.formats.base import STORED_INDEX_DTYPE
from repro.formats.csr import CSRMatrix
from repro.ops.protocol import LinearOperator
from repro.ops.registry import variants_for
from repro.serve.client import eigsh_on, solve_on
from repro.serve.errors import FleetDegraded, MatrixNotFound, ShardDown
from repro.serve.fleet import Fleet

__all__ = ["Placement", "FleetRouter", "RoutedOperator", "rendezvous_order"]


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Placement:
    """Where one registered matrix lives on the fleet."""

    key: str
    partition: RowPartition
    #: per block: replica shard ids, primary first (chained declustering)
    replicas: tuple
    shape: tuple
    dtype: np.dtype
    #: per block: the sorted global columns its rows read (the shards
    #: store the block with these renumbered 0..len-1)
    cols: tuple = field(compare=False)

    @property
    def nblocks(self) -> int:
        return self.partition.nparts

    @property
    def variant(self) -> str:
        """The spmv variant every shard binds: the untuned rank-0 CRS kernel."""
        return variants_for(CSRMatrix)[0].name

    def block_range(self, block: int) -> tuple[int, int]:
        return self.partition.row_range(block)

    def describe(self) -> dict:
        return {
            "key": self.key,
            "shape": list(self.shape),
            "replication": len(self.replicas[0]) if self.replicas else 0,
            "blocks": [
                {
                    "rows": list(self.partition.row_range(b)),
                    "replicas": list(self.replicas[b]),
                }
                for b in range(self.nblocks)
            ],
        }


def compact_columns(csr: CSRMatrix, lo: int, hi: int) -> tuple:
    """Rows ``[lo, hi)`` of ``csr`` with only the columns they read.

    Returns the block (values shared with ``csr``, column indices
    renumbered by ``cumsum(read) - 1``) and the sorted global columns.
    The renumbering is monotone, so each row keeps its stored order.  A
    block that reads nothing keeps column 0: a CSR matrix needs one.
    """
    a, b = int(csr.indptr[lo]), int(csr.indptr[hi])
    indices = csr.indices[a:b]
    read = np.zeros(csr.ncols, dtype=bool)
    read[indices] = True
    if not read.any():
        read[0] = True
    cols = np.flatnonzero(read)
    # stored-index dtype: the block's columns are kept as they are made
    local = np.cumsum(read, dtype=STORED_INDEX_DTYPE) - 1
    block = CSRMatrix(
        csr.indptr[lo:hi + 1] - a, local[indices], csr.data[a:b],
        (hi - lo, cols.size),
    )
    return block, cols


def rendezvous_order(key: str, shard_ids, seed: int = 0) -> list[int]:
    """``shard_ids`` in ``key``'s deterministic preference order.

    Rendezvous hashing: the shards sorted by blake2b of
    ``"{seed}/{key}/{shard}"``.  A shard's hash for a key does not
    depend on the other shards, so adding one moves only the keys it
    now heads and removing one moves only the keys it headed.
    """
    return sorted(
        shard_ids,
        key=lambda sid: hashlib.blake2b(
            f"{seed}/{key}/{sid}".encode(), digest_size=8
        ).digest(),
    )


def place_blocks(order, nblocks: int, replicas: int) -> tuple:
    """Replica sets for each row block (primary first).

    ``order`` is the key's shard preference order: block ``b``'s
    primary is entry ``b mod S`` and its replicas the next ``R-1``
    entries (all distinct because the order's entries are).
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if replicas > len(order):
        raise ValueError(
            f"replication {replicas} exceeds fleet size {len(order)}"
        )
    return tuple(
        tuple(order[(b + j) % len(order)] for j in range(replicas))
        for b in range(nblocks)
    )


# ---------------------------------------------------------------------------
# routed operator (fleet solves)
# ---------------------------------------------------------------------------

class RoutedOperator(LinearOperator):
    """A registered fleet matrix as a :class:`LinearOperator`.

    Every ``apply`` is one routed scatter/gather spmv, so solvers
    drive the whole fleet — and produce bitwise the floats a
    single-server solve would.
    """

    def __init__(self, router: "FleetRouter", key: str):
        self.router = router
        self.key = key
        pl = router.placement(key)
        self._shape = tuple(pl.shape)
        self._dtype = np.dtype(pl.dtype)

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def apply(self, x, out=None):
        y = self.router.spmv(self.key, x)
        if out is not None:
            out[:] = y
            return out
        return y


# ---------------------------------------------------------------------------
# per-request gather state
# ---------------------------------------------------------------------------

class _BlockState:
    """Replica walk of one row block within one scatter/gather request."""

    __slots__ = ("block", "replicas", "x", "next_idx", "sends", "futures",
                 "hedge_at", "result", "errors", "used_fallback")

    def __init__(self, block: int, replicas: tuple, x: np.ndarray):
        self.block = block
        self.replicas = replicas
        #: the block's part of x, sent to every replica tried
        self.x = x
        self.next_idx = 0
        self.sends = 0
        self.futures: dict = {}  # future -> shard_id
        self.hedge_at = float("inf")
        self.result = None
        self.errors: list = []
        self.used_fallback = False


class FleetRouter:
    """Scatter/gather front-end over a :class:`~repro.serve.fleet.Fleet`."""

    def __init__(
        self,
        fleet: Fleet,
        *,
        replicas: int = 1,
        blocks: int | None = None,
        seed: int = 0,
        hedge_delay_ms: float | None = None,
        allow_partial: bool = True,
        faults=None,
    ):
        if replicas < 1 or replicas > fleet.nshards:
            raise ValueError(
                f"replicas must be in [1, {fleet.nshards}], got {replicas}"
            )
        _check_blocks(blocks)
        self.fleet = fleet
        self.replicas = replicas
        self.default_blocks = blocks
        #: seeds the rendezvous order of every registered key
        self.seed = seed
        #: None disables hedging (failover still walks the chain)
        self.hedge_delay_ms = hedge_delay_ms
        self.allow_partial = allow_partial
        if faults is not None and not hasattr(faults, "take_one"):
            faults = faults.injector()
        self.faults = faults
        self._placements: dict[str, Placement] = {}
        self._down: dict[int, str] = {}
        self._lock = threading.Lock()
        self._status = {"ok": 0, "degraded": 0, "partial": 0, "error": 0}
        self._hedges = 0
        self._failovers = 0
        #: spmv requests, bytes of x sent to shards, bytes of y received
        self._transport = {"requests": 0, "x_bytes": 0, "y_bytes": 0}
        self._latency = obs.Summary(window=4096)

    # -- registration ------------------------------------------------------
    def register(
        self,
        name: str,
        matrix=None,
        *,
        loader=None,
        blocks: int | None = None,
        replicas: int | None = None,
    ) -> Placement:
        """Partition a matrix into row blocks and push them to shards.

        ``replicas`` overrides the router default per matrix (hot keys
        get more copies); ``blocks`` the block count (default: one per
        shard).  Idempotent re-registration replaces the placement.
        """
        _check_blocks(blocks)
        if matrix is None:
            if loader is None:
                raise ValueError("register needs a matrix or a loader")
            matrix = loader()
        csr = (
            matrix
            if isinstance(matrix, CSRMatrix)
            else CSRMatrix.from_coo(matrix.to_coo())
        )
        nblocks = blocks or self.default_blocks or self.fleet.nshards
        nblocks = max(1, min(nblocks, csr.nrows))
        nreplicas = self.replicas if replicas is None else replicas
        partition = partition_rows(
            csr.nrows, nblocks,
            row_weights=csr.row_lengths().astype(np.float64),
        )
        order = rendezvous_order(
            name, [s.shard_id for s in self.fleet.shards], self.seed
        )
        assignment = place_blocks(order, nblocks, nreplicas)
        cols = []
        for b, (lo, hi) in enumerate(partition):
            block_csr, block_cols = compact_columns(csr, lo, hi)
            cols.append(block_cols)
            for sid in assignment[b]:
                self.fleet.shard(sid).register_block(name, b, block_csr)
        placement = Placement(
            key=name,
            partition=partition,
            replicas=assignment,
            shape=tuple(csr.shape),
            dtype=np.dtype(csr.dtype),
            cols=tuple(cols),
        )
        with self._lock:
            self._placements[name] = placement
        return placement

    def placement(self, name: str) -> Placement:
        with self._lock:
            pl = self._placements.get(name)
        if pl is None:
            raise MatrixNotFound(name, self.names())
        return pl

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._placements)

    # -- shard liveness ----------------------------------------------------
    def _mark_down(self, shard_id: int, reason: str) -> None:
        with self._lock:
            known = shard_id in self._down
            if not known:
                self._down[shard_id] = reason
        if not known and obs.enabled():
            obs.inc("fleet_shards_down_total", 1, shard=str(shard_id))

    def _shard_usable(self, shard_id: int) -> bool:
        if shard_id in self._down:
            return False
        return self.fleet.shard(shard_id).alive

    def _fire_shard_faults(self) -> None:
        """Consume pending ``shard_kill`` events (the chaos drill hook)."""
        if self.faults is None:
            return
        for sid in self.fleet.alive_ids():
            ev = self.faults.take_one(
                "shard_kill", "serve", "fleet.router", shard=sid
            )
            if ev is not None:
                self.fleet.kill(sid, reason="injected shard_kill")

    # -- scatter/gather spmv ----------------------------------------------
    def spmv(
        self,
        matrix: str,
        x,
        *,
        deadline_ms: float | None = None,
        timeout: float | None = None,
        hedge_delay_ms: float | None = None,
    ) -> np.ndarray:
        """Blocking sharded ``y = A @ x`` (scatter, hedge, gather)."""
        y, _ = self.spmv_detail(
            matrix, x,
            deadline_ms=deadline_ms,
            timeout=timeout,
            hedge_delay_ms=hedge_delay_ms,
        )
        return y

    def spmv_detail(
        self,
        matrix: str,
        x,
        *,
        deadline_ms: float | None = None,
        timeout: float | None = None,
        hedge_delay_ms: float | None = None,
    ) -> tuple:
        """Like :meth:`spmv` but also returns the gather report.

        The report carries ``status`` (``ok`` / ``degraded`` /
        ``partial``), the zero-filled ``missing_blocks``, and the
        hedge/failover counts of this one request.
        """
        pl = self.placement(matrix)
        x = np.ascontiguousarray(np.asarray(x, dtype=pl.dtype))
        if x.ndim != 1 or x.shape[0] != pl.shape[1]:
            raise ValueError(
                f"x must have shape ({pl.shape[1]},), got {x.shape}"
            )
        t0 = time.perf_counter()
        status = "error"
        try:
            with obs.span("fleet.spmv", matrix=matrix, blocks=pl.nblocks):
                result, report = self._gather(
                    pl, x, deadline_ms, timeout, hedge_delay_ms
                )
            status = report["status"]
            return result, report
        finally:
            dt = time.perf_counter() - t0
            with self._lock:
                self._status[status] = self._status.get(status, 0) + 1
            self._latency.observe(dt)
            if obs.enabled():
                obs.inc("fleet_requests_total", 1, matrix=matrix, status=status)
                obs.observe_summary("fleet_request_seconds", dt, matrix=matrix)

    def _launch(self, st: _BlockState, matrix: str, deadline_ms, arrived) -> bool:
        """Submit to the next usable replica of one block; the future
        lands in ``arrived`` when it completes."""
        while st.next_idx < len(st.replicas):
            sid = st.replicas[st.next_idx]
            via_fallback = st.next_idx > 0
            st.next_idx += 1
            if not self._shard_usable(sid):
                st.used_fallback = st.used_fallback or via_fallback
                continue
            try:
                fut = self.fleet.shard(sid).submit(
                    matrix, st.block, st.x, deadline_ms
                )
            except ShardDown as exc:
                self._mark_down(sid, str(exc))
                st.errors.append(exc)
                continue
            except Exception as exc:  # noqa: BLE001 - walk the chain
                st.errors.append(exc)
                continue
            st.futures[fut] = sid
            st.sends += 1
            fut.add_done_callback(arrived.put)
            return True
        return False

    def _gather(self, pl, x, deadline_ms, timeout, hedge_delay_ms) -> tuple:
        self._fire_shard_faults()
        hedge_ms = (
            self.hedge_delay_ms if hedge_delay_ms is None else hedge_delay_ms
        )
        hedge_s = None if hedge_ms is None else max(hedge_ms, 0.0) / 1e3
        deadline = None if timeout is None else time.monotonic() + timeout
        states = [
            _BlockState(b, pl.replicas[b], x[pl.cols[b]])
            for b in range(pl.nblocks)
        ]
        hedges = failovers = 0
        arrived = queue.SimpleQueue()
        for st in states:
            if self._launch(st, pl.key, deadline_ms, arrived) and hedge_s is not None:
                st.hedge_at = time.monotonic() + hedge_s

        while True:
            by_future = {}
            for st in states:
                if st.result is None:
                    by_future.update({f: st for f in st.futures})
            if not by_future:
                break
            now = time.monotonic()
            wait_for = None
            hedgeable = [
                st for st in states
                if st.result is None
                and st.futures
                and st.next_idx < len(st.replicas)
                and st.hedge_at != float("inf")
            ]
            if hedgeable:
                wait_for = max(min(st.hedge_at for st in hedgeable) - now, 0.0)
            if deadline is not None:
                rem = deadline - now
                if rem <= 0:
                    self._discard(states, pl.key)
                    raise TimeoutError(
                        f"fleet spmv({pl.key!r}) timed out with "
                        f"{len(by_future)} submission(s) in flight"
                    )
                wait_for = rem if wait_for is None else min(wait_for, rem)
            try:
                done = [arrived.get(timeout=wait_for)]
            except queue.Empty:
                done = []
            for fut in done:
                st = by_future.get(fut)
                if st is None:  # a loser of an answered block
                    continue
                sid = st.futures.pop(fut, None)
                if fut.cancelled():
                    continue
                exc = fut.exception()
                if exc is None:
                    st.result = fut.result()
                    if st.futures:  # a hedge lost the race
                        self._discard([st], pl.key)
                    continue
                st.errors.append(exc)
                if isinstance(exc, ShardDown) and sid is not None:
                    self._mark_down(sid, str(exc))
                st.used_fallback = True
                if not st.futures:
                    if self._launch(st, pl.key, deadline_ms, arrived):
                        failovers += 1
                        if hedge_s is not None:
                            st.hedge_at = time.monotonic() + hedge_s
            if hedge_s is not None and not done:
                now = time.monotonic()
                for st in hedgeable:
                    if st.result is None and now >= st.hedge_at:
                        if self._launch(st, pl.key, deadline_ms, arrived):
                            hedges += 1
                        st.hedge_at = now + hedge_s

        missing = [st.block for st in states if st.result is None]
        degraded = any(st.used_fallback or st.errors for st in states)
        if missing and not self.allow_partial:
            raise FleetDegraded(pl.key, missing)
        y = np.empty(pl.shape[0], dtype=pl.dtype)
        for st in states:
            lo, hi = pl.block_range(st.block)
            y[lo:hi] = 0.0 if st.result is None else st.result
        status = "partial" if missing else ("degraded" if degraded else "ok")
        with self._lock:
            self._hedges += hedges
            self._failovers += failovers
            self._transport["requests"] += 1
            self._transport["x_bytes"] += sum(
                st.sends * st.x.nbytes for st in states
            )
            self._transport["y_bytes"] += sum(
                st.result.nbytes for st in states if st.result is not None
            )
        if obs.enabled():
            if hedges:
                obs.inc("fleet_hedges_total", hedges, matrix=pl.key)
            if failovers:
                obs.inc("fleet_failovers_total", failovers, matrix=pl.key)
        return y, {
            "status": status,
            "missing_blocks": missing,
            "hedges": hedges,
            "failovers": failovers,
        }

    def _discard(self, states, matrix: str) -> None:
        """Cancel or absorb abandoned submissions (late errors must die)."""
        for st in states:
            for fut in list(st.futures):
                st.futures.pop(fut, None)
                if fut.cancel():
                    if obs.enabled():
                        obs.inc(
                            "fleet_hedge_cancelled_total", 1, matrix=matrix
                        )
                else:
                    fut.add_done_callback(_absorb)

    # -- solvers over the routed operator ---------------------------------
    def operator(self, matrix: str) -> RoutedOperator:
        return RoutedOperator(self, matrix)

    def solve(
        self,
        matrix: str,
        b,
        *,
        method: str = "cg",
        tol: float = 1e-8,
        max_iter: int | None = None,
    ) -> dict:
        """CG over the routed operator — bitwise the single-server solve."""
        with obs.span("fleet.solve", matrix=matrix, method=method):
            return solve_on(
                self.operator(matrix), b, matrix=matrix, method=method,
                tol=tol, max_iter=max_iter,
            )

    def eigsh(
        self,
        matrix: str,
        *,
        num_eigenvalues: int = 1,
        tol: float = 1e-8,
        max_iter: int = 200,
        seed: int = 0,
    ) -> dict:
        """Lanczos over the routed operator."""
        with obs.span("fleet.solve", matrix=matrix, method="lanczos"):
            return eigsh_on(
                self.operator(matrix), matrix=matrix,
                num_eigenvalues=num_eigenvalues, tol=tol, max_iter=max_iter,
                seed=seed,
            )

    # -- introspection / lifecycle ----------------------------------------
    def _shard_rows(self) -> list[dict]:
        rows = []
        for s in self.fleet.shards:
            if s.alive and s.shard_id not in self._down:
                try:
                    row = s.stats()
                except Exception as exc:  # noqa: BLE001 - went down mid-poll
                    self._mark_down(s.shard_id, str(exc))
                    row = {"shard": s.shard_id, "alive": False,
                           "reason": str(exc)}
            else:
                row = {
                    "shard": s.shard_id,
                    "alive": False,
                    "reason": self._down.get(s.shard_id, "dead"),
                }
            rows.append(row)
            if obs.enabled():
                obs.set_gauge(
                    "fleet_queue_depth",
                    float(row.get("queue_depth", 0) if row.get("alive") else 0),
                    shard=str(s.shard_id),
                )
        if obs.enabled():
            obs.set_gauge(
                "fleet_shards_alive",
                float(sum(1 for r in rows if r.get("alive"))),
            )
        return rows

    def stats(self) -> dict:
        with self._lock:
            requests = dict(self._status)
            hedges, failovers = self._hedges, self._failovers
            down = dict(self._down)
            placements = dict(self._placements)
            transport = dict(self._transport)
        q = self._latency.snapshot()
        per_req = max(transport["requests"], 1) * 1024
        return {
            "fleet": True,
            "mode": self.fleet.mode,
            "nshards": self.fleet.nshards,
            "replicas": self.replicas,
            "requests": requests,
            "hedges": hedges,
            "failovers": failovers,
            # x written to shards (slots) and y read back, per spmv
            "transport_kb_per_req": {
                "x": transport["x_bytes"] / per_req,
                "y": transport["y_bytes"] / per_req,
            },
            "latency_ms": {str(k): v * 1e3 for k, v in q.items()},
            "down": {str(k): v for k, v in down.items()},
            "shards": self._shard_rows(),
            "placements": {
                name: pl.describe() for name, pl in placements.items()
            },
        }

    def health(self) -> dict:
        rows = self._shard_rows()
        alive = [r["shard"] for r in rows if r.get("alive")]
        dead = [r["shard"] for r in rows if not r.get("alive")]
        return {
            "status": "ok" if not dead else ("degraded" if alive else "down"),
            "queue_depth": sum(
                int(r.get("queue_depth", 0)) for r in rows if r.get("alive")
            ),
            "resident": self.names(),
            "shards_alive": alive,
            "shards_down": dead,
        }

    def close(self) -> None:
        self.fleet.close()

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _check_blocks(blocks) -> None:
    if blocks is not None and blocks < 1:
        raise ValueError(f"blocks must be >= 1, got {blocks}")


def _absorb(fut) -> None:
    """Swallow a discarded submission's outcome (late errors must die)."""
    if fut.cancelled():
        return
    fut.exception()
