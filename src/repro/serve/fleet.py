"""Shard hosts for the serve fleet: N servers, each owning row blocks.

The paper's scalability story (Sect. III) is one device per contiguous
row block with the result gathered in block order.  The fleet applies
it to serving: each **shard** is a full serve stack — a
:class:`~repro.serve.registry.MatrixRegistry` holding *row-block
slices* of registered matrices plus a micro-batching
:class:`~repro.serve.scheduler.SpMVServer` — and the
:class:`~repro.serve.router.FleetRouter` in front scatters requests to
the shards owning a matrix's blocks and gathers the row-block results
in plan order.

Two shard transports share one core (:class:`_ShardCore`):

* :class:`ProcessShard` — the production transport: the shard runs in
  its own OS process (``repro serve --fleet N``).  Commands travel over
  a duplex :mod:`multiprocessing` socketpair and a reader thread on the
  parent side resolves submission futures.  Vectors never go through
  the pipe: every spmv borrows a shared-memory *slot* (an
  ``os.memfd_create`` file mapped by both processes, its fd passed to
  the shard once with ``send_handle``), the parent writes x into it,
  the shard writes its rows of y back into the same slot, and the
  message and the reply carry only the slot id and the shapes.  A slot
  is reused only after its own reply arrives, so a hedge loser that
  answers late never writes into a slot that serves another request.
  A registered row block travels the same way, through a one-off slot
  that both sides unmap once the shard has copied the arrays out.
  A dead process (crash, ``kill()``, chaos ``shard_kill``) fails every
  in-flight future with :class:`~repro.serve.errors.ShardDown` — the
  router's failover trigger — and unmaps its slots.
* :class:`InprocShard` — the same semantics on threads in the calling
  process, arrays passed by reference: deterministic for tests, and
  the cheap default for short-lived programmatic fleets.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import signal
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from multiprocessing.reduction import recv_handle, send_handle

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.ops.registry import kernels_for
from repro.serve.errors import MatrixNotFound, ServeError, ShardDown
from repro.serve.registry import MatrixRegistry
from repro.serve.scheduler import SpMVServer
from repro.utils.workers import _Slot, mp_context

__all__ = [
    "ShardConfig",
    "Fleet",
    "InprocShard",
    "ProcessShard",
    "ShardRequestError",
    "block_name",
    "plan_for_shard",
]

FLEET_MODES = ("inproc", "process")


def block_name(key: str, block: int) -> str:
    """Registry name of one row block of a fleet matrix."""
    return f"{key}@{block}"


class ShardRequestError(ServeError):
    """A request failed inside a (remote) shard; carries the remote type.

    The router treats it like any shard-side failure: try the next
    replica, degrade only when none is left.
    """

    http_status = 503

    def __init__(self, shard_id: int, remote_type: str, message: str):
        self.shard_id = shard_id
        self.remote_type = remote_type
        super().__init__(f"shard {shard_id} {remote_type}: {message}")


# ---------------------------------------------------------------------------
# shard configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardConfig:
    """Everything one shard needs to boot (picklable for process mode)."""

    shard_id: int
    workers: int = 1
    max_batch: int = 16
    max_queue: int = 512
    policy: str = "block"
    #: serve-layer fault schedule for this shard (already filtered to
    #: it — see :func:`plan_for_shard`)
    faults: object | None = field(default=None, compare=False)


def plan_for_shard(plan, shard_id: int):
    """Restrict a :class:`~repro.faults.plan.FaultPlan` to one shard.

    Keeps events carrying no ``shard`` target (they apply everywhere)
    plus events targeting exactly ``shard_id`` — with the ``shard``
    pair stripped, since shard-internal injection sites label by
    ``worker``/``matrix``, not by shard.  ``shard_kill`` events are
    dropped entirely: they are consumed at the router, never inside a
    shard.
    """
    if plan is None:
        return None
    kept = []
    for ev in plan.events:
        if ev.kind == "shard_kill":
            continue
        labels = dict(ev.target)
        if "shard" in labels:
            if labels.pop("shard") != shard_id:
                continue
            ev = replace(ev, target=tuple(sorted(labels.items())))
        kept.append(ev)
    if not kept:
        return None
    return replace(plan, events=tuple(kept))


# ---------------------------------------------------------------------------
# shard core (shared by both transports)
# ---------------------------------------------------------------------------

class _ShardCore:
    """Registry + scheduler + block bookkeeping of one shard."""

    def __init__(self, config: ShardConfig):
        self.config = config
        injector = None
        if config.faults is not None:
            injector = config.faults.injector()
        self.faults = injector
        # untuned: every block binds the rank-0 CRS kernel, so replicas
        # and the single-server answer agree bitwise
        self.registry = MatrixRegistry(tune=False, faults=injector)
        self.server = SpMVServer(
            self.registry,
            max_batch=config.max_batch,
            max_queue=config.max_queue,
            policy=config.policy,
            workers=config.workers,
            faults=injector,
        )

    def register_block(self, key: str, block: int, matrix: CSRMatrix) -> None:
        self.registry.register(block_name(key, block), matrix=matrix)

    def submit(self, key: str, block: int, x, deadline_ms):
        return self.server.submit(
            block_name(key, block), x, deadline_ms=deadline_ms
        )

    def stats(self) -> dict:
        s = self.server.stats()
        s["shard"] = self.config.shard_id
        s["alive"] = True
        return s

    def close(self, *, drain: bool = True) -> None:
        self.server.close(drain=drain)


# ---------------------------------------------------------------------------
# in-process transport
# ---------------------------------------------------------------------------

class InprocShard:
    """A shard hosted on threads in the calling process."""

    mode = "inproc"

    def __init__(self, config: ShardConfig):
        self.shard_id = config.shard_id
        self.config = config
        self._core = _ShardCore(config)
        self._dead = False
        self._death_reason = ""

    @property
    def alive(self) -> bool:
        return not self._dead

    def _check(self) -> None:
        if self._dead:
            raise ShardDown(self.shard_id, self._death_reason)

    def register_block(self, key, block, matrix) -> None:
        self._check()
        self._core.register_block(key, block, matrix)

    def submit(self, key, block, x, deadline_ms=None) -> "Future[np.ndarray]":
        self._check()
        return self._core.submit(key, block, x, deadline_ms)

    def stats(self) -> dict:
        self._check()
        return self._core.stats()

    def kill(self, reason: str = "killed") -> None:
        """Simulate shard death: in-flight work fails, submissions raise."""
        if self._dead:
            return
        self._dead = True
        self._death_reason = reason
        self._core.close(drain=False)

    def close(self) -> None:
        if self._dead:
            return
        self._dead = True
        self._death_reason = "closed"
        self._core.close(drain=True)


# ---------------------------------------------------------------------------
# process transport
# ---------------------------------------------------------------------------

def _encode_exc(exc: Exception) -> tuple[str, str]:
    return type(exc).__name__, str(exc)


class _SlotPool:
    """A process shard's slots, reused by power-of-two size, grown on demand.

    A slot has one owner at a time: the submitting thread, the table of
    pending replies, or the reader copying y out.  It goes back to the
    free list only through :meth:`give`; once the pool is closed (shard
    dead or closed) a returned slot is unmapped instead.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._free: dict[int, list[_Slot]] = {}
        self._ids = itertools.count()
        self._closed = False

    def take(self, nbytes: int) -> _Slot:
        size = max(mmap.PAGESIZE, 1 << max(nbytes - 1, 0).bit_length())
        with self._lock:
            free = self._free.get(size)
            if free:
                return free.pop()
        return self.new(size)

    def new(self, size: int) -> _Slot:
        """A slot outside the free lists (the caller gives or closes it)."""
        return _Slot(next(self._ids), size)

    def give(self, slot: _Slot) -> None:
        with self._lock:
            if not self._closed:
                self._free.setdefault(slot.size, []).append(slot)
                return
        slot.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            slots = [s for free in self._free.values() for s in free]
            self._free.clear()
        for slot in slots:
            slot.close()


def _copy_in(mm, arrays) -> tuple:
    """Lay ``arrays`` end to end in ``mm``; return their layout, the
    ``(dtype, length)`` pairs :func:`_copy_out` reads them back by."""
    offset = 0
    for a in arrays:
        np.ndarray(a.shape, a.dtype, buffer=mm, offset=offset)[...] = a
        offset += a.nbytes
    return tuple((a.dtype.str, a.size) for a in arrays)


def _copy_out(mm, layout) -> list:
    """Copies of the ``(dtype, length)`` arrays laid end to end in ``mm``."""
    out, offset = [], 0
    for dtype, n in layout:
        out.append(np.frombuffer(mm, dtype=dtype, count=n, offset=offset).copy())
        offset += out[-1].nbytes
    return out


def _shard_main(conn, config: ShardConfig) -> None:
    """Entry point of a shard process: serve pipe commands until stop."""
    # A terminal ^C delivers SIGINT to the whole foreground process
    # group; shutdown is the parent's job (stop message / terminate),
    # so the shard must not die mid-reply with a KeyboardInterrupt
    # traceback of its own.
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    core = _ShardCore(config)
    send_lock = threading.Lock()
    slots: dict[int, mmap.mmap] = {}

    def reply(rid, ok, payload) -> None:
        with send_lock:
            try:
                conn.send((rid, ok, payload))
            except (BrokenPipeError, OSError):  # parent gone: nothing to do
                pass

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op, rid = msg[0], msg[1]
            if op == "stop":
                reply(rid, True, None)
                break
            try:
                if op == "spmv":
                    key, block, slot_id, dtype, ncols, nrows, deadline_ms = msg[2:]
                    mm = slots[slot_id]
                    x = np.ndarray(ncols, dtype=dtype, buffer=mm)

                    def _done(f, rid=rid, mm=mm, dtype=dtype, nrows=nrows):
                        exc = f.exception()
                        if exc is None:
                            # y goes into the slot; the reply carries no array
                            np.ndarray(nrows, dtype=dtype, buffer=mm)[...] = f.result()
                            reply(rid, True, None)
                        else:
                            reply(rid, False, _encode_exc(exc))

                    core.submit(key, block, x, deadline_ms).add_done_callback(_done)
                elif op == "slot":
                    fd = recv_handle(conn)
                    try:
                        slots[msg[2]] = mmap.mmap(fd, msg[3])
                    finally:
                        os.close(fd)
                elif op == "register":
                    key, block, slot_id, layout, shape = msg[2:]
                    with slots.pop(slot_id) as mm:
                        indptr, indices, data = _copy_out(mm, layout)
                    matrix = CSRMatrix(indptr, indices, data, shape)
                    core.register_block(key, block, matrix)
                    reply(rid, True, None)
                elif op == "stats":
                    reply(rid, True, core.stats())
                elif op == "ping":
                    reply(rid, True, "pong")
                else:
                    reply(rid, False, ("ValueError", f"unknown op {op!r}"))
            except Exception as exc:  # noqa: BLE001 - shipped to the parent
                reply(rid, False, _encode_exc(exc))
    finally:
        try:
            core.close(drain=False)
        except Exception:  # pragma: no cover - best-effort teardown
            pass


class ProcessShard:
    """A shard hosted in its own OS process behind a duplex pipe.

    x and y of every spmv, and each registered block, move through
    shared-memory slots (see the module docstring); the pipe carries
    commands, shapes and errors.
    """

    mode = "process"

    def __init__(
        self,
        config: ShardConfig,
        *,
        boot_timeout_s: float = 30.0,
    ):
        self.shard_id = config.shard_id
        self.config = config
        # load the kernel registry (the kernel modules and the compiled
        # library) before forking: a forked shard inherits it instead
        # of loading it on its first request
        kernels_for(CSRMatrix)
        ctx = mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn = parent_conn
        self._proc = ctx.Process(
            target=_shard_main,
            args=(child_conn, config),
            name=f"repro-shard-{config.shard_id}",
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        self._rid = itertools.count()
        #: rid -> (future, slot or None, (dtype, shape) of the answer)
        self._pending: dict[int, tuple] = {}
        self._plock = threading.Lock()
        self._wlock = threading.Lock()
        self._slots = _SlotPool()
        #: (key, block) -> (nrows, ncols) of each registered block
        self._shapes: dict[tuple, tuple] = {}
        self._dead = False
        self._death_reason = ""
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"shard{config.shard_id}-reader",
            daemon=True,
        )
        self._reader.start()
        # handshake: surfaces boot failures at construction time
        self._call("ping", timeout=boot_timeout_s)

    # -- parent-side plumbing ---------------------------------------------
    @property
    def alive(self) -> bool:
        return not self._dead

    def _read_loop(self) -> None:
        try:
            while True:
                rid, ok, payload = self._conn.recv()
                with self._plock:
                    entry = self._pending.pop(rid, None)
                if entry is None:
                    continue
                fut, slot, out = entry
                if slot is not None:
                    if ok and not fut.done():
                        payload = slot.array(*out).copy()
                    self._slots.give(slot)
                if fut.done() or not fut.set_running_or_notify_cancel():
                    continue
                if ok:
                    fut.set_result(payload)
                else:
                    fut.set_exception(
                        ShardRequestError(self.shard_id, payload[0], payload[1])
                    )
        except (EOFError, OSError, ValueError):
            self._on_death("shard process exited")

    def _on_death(self, reason: str) -> None:
        with self._plock:
            if self._dead:
                return
            self._dead = True
            self._death_reason = reason
            pending = list(self._pending.values())
            self._pending.clear()
        self._slots.close()
        exc = ShardDown(self.shard_id, reason)
        for fut, slot, _ in pending:
            if slot is not None:
                self._slots.give(slot)
            if not fut.done() and fut.set_running_or_notify_cancel():
                fut.set_exception(exc)

    def _ship(self, slot: _Slot) -> None:
        """Hand a new slot's fd to the shard once; both sides then keep
        only the mapping."""
        try:
            with self._wlock:
                self._conn.send(("slot", None, slot.id, slot.size))
                send_handle(self._conn, slot.fd, self._proc.pid)
        except (BrokenPipeError, OSError) as exc:
            self._on_death(f"pipe write failed: {exc}")
            raise ShardDown(self.shard_id, self._death_reason) from exc
        finally:
            os.close(slot.fd)
            slot.fd = None

    def _send(self, op: str, *args, slot: _Slot | None = None, out=None) -> Future:
        """Send one command; ``slot`` (with the answer's ``out`` dtype and
        shape) is owned by the pending table from here on."""
        rid = next(self._rid)
        fut: Future = Future()
        with self._plock:
            dead = self._dead
            if not dead:
                self._pending[rid] = (fut, slot, out)
        if dead:
            if slot is not None:
                self._slots.give(slot)
            raise ShardDown(self.shard_id, self._death_reason)
        try:
            with self._wlock:
                self._conn.send((op, rid, *args))
        except (BrokenPipeError, OSError) as exc:
            # fails every pending future, this one included
            self._on_death(f"pipe write failed: {exc}")
            raise ShardDown(self.shard_id, self._death_reason) from exc
        return fut

    def _call(self, op: str, *args, timeout: float = 30.0):
        return self._send(op, *args).result(timeout)

    # -- shard API ---------------------------------------------------------
    def submit(self, key, block, x, deadline_ms=None) -> "Future[np.ndarray]":
        """Write x into a slot and ask the shard for its rows of y."""
        if self._dead:
            raise ShardDown(self.shard_id, self._death_reason)
        shape = self._shapes.get((key, block))
        if shape is None:
            raise MatrixNotFound(block_name(key, block))
        x = np.asarray(x)
        if x.ndim != 1 or x.shape[0] != shape[1]:
            raise ValueError(
                f"spmv on {block_name(key, block)} needs x of shape "
                f"({shape[1]},), got {x.shape}"
            )
        slot = self._slots.take(max(x.shape[0], shape[0]) * x.itemsize)
        try:
            if slot.fd is not None:
                self._ship(slot)
            slot.array(x.dtype, x.shape)[...] = x
        except BaseException:
            self._slots.give(slot)
            raise
        return self._send(
            "spmv", key, block, slot.id, x.dtype.str, shape[1], shape[0],
            deadline_ms, slot=slot, out=(x.dtype, (shape[0],)),
        )

    def register_block(self, key, block, matrix) -> None:
        """Ship a :class:`CSRMatrix` block through a one-off slot."""
        arrays = (matrix.indptr, matrix.indices, matrix.data)
        buf = self._slots.new(sum(a.nbytes for a in arrays))
        try:
            layout = _copy_in(buf.mm, arrays)
            self._ship(buf)
            self._call(
                "register", key, block, buf.id, layout, tuple(matrix.shape),
                timeout=120.0,
            )
        finally:
            buf.close()
        self._shapes[(key, block)] = tuple(matrix.shape)

    def stats(self) -> dict:
        return self._call("stats", timeout=30.0)

    def kill(self, reason: str = "killed") -> None:
        """Hard-kill the shard process (the chaos ``shard_kill`` effect)."""
        if self._conn.closed:  # closed: the process is gone already
            return
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5.0)
        self._on_death(reason)

    def close(self) -> None:
        if self._conn.closed:
            return
        if not self._dead:
            try:
                self._call("stop", timeout=10.0)
            except (ShardDown, Exception):  # noqa: BLE001 - already dying
                pass
        self._proc.join(timeout=10.0)
        if self._proc.is_alive():  # pragma: no cover - stuck process
            self._proc.terminate()
            self._proc.join(timeout=5.0)
        self._on_death("closed")
        # the reader sees EOF once the process is gone; closing the pipe
        # under it could let it read a later pipe that reuses the fd
        self._reader.join(timeout=5.0)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        # releases the process's sentinel pipe now, not at garbage collection
        with contextlib.suppress(ValueError):  # pragma: no cover - still running
            self._proc.close()


# ---------------------------------------------------------------------------
# the fleet
# ---------------------------------------------------------------------------

class Fleet:
    """N shard hosts with one lifecycle (context manager).

    ``mode`` picks the transport (``"process"`` for real OS processes,
    ``"inproc"`` for deterministic thread-backed shards); every other
    keyword is a per-shard :class:`ShardConfig` field applied
    uniformly.  ``faults`` (a :class:`~repro.faults.plan.FaultPlan`) is
    split per shard via :func:`plan_for_shard`.
    """

    def __init__(
        self,
        nshards: int,
        *,
        mode: str = "inproc",
        workers: int = 1,
        max_batch: int = 16,
        max_queue: int = 512,
        policy: str = "block",
        faults=None,
    ):
        if nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {nshards}")
        if mode not in FLEET_MODES:
            raise ValueError(f"mode must be one of {FLEET_MODES}, got {mode!r}")
        self.mode = mode
        self.shards: list = []
        for i in range(nshards):
            config = ShardConfig(
                shard_id=i,
                workers=workers,
                max_batch=max_batch,
                max_queue=max_queue,
                policy=policy,
                faults=plan_for_shard(faults, i),
            )
            if mode == "inproc":
                self.shards.append(InprocShard(config))
            else:
                self.shards.append(ProcessShard(config))
        self._by_id = {s.shard_id: s for s in self.shards}

    @property
    def nshards(self) -> int:
        return len(self.shards)

    def shard(self, shard_id: int):
        try:
            return self._by_id[shard_id]
        except KeyError:
            raise ValueError(f"no shard {shard_id}") from None

    def alive_ids(self) -> list[int]:
        return [s.shard_id for s in self.shards if s.alive]

    def kill(self, shard_id: int, reason: str = "killed") -> None:
        self.shard(shard_id).kill(reason)

    def close(self) -> None:
        for s in self.shards:
            s.close()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        alive = len(self.alive_ids())
        return f"<Fleet mode={self.mode} shards={self.nshards} alive={alive}>"
