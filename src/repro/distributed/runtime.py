"""Functional execution of the distributed spMVM: one persistent rank pool.

This is the *correctness* half of the distributed layer: every rank is
a worker (a thread, or an OS process) with an inbox queue; halo data
really moves between workers, following the same
:class:`~repro.distributed.plan.CommPlan` the timing simulator
consumes.  A bug in the plan (wrong gather list, wrong halo layout)
breaks these results, not just a performance plot.

:class:`RankPool` starts one worker per rank and keeps it across
calls.  Each pool generation allocates one block that every worker
sees: ``x``, ``y`` and one receive buffer per rank, laid out by the
mode below.  For processes the block is a memfd mapping made before
the fork, so every rank inherits it; for threads it is plain memory.
A round is one "go" message per rank, an exchange, and one report per
rank.  The two backends differ only in how a worker starts and which
queue class carries the messages.

The exchange mirrors the mpi4py buffer idiom: a sender gathers its
owned elements straight into its fixed slice of the receiver's buffer
(the "local gather" of Fig. 4) and posts ``(round, rank)``; receivers
drop stale rounds and run their kernel on the receive buffer once
every source has posted.  The two execution modes of Sect. III-A:

* ``mode="vector"`` — wait for the complete halo, then run one
  *unsplit* kernel over the row block against the receive buffer
  ``x_rank = [halo below | x_local | halo above]``.  The halo is sorted
  by global column, and ``block.spmv`` runs the rank-0 registry kernel
  (``csr_scipy``) that the serial ``CSRMatrix.spmv`` and an untuned
  bound matrix run, so every row reduces the same element sequence in
  the same kernel: the result is **bitwise equal to serial** for any
  rank count.
* ``mode="task"`` — run the local kernel while halo messages are in
  flight and add the nonlocal kernel after ``waitall`` (the overlap
  split); the receive buffer is the halo in ``halo_cols`` order.  The
  within-row summation order changes, so task mode matches serial to
  rounding; it is bitwise equal across backends.

**Resilience** (see ``docs/resilience.md``): ``faults=`` threads a
:class:`~repro.faults.FaultInjector` through the workers — the driver
pulls one round of plain-data *directives* per rank (crash, message
drop/delay, kernel exception, slow worker) and ships them with the
round's "go" message, so both backends inject identically.  A halo
wait that expires raises :class:`HaloExchangeTimeout` naming the exact
missing edges (rank, neighbors, direction) instead of the whole step.
``retry=`` enables recovery: failed ranks are re-executed in the
driver from their immutable row-block inputs with the mode's own
kernel, so recovered runs match fault-free runs bit for bit.  A failed
round restarts the pool's workers before the next round.

When :mod:`repro.obs` is enabled, every rank emits a span chain
(``rank.gather`` → ``rank.send`` → ``rank.waitall`` → ``rank.spmv``)
parented under a ``distributed_spmv`` root span per round, plus
``halo_bytes_sent{rank=...}`` counters; process workers ship their
finished spans home with every report.  Recoveries add
``rank.recover`` spans and ``faults_retries_total`` /
``faults_recovered_total``.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np

from repro import obs
from repro.distributed.plan import CommPlan, RankPlan
from repro.faults.inject import FaultError, InjectedFault
from repro.faults.retry import RetryExhausted
from repro.formats.coo import row_major_order
from repro.formats.csr import CSRMatrix
from repro.ops.protocol import LinearOperator
from repro.ops.registry import kernels_for
from repro.utils.workers import _Slot, mp_context

__all__ = [
    "distributed_spmv",
    "RankPool",
    "rank_spmv",
    "DistributedTimeout",
    "HaloExchangeTimeout",
    "RUNTIME_MODES",
]

_DEFAULT_TIMEOUT_S = 60.0

RUNTIME_MODES = ("vector", "task")

_BACKENDS = ("threads", "processes")


class DistributedTimeout(RuntimeError):
    """A rank (or several) did not finish within the timeout.

    Carries structured fields for programmatic handling: ``stuck_ranks``
    (which ranks were still running), ``timeout`` (the configured bound)
    and ``where`` (the phase that timed out — ``"waitall (...)"`` from a
    rank still expecting halo messages, or ``"join"`` from the driver).
    """

    def __init__(self, stuck_ranks: list[int], timeout: float, where: str):
        self.stuck_ranks = list(stuck_ranks)
        self.timeout = timeout
        self.where = where
        super().__init__(
            f"distributed spMVM timed out after {timeout:g}s during {where}; "
            f"stuck ranks: {', '.join(map(str, stuck_ranks)) or '<unknown>'}"
        )


class HaloExchangeTimeout(DistributedTimeout):
    """One rank's halo wait expired — names the exact missing edges.

    Instead of indicting the whole step, this narrows the failure to
    (``rank``, ``neighbors``, ``direction``): rank ``rank`` was still
    ``direction``-ing halo traffic for the listed neighbor ranks when
    its wait expired.  Picklable, so a process worker can ship it to
    the driver intact.
    """

    def __init__(self, rank: int, neighbors: list[int], timeout: float,
                 direction: str = "recv"):
        self.rank = int(rank)
        self.neighbors = sorted(int(n) for n in neighbors)
        self.direction = direction
        super().__init__(
            [self.rank],
            timeout,
            f"waitall (rank {self.rank} still expecting halo from "
            f"{self.neighbors}, direction={direction})",
        )

    def __reduce__(self):
        return (type(self), (self.rank, self.neighbors, self.timeout, self.direction))


def rank_spmv(
    plan: RankPlan,
    x_local: np.ndarray,
    halo: np.ndarray,
) -> np.ndarray:
    """One rank's result rows by the split kernel: local, then nonlocal."""
    if plan.local_matrix is None or plan.nonlocal_matrix is None:
        raise ValueError(
            "plan was built with with_matrices=False; rebuild with matrices"
        )
    y = plan.local_matrix.spmv(x_local)
    if plan.nnz_nonlocal:
        y += plan.nonlocal_matrix.spmv(halo)
    return y


class _Rank:
    """One rank's immutable share: its plan, mode and receive layout.

    In vector mode the rank also holds its unsplit ``block``: its row
    block with columns remapped into the compact space ``x_rank = [halo
    below lo | x_local | halo above hi]``, where ``xcols`` holds the
    global column of every ``x_rank`` entry (ascending).  Task mode runs
    the plan's local/nonlocal split and holds neither.  The receive
    buffer is ``x_rank`` in vector mode and the halo alone in task
    mode; ``size`` is its length and ``slots`` the slice of it each
    source rank's gather fills — sources own contiguous column ranges,
    so each lands in one contiguous slice.
    """

    def __init__(self, plan: RankPlan, mode: str):
        if plan.local_matrix is None or plan.nonlocal_matrix is None:
            raise ValueError(
                "plan was built with with_matrices=False; rebuild with matrices"
            )
        self.plan = plan
        self.mode = mode
        lo, hi = plan.row_range
        n = hi - lo
        halo_cols = plan.halo_cols
        below = int(np.searchsorted(halo_cols, lo))
        self.below = below
        shift = n if mode == "vector" else 0
        self.slots = {}
        start = 0
        for src in sorted(plan.recv_cols):
            k = len(plan.recv_cols[src])
            pos = start if start < below else start + shift
            self.slots[src] = slice(pos, pos + k)
            start += k

        if mode != "vector":
            self.xcols = self.block = None
            self.size = plan.nonlocal_matrix.ncols
            return
        self.xcols = np.concatenate(
            (halo_cols[:below], np.arange(lo, hi), halo_cols[below:])
        )
        loc, nl = plan.local_matrix, plan.nonlocal_matrix
        rows = np.repeat(np.arange(n), np.diff(loc.indptr))
        nl_rows = np.repeat(np.arange(n), np.diff(nl.indptr))
        nl_cols = np.where(nl.indices < below, nl.indices, nl.indices + n)
        rows = np.concatenate((rows, nl_rows))
        cols = np.concatenate((loc.indices + below, nl_cols))
        order = row_major_order(rows, cols, self.xcols.shape[0])
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        self.block = CSRMatrix(
            indptr,
            cols[order],
            np.concatenate((loc.data, nl.data))[order],
            (n, self.xcols.shape[0]),
        )
        self.size = self.block.ncols

    def finish(self, x_local, recv, y_local) -> None:
        """Complete ``y_local`` once every halo slice of ``recv`` is in.

        Task mode already holds the local product in ``y_local``.
        """
        if self.mode == "vector":
            recv[self.below:self.below + x_local.shape[0]] = x_local
            self.block.spmv(recv, out=y_local)
        elif self.plan.nnz_nonlocal:
            y_local += self.plan.nonlocal_matrix.spmv(recv)

    def recompute(self, x) -> np.ndarray:
        """The rank's rows from the global ``x``, as its worker would.

        ``x`` is never mutated, and in a fault-free run the halo equals
        ``x[halo_cols]`` bitwise, so the result is bitwise identical to
        what the worker would have produced.
        """
        if self.mode == "vector":
            return self.block.spmv(x[self.xcols])
        lo, hi = self.plan.row_range
        return rank_spmv(self.plan, x[lo:hi], x[self.plan.halo_cols])


# ---------------------------------------------------------------------------
# fault directives (plain data produced by FaultInjector.rank_directives)
# ---------------------------------------------------------------------------

def _note_fault(kind: str, rank: int, site: str, **extra) -> None:
    """Mark the victim at the point of impact.

    The injector records a ``fault.injected`` span when a directive is
    *scheduled* (driver side); this marks where it actually *fired*
    (worker side): the enclosing rank span gets ``fault``/``fault_site``
    attrs and a zero-length ``fault.applied`` span lands in the trace,
    so ``repro obs trace`` shows the fault attached to the rank that
    suffered it — in both backends, since the process workers ship
    their spans home.
    """
    if not obs.enabled():
        return
    obs.annotate_current(fault=kind, fault_site=site)
    with obs.span("fault.applied", kind=kind, rank=rank, site=site, **extra):
        pass


def _directive_crash(directives, rank: int, site: str) -> None:
    for d in directives:
        if d["kind"] == "rank_crash":
            _note_fault("rank_crash", rank, site)
            raise InjectedFault("rank_crash", site, {"rank": rank})


def _directive_kernel(directives, rank: int, site: str) -> None:
    for d in directives:
        if d["kind"] == "kernel_exception":
            _note_fault("kernel_exception", rank, site)
            raise InjectedFault("kernel_exception", site, {"rank": rank})


def _directive_slow(directives, rank: int, site: str) -> None:
    for d in directives:
        if d["kind"] == "slow_worker" and d.get("delay_s"):
            _note_fault("slow_worker", rank, site, delay_s=d["delay_s"])
            time.sleep(d["delay_s"])


def _message_faults(directives) -> tuple[set, dict]:
    """(dropped destinations, {dst: delay_s}); ``None`` dst = every edge."""
    drops = {d.get("dst") for d in directives if d["kind"] == "halo_drop"}
    delays = {
        d.get("dst"): d.get("delay_s", 0.0)
        for d in directives
        if d["kind"] == "halo_delay"
    }
    return drops, delays


# ---------------------------------------------------------------------------
# the worker: one loop for both backends
# ---------------------------------------------------------------------------

def _rank_round(
    rank: _Rank, x, y, recv, sends, inboxes, rnd, directives, timeout,
) -> None:
    """One rank's share of round ``rnd``: exchange, then compute."""
    plan = rank.plan
    r = plan.rank
    lo, hi = plan.row_range
    x_local = x[lo:hi]
    y_local = y[lo:hi]
    _directive_crash(directives, r, "rank.start")
    _directive_slow(directives, r, "rank.start")
    drops, delays = _message_faults(directives)

    # local gather, straight into each receiver's slice of its buffer
    with obs.span("rank.gather", rank=r):
        for dst, local_idx in plan.send_cols.items():
            np.take(x_local, local_idx, out=sends[dst], mode="clip")
    # sends (Isend analogue: queues never block)
    with obs.span("rank.send", rank=r):
        for dst, buf in sends.items():
            if dst in drops or None in drops:
                obs.inc("halo_messages_dropped", 1, rank=str(r), dst=str(dst))
                _note_fault("halo_drop", r, "rank.send", dst=dst)
                continue
            delay = delays.get(dst, delays.get(None, 0.0))
            if delay:
                time.sleep(delay)
            inboxes[dst].put((rnd, r))
            obs.inc("halo_bytes_sent", buf.nbytes, rank=str(r), dst=str(dst))
            obs.inc("halo_messages_sent", 1, rank=str(r))

    # task mode: overlap the local kernel with the in-flight halo
    if rank.mode == "task":
        with obs.span("rank.local_spmv", rank=r):
            plan.local_matrix.spmv(x_local, out=y_local)

    # receive until the halo is complete (Irecv + Waitall)
    pending = set(plan.recv_cols)
    with obs.span("rank.waitall", rank=r):
        while pending:
            try:
                tag, src = inboxes[r].get(timeout=timeout)
            except queue.Empty:
                obs.inc("distributed_timeouts_total", 1, rank=str(r))
                raise HaloExchangeTimeout(r, sorted(pending), timeout) from None
            if tag != rnd:
                continue  # left over from an abandoned round
            if src not in pending:
                raise RuntimeError(f"rank {r}: unexpected message from {src}")
            pending.discard(src)

    _directive_kernel(directives, r, "rank.spmv")
    with obs.span("rank.spmv", rank=r):
        rank.finish(x_local, recv, y_local)


def _worker_loop(
    rank: _Rank, x, y, recv, sends, ctrl, inboxes, done, timeout, in_child,
) -> None:
    """Serve rounds until the ``None`` stop message.

    ``x``, ``y``, the rank's receive buffer ``recv`` and ``sends`` (its
    slice of each receiver's buffer, by destination) are views into the
    pool generation's shared block.  Each "go" message is ``(round,
    directives, span context, traced)``; each report is ``(round, rank,
    error, spans)``.  A process worker starts with a clean tracer (fork
    copies the driver's spans), follows the driver's tracing switch per
    round and ships its finished spans home with every report; the
    driver adopts them, remapping span ids while keeping the
    cross-process parent link to its own root span.
    """
    tracer = obs.get_tracer()
    if in_child:
        tracer.isolate_forked()
    while (msg := ctrl.get()) is not None:
        rnd, directives, ctx, traced = msg
        if in_child:
            (obs.enable if traced else obs.disable)()
        err = None
        try:
            with obs.attach_context(ctx):
                _rank_round(
                    rank, x, y, recv, sends, inboxes, rnd, directives, timeout
                )
        except (InjectedFault, HaloExchangeTimeout) as exc:
            err = exc  # typed + picklable: the driver raises or retries
        except Exception as exc:
            err = f"{type(exc).__name__}: {exc}"
        spans = ()
        if in_child and traced:
            spans = tracer.finished()
            tracer.reset()
        done.put((rnd, rank.plan.rank, err, spans))


# ---------------------------------------------------------------------------
# recovery: re-execute failed ranks from immutable inputs
# ---------------------------------------------------------------------------

def _recompute_rank(rank: _Rank, x: np.ndarray, faults) -> np.ndarray:
    """Serially re-execute one rank in the driver.

    Remaining scheduled faults for this rank still fire (rank crash /
    kernel exception / slow worker; message faults are no-ops since no
    exchange happens here).
    """
    r = rank.plan.rank
    directives = faults.rank_directives(r, site="rank.recover") if faults else ()
    _directive_crash(directives, r, "rank.recover")
    _directive_slow(directives, r, "rank.recover")
    _directive_kernel(directives, r, "rank.recover")
    return rank.recompute(x)


def _recover_failed_ranks(ranks, x, failures: dict, faults, retry) -> dict:
    """Retry every failed rank under ``retry``; returns {rank: y}.

    Raises :class:`~repro.faults.RetryExhausted` (carrying the full
    fault history) once a rank's attempts or the policy's shared retry
    budget run out.
    """
    recovered: dict[int, np.ndarray] = {}
    spent = 0
    for r in sorted(failures):
        history: list[Exception] = [failures[r]]
        site = f"distributed.rank[{r}]"
        for attempt in range(1, retry.max_attempts):
            if retry.budget is not None and spent >= retry.budget:
                raise RetryExhausted(
                    site, attempt, history,
                    reason=f"shared retry budget ({retry.budget}) exhausted",
                )
            spent += 1
            delay = retry.delay(attempt)
            if delay:
                time.sleep(delay)
            if faults is not None:
                faults.note_retry("distributed")
            elif obs.enabled():
                obs.inc("faults_retries_total", 1, layer="distributed")
            try:
                with obs.span("rank.recover", rank=r, attempt=attempt):
                    recovered[r] = _recompute_rank(ranks[r], x, faults)
            except FaultError as exc:
                history.append(exc)
                continue
            if faults is not None:
                faults.note_recovered("distributed")
            elif obs.enabled():
                obs.inc("faults_recovered_total", 1, layer="distributed")
            break
        else:
            raise RetryExhausted(site, retry.max_attempts, history)
    return recovered


def _first_failure(failures: dict) -> Exception:
    """Deterministic representative failure.

    Root-cause faults win over their symptoms: an injected crash on one
    rank starves its neighbours, so the neighbours report
    :class:`HaloExchangeTimeout` — surfacing the timeout would hide the
    actual fault.  Among same-class failures the lowest rank is chosen,
    keeping the representative deterministic.
    """
    def pick(pred):
        ranks = sorted(r for r, e in failures.items() if pred(e))
        return ranks[0] if ranks else None

    rank = pick(lambda e: isinstance(e, FaultError))
    if rank is None:
        rank = pick(lambda e: isinstance(e, DistributedTimeout))
    if rank is None:
        rank = min(failures)
    exc = failures[rank]
    if isinstance(exc, (DistributedTimeout, FaultError)):
        return exc
    return RuntimeError(f"rank {rank} failed: {exc}")


# ---------------------------------------------------------------------------
# the pool (driver side)
# ---------------------------------------------------------------------------

class RankPool(LinearOperator):
    """One persistent worker per rank of ``comm_plan``.

    Workers start on the first :meth:`run` and serve every later call;
    a failed round stops them, and the next round starts fresh ones.
    The pool is a :class:`~repro.ops.protocol.LinearOperator`: each
    ``apply`` is one fault-free :meth:`run`, so the solvers iterate on
    it unchanged and a process-backed solve forks once.
    ``backend="threads"`` keeps everything in-process;
    ``backend="processes"`` runs one OS process per rank, so every halo
    byte really crosses an address-space boundary — the closest a
    single host gets to the paper's distributed-memory setting.
    ``timeout`` bounds both the per-rank halo wait and the driver's
    wait for the round's reports.  Always :meth:`close` the pool (or
    use it as a context manager).
    """

    def __init__(
        self,
        comm_plan: CommPlan,
        *,
        backend: str = "threads",
        mode: str = "vector",
        timeout: float = _DEFAULT_TIMEOUT_S,
    ):
        if backend not in _BACKENDS:
            raise ValueError(
                f"backend must be 'threads' or 'processes', got {backend!r}"
            )
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if mode not in RUNTIME_MODES:
            raise ValueError(f"mode must be one of {RUNTIME_MODES}, got {mode!r}")
        # build_plan enforces square matrices: the RHS length (ncols)
        # equals the row-partitioned output length (nrows)
        assert comm_plan.partition.nrows == comm_plan.ncols
        self.backend = backend
        self.mode = mode
        self.timeout = timeout
        self.ranks = [_Rank(p, mode) for p in comm_plan.ranks]
        self._dtype = comm_plan.ranks[0].local_matrix.dtype
        self.n = comm_plan.ncols
        self._workers = None
        self._round = 0
        self._closed = False

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def apply(self, x, out=None):
        return self.run(x, out=out)

    def _start(self) -> None:
        # load the kernel registry that every rank's block.spmv resolves
        # before the ranks start: forked ranks inherit it instead of each
        # loading the kernel modules and the compiled library in round 1
        kernels_for(CSRMatrix)
        processes = self.backend == "processes"
        ctx = mp_context() if processes else None
        make_queue = ctx.Queue if processes else queue.Queue
        # one block per generation: x, y, then each rank's receive buffer
        ends = np.cumsum([self.n, self.n, *(rank.size for rank in self.ranks)])
        total = int(ends[-1])
        w = SimpleNamespace(slot=None)
        if processes:
            # mapped before the fork: every rank inherits the mapping
            w.slot = _Slot(0, max(1, total * self.dtype.itemsize))
            block = w.slot.array(self.dtype, total)
        else:
            # plain memory: a stuck daemon rank may outlive the generation
            block = np.empty(total, dtype=self.dtype)
        w.x, w.y, *recv = np.split(block, ends[:-1])
        w.ctrl = [make_queue() for _ in self.ranks]
        w.inboxes = [make_queue() for _ in self.ranks]
        w.done = make_queue()
        start = ctx.Process if processes else threading.Thread
        w.workers = [
            start(
                target=_worker_loop,
                args=(
                    rank, w.x, w.y, recv[i],
                    {
                        dst: recv[dst][self.ranks[dst].slots[i]]
                        for dst in rank.plan.send_cols
                    },
                    w.ctrl[i], w.inboxes, w.done, self.timeout, processes,
                ),
                name=f"rank-{i}",
                daemon=True,
            )
            for i, rank in enumerate(self.ranks)
        ]
        for wk in w.workers:
            wk.start()
        self._workers = w

    def _stop(self, grace: float) -> None:
        """Stop the workers and release their queues and buffers.

        Idle workers exit on the stop message within ``grace`` seconds;
        process workers still alive after it are terminated.  A thread
        stuck in its halo wait cannot be killed: it is a daemon holding
        only the stopped generation's queues and arrays, and exits once
        its wait expires.
        """
        w, self._workers = self._workers, None
        if w is None:
            return
        processes = self.backend == "processes"
        if grace or not processes:
            # (a process worker is terminated instead: a stop message
            # still in the queue's feeder would hit a closed pipe)
            for q in w.ctrl:
                q.put(None)
        deadline = time.monotonic() + grace
        for wk in w.workers:
            wk.join(timeout=max(0.0, deadline - time.monotonic()))
        if not processes:
            return
        for p in w.workers:
            if p.is_alive():
                p.terminate()
            p.join()
            p.close()
        for q in (*w.ctrl, *w.inboxes, w.done):
            q.close()
            q.join_thread()
        del w.x, w.y  # views into the mapping must go before it closes
        w.slot.close()

    def _collect(self, rnd: int) -> dict:
        """Wait for every rank's report of round ``rnd``; {rank: error}.

        Workers time out their own halo wait after ``timeout``; the
        driver waits against one deadline with a small grace, so a rank
        that timed itself out is reported through its own (more precise)
        :class:`HaloExchangeTimeout` rather than as stuck.
        """
        deadline = time.monotonic() + self.timeout + max(0.2, 0.25 * self.timeout)
        pending = set(range(len(self.ranks)))
        failures: dict[int, Exception] = {}
        while pending:
            try:
                tag, r, err, spans = self._workers.done.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                obs.inc("distributed_timeouts_total", 1, rank="driver")
                for r in sorted(pending):
                    failures[r] = DistributedTimeout([r], self.timeout, "join")
                break
            if tag != rnd:
                continue
            if spans:
                obs.adopt_spans(spans)
            pending.discard(r)
            if isinstance(err, Exception):
                failures[r] = err
            elif err is not None:
                failures[r] = RuntimeError(err)
        return failures

    def run(
        self,
        x: np.ndarray,
        *,
        faults=None,
        retry=None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """One round: ``y = A @ x`` across the pool's ranks.

        ``faults`` injects a seeded :class:`~repro.faults.FaultPlan`;
        ``retry`` (a :class:`~repro.faults.RetryPolicy`) recovers failed
        ranks by re-executing them from their immutable inputs.  Without
        ``retry``, failures raise typed errors naming the faulting rank
        or edge.
        """
        if self._closed:
            raise RuntimeError("rank pool is closed")
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"x must have shape ({self.n},), got {x.shape}")
        with obs.span(
            "distributed_spmv",
            nparts=len(self.ranks), backend=self.backend, mode=self.mode,
        ) as root:
            if self._workers is None:
                self._start()
            w = self._workers
            self._round += 1
            w.x[:] = x
            ctx = obs.capture_context()
            traced = obs.enabled()
            # directives are plain data resolved in the driver: workers
            # obey them without sharing injector state
            for r in range(len(self.ranks)):
                directives = faults.rank_directives(r) if faults is not None else ()
                w.ctrl[r].put((self._round, directives, ctx, traced))
            failures = self._collect(self._round)
            y = np.empty_like(w.y) if out is None else out
            y[:] = w.y
            if failures:
                self._stop(grace=0.0)
                if retry is None:
                    raise _first_failure(failures)
                recovered = _recover_failed_ranks(
                    self.ranks, x, failures, faults, retry
                )
                for r, yr in recovered.items():
                    lo, hi = self.ranks[r].plan.row_range
                    y[lo:hi] = yr
            root.set_attr("nrows", self.n)
        return y

    def close(self) -> None:
        """Stop the workers and release the shared buffers (idempotent)."""
        self._closed = True
        self._stop(grace=5.0)

    def __enter__(self) -> "RankPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        if getattr(self, "_workers", None) is not None:
            warnings.warn(f"unclosed {self!r}", ResourceWarning, source=self)
            with contextlib.suppress(Exception):  # e.g. at interpreter exit
                self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<RankPool {self.n}x{self.n} ranks={len(self.ranks)} "
            f"backend={self.backend} mode={self.mode} rounds={self._round}>"
        )


def distributed_spmv(
    comm_plan: CommPlan,
    x: np.ndarray,
    *,
    backend: str = "threads",
    timeout: float = _DEFAULT_TIMEOUT_S,
    mode: str = "vector",
    faults=None,
    retry=None,
) -> np.ndarray:
    """Execute ``y = A @ x`` across one worker per rank: one pool round.

    ``x`` is the global RHS; the result is the global LHS.  See
    :class:`RankPool` for ``backend``/``mode``/``timeout`` and
    :meth:`RankPool.run` for ``faults``/``retry``.
    """
    with RankPool(comm_plan, backend=backend, mode=mode, timeout=timeout) as pool:
        return pool.run(x, faults=faults, retry=retry)
