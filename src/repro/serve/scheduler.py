"""Micro-batching SpMV scheduler with admission control.

The serving argument is the paper's Eq. (1) argument run backwards:
SpMV is bandwidth-bound, so *k* concurrent ``A @ x`` requests against
the same matrix cost nearly the same memory traffic as one — if they
are executed as a single block product ``A @ [x_1 .. x_k]``.  The
scheduler therefore runs concurrent requests per matrix as
micro-batches, each **one** :meth:`~repro.engine.bound.BoundMatrix.spmm`
call on a worker-private clone, scattering the result columns back to
per-request futures.  Batching is work-conserving (no window): a free
worker takes everything queued for the oldest-headed matrix, up to
``max_batch``, so batches fill only while every worker is busy.

**Caller runs.**  A blocking :meth:`SpMVServer.spmv` that finds a
worker parked and nothing queued skips the queue: the calling thread
borrows the parked worker's index and runs the one-request batch
itself, on that worker's clone and through the same fault site, stats
and spans, while the worker stays asleep.  A queued request costs two
thread wake-ups (worker, then caller) that each wait for the GIL on a
small host; an inline one costs none.  A borrowed worker takes no
queued batch until its caller hands it back, and the caller wakes it
then if work queued meanwhile.  :meth:`SpMVServer.submit` always
queues, and so does every request that finds the pool busy, the
server unstarted, degraded or closing.

Admission control in front of the batcher keeps overload from turning
into unbounded queueing: the pending-request count is capped at
``max_queue`` with three backpressure policies —

* ``block``   — the submitting thread waits for space (optionally
  bounded by ``admission_timeout_s``),
* ``reject``  — fail fast with :class:`~repro.serve.errors.ServerOverloaded`,
* ``shed-oldest`` — admit the newcomer, fail the oldest queued request
  (freshest-work-wins, the classic head-drop queue).

Per-request deadlines are enforced *before* work reaches a worker: an
expired request is completed with
:class:`~repro.serve.errors.DeadlineExceeded` at pop time and never
stacked into a batch.

**Degraded mode.**  When every batcher worker has died (chaos tests
kill them with ``worker_crash`` faults; real deployments hit the same
path on unexpected worker exceptions) the server sheds to a
single-threaded, *unbatched* fallback loop instead of hanging the
queue: requests are popped one at a time, oldest first, and executed
as plain ``spmv`` calls on a dedicated clone.  Deadlines keep their
exact semantics in degraded mode — an expired request maps to
:class:`~repro.serve.errors.DeadlineExceeded` (504) at pop time, never
to a generic :class:`~repro.serve.errors.ServeError`.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future

import numpy as np

from repro import obs
from repro.obs.metrics import Summary
from repro.serve.errors import (
    DeadlineExceeded,
    MatrixNotFound,
    ServerClosed,
    ServerOverloaded,
)
from repro.serve.registry import MatrixRegistry

__all__ = ["SpMVServer", "POLICIES"]

POLICIES = ("block", "reject", "shed-oldest")

_STATUSES = ("ok", "rejected", "shed", "expired", "error", "cancelled")

# attached around an inline batch: its span starts a trace of its own
_DETACHED = obs.SpanContext(None)


class _Request:
    __slots__ = ("matrix", "x", "future", "t_submit", "t_deadline", "ctx")

    def __init__(
        self,
        matrix: str,
        x: np.ndarray,
        t_submit: float,
        t_deadline: float | None,
        ctx=None,
    ):
        self.matrix = matrix
        self.x = x
        self.future: "Future[np.ndarray]" = Future()
        self.t_submit = t_submit
        self.t_deadline = t_deadline
        #: :class:`~repro.obs.spans.SpanContext` captured at submit —
        #: the front-end span + trace this request belongs to
        self.ctx = ctx


class SpMVServer:
    """Concurrent SpMV front door: admission → micro-batches → workers.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.MatrixRegistry` requests are
        resolved against.
    max_batch:
        Most vectors coalesced into one ``spmm`` call.
    max_queue:
        Admission bound on *queued* (not yet dispatched) requests.
    policy:
        Backpressure policy: ``block`` / ``reject`` / ``shed-oldest``.
    workers:
        Worker threads executing batches (each uses a private
        :meth:`~repro.engine.bound.BoundMatrix.clone`).
    autostart:
        ``False`` leaves the workers unstarted (requests queue up)
        until :meth:`start` — deterministic batch formation for tests.
    faults:
        Optional :class:`~repro.faults.inject.FaultInjector`; its
        serve-layer events fire at the worker loop (``worker_crash``,
        ``slow_worker``) and batch-execution (``kernel_exception``)
        sites.
    """

    def __init__(
        self,
        registry: MatrixRegistry,
        *,
        max_batch: int = 16,
        max_queue: int = 256,
        policy: str = "block",
        workers: int = 2,
        autostart: bool = True,
        faults=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.registry = registry
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.policy = policy
        self.num_workers = workers

        self.faults = faults

        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)  # the degraded loop
        self._not_full = threading.Condition(self._lock)
        # one wake-up per worker, so a submit wakes exactly one parked
        # worker and a borrowed worker is never woken by anyone else
        self._wakeups = [threading.Condition(self._lock) for _ in range(workers)]
        self._parked: list[int] = []  # idle workers nobody has claimed
        self._borrowed: set[int] = set()  # parked workers lent to spmv()
        self._pending: "OrderedDict[str, deque[_Request]]" = OrderedDict()
        self._depth = 0
        self._closing = False
        self._threads: list[threading.Thread] = []
        self._started = False

        # resilience state: worker deaths and the degraded fallback
        self._live_workers = 0
        self._worker_deaths: list[tuple[int, str]] = []
        self._degraded = False
        self._degraded_thread: threading.Thread | None = None
        self._degraded_requests = 0

        # own (obs-independent) accounting so /statz works with obs off
        self._status_counts = dict.fromkeys(_STATUSES, 0)
        self._batches = 0
        self._inline_batches = 0  # run by spmv() callers on a borrowed index
        self._spmm_calls = 0
        self._batched_vectors = 0
        self._latency = Summary(window=4096)
        self._latency_degraded = Summary(window=4096)
        self._per_matrix: dict[str, dict] = {}

        self._clock = time.perf_counter
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SpMVServer":
        """Start the worker pool (idempotent)."""
        with self._lock:
            if self._closing:
                raise ServerClosed("cannot start a closed server")
            if self._started:
                return self
            self._started = True
            self._live_workers = self.num_workers
        for i in range(self.num_workers):
            t = threading.Thread(
                target=self._worker, args=(i,), name=f"serve-worker-{i}",
                daemon=True,
            )
            self._threads.append(t)
            t.start()
        return self

    def close(self, *, drain: bool = True, timeout: float | None = 10.0) -> None:
        """Stop accepting requests; drain (default) or fail the queue.

        No new inline batch starts once closing; a worker lent to an
        inline batch exits only after its caller hands it back, so the
        joins below wait for inline batches too.
        """
        with self._lock:
            self._closing = True
            if not drain:
                self._fail_all_pending_locked(ServerClosed("server closed"))
            self._wake_all_locked()
            self._not_full.notify_all()
        started = self._started
        for t in self._threads:
            t.join(timeout=timeout)
        dt = self._degraded_thread
        if dt is not None:
            dt.join(timeout=timeout)
        with self._lock:
            # workers gone (or never started): nothing will serve leftovers
            alive = self._degraded and dt is not None and dt.is_alive()
            if (not started or drain) and not alive:
                self._fail_all_pending_locked(ServerClosed("server closed"))

    def _fail_all_pending_locked(self, exc: Exception) -> None:
        for dq in self._pending.values():
            while dq:
                req = dq.popleft()
                self._depth -= 1
                if not req.future.done():
                    req.future.set_exception(exc)
                    self._count_locked(req.matrix, "error")
        self._publish_depth_locked()

    def __enter__(self) -> "SpMVServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission / admission control
    # ------------------------------------------------------------------
    def submit(
        self,
        matrix: str,
        x,
        *,
        deadline_ms: float | None = None,
        admission_timeout_s: float | None = None,
    ) -> "Future[np.ndarray]":
        """Queue one ``y = A @ x`` request; returns a future for ``y``.

        ``deadline_ms`` bounds total queueing time: a request still
        queued when it expires completes exceptionally with
        :class:`DeadlineExceeded` and is never executed.
        ``admission_timeout_s`` bounds the wait under the ``block``
        policy (``None`` = wait until space or close).
        """
        req = self._request(matrix, x, deadline_ms)
        with self._lock:
            self._admit_locked(req, admission_timeout_s)
            self._enqueue_locked(req)
        return req.future

    def spmv(self, matrix: str, x, *, deadline_ms: float | None = None,
             timeout: float | None = None) -> np.ndarray:
        """Synchronous ``y = A @ x``: run it on this thread, or queue it.

        When a live worker is parked and nothing is queued, the calling
        thread borrows that worker's index and runs the one-request
        batch itself, on the worker's clone and through the same fault
        site, stats and spans; the parked worker is not woken.  That
        saves the two thread hand-offs of a queued request.  Otherwise
        (busy pool, queued work, unstarted, degraded or closing server)
        the request is queued as by :meth:`submit`.  ``timeout`` bounds
        only the wait for a queued request: an inline batch runs to
        completion.
        """
        req = self._request(matrix, x, deadline_ms)
        with self._lock:
            idx = self._borrow_locked(req)
            if idx is None:
                self._admit_locked(req, None)
                self._enqueue_locked(req)
        if idx is None:
            return req.future.result(timeout)
        try:
            # the batch span stays a trace root, as on a worker thread
            with obs.attach_context(_DETACHED):
                self._execute(idx, matrix, [req])
        finally:
            self._hand_back(idx)
        return req.future.result()

    def _request(self, matrix: str, x, deadline_ms: float | None) -> _Request:
        if not self.registry.has(matrix):
            raise MatrixNotFound(matrix, self.registry.names())
        x = np.asarray(x)
        if x.ndim != 1:
            raise ValueError(f"x must be 1-D, got shape {x.shape}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        now = self._clock()
        ctx = None
        if obs.enabled():
            # capture the front-end span + trace; a bare submit (no
            # span open) still gets a trace id so the batch span can
            # link back to this request
            ctx = obs.capture_context()
            if ctx.trace_id is None:
                ctx = obs.SpanContext(ctx.span_id, obs.new_trace_id())
        return _Request(
            matrix,
            x,
            now,
            None if deadline_ms is None else now + deadline_ms / 1e3,
            ctx,
        )

    def _enqueue_locked(self, req: _Request) -> None:
        self._pending.setdefault(req.matrix, deque()).append(req)
        self._depth += 1
        self._publish_depth_locked()
        self._wake_locked()

    def _borrow_locked(self, req: _Request) -> int | None:
        """Lend ``req``'s caller a parked worker's index, if it may run now.

        Only with nothing queued (an inline batch must not overtake
        queued work) and a deadline that has not already passed.
        """
        if not self._parked or self._depth or self._closing:
            return None
        if req.t_deadline is not None and self._clock() >= req.t_deadline:
            return None
        idx = self._parked.pop()
        self._borrowed.add(idx)
        return idx

    def _hand_back(self, idx: int) -> None:
        """Return a borrowed worker: wake it if work queued meanwhile
        (or the server is closing), else park it again, still asleep."""
        with self._lock:
            self._inline_batches += 1
            self._borrowed.discard(idx)
            if self._depth or self._closing:
                self._wakeups[idx].notify()
            else:
                self._parked.append(idx)

    def _admit_locked(
        self, req: _Request, admission_timeout_s: float | None
    ) -> None:
        if self._closing:
            raise ServerClosed()
        if self._depth < self.max_queue:
            return
        if self.policy == "reject":
            self._count_locked(req.matrix, "rejected")
            raise ServerOverloaded("queue full", self._depth, self.max_queue)
        if self.policy == "shed-oldest":
            while self._depth >= self.max_queue:
                dq = self._oldest_queue_locked()
                if dq is None:  # pragma: no cover - depth implies one
                    break
                victim = dq.popleft()
                self._depth -= 1
                victim.future.set_exception(
                    ServerOverloaded("shed", self._depth + 1, self.max_queue)
                )
                self._count_locked(victim.matrix, "shed")
            self._publish_depth_locked()
            return
        # block
        limit = (
            None
            if admission_timeout_s is None
            else self._clock() + admission_timeout_s
        )
        while self._depth >= self.max_queue:
            if self._closing:
                raise ServerClosed()
            remaining = None if limit is None else limit - self._clock()
            if remaining is not None and remaining <= 0:
                self._count_locked(req.matrix, "rejected")
                raise ServerOverloaded(
                    "block timeout", self._depth, self.max_queue
                )
            self._not_full.wait(timeout=remaining)

    def _oldest_queue_locked(self) -> deque[_Request] | None:
        """The non-empty per-matrix queue with the oldest head, if any."""
        oldest = None
        for dq in self._pending.values():
            if dq and (oldest is None or dq[0].t_submit < oldest[0].t_submit):
                oldest = dq
        return oldest

    # ------------------------------------------------------------------
    # batch formation
    # ------------------------------------------------------------------
    def _expire_locked(self, now: float) -> None:
        """Fail queued requests whose deadline passed (never executed).

        Cancelled requests (an abandoned hedge whose sibling already
        won) are dropped here too — they must never reach a worker nor
        count toward queue depth once the caller has let go.
        """
        for dq in self._pending.values():
            alive: deque[_Request] = deque()
            while dq:
                req = dq.popleft()
                if req.future.cancelled():
                    self._depth -= 1
                    self._count_locked(req.matrix, "cancelled")
                elif req.t_deadline is not None and now >= req.t_deadline:
                    self._depth -= 1
                    waited = now - req.t_submit
                    req.future.set_exception(
                        DeadlineExceeded(waited, req.t_deadline - req.t_submit)
                    )
                    self._count_locked(req.matrix, "expired")
                    if obs.enabled():
                        obs.inc(
                            "serve_deadline_expired_total", 1, matrix=req.matrix
                        )
                else:
                    alive.append(req)
            dq.extend(alive)
        self._publish_depth_locked()
        self._not_full.notify_all()

    def _wake_locked(self) -> None:
        """Wake one parked worker (or the degraded loop) for queued work."""
        if self._parked:
            self._wakeups[self._parked.pop()].notify()
        else:
            self._ready.notify()

    def _wake_all_locked(self) -> None:
        """Wake every parked worker and the degraded loop; a borrowed
        worker is woken when its caller hands it back."""
        while self._parked:
            self._wakeups[self._parked.pop()].notify()
        self._ready.notify_all()

    def _take_batch(
        self, limit: int, idx: int | None = None
    ) -> tuple[str, list[_Request]] | None:
        """Block until work is queued (or the server drains); pop a batch.

        The batch is up to ``limit`` requests of the matrix whose head
        is oldest; nothing waits for batch-mates.  Expired requests are
        completed with :class:`DeadlineExceeded` here, never executed.
        Worker ``idx`` parks while idle, where :meth:`spmv` may borrow
        it; the degraded loop (``idx=None``) waits unparked.
        """
        with self._lock:
            while True:
                self._expire_locked(self._clock())
                if self._closing and self._depth == 0:
                    self._wake_all_locked()  # wake sibling workers to exit
                    return None
                best = self._oldest_queue_locked()
                if best is not None:
                    reqs = [best.popleft() for _ in range(min(limit, len(best)))]
                    self._depth -= len(reqs)
                    self._publish_depth_locked()
                    self._not_full.notify_all()
                    if self._depth:
                        self._wake_locked()  # more work is queued
                    return reqs[0].matrix, reqs
                if idx is None:
                    self._ready.wait()
                    continue
                self._parked.append(idx)
                wakeup = self._wakeups[idx]
                while idx in self._parked or idx in self._borrowed:
                    wakeup.wait()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _worker(self, idx: int) -> None:
        try:
            while True:
                if self.faults is not None:
                    # slow_worker sleeps here; worker_crash raises
                    self.faults.worker_fault(idx)
                batch = self._take_batch(self.max_batch, idx)
                if batch is None:
                    break
                name, reqs = batch
                if reqs:
                    self._execute(idx, name, reqs)
        except Exception as exc:  # includes InjectedFault worker_crash
            self._on_worker_death(idx, exc)
            return
        with self._lock:
            self._live_workers -= 1  # clean drain exit

    def _on_worker_death(self, idx: int, exc: Exception) -> None:
        """Account a dead batcher worker; shed to degraded mode when the
        pool is empty (the queue must never silently hang)."""
        with self._lock:
            self._live_workers -= 1
            self._worker_deaths.append((idx, f"{type(exc).__name__}: {exc}"))
            enter_degraded = (
                self._live_workers <= 0 and not self._closing and not self._degraded
            )
            if enter_degraded:
                self._degraded = True
        if obs.enabled():
            obs.inc("serve_worker_deaths_total", 1, worker=idx)
        if enter_degraded:
            if obs.enabled():
                obs.inc("serve_degraded_entries_total", 1)
                obs.set_gauge("serve_degraded", 1)
            t = threading.Thread(
                target=self._degraded_loop, name="serve-degraded", daemon=True
            )
            with self._lock:
                self._degraded_thread = t
            t.start()

    # ------------------------------------------------------------------
    # degraded mode: unbatched per-request fallback
    # ------------------------------------------------------------------
    def _degraded_loop(self) -> None:
        """Unbatched fallback: oldest request first, same pop-time deadlines."""
        while True:
            item = self._take_batch(1)
            if item is None:
                return
            name, (req,) = item
            self._execute_one(name, req)

    def _execute_one(self, name: str, req: _Request) -> None:
        """Unbatched execution of one request (degraded mode).

        The degraded span attaches to the request's captured context,
        so the request's trace shows front-end → ``serve.degraded`` →
        ``engine.spmv`` — a degraded-served request is distinguishable
        from a batched one in both the trace and (via the ``degraded``
        latency label) in ``/statz``.
        """
        t_start = self._clock()
        dsp = None
        if not req.future.set_running_or_notify_cancel():
            self._count(name, "cancelled")
            return
        try:
            if req.t_deadline is not None and t_start >= req.t_deadline:
                # raced past the pop-time check: still a 504, never generic
                raise DeadlineExceeded(
                    t_start - req.t_submit, req.t_deadline - req.t_submit
                )
            with obs.attach_context(req.ctx or obs.SpanContext(None)):
                with obs.span("serve.degraded", matrix=name) as dsp:
                    if self.faults is not None:
                        self.faults.batch_fault(name, -1)
                    with self.registry.acquire(name) as lease:
                        bound = lease.clone_for("degraded")
                        x = bound.matrix.check_rhs(req.x)
                        y = bound.spmv(x)
        except DeadlineExceeded as exc:
            req.future.set_exception(exc)
            self._count(name, "expired")
            if obs.enabled():
                obs.inc("serve_deadline_expired_total", 1, matrix=name)
            return
        except Exception as exc:
            req.future.set_exception(exc)
            self._count(name, "error")
            return
        t_end = self._clock()
        latency = t_end - req.t_submit
        with self._lock:
            self._degraded_requests += 1
            self._latency.observe(latency)
            self._latency_degraded.observe(latency)
            pm = self._per_matrix_locked(name)
            pm["latency"].observe(latency)
            pm["degraded"] += 1
        self._count(name, "ok")
        if obs.enabled():
            obs.inc("serve_degraded_requests_total", 1, matrix=name)
            obs.observe_summary(
                "serve_request_seconds", latency, matrix=name, degraded="true"
            )
            obs.inc("serve_requests_total", 1, matrix=name, status="ok")
            self._record_request_span(
                dsp, req, name, t_end, None, degraded=True
            )
        req.future.set_result(y)

    def _execute(self, idx: int, name: str, reqs: list[_Request]) -> None:
        t_start = self._clock()
        # the batch span is a root of its own trace: it belongs to N
        # requests at once, so instead of picking one parent it *links*
        # to every request span it served — each request's trace tree
        # pulls the shared batch (and the kernel span under it) in
        # through the link (see repro.obs.trace)
        links: list[tuple[str, int]] = []
        with obs.span(
            "serve.batch", matrix=name, size=len(reqs), worker=idx
        ) as bsp:
            try:
                if self.faults is not None:
                    self.faults.batch_fault(name, idx)
                with self.registry.acquire(name) as lease:
                    bound = lease.clone_for(idx)
                    good: list[_Request] = []
                    cols: list[np.ndarray] = []
                    for req in reqs:
                        # claim the future; a cancelled hedge is dropped
                        # here and never stacked into the batch
                        if not req.future.set_running_or_notify_cancel():
                            self._count(name, "cancelled")
                            continue
                        try:
                            cols.append(bound.matrix.check_rhs(req.x))
                            good.append(req)
                        except Exception as exc:
                            req.future.set_exception(exc)
                            self._count(name, "error")
                            if obs.enabled():
                                self._record_request_span(
                                    bsp, req, name, self._clock(), links,
                                    status="error",
                                )
                    if not good:
                        return
                    # stacked into the block the kernel reads, not a copy
                    X = np.stack(cols, axis=1, out=bound.rhs_block(len(cols)))
                    Y = bound.spmm(X)
                    with self._lock:
                        self._spmm_calls += 1
            except Exception as exc:
                t_fail = self._clock()
                for req in reqs:
                    if not req.future.done():
                        req.future.set_exception(exc)
                        self._count(name, "error")
                        if obs.enabled():
                            self._record_request_span(
                                bsp, req, name, t_fail, links, status="error"
                            )
                if obs.enabled():
                    obs.inc("serve_batch_errors_total", 1, matrix=name)
                return
            t_end = self._clock()
            k = len(good)
            nnz_moved = bound.nnz * k
            with self._lock:
                self._batches += 1
                self._batched_vectors += k
                pm = self._per_matrix_locked(name)
                pm["batches"] += 1
                pm["vectors"] += k
                pm["nnz"] += nnz_moved
            if obs.enabled():
                obs.observe("serve_batch_size", k, matrix=name)
                obs.inc("serve_batches_total", 1, matrix=name)
                obs.inc("serve_nnz_total", nnz_moved, matrix=name)
                obs.observe(
                    "serve_batch_seconds", t_end - t_start, matrix=name
                )
            for i, req in enumerate(good):
                y = np.ascontiguousarray(Y[:, i])
                latency = t_end - req.t_submit
                queued = t_start - req.t_submit
                with self._lock:
                    self._latency.observe(latency)
                    pm = self._per_matrix_locked(name)
                    pm["latency"].observe(latency)
                self._count(name, "ok")
                if obs.enabled():
                    obs.observe(
                        "serve_time_in_queue_seconds", queued, matrix=name
                    )
                    obs.observe_summary(
                        "serve_request_seconds", latency, matrix=name,
                        degraded="false",
                    )
                    obs.inc(
                        "serve_requests_total", 1, matrix=name, status="ok"
                    )
                    self._record_request_span(bsp, req, name, t_end, links)
                req.future.set_result(y)

    @staticmethod
    def _record_request_span(
        bsp,
        req: _Request,
        name: str,
        t_end: float,
        links: list | None,
        *,
        status: str = "ok",
        degraded: bool = False,
    ) -> None:
        """One post-hoc span per request, in the *request's* trace.

        The span covers submit → completion and parents under the
        front-end span captured at submit (``req.ctx``), so it lives in
        the request's own trace.  When ``links`` is given (batch path)
        the executing span ``bsp`` is back-linked to the request span —
        that link is how N traces share one batch span.
        """
        if getattr(bsp, "span_id", None) is None:
            return
        from repro.obs.spans import Span, get_tracer

        tracer = get_tracer()
        ctx = req.ctx
        sid = tracer.next_id()
        sp = Span(
            name="serve.request",
            span_id=sid,
            parent_id=None if ctx is None else ctx.span_id,
            start=req.t_submit,
            end=t_end,
            thread=threading.current_thread().name,
            attrs={"matrix": name, "status": status},
            trace_id=(ctx.trace_id if ctx and ctx.trace_id else ""),
        )
        if degraded:
            sp.set_attr("degraded", True)
        tracer.add_finished(sp)
        if links is not None and sp.trace_id:
            links.append((sp.trace_id, sid))
            bsp.links = tuple(links)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _per_matrix_locked(self, name: str) -> dict:
        pm = self._per_matrix.get(name)
        if pm is None:
            pm = self._per_matrix[name] = {
                "batches": 0,
                "vectors": 0,
                "nnz": 0,
                "degraded": 0,
                "latency": Summary(window=2048),
                "status": dict.fromkeys(_STATUSES, 0),
            }
        return pm

    def _count_locked(self, name: str, status: str) -> None:
        self._status_counts[status] += 1
        self._per_matrix_locked(name)["status"][status] += 1
        if status != "ok" and obs.enabled():
            obs.inc("serve_requests_total", 1, matrix=name, status=status)

    def _count(self, name: str, status: str) -> None:
        with self._lock:
            self._count_locked(name, status)

    def _publish_depth_locked(self) -> None:
        if obs.enabled():
            obs.set_gauge("serve_queue_depth", self._depth)

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._depth

    @property
    def batches_executed(self) -> int:
        with self._lock:
            return self._batches

    @property
    def spmm_calls(self) -> int:
        with self._lock:
            return self._spmm_calls

    @property
    def degraded(self) -> bool:
        """True once the server shed to the unbatched fallback loop."""
        with self._lock:
            return self._degraded

    @property
    def live_workers(self) -> int:
        with self._lock:
            return self._live_workers

    def stats(self) -> dict:
        """JSON-friendly snapshot (the /statz payload)."""

        def _quant(s: Summary) -> dict:
            snap = s.snapshot()
            return {
                "count": s.count,
                **{
                    f"p{int(q * 100)}": (
                        None if math.isnan(v) else round(v * 1e3, 4)
                    )
                    for q, v in snap.items()
                },
            }

        with self._lock:
            per_matrix = {
                name: {
                    "batches": pm["batches"],
                    "vectors": pm["vectors"],
                    "nnz": pm["nnz"],
                    "degraded": pm["degraded"],
                    "status": dict(pm["status"]),
                    "latency_ms": _quant(pm["latency"]),
                }
                for name, pm in sorted(self._per_matrix.items())
            }
            batches = self._batches
            return {
                "queue_depth": self._depth,
                "policy": self.policy,
                "max_batch": self.max_batch,
                "max_queue": self.max_queue,
                "workers": self.num_workers,
                "live_workers": self._live_workers,
                "degraded": self._degraded,
                "degraded_requests": self._degraded_requests,
                "worker_deaths": list(self._worker_deaths),
                "closing": self._closing,
                "requests": dict(self._status_counts),
                "batches": batches,
                "inline_batches": self._inline_batches,
                "spmm_calls": self._spmm_calls,
                "batched_vectors": self._batched_vectors,
                "mean_batch_size": (
                    round(self._batched_vectors / batches, 3) if batches else 0.0
                ),
                "latency_ms": _quant(self._latency),
                "latency_degraded_ms": _quant(self._latency_degraded),
                "per_matrix": per_matrix,
                "registry": self.registry.stats(),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SpMVServer policy={self.policy} max_batch={self.max_batch} "
            f"depth={self.queue_depth} batches={self.batches_executed}>"
        )
