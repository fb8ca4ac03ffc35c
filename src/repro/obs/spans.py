"""Lightweight span tracer with trace IDs and cross-thread propagation.

A *span* is one named, timed section of work with a parent — the unit
Chrome's trace viewer and Perfetto draw as a box on a track.  Every
span also belongs to exactly one **trace**: the causal tree of a
single request as it crosses the serve → engine → distributed
boundary.  A root span (no parent on its thread) starts a fresh trace;
children inherit the trace of their parent.  Front-ends (the HTTP
handler, :class:`repro.serve.client.Client`, the CLI) open the trace
root, and :mod:`repro.obs.trace` reconstructs the whole tree from the
recorded spans — ``repro obs trace <id>`` renders it.

Propagation must survive two kinds of hop:

* **threads** — the distributed runtime runs one Python thread per
  rank and the serve scheduler executes batches on worker threads.
  The driver captures a :class:`SpanContext` (span id *and* trace id)
  and each worker *attaches* it before opening its own child spans.
  Thread-local stacks keep concurrent workers from seeing each
  other's current span.
* **processes** — the multiprocessing backend pickles the
  :class:`SpanContext` into forked rank workers.  Workers record
  spans into their own (forked) tracer and ship the finished spans
  back over the result queue; the driver re-ingests them with
  :meth:`Tracer.adopt`, which remaps worker-local span ids onto the
  driver's id space while keeping parent links (including the link to
  the driver's root span) intact.

Spans can additionally carry **links** — ``(trace_id, span_id)``
pairs pointing at causally related spans in *other* traces.  The
micro-batching scheduler uses links to tie one ``serve.batch`` span to
the N request spans it coalesced: the batch span lives in the first
request's trace and links to every request span, so each request's
trace tree can pull the shared batch (and the kernel spans under it)
into its own rendering.

The simulated execution modes (Fig. 4) don't run in real time; their
:class:`~repro.distributed.events.Timeline` intervals are bridged into
synthetic spans by :func:`record_timeline`, so simulated and real runs
share one export path (:mod:`repro.obs.export`).

Everything is a no-op while :func:`repro.obs.metrics.enabled` is
false: :meth:`Tracer.span` then yields a shared null span without
allocating or locking.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs import metrics as _metrics

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "get_tracer",
    "span",
    "trace_root",
    "current_span",
    "current_trace",
    "new_trace_id",
    "capture_context",
    "attach_context",
    "adopt_spans",
    "annotate_current",
    "record_timeline",
    "reset_spans",
]


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (process- and host-unique)."""
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One timed, named section of work inside one trace."""

    name: str
    span_id: int
    parent_id: int | None
    start: float  # seconds on the tracer clock
    end: float = 0.0
    thread: str = ""
    attrs: dict[str, object] = field(default_factory=dict)
    #: trace this span belongs to ("" only for legacy/foreign spans)
    trace_id: str = ""
    #: causal links into other traces: ``((trace_id, span_id), ...)``
    links: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def set_attr(self, key: str, value: object) -> "Span":
        self.attrs[key] = value
        return self


@dataclass(frozen=True)
class SpanContext:
    """Immutable handle to a span + trace, safe to hand to another
    thread or to pickle into a worker process."""

    span_id: int | None
    trace_id: str | None = None


class _NullSpan:
    """Shared do-nothing span yielded while instrumentation is off."""

    __slots__ = ()
    name = ""
    span_id = None
    parent_id = None
    trace_id = ""
    links: tuple = ()
    attrs: dict[str, object] = {}

    def set_attr(self, key: str, value: object) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans; one process-wide default exists."""

    def __init__(self) -> None:
        self._finished: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: currently open spans by id (for victim annotation by the
        #: fault injector and cross-thread attribute writes)
        self._open: dict[int, Span] = {}
        self.clock = time.perf_counter

    # -- thread-local current-span stack ----------------------------------
    # entries are (span_id | None, trace_id | None, Span | None): locally
    # opened spans carry their object, attached foreign contexts don't.

    def _stack(self) -> list[tuple[int | None, str | None, Span | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """span_id of the innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1][0] if stack else None

    def current_trace(self) -> str | None:
        """trace_id active on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1][1] if stack else None

    def current_open(self) -> Span | None:
        """The innermost *reachable* open Span object on this thread.

        Walks past attached foreign contexts: an attached span opened
        by another thread of this process is found through the open-
        span table, so the fault injector can annotate the victim even
        from a helper thread.  Returns ``None`` when nothing is open.
        """
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        for sid, _tid, sp in reversed(stack):
            if sp is not None:
                return sp
            if sid is not None:
                with self._lock:
                    found = self._open.get(sid)
                if found is not None:
                    return found
        return None

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: object):
        """Open a child span of this thread's current span.

        A span opened with no current span becomes a **trace root**
        with a fresh trace id; children inherit the parent's trace.
        No-op (yields a shared null span) when instrumentation is
        disabled — the fast path takes one global read and one branch.
        """
        if not _metrics.enabled():
            yield _NULL_SPAN
            return
        stack = self._stack()
        if stack:
            parent, trace, _ = stack[-1]
        else:
            parent, trace = None, None
        if trace is None:
            trace = new_trace_id()
        with self._lock:
            sid = next(self._ids)
        sp = Span(
            name=name,
            span_id=sid,
            parent_id=parent,
            start=self.clock(),
            thread=threading.current_thread().name,
            attrs=dict(attrs),
            trace_id=trace,
        )
        stack.append((sid, trace, sp))
        with self._lock:
            self._open[sid] = sp
        try:
            yield sp
        finally:
            sp.end = self.clock()
            stack.pop()
            with self._lock:
                self._open.pop(sid, None)
                self._finished.append(sp)

    @contextmanager
    def attach(self, ctx: SpanContext):
        """Adopt ``ctx`` as this thread's current span (cross-thread link).

        Rank workers call this with the context captured by the driver
        so their ``rank.*`` spans parent under the ``distributed_spmv``
        root — and land in the driver's trace — even though they run on
        different threads (or in forked processes).  A context with a
        trace id but no span id starts children as roots *of that
        trace* (the front-end handed out the id before any span
        existed).  A context with neither id *detaches*: spans opened
        under it are roots of fresh traces, whatever span this thread
        had open.
        """
        if not _metrics.enabled():
            yield
            return
        stack = self._stack()
        stack.append((ctx.span_id, ctx.trace_id, None))
        try:
            yield
        finally:
            stack.pop()

    @contextmanager
    def trace_root(self, name: str, *, trace_id: str | None = None, **attrs):
        """Open a root span of a (possibly caller-supplied) trace.

        The HTTP front-end uses this to honour an ``X-Trace-Id``
        request header; with ``trace_id=None`` a fresh id is minted.
        """
        if not _metrics.enabled():
            yield _NULL_SPAN
            return
        with self.attach(SpanContext(None, trace_id or new_trace_id())):
            with self.span(name, **attrs) as sp:
                yield sp

    def context(self) -> SpanContext:
        """Capture the current span + trace for another thread/process."""
        return SpanContext(self.current(), self.current_trace())

    def add_finished(self, sp: Span) -> None:
        """Record an externally built (e.g. synthetic) finished span."""
        with self._lock:
            self._finished.append(sp)

    def isolate_forked(self) -> None:
        """Reset this tracer inside a freshly forked worker.

        Fork copies the driver's finished spans and open-span table;
        both are the driver's to report, so they are dropped.  The id
        counter is moved to a pid-salted range so the ids of spans the
        worker ships home can never collide with driver-side ids —
        :meth:`adopt` relies on that to tell an in-batch parent from a
        cross-process one.
        """
        import os

        with self._lock:
            self._finished.clear()
            self._open.clear()
        self._ids = itertools.count(((os.getpid() & 0xFFFF) + 1) << 32)

    def adopt(self, spans: Iterable[Span]) -> int:
        """Ingest spans recorded by another process's tracer.

        Worker-local span ids are remapped onto this tracer's id space
        (the forked worker's counter overlaps the driver's); parent
        links *within* the adopted batch are rewritten through the same
        map, while parents outside the batch — the driver span id the
        worker attached via a pickled :class:`SpanContext` — are kept
        verbatim, preserving the cross-process parent link.  Returns
        the number of spans adopted.
        """
        spans = list(spans)
        if not spans:
            return 0
        mapping: dict[int, int] = {}
        with self._lock:
            for sp in spans:
                mapping[sp.span_id] = next(self._ids)
        for sp in spans:
            sp.span_id = mapping[sp.span_id]
            if sp.parent_id in mapping:
                sp.parent_id = mapping[sp.parent_id]
            if sp.links:
                sp.links = tuple(
                    (t, mapping.get(s, s)) for t, s in sp.links
                )
            self.add_finished(sp)
        return len(spans)

    def annotate(self, **attrs: object) -> bool:
        """Set attributes on the innermost reachable open span.

        The fault injector uses this to mark the *victim* span of an
        injected fault.  Returns False when nothing is open (or
        instrumentation is off) — annotation is best-effort.
        """
        if not _metrics.enabled():
            return False
        sp = self.current_open()
        if sp is None:
            return False
        for k, v in attrs.items():
            sp.set_attr(k, v)
        return True

    def next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    # -- inspection -------------------------------------------------------

    def finished(self) -> list[Span]:
        """Snapshot of all finished spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def find(self, name: str) -> list[Span]:
        return [s for s in self.finished() if s.name == name]

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()


_default_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer used by all instrumentation."""
    return _default_tracer


def span(name: str, **attrs: object):
    """``with obs.span("rank.spmv", rank=3): ...`` on the default tracer."""
    return _default_tracer.span(name, **attrs)


def trace_root(name: str, *, trace_id: str | None = None, **attrs: object):
    """Open a trace-root span (optionally with a caller-supplied id)."""
    return _default_tracer.trace_root(name, trace_id=trace_id, **attrs)


def current_span() -> int | None:
    return _default_tracer.current()


def current_trace() -> str | None:
    return _default_tracer.current_trace()


def capture_context() -> SpanContext:
    return _default_tracer.context()


def attach_context(ctx: SpanContext):
    return _default_tracer.attach(ctx)


def adopt_spans(spans: Iterable[Span]) -> int:
    return _default_tracer.adopt(spans)


def annotate_current(**attrs: object) -> bool:
    return _default_tracer.annotate(**attrs)


def reset_spans() -> None:
    _default_tracer.reset()


# ---------------------------------------------------------------------------
# Timeline -> spans bridge (simulated runs share the real export path)
# ---------------------------------------------------------------------------


def record_timeline(
    timeline,
    *,
    root_name: str = "distributed_spmv",
    tracer: Tracer | None = None,
    **root_attrs: object,
) -> Span | None:
    """Convert a Fig. 4 :class:`~repro.distributed.events.Timeline` into spans.

    Every :class:`~repro.distributed.events.Interval` becomes one span
    carrying ``rank``/``resource``/``simulated=True`` attributes, all
    parented under a single ``root_name`` span covering the makespan.
    Interval times are simulated seconds from 0; they are rebased onto
    the tracer clock so exports of mixed real + simulated runs stay
    monotonic.  The root joins the caller's current trace (or starts a
    fresh one) and every interval span inherits it.

    Returns the root span, or ``None`` when instrumentation is off.
    """
    if not _metrics.enabled():
        return None
    tracer = tracer or _default_tracer
    base = tracer.clock()
    trace = tracer.current_trace() or new_trace_id()
    root = Span(
        name=root_name,
        span_id=tracer.next_id(),
        parent_id=tracer.current(),
        start=base,
        end=base + timeline.makespan,
        thread=threading.current_thread().name,
        attrs={"simulated": True, **root_attrs},
        trace_id=trace,
    )
    tracer.add_finished(root)
    for iv in timeline.intervals:
        tracer.add_finished(
            Span(
                name=iv.label,
                span_id=tracer.next_id(),
                parent_id=root.span_id,
                start=base + iv.start,
                end=base + iv.end,
                thread=f"rank{iv.rank}/{iv.resource}",
                attrs={
                    "rank": iv.rank,
                    "resource": iv.resource,
                    "simulated": True,
                },
                trace_id=trace,
            )
        )
    return root
