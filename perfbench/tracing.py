"""Benchmark-side spans around calls into the package's public functions.

The package is not edited: a :class:`Tracer` records spans around
calls the benchmark makes itself (:meth:`Tracer.span`) and around
methods the package calls internally, by temporarily replacing the
class attribute with a timing wrapper (:meth:`Tracer.wrap`).  Spans are
kept in memory and written out once, when the run ends.

Self time of a span is its duration minus the union of the intervals
its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float = 0.0
    thread: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sp = Span(
            name,
            next(self._ids),
            stack[-1].span_id if stack else None,
            time.perf_counter(),
            thread=threading.current_thread().name,
            attrs=attrs,
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`unwrap`.

        ``owner`` is a class or a module; ``attrs(args, kwargs)`` may
        return span attributes taken from the call's arguments.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name, **(attrs(args, kwargs) if attrs else {})):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        with self._lock:
            for s in self.spans:
                if s.parent_id is not None:
                    out.setdefault(s.parent_id, []).append(s)
        return out

    def self_time(self, sp: Span, kids: dict[int, list[Span]]) -> float:
        """Duration of ``sp`` not covered by any of its direct children."""
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(kids.get(sp.span_id, ()), key=lambda s: s.start):
            lo, hi = max(c.start, sp.start), min(c.end, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return sp.duration - covered

    def write_jsonl(self, path) -> None:
        with self._lock:
            spans = list(self.spans)
        t0 = min((s.start for s in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "name": s.name,
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "start_s": s.start - t0,
                    "end_s": s.end - t0,
                    "thread": s.thread,
                    **({"attrs": s.attrs} if s.attrs else {}),
                }) + "\n")


class NullTracer:
    """Tracing off: spans cost one context-manager entry, wraps nothing."""

    spans: tuple = ()

    @contextmanager
    def span(self, name: str, **attrs):
        yield None

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        pass

    def unwrap(self) -> None:
        pass
