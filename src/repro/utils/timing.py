"""Timing and floating-point-rate accounting helpers.

The paper reports spMVM performance in GF/s with ``2 * Nnz`` flops per
multiply (one multiplication plus one addition per stored non-zero).
These helpers keep that accounting in one place for the wall-clock
benchmarks and the simulator alike.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = ["flops_per_spmv", "gflops", "Stopwatch"]


def flops_per_spmv(nnz: int) -> int:
    """Floating point operations of one spMVM: one FMA (2 flops) per non-zero."""
    if nnz < 0:
        raise ValueError(f"nnz must be >= 0, got {nnz}")
    return 2 * nnz


def gflops(nnz: int, seconds: float) -> float:
    """Performance in GF/s of one spMVM over ``nnz`` non-zeros in ``seconds``."""
    if seconds <= 0.0:
        raise ValueError(f"seconds must be > 0, got {seconds}")
    return flops_per_spmv(nnz) / seconds * 1e-9


@dataclass
class Stopwatch:
    """Accumulating lap timer for repeated measurement sections.

    Laps are taken with ``start()``/``stop()``, the :meth:`lap` context
    manager, or by timing a callable via :meth:`record`;
    :meth:`measure` runs the usual warm-up-then-laps loop::

        sw = Stopwatch.measure(lambda: matrix.spmv(x), reps=7)
        print(sw.median, sw.iqr, sw.best)

    Timing the unbound ``matrix.spmv`` times the format's rank-0
    registry kernel (the untuned engine default) plus argument checks
    and a fresh result vector; a bound handle's ``spmv(x, out=y)``
    times its pinned variant without the allocation.
    """

    total: float = 0.0
    laps: list[float] = field(default_factory=list)
    _start: float | None = None

    @classmethod
    def measure(cls, fn: Callable[[], Any], reps: int) -> "Stopwatch":
        """Call ``fn`` once untimed (warm-up), then time ``reps`` laps."""
        fn()
        sw = cls()
        for _ in range(reps):
            sw.record(fn)
        return sw

    def start(self) -> None:
        if self._start is not None:
            raise RuntimeError("Stopwatch already running")
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Stopwatch not running")
        lap = time.perf_counter() - self._start
        self._start = None
        self.laps.append(lap)
        self.total += lap
        return lap

    @contextmanager
    def lap(self):
        """``with sw.lap(): ...`` — one timed lap around the block."""
        self.start()
        try:
            yield self
        finally:
            self.stop()

    def record(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn(*args, **kwargs)`` inside one lap; return its result."""
        with self.lap():
            return fn(*args, **kwargs)

    def _laps(self) -> list[float]:
        if not self.laps:
            raise RuntimeError("no laps recorded")
        return self.laps

    @property
    def mean(self) -> float:
        return self.total / len(self._laps())

    @property
    def best(self) -> float:
        return min(self._laps())

    @property
    def median(self) -> float:
        return float(np.median(self._laps()))

    @property
    def iqr(self) -> float:
        """Interquartile range of the laps (0 for a single lap)."""
        q1, q3 = np.percentile(self._laps(), (25, 75))
        return float(q3 - q1)
