"""Process-wide labeled metrics registry (counters, gauges, histograms).

The paper's argument is quantitative — Eq. (1) code balance, the
Eq. (2) kernel/PCIe split, Fig. 4 resource timelines — so the repro
needs a uniform place where every layer (GPU model, solvers,
distributed runtime) can publish numbers that exporters then turn
into Prometheus text or JSONL (:mod:`repro.obs.export`).

Design notes
------------

* **Zero cost when disabled.**  Instrumentation sites guard on
  :func:`enabled` (a module-level flag read); when ``False`` nothing
  is allocated, no lock is taken and behaviour is bit-identical to an
  uninstrumented build.  The flag defaults to *off*.
* **Labels.**  A metric *family* (one name + help + kind) owns
  *children* keyed by sorted ``(label, value)`` tuples — the
  Prometheus data model (``spmv_bytes_total{format="pJDS"}``).
* **Histograms are log-bucketed.**  Observations land in buckets with
  upper bounds ``growth ** k`` for integer ``k`` (default growth 2),
  allocated lazily, so one histogram covers nanoseconds to hours
  without preconfigured boundaries.

Everything is thread-safe: the threaded ranks of
:mod:`repro.distributed.runtime` publish concurrently.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "enabled",
    "enable",
    "disable",
    "reset",
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
    "MetricFamily",
    "MetricsRegistry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "summary",
    "inc",
    "set_gauge",
    "observe",
    "observe_summary",
]

# ---------------------------------------------------------------------------
# global enable flag — the zero-cost fast path
# ---------------------------------------------------------------------------

_enabled: bool = False


def enabled() -> bool:
    """True when instrumentation is recording (cheap; safe in hot loops)."""
    return _enabled


def enable() -> None:
    """Turn instrumentation on (metrics *and* spans record from now on)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn instrumentation off; instrumented code reverts to no-ops."""
    global _enabled
    _enabled = False


# ---------------------------------------------------------------------------
# metric children
# ---------------------------------------------------------------------------

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonically increasing value (``*_total`` convention)."""

    labels: dict[str, str] = field(default_factory=dict)
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """Instantaneous value that may go up or down (e.g. a residual)."""

    labels: dict[str, str] = field(default_factory=dict)
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Log-bucketed histogram: bucket ``k`` counts ``v <= growth**k``.

    ``observe(v)`` places ``v`` in the bucket with the smallest integer
    exponent ``k`` such that ``v <= growth**k`` (zero and negative
    observations land in a dedicated underflow bucket rendered as the
    smallest finite bound).  Buckets are created lazily, so the
    exposition only carries bounds that were actually hit.
    """

    def __init__(self, labels: dict[str, str] | None = None, growth: float = 2.0):
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.labels = labels or {}
        self.growth = growth
        self._counts: dict[int, int] = {}  # exponent -> count
        self._underflow = 0  # v <= 0 observations
        self.sum = 0.0
        self.count = 0

    def bucket_exponent(self, value: float) -> int:
        """Smallest integer ``k`` with ``value <= growth**k``."""
        k = math.ceil(math.log(value, self.growth))
        # guard against float fuzz at exact boundaries: log_2(8.0) can
        # come out as 2.9999999999999996 -> ceil 3 (correct) or
        # 3.0000000000000004 -> ceil 4 (one bucket too high)
        while k > 0 and value <= self.growth ** (k - 1):
            k -= 1
        while value > self.growth ** k:
            k += 1
        return k

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        if value <= 0.0:
            self._underflow += 1
            return
        k = self.bucket_exponent(value)
        self._counts[k] = self._counts.get(k, 0) + 1

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = self._underflow
        exponents = sorted(self._counts)
        if self._underflow and exponents:
            # render the underflow under the smallest finite bound
            lowest = min(exponents[0] - 1, -1)
            out.append((self.growth ** lowest, running))
        elif self._underflow:
            out.append((self.growth ** -1, running))
        for k in exponents:
            running += self._counts[k]
            out.append((self.growth ** k, running))
        out.append((math.inf, self.count))
        return out

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise RuntimeError("no observations recorded")
        return self.sum / self.count


#: default quantiles exposed by :class:`Summary` (the /statz trio)
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


class Summary:
    """Sliding-window quantile summary (p50/p95/p99 over recent values).

    Unlike :class:`Histogram` (cumulative log buckets, unbounded
    history), a summary answers "what is the p99 request latency *right
    now*": quantiles are computed over the last ``window`` observations
    only, so a traffic spike ages out instead of being diluted forever.
    ``sum``/``count`` stay cumulative (Prometheus summary semantics).

    ``quantile(q)`` uses the nearest-rank method on a snapshot of the
    window — O(window log window) per call, intended for scrape/statz
    cadence, not hot loops.  Thread-safe: observations append to a
    bounded deque; readers sort a snapshot.
    """

    def __init__(
        self,
        labels: dict[str, str] | None = None,
        *,
        window: int = 1024,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        for q in quantiles:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantiles must be in [0, 1], got {q}")
        self.labels = labels or {}
        self.window = window
        self.quantiles = tuple(quantiles)
        self._recent: deque[float] = deque(maxlen=window)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        self._recent.append(value)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the current window (NaN when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        data = sorted(self._recent)
        if not data:
            return math.nan
        rank = max(int(math.ceil(q * len(data))) - 1, 0)
        return data[rank]

    def snapshot(self) -> dict[float, float]:
        """All configured quantiles in one sorted pass."""
        data = sorted(self._recent)
        out: dict[float, float] = {}
        for q in self.quantiles:
            if not data:
                out[q] = math.nan
            else:
                out[q] = data[max(int(math.ceil(q * len(data))) - 1, 0)]
        return out

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise RuntimeError("no observations recorded")
        return self.sum / self.count


_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "summary": Summary,
}


# ---------------------------------------------------------------------------
# families and the registry
# ---------------------------------------------------------------------------


class MetricFamily:
    """One metric name with help text, a kind, and labeled children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        growth: float = 2.0,
        window: int = 1024,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    ):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {sorted(_KINDS)}, got {kind!r}")
        _validate_name(name)
        self.name = name
        self.kind = kind
        self.help = help
        self.growth = growth
        self.window = window
        self.quantiles = tuple(quantiles)
        self._children: dict[LabelKey, Counter | Gauge | Histogram | Summary] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str):
        """The child for this label set, created on first use."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    kw = dict(key)
                    if self.kind == "histogram":
                        child = Histogram(kw, growth=self.growth)
                    elif self.kind == "summary":
                        child = Summary(
                            kw, window=self.window, quantiles=self.quantiles
                        )
                    else:
                        child = _KINDS[self.kind](kw)
                    self._children[key] = child
        return child

    def samples(
        self,
    ) -> list[tuple[dict[str, str], "Counter | Gauge | Histogram | Summary"]]:
        """``(labels, child)`` pairs in deterministic (sorted-key) order."""
        with self._lock:
            return [(dict(k), c) for k, c in sorted(self._children.items())]

    # conveniences so instrumentation sites stay one-liners
    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    def set(self, value: float, **labels: str) -> None:
        self.labels(**labels).set(value)

    def observe(self, value: float, **labels: str) -> None:
        self.labels(**labels).observe(value)


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name must not start with a digit: {name!r}")


class MetricsRegistry:
    """Collection of metric families; one process-wide default exists.

    ``generation`` counts :meth:`clear` calls.  Hot-path
    instrumentation (e.g. the engine's per-handle cached counter
    children) keys its cache on the generation so a ``reset()`` —
    common in tests — invalidates the cache instead of leaving
    increments flowing into orphaned children.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()
        self.generation = 0

    def _family(self, name: str, kind: str, help: str, **kw) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            with self._lock:
                fam = self._families.get(name)
                if fam is None:
                    fam = MetricFamily(name, kind, help, **kw)
                    self._families[name] = fam
        if fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, not {kind}"
            )
        if help and not fam.help:
            fam.help = help
        return fam

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "gauge", help)

    def histogram(
        self, name: str, help: str = "", *, growth: float = 2.0
    ) -> MetricFamily:
        return self._family(name, "histogram", help, growth=growth)

    def summary(
        self,
        name: str,
        help: str = "",
        *,
        window: int = 1024,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    ) -> MetricFamily:
        return self._family(
            name, "summary", help, window=window, quantiles=quantiles
        )

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def clear(self) -> None:
        with self._lock:
            self._families.clear()
            self.generation += 1


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry used by all instrumentation."""
    return _default_registry


def reset() -> None:
    """Drop all recorded metrics (the enable flag is left untouched)."""
    _default_registry.clear()


# module-level shortcuts against the default registry ----------------------


def counter(name: str, help: str = "") -> MetricFamily:
    return _default_registry.counter(name, help)


def gauge(name: str, help: str = "") -> MetricFamily:
    return _default_registry.gauge(name, help)


def histogram(name: str, help: str = "", *, growth: float = 2.0) -> MetricFamily:
    return _default_registry.histogram(name, help, growth=growth)


def summary(
    name: str,
    help: str = "",
    *,
    window: int = 1024,
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
) -> MetricFamily:
    return _default_registry.summary(
        name, help, window=window, quantiles=quantiles
    )


def inc(name: str, amount: float = 1.0, **labels: str) -> None:
    """Increment a counter in the default registry (no-op when disabled)."""
    if _enabled:
        _default_registry.counter(name).inc(amount, **labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge in the default registry (no-op when disabled)."""
    if _enabled:
        _default_registry.gauge(name).set(value, **labels)


def observe(name: str, value: float, **labels: str) -> None:
    """Observe into a histogram in the default registry (no-op when disabled)."""
    if _enabled:
        _default_registry.histogram(name).observe(value, **labels)


def observe_summary(name: str, value: float, **labels: str) -> None:
    """Observe into a summary in the default registry (no-op when disabled)."""
    if _enabled:
        _default_registry.summary(name).observe(value, **labels)
