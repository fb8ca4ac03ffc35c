"""Declarative SLOs with sliding-window burn-rate evaluation.

An operator of ``repro serve`` wants one signal saying *"the service
is eating its error budget too fast"* — not a raw metric.  This module
turns the metrics the serve stack already publishes (the
``serve_request_seconds`` :class:`Summary`, the ``serve_requests_total``
status counters, the ``serve_queue_depth`` gauge, and their
``fleet_*`` counterparts from the router) into that signal:

* :class:`SLOSpec` declares one objective — a p99 latency bound, an
  error-rate bound, or a queue-depth bound — plus the **budget**: the
  fraction of time the objective is allowed to be violated.
* :class:`SLOMonitor` samples each spec on :meth:`~SLOMonitor.tick`
  (call it from a scrape handler, a test, or the built-in background
  thread) and maintains two sliding windows per spec.  The **burn
  rate** over a window is ``violating_fraction / budget`` — the
  classic multi-window alerting rule: 1.0 means the budget is being
  consumed exactly as provisioned; an alert fires only when *both*
  the fast and the slow window burn past the threshold (fast window
  rejects stale alerts, slow window rejects blips).
* Alert transitions (``firing`` / ``resolved``) append to a bounded
  event stream — :meth:`SLOMonitor.events` — that tests and drills
  read to check an alert fired (and resolved) exactly once;
  :meth:`SLOMonitor.state` is the JSON payload behind the server's
  ``/sloz`` endpoint and the ``slo`` section of ``/statz``.

The monitor reads only public registry state, so it works against any
process that publishes the serve metrics — including offline replays
in tests, where a fake ``clock`` makes burn windows deterministic.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs import metrics as _metrics

__all__ = [
    "SLOSpec",
    "SLOMonitor",
    "default_serve_slos",
    "default_fleet_slos",
]

_KINDS = ("latency_p99", "error_rate", "queue_depth")


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective.

    ``objective`` is the bound on the observed value: seconds for
    ``latency_p99``, a fraction for ``error_rate``, a depth for
    ``queue_depth``.  ``budget`` is the fraction of samples allowed to
    violate the bound before the burn rate exceeds 1.
    """

    name: str
    kind: str
    objective: float
    metric: str
    #: restrict to children whose labels contain these pairs
    labels: dict = field(default_factory=dict)
    #: error_rate only: children carrying these labels count as good
    good_labels: dict = field(default_factory=lambda: {"status": "ok"})
    budget: float = 0.01
    window_s: float = 60.0
    fast_window_s: float = 5.0
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.objective < 0:
            raise ValueError(f"objective must be >= 0, got {self.objective}")
        if not 0.0 < self.budget <= 1.0:
            raise ValueError(f"budget must be in (0, 1], got {self.budget}")
        if self.fast_window_s <= 0 or self.window_s < self.fast_window_s:
            raise ValueError(
                "need 0 < fast_window_s <= window_s, got "
                f"{self.fast_window_s} / {self.window_s}"
            )


def default_serve_slos(
    *,
    p99_latency_s: float = 0.5,
    error_budget: float = 0.05,
    max_queue_depth: float = 64,
    window_s: float = 60.0,
    fast_window_s: float = 5.0,
) -> list[SLOSpec]:
    """The stock objectives for one serve process (used by ``repro serve --slo``)."""
    return [
        SLOSpec(
            name="latency-p99",
            kind="latency_p99",
            objective=p99_latency_s,
            metric="serve_request_seconds",
            budget=0.05,
            window_s=window_s,
            fast_window_s=fast_window_s,
        ),
        SLOSpec(
            name="error-rate",
            kind="error_rate",
            objective=error_budget,
            metric="serve_requests_total",
            budget=0.05,
            window_s=window_s,
            fast_window_s=fast_window_s,
        ),
        SLOSpec(
            name="queue-depth",
            kind="queue_depth",
            objective=max_queue_depth,
            metric="serve_queue_depth",
            budget=0.10,
            window_s=window_s,
            fast_window_s=fast_window_s,
        ),
    ]


def default_fleet_slos(
    *,
    p99_latency_s: float = 0.5,
    error_budget: float = 0.05,
    window_s: float = 60.0,
    fast_window_s: float = 5.0,
) -> list[SLOSpec]:
    """The stock objectives for a fleet router (``repro serve --fleet --slo``).

    The latency and error signals of :func:`default_serve_slos`, read
    from the fleet-level metrics the
    :class:`~repro.serve.router.FleetRouter` publishes on every
    request: end-to-end scatter/gather latency and router request
    status (``ok`` is good; ``degraded``/``partial``/``error`` burn the
    budget).  There is no queue-depth objective: the router publishes
    ``fleet_queue_depth`` only when its stats are scraped, so between
    scrapes the gauge is stale.  An overloaded fixed pool shows up in
    the latency and error objectives instead.
    """
    return [
        SLOSpec(
            name="fleet-latency-p99",
            kind="latency_p99",
            objective=p99_latency_s,
            metric="fleet_request_seconds",
            budget=0.05,
            window_s=window_s,
            fast_window_s=fast_window_s,
        ),
        SLOSpec(
            name="fleet-error-rate",
            kind="error_rate",
            objective=error_budget,
            metric="fleet_requests_total",
            budget=0.05,
            window_s=window_s,
            fast_window_s=fast_window_s,
        ),
    ]


def _labels_match(child_labels: dict, want: dict) -> bool:
    return all(str(child_labels.get(k)) == str(v) for k, v in want.items())


class _SpecState:
    """Sliding sample window + alert latch for one spec."""

    __slots__ = ("spec", "samples", "firing", "last_value", "last_counts")

    def __init__(self, spec: SLOSpec):
        self.spec = spec
        #: (t, violating: bool) samples, pruned to window_s
        self.samples: deque[tuple[float, bool]] = deque()
        self.firing = False
        self.last_value: float = math.nan
        #: error_rate only: cumulative (good, total) at the last tick
        self.last_counts: tuple[float, float] | None = None

    def prune(self, now: float) -> None:
        horizon = now - self.spec.window_s
        while self.samples and self.samples[0][0] < horizon:
            self.samples.popleft()

    def burn(self, now: float, window_s: float) -> float:
        horizon = now - window_s
        total = bad = 0
        for t, violating in self.samples:
            if t >= horizon:
                total += 1
                bad += violating
        if total == 0:
            return 0.0
        return (bad / total) / self.spec.budget


class SLOMonitor:
    """Evaluates a set of :class:`SLOSpec` against the metrics registry."""

    def __init__(
        self,
        specs: list[SLOSpec] | None = None,
        *,
        registry=None,
        clock=time.monotonic,
        max_events: int = 256,
    ):
        self._registry = registry
        self._clock = clock
        self._states = {s.name: _SpecState(s) for s in (specs or [])}
        self._events: deque[dict] = deque(maxlen=max_events)
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.ticks = 0

    # -- configuration -----------------------------------------------------

    def add(self, spec: SLOSpec) -> None:
        with self._lock:
            if spec.name in self._states:
                raise ValueError(f"SLO {spec.name!r} already registered")
            self._states[spec.name] = _SpecState(spec)

    def specs(self) -> list[SLOSpec]:
        with self._lock:
            return [st.spec for st in self._states.values()]

    # -- sampling ----------------------------------------------------------

    def _reg(self):
        return self._registry or _metrics.get_registry()

    def _observe(self, st: _SpecState) -> float:
        """Current value of one spec's signal (NaN = no data)."""
        spec = st.spec
        fam = self._reg().get(spec.metric)
        if fam is None:
            return math.nan
        if spec.kind == "latency_p99":
            worst = math.nan
            for labels, child in fam.samples():
                if not _labels_match(labels, spec.labels):
                    continue
                q = child.quantile(0.99)
                if not math.isnan(q) and (math.isnan(worst) or q > worst):
                    worst = q
            return worst
        if spec.kind == "queue_depth":
            worst = math.nan
            for labels, child in fam.samples():
                if not _labels_match(labels, spec.labels):
                    continue
                v = float(child.value)
                if math.isnan(worst) or v > worst:
                    worst = v
            return worst
        # error_rate: 1 - good/total over the delta since the last tick,
        # so the signal tracks *current* traffic, not lifetime history
        good = total = 0.0
        for labels, child in fam.samples():
            if not _labels_match(labels, spec.labels):
                continue
            v = float(child.value)
            total += v
            if _labels_match(labels, spec.good_labels):
                good += v
        if st.last_counts is None:
            st.last_counts = (good, total)
            return math.nan
        dg = good - st.last_counts[0]
        dt = total - st.last_counts[1]
        st.last_counts = (good, total)
        if dt <= 0:
            return math.nan
        return 1.0 - dg / dt

    def tick(self, now: float | None = None) -> dict:
        """Sample every spec once; returns the post-tick :meth:`state`.

        Call at scrape cadence (the background thread does exactly
        this).  A NaN observation — metric absent, empty window, no
        new traffic — contributes a *non-violating* sample: silence is
        treated as health, so an idle server never pages.
        """
        now = self._clock() if now is None else now
        with self._lock:
            self.ticks += 1
            for st in self._states.values():
                value = self._observe(st)
                st.last_value = value
                violating = (not math.isnan(value)) and value > st.spec.objective
                st.samples.append((now, violating))
                st.prune(now)
                fast = st.burn(now, st.spec.fast_window_s)
                slow = st.burn(now, st.spec.window_s)
                should_fire = (
                    fast >= st.spec.burn_threshold
                    and slow >= st.spec.burn_threshold
                )
                if should_fire != st.firing:
                    st.firing = should_fire
                    self._events.append(
                        {
                            "type": "slo_alert",
                            "slo": st.spec.name,
                            "state": "firing" if should_fire else "resolved",
                            "value": None if math.isnan(value) else value,
                            "objective": st.spec.objective,
                            "burn_fast": fast,
                            "burn_slow": slow,
                            "t": now,
                        }
                    )
                    if _metrics.enabled():
                        _metrics.get_registry().counter(
                            "slo_alerts_total",
                            "SLO alert state transitions",
                        ).inc(
                            1,
                            slo=st.spec.name,
                            state="firing" if should_fire else "resolved",
                        )
            return self._state_locked(now)

    # -- background evaluation --------------------------------------------

    def start(self, interval_s: float = 1.0) -> None:
        """Evaluate on a daemon thread every ``interval_s`` seconds."""
        if self._thread is not None:
            return

        def loop() -> None:
            while not self._stop.wait(interval_s):
                self.tick()

        self._stop.clear()
        self._thread = threading.Thread(
            target=loop, name="slo-monitor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    # -- reporting ---------------------------------------------------------

    def _state_locked(self, now: float) -> dict:
        slos = []
        for st in self._states.values():
            slos.append(
                {
                    "name": st.spec.name,
                    "kind": st.spec.kind,
                    "objective": st.spec.objective,
                    "metric": st.spec.metric,
                    "budget": st.spec.budget,
                    "value": (
                        None if math.isnan(st.last_value) else st.last_value
                    ),
                    "burn_fast": st.burn(now, st.spec.fast_window_s),
                    "burn_slow": st.burn(now, st.spec.window_s),
                    "window_s": st.spec.window_s,
                    "fast_window_s": st.spec.fast_window_s,
                    "firing": st.firing,
                    "samples": len(st.samples),
                }
            )
        return {
            "ticks": self.ticks,
            "firing": sorted(s["name"] for s in slos if s["firing"]),
            "slos": slos,
            "events": list(self._events)[-16:],
        }

    def state(self) -> dict:
        """JSON-friendly snapshot (the ``/sloz`` payload)."""
        now = self._clock()
        with self._lock:
            return self._state_locked(now)

    def events(self) -> list[dict]:
        """The alert event stream, oldest first."""
        with self._lock:
            return list(self._events)

    def firing(self) -> list[str]:
        with self._lock:
            return sorted(
                st.spec.name for st in self._states.values() if st.firing
            )
