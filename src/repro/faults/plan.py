"""Seeded, deterministic fault schedules (the chaos harness's input).

A :class:`FaultPlan` is an immutable, ordered schedule of
:class:`FaultEvent` records — *which* fault, *where* (layer + target
labels), and *how often* it may fire.  Plans come from three places:

* :meth:`FaultPlan.generate` — a seeded RNG draws a schedule; the same
  seed always produces the same plan (the determinism contract the
  chaos tests assert),
* :meth:`FaultPlan.named` — curated plans (``smoke``, ``exchange``,
  ``crashes``, ``stubborn``, ``serve``, ``fleet``, ``soak``) used by the
  ``repro chaos`` CLI and CI,
* explicit construction from events in tests.

The plan itself never mutates at run time; firing state lives in the
:class:`~repro.faults.inject.FaultInjector` built via
:meth:`FaultPlan.injector`, so one plan can be replayed any number of
times (``same seed => same schedule => same injections``).

Fault taxonomy (``FAULT_KINDS``):

====================  =============  =====================================
kind                  default layer  effect at the injection site
====================  =============  =====================================
rank_crash            distributed    the rank dies before sending halos
halo_drop             distributed    one outgoing halo message is lost
halo_delay            distributed    one outgoing halo message is late
kernel_exception      any            the compute kernel raises
slow_worker           any            the worker sleeps ``delay_s``
worker_crash          serve          a batcher worker thread dies
registry_load_failure serve          the matrix loader fails
shard_kill            serve          a fleet shard process is killed
====================  =============  =====================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

__all__ = [
    "FAULT_KINDS",
    "FAULT_LAYERS",
    "NAMED_PLANS",
    "FaultEvent",
    "FaultPlan",
]

FAULT_KINDS = (
    "rank_crash",
    "halo_drop",
    "halo_delay",
    "kernel_exception",
    "slow_worker",
    "worker_crash",
    "registry_load_failure",
    "shard_kill",
)

FAULT_LAYERS = ("distributed", "serve", "engine", "sim")

#: kinds whose default layer is the distributed runtime
DISTRIBUTED_KINDS = (
    "rank_crash",
    "halo_drop",
    "halo_delay",
    "kernel_exception",
    "slow_worker",
)

_DEFAULT_LAYER = {
    "rank_crash": "distributed",
    "halo_drop": "distributed",
    "halo_delay": "distributed",
    "kernel_exception": "distributed",
    "slow_worker": "distributed",
    "worker_crash": "serve",
    "registry_load_failure": "serve",
    "shard_kill": "serve",
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` is a sorted tuple of ``(label, value)`` pairs; an event
    matches an injection site when every target pair is present among
    the site's labels (an empty target is a wildcard).  ``times`` is
    how many matches the event may consume (``times <= 0`` means
    unlimited), and ``when`` is the logical schedule time in
    ``[0, horizon)`` used only for ordering and the schedule
    invariants — wall-clock injection order is decided by the sites.
    """

    kind: str
    when: float
    layer: str = ""
    target: tuple = ()
    times: int = 1
    delay_s: float = 0.0
    note: str = ""

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use one of {FAULT_KINDS}")
        layer = self.layer or _DEFAULT_LAYER[self.kind]
        object.__setattr__(self, "layer", layer)
        if layer not in FAULT_LAYERS:
            raise ValueError(f"unknown layer {layer!r}; use one of {FAULT_LAYERS}")
        if self.when < 0:
            raise ValueError(f"when must be >= 0, got {self.when}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        # normalise targets to a canonical sorted tuple of pairs
        tgt = self.target
        if isinstance(tgt, dict):
            tgt = tuple(sorted(tgt.items()))
        else:
            tgt = tuple(sorted(tuple(pair) for pair in tgt))
        object.__setattr__(self, "target", tgt)

    @property
    def labels(self) -> dict:
        return dict(self.target)

    def matches(self, layer: str, **labels: object) -> bool:
        """True when this event applies to the given injection site."""
        if self.layer != layer:
            return False
        return all(labels.get(k, _MISSING) == v for k, v in self.target)

    def describe(self) -> str:
        tgt = ",".join(f"{k}={v}" for k, v in self.target) or "*"
        extra = f" delay={self.delay_s:g}s" if self.delay_s else ""
        times = f" x{self.times}" if self.times != 1 else ""
        return f"[{self.when:6.3f}] {self.layer}:{self.kind}({tgt}){times}{extra}"


class _Missing:
    def __repr__(self):  # pragma: no cover - cosmetic
        return "<missing>"


_MISSING = _Missing()


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered fault schedule."""

    events: tuple = ()
    name: str = "custom"
    seed: int | None = None
    horizon: float = 1.0

    def __post_init__(self):
        evs = tuple(
            ev if isinstance(ev, FaultEvent) else FaultEvent(**ev)
            for ev in self.events
        )
        # canonical order: schedule time, then construction order (stable)
        order = sorted(range(len(evs)), key=lambda i: (evs[i].when, i))
        object.__setattr__(self, "events", tuple(evs[i] for i in order))
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def kinds(self) -> dict:
        """Event count per kind (for reports and tests)."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def validate(self) -> "FaultPlan":
        """Assert the schedule invariants; returns self for chaining.

        * events sorted by ``when`` (ties broken stably),
        * every ``when`` within ``[0, horizon)``,
        * the schedule is stable under replay (re-constructing a plan
          from its own events reproduces it bit-for-bit).
        """
        whens = [ev.when for ev in self.events]
        if whens != sorted(whens):
            raise AssertionError(f"plan {self.name!r}: events out of order")
        for ev in self.events:
            if not 0 <= ev.when < self.horizon:
                raise AssertionError(
                    f"plan {self.name!r}: event outside horizon: {ev.describe()}"
                )
        if replace(self).events != self.events:
            raise AssertionError(f"plan {self.name!r}: unstable under replay")
        return self

    def injector(self):
        """A fresh, zero-state :class:`~repro.faults.inject.FaultInjector`."""
        from repro.faults.inject import FaultInjector

        return FaultInjector(self)

    def describe(self) -> str:
        head = f"fault plan {self.name!r}: {len(self.events)} events"
        if self.seed is not None:
            head += f" (seed={self.seed})"
        return "\n".join([head, *("  " + ev.describe() for ev in self.events)])

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        nranks: int = 4,
        kinds: tuple = DISTRIBUTED_KINDS,
        horizon: float = 1.0,
        max_events_per_kind: int = 2,
        workers: int = 2,
        delay_s: float = 0.02,
    ) -> "FaultPlan":
        """Draw a deterministic schedule from ``seed``.

        The same ``(seed, nranks, kinds, ...)`` always yields the same
        plan; run-to-run determinism of the *injections* then follows
        from the deterministic site matching in the injector.
        """
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        rng = random.Random(seed)
        events: list[FaultEvent] = []
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
            for _ in range(rng.randint(1, max(1, max_events_per_kind))):
                when = rng.random() * horizon
                layer = _DEFAULT_LAYER[kind]
                if kind in ("halo_drop", "halo_delay"):
                    if nranks < 2:
                        continue  # no edges to fault
                    src = rng.randrange(nranks)
                    dst = rng.choice([r for r in range(nranks) if r != src])
                    target = {"rank": src, "dst": dst}
                elif kind == "worker_crash":
                    target = {"worker": rng.randrange(max(1, workers))}
                elif kind == "registry_load_failure":
                    target = {}
                else:
                    target = {"rank": rng.randrange(nranks)}
                events.append(
                    FaultEvent(
                        kind=kind,
                        when=when,
                        layer=layer,
                        target=target,
                        delay_s=delay_s if kind in ("halo_delay", "slow_worker") else 0.0,
                    )
                )
        return cls(tuple(events), name=f"seed:{seed}", seed=seed, horizon=horizon)

    @classmethod
    def named(
        cls,
        name: str,
        *,
        nranks: int = 4,
        workers: int = 2,
        delay_s: float = 0.02,
    ) -> "FaultPlan":
        """One of the curated plans (see :data:`NAMED_PLANS`)."""
        builder = NAMED_PLANS.get(name)
        if builder is None:
            raise ValueError(
                f"unknown fault plan {name!r}; known: {sorted(NAMED_PLANS)} "
                "(or pass an integer seed)"
            )
        return builder(nranks=nranks, workers=workers, delay_s=delay_s)


# ---------------------------------------------------------------------------
# curated plans
# ---------------------------------------------------------------------------

def _plan_smoke(*, nranks: int, workers: int, delay_s: float) -> FaultPlan:
    """One of everything cheap: a crash, a dropped edge, a kernel error."""
    last = max(nranks - 1, 0)
    events = [
        FaultEvent("rank_crash", 0.10, target={"rank": last}),
        FaultEvent("kernel_exception", 0.30, target={"rank": 0}),
        FaultEvent("slow_worker", 0.50, target={"rank": 0}, delay_s=delay_s),
    ]
    if nranks >= 2:
        events.append(FaultEvent("halo_drop", 0.20, target={"rank": 0, "dst": 1}))
        events.append(
            FaultEvent("halo_delay", 0.40, target={"rank": 1, "dst": 0}, delay_s=delay_s)
        )
    return FaultPlan(tuple(events), name="smoke")


def _plan_exchange(*, nranks: int, workers: int, delay_s: float) -> FaultPlan:
    """Message-layer faults only: late and lost halo edges."""
    events = []
    for i in range(max(nranks - 1, 1)):
        src, dst = i, (i + 1) % nranks
        if src == dst:
            continue
        kind = "halo_drop" if i % 2 == 0 else "halo_delay"
        events.append(
            FaultEvent(
                kind,
                when=0.1 + 0.1 * i,
                target={"rank": src, "dst": dst},
                delay_s=delay_s if kind == "halo_delay" else 0.0,
            )
        )
    return FaultPlan(tuple(events), name="exchange")


def _plan_crashes(*, nranks: int, workers: int, delay_s: float) -> FaultPlan:
    """Every rank crashes exactly once (the full-recovery drill)."""
    return FaultPlan(
        tuple(
            FaultEvent("rank_crash", when=0.1 + 0.8 * r / max(nranks, 1), target={"rank": r})
            for r in range(nranks)
        ),
        name="crashes",
    )


def _plan_stubborn(*, nranks: int, workers: int, delay_s: float) -> FaultPlan:
    """Rank 0 crashes on every attempt — exhausts any retry budget."""
    return FaultPlan(
        (FaultEvent("rank_crash", 0.1, target={"rank": 0}, times=0),),
        name="stubborn",
    )


def _plan_serve(*, nranks: int, workers: int, delay_s: float) -> FaultPlan:
    """Serving-layer faults: kill every batcher worker, fail one load."""
    events = [
        FaultEvent("worker_crash", 0.1 + 0.05 * w, layer="serve", target={"worker": w})
        for w in range(max(workers, 1))
    ]
    events.append(FaultEvent("registry_load_failure", 0.05, layer="serve"))
    events.append(FaultEvent("kernel_exception", 0.3, layer="serve"))
    return FaultPlan(tuple(events), name="serve")


def _plan_fleet(*, nranks: int, workers: int, delay_s: float) -> FaultPlan:
    """Fleet drill: kill one shard mid-load, slow a worker on another.

    ``nranks`` doubles as the shard count; the victim is the last
    shard so single-shard fleets still get a kill.
    """
    victim = max(nranks - 1, 0)
    events = [
        FaultEvent("shard_kill", 0.3, layer="serve", target={"shard": victim}),
        FaultEvent(
            "slow_worker",
            0.1,
            layer="serve",
            target={"shard": 0, "worker": 0},
            delay_s=delay_s,
        ),
    ]
    return FaultPlan(tuple(events), name="fleet")


def _plan_soak(*, nranks: int, workers: int, delay_s: float) -> FaultPlan:
    """A long generated schedule for soak testing (seeded, still
    deterministic)."""
    base = FaultPlan.generate(
        1234, nranks=nranks, max_events_per_kind=4, delay_s=delay_s
    )
    return FaultPlan(base.events, name="soak", seed=1234)


NAMED_PLANS: dict = {
    "smoke": _plan_smoke,
    "exchange": _plan_exchange,
    "crashes": _plan_crashes,
    "stubborn": _plan_stubborn,
    "serve": _plan_serve,
    "fleet": _plan_fleet,
    "soak": _plan_soak,
}
