"""The shared scenario specs: axes + suites the whole repo runs from.

This module is the single source of truth for *what exists*:

* **axes** — each axis's value set is sourced live from the owning
  registry (`available_formats()` for formats, ``NAMED_PLANS`` for
  fault plans, the serve scheduler's ``POLICIES`` for backpressure
  policies, ...), so the CLI, the pytest parametrisations and CI can
  never drift on the roster;
* **suites** — named combinator trees (:mod:`repro.scenarios.matrix`)
  expanding to :class:`~repro.scenarios.matrix.ScenarioCell` rows,
  each bound to the executor that knows how to run it
  (:mod:`repro.scenarios.executors`);
* **waves** — ``full`` is the whole expansion; ``smoke`` is a
  seed-deterministic strict :class:`Subset` of it sized per suite.

``tests/test_ops.py`` (parity matrix) and ``tests/test_faults.py``
(chaos matrix) parametrise straight from :func:`expand_suite`; the
bench scripts pick their candidate (matrix, format) combos from the
``bench`` suite; ``repro matrix expand|run`` turns the same cells
into CI-gateable JSON rows.
"""

from __future__ import annotations

from repro.scenarios.matrix import (
    Base,
    Filter,
    Product,
    ScenarioCell,
    Subset,
    Sum,
)

__all__ = [
    "AXES",
    "BENCH_FORMATS",
    "PLAN_EXPECTATIONS",
    "SMOKE_SIZES",
    "SUITES",
    "WAVES",
    "axis_values",
    "expand_suite",
    "suite_names",
]

WAVES = ("smoke", "full")

#: chaos-drill verdict each named distributed plan must produce
#: ("recover" = bitwise-identical recovery; "exhaust" = the retry
#: budget must die with a typed RetryExhausted — that is the plan's job)
PLAN_EXPECTATIONS = {
    "smoke": "recover",
    "exchange": "recover",
    "crashes": "recover",
    "stubborn": "exhaust",
}

#: single-event kind drills (the old hand-rolled acceptance grid):
#: ``one:<kind>`` fault-plan values with their canonical targets
SINGLE_FAULT_TARGETS = {
    "one:rank_crash": {"rank": 1},
    "one:kernel_exception": {"rank": 0},
    "one:slow_worker": {"rank": 2},
    "one:halo_drop": {"rank": 0, "dst": 1},
    "one:halo_delay": {"rank": 1, "dst": 0},
}
PLAN_EXPECTATIONS.update({name: "recover" for name in SINGLE_FAULT_TARGETS})


# ---------------------------------------------------------------------------
# axes (value sets sourced live from the owning registries)
# ---------------------------------------------------------------------------

def _formats() -> tuple:
    """Every registered format, straight from the format registry."""
    from repro.formats import available_formats

    return tuple(available_formats())


def _matrix_classes() -> tuple:
    from repro.scenarios.fixtures import matrix_classes

    return matrix_classes()


def _suite_matrices() -> tuple:
    from repro.matrices import SUITE_KEYS

    return tuple(SUITE_KEYS)


def _kernel_tiers() -> tuple:
    """Tier *families* (host-independent; availability checked at run)."""
    return ("numpy", "scipy", "compiled")


def _backends() -> tuple:
    return ("threads", "processes")


def _modes() -> tuple:
    from repro.distributed.modes import MODES

    names = tuple(m for m in ("vector", "task") if m in MODES)
    return names or ("vector", "task")


def _fault_plans() -> tuple:
    from repro.faults import NAMED_PLANS

    return tuple(sorted(NAMED_PLANS))


def _distributed_plans() -> tuple:
    """Named plans whose events all target the distributed runtime."""
    from repro.faults import FaultPlan, NAMED_PLANS

    out = []
    for name in sorted(NAMED_PLANS):
        if name == "soak":  # long-running wave, kept behind `-m soak`
            continue
        plan = FaultPlan.named(name, nranks=4, workers=2)
        if all(ev.layer in ("distributed", "sim", "engine") for ev in plan):
            out.append(name)
    return tuple(out)


def _serve_policies() -> tuple:
    from repro.serve.scheduler import POLICIES

    return tuple(sorted(POLICIES))


AXES = {
    "matrix-class": _matrix_classes,
    "suite-matrix": _suite_matrices,
    "format": _formats,
    "kernel-tier": _kernel_tiers,
    "backend": _backends,
    "mode": _modes,
    "fault-plan": _fault_plans,
    "serve-policy": _serve_policies,
}


def axis_values(name: str) -> tuple:
    """The live value set of one axis (KeyError on unknown axis)."""
    try:
        fn = AXES[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario axis {name!r}; known: {sorted(AXES)}"
        ) from None
    return fn()


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

#: env a cell carries so reproducing it out of process pins the tier set
_TIER_ENV = {
    "numpy": {"REPRO_COMPILED_DISABLE": "all"},
    "scipy": {"REPRO_COMPILED_DISABLE": "cnative"},
    "compiled": {},
}


def _parity_spec():
    """format x matrix-class x kernel-tier, every roster variant checked."""
    classes = tuple(
        c for c in axis_values("matrix-class") if c != "poisson2d"
    )
    return Product(
        Base("matrix-class", classes),
        Base("format", axis_values("format")),
        Base("kernel-tier", axis_values("kernel-tier")),
    )


#: processes drills are an order of magnitude slower each, so that
#: backend runs the composite smoke plan plus the two representative
#: single-event kinds (a crash and a dropped halo edge); the full plan
#: set runs on threads.
_PROCESS_PLANS = ("smoke", "one:rank_crash", "one:halo_drop")


def _chaos_spec():
    """backend x mode x fault plan (named composites + ``one:`` kinds)."""
    plans = _distributed_plans() + tuple(sorted(SINGLE_FAULT_TARGETS))
    threads = Product(
        Base("backend", ("threads",)),
        Base("mode", axis_values("mode")),
        Base("fault-plan", plans),
    )
    processes = Filter(
        lambda c: c["fault-plan"] in _PROCESS_PLANS,
        Product(
            Base("backend", ("processes",)),
            Base("mode", axis_values("mode")),
            Base("fault-plan", plans),
        ),
    )
    return Sum(threads, processes)


def _serve_spec():
    """serve-policy x fault plan x tracing; traced cells run fault-free."""
    spec = Product(
        Base("serve-policy", axis_values("serve-policy")),
        Base("fault-plan", ("none", "serve")),
        Base("trace", ("off", "on")),
    )
    return Filter(
        lambda c: not (c["trace"] == "on" and c["fault-plan"] != "none"),
        spec,
    )


def _fleet_spec():
    """shards x replicas x fault plan; failure drills need a replica."""
    spec = Product(
        Base("shards", (1, 2)),
        Base("replicas", (1, 2)),
        Base("fault-plan", ("none", "fleet")),
    )
    return Filter(
        lambda c: c["replicas"] <= c["shards"]
        and (c["fault-plan"] == "none" or (c["shards"] >= 2 and c["replicas"] >= 2)),
        spec,
    )


#: the engine-bound formats the bench suite (and the bench scripts,
#: which import this) probe — the paper's CRS/pJDS pair, the two
#: intermediate column-sweep formats, and the two related-work
#: challengers (Koza's CMRS, Heller-Oberhuber's ARG-CSR)
BENCH_FORMATS = ("CRS", "pJDS", "ELLPACK-R", "SELL-C-sigma", "CMRS", "ARG-CSR")


def _bench_spec():
    """paper-suite matrix x engine format x kernel tier (perf probes)."""
    return Product(
        Base("suite-matrix", axis_values("suite-matrix")),
        Base("format", BENCH_FORMATS),
        Base("kernel-tier", axis_values("kernel-tier")),
    )


#: suite name -> (spec builder, executor binding)
SUITES = {
    "parity": (_parity_spec, "parity-check"),
    "chaos": (_chaos_spec, "chaos-drill"),
    "serve": (_serve_spec, "serve-roundtrip"),
    "fleet": (_fleet_spec, "fleet-drill"),
    "bench": (_bench_spec, "bench-probe"),
}

#: cells in the smoke wave of each suite (always < the full expansion,
#: so smoke is a *strict* subset — the property tests assert it)
SMOKE_SIZES = {
    "parity": 12,
    "chaos": 5,
    "serve": 3,
    "fleet": 2,
    "bench": 6,
}


def suite_names() -> tuple:
    return tuple(sorted(SUITES))


def _cell_env(suite: str, combo: dict) -> dict:
    env = dict(_TIER_ENV.get(combo.get("kernel-tier", ""), {}))
    return env


def _cell_config(suite: str, combo: dict) -> dict:
    cfg = {}
    plan = combo.get("fault-plan")
    if suite == "chaos" and plan is not None:
        cfg["expect"] = PLAN_EXPECTATIONS.get(plan, "recover")
        if plan in SINGLE_FAULT_TARGETS:
            cfg["target"] = tuple(sorted(SINGLE_FAULT_TARGETS[plan].items()))
    return cfg


def expand_suite(
    name: str, *, wave: str = "full", seed: int = 0
) -> tuple:
    """Expand one suite into its :class:`ScenarioCell` rows.

    ``wave="smoke"`` applies the suite's :class:`Subset` sample
    (seed-deterministic; always a strict subset of ``full``).
    """
    try:
        builder, executor = SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario suite {name!r}; known: {sorted(SUITES)}"
        ) from None
    if wave not in WAVES:
        raise ValueError(f"unknown wave {wave!r}; use one of {WAVES}")
    spec = builder()
    if wave == "smoke":
        spec = Subset(spec, SMOKE_SIZES[name])
    return tuple(
        ScenarioCell.build(
            name,
            executor,
            combo,
            env=_cell_env(name, combo),
            config=_cell_config(name, combo),
            wave=wave,
        )
        for combo in spec.expand(seed)
    )
