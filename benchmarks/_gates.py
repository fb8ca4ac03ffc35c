"""Shared JSON-artifact and threshold-gate helpers for the bench scripts.

Every bench entry point (``bench_kernels.py`` and its ``--dispatch`` /
``--obs-overhead`` / ``--shootout`` modes, and ``bench_serve.py``)
writes its records with :func:`write_artifact`, splits the trailing
``{"summary": True}`` record off with :func:`split_summary`, and
funnels its thresholds through one :class:`GateSet`, so CI reads one
exit-code convention:

* ``EXIT_OK`` (0)          — every gate held (or nothing was gated);
* ``EXIT_GATE_FAILED`` (1) — at least one threshold was violated
  (each prints a ``FAIL: ...`` line as it trips).
"""

import json

EXIT_OK = 0
EXIT_GATE_FAILED = 1


def write_artifact(path, records):
    """Write the records list as the CI-uploadable JSON artifact."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
    return path


def split_summary(records):
    """Split ``records`` into (data rows, trailing summary or None)."""
    rows = [r for r in records if not r.get("summary")]
    tails = [r for r in records if r.get("summary")]
    return rows, (tails[-1] if tails else None)


def _show(value):
    return "none" if value is None else f"{value:.4g}"


class GateSet:
    """Threshold checks that print ``FAIL:`` lines and pool one verdict.

    A ``None`` threshold disables the check (report-only runs); a
    ``None`` *value* fails it — a summary that could not compute the
    gated quantity must not pass the gate.
    """

    def __init__(self):
        self.failures = []

    def _fail(self, msg):
        self.failures.append(msg)
        print(f"FAIL: {msg}")

    def at_least(self, value, floor, label):
        """Gate ``value >= floor``; skip when ``floor`` is None."""
        if floor is None:
            return True
        if value is None or value < floor:
            self._fail(f"{label} {_show(value)} < {floor:g}")
            return False
        return True

    def at_most(self, value, limit, label):
        """Gate ``value <= limit``; skip when ``limit`` is None."""
        if limit is None:
            return True
        if value is None or value > limit:
            self._fail(f"{label} {_show(value)} > {limit:g}")
            return False
        return True

    def require(self, ok, label):
        """Gate a boolean invariant (e.g. bitwise-equal answers)."""
        if not ok:
            self._fail(label)
            return False
        return True

    def exit_code(self):
        return EXIT_GATE_FAILED if self.failures else EXIT_OK
