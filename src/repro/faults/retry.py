"""Retry policies: capped exponential backoff with deterministic jitter.

One :class:`RetryPolicy` value is shared by every resilience layer —
the distributed driver re-executing failed ranks, the serve client
re-submitting transiently failed requests — with per-layer *budgets*
(``budget`` caps the total number of retries a single logical call may
spend, across all its sub-failures).

Backoff is the classic capped exponential,
``min(base * 2**(attempt-1), cap)``, plus a *deterministic* jitter
drawn from ``hash(seed, attempt)`` — chaos runs must be replayable, so
nothing here consults a global RNG or the clock.

When a policy's attempts (or budget) are exhausted the caller raises
:class:`RetryExhausted`, which carries the complete fault history —
every exception observed across the attempts — so operators see the
*sequence* of failures, not just the last one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.faults.inject import FaultError

__all__ = ["RetryPolicy", "RetryExhausted", "call_with_retry"]


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry a failed unit of work.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    initial execution plus up to two retries.  ``budget`` (optional)
    caps the *total* retries one logical operation may spend across all
    its failing sub-units (e.g. several crashed ranks of one
    ``distributed_spmv``); ``None`` leaves only the per-unit cap.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.0
    delay_cap_s: float = 1.0
    jitter_s: float = 0.0
    seed: int = 0
    budget: int | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.delay_cap_s < 0 or self.jitter_s < 0:
            raise ValueError("delays must be >= 0")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        base = min(self.base_delay_s * (2.0 ** (attempt - 1)), self.delay_cap_s)
        if self.jitter_s:
            # deterministic jitter: replayable chaos runs
            base += (
                random.Random(self.seed * 1_000_003 + attempt).random()
                * self.jitter_s
            )
        return min(base, self.delay_cap_s + self.jitter_s)

    def retries(self) -> int:
        """Retries available per unit (attempts after the first)."""
        return self.max_attempts - 1


class RetryExhausted(FaultError):
    """All attempts (or the retry budget) were spent without success.

    ``history`` is the ordered list of exceptions observed — the fault
    history of the whole recovery effort — and ``site`` names the unit
    that could not be recovered.
    """

    def __init__(self, site: str, attempts: int, history: list | None = None,
                 reason: str = ""):
        self.site = site
        self.attempts = attempts
        self.history = list(history or [])
        tail = f": {reason}" if reason else ""
        seen = "; ".join(
            f"{type(e).__name__}: {e}" for e in self.history[-3:]
        )
        super().__init__(
            f"retries exhausted for {site} after {attempts} attempt(s){tail}"
            + (f" [history: {seen}]" if seen else "")
        )


def call_with_retry(
    fn,
    policy: RetryPolicy,
    *,
    site: str,
    retryable: tuple = (FaultError,),
    on_retry=None,
    sleep=time.sleep,
):
    """Run ``fn()`` under ``policy``; returns its result.

    Retries only exceptions in ``retryable``; anything else propagates
    immediately.  ``on_retry(attempt, exc)`` is called before each
    retry (the hook layers use to bump their obs counters).
    """
    history: list[Exception] = []
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except retryable as exc:  # noqa: PERF203 - retry loop
            history.append(exc)
            if attempt + 1 >= policy.max_attempts:
                raise RetryExhausted(site, attempt + 1, history) from exc
            if on_retry is not None:
                on_retry(attempt + 1, exc)
            d = policy.delay(attempt + 1)
            if d:
                sleep(d)
    raise AssertionError("unreachable")  # pragma: no cover
