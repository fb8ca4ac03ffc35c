"""In-process client API for the serving subsystem.

The :class:`Client` is the programmatic front-end the HTTP endpoint is
a thin JSON shim over: ``spmv`` goes through the micro-batching
scheduler (so concurrent in-process callers coalesce exactly like HTTP
traffic), ``solve`` runs the iterative solvers against a leased,
worker-private clone of the registered matrix.

Solves are *not* micro-batched: a CG run is thousands of dependent
SpMVs, so there is nothing to coalesce across requests — instead each
solve leases the matrix (pinning it against eviction for the whole
run) and iterates through the allocation-free
:class:`~repro.ops.BoundOperator` the solvers wrap every bound
matrix in.  :func:`solve_on` and :func:`eigsh_on` are the one solve
body this client and the fleet router share: each takes the operator
to iterate on (here a leased clone, there a routed operator).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

from repro import obs
from repro.serve.scheduler import SpMVServer

__all__ = ["Client", "RETRYABLE", "solve_on", "eigsh_on"]


def _retryable() -> tuple:
    """Exception types a client may transparently resubmit on.

    Transient by construction: injected faults (the chaos harness),
    admission rejections/sheds, and registry load failures.  Deadline
    expiry and closed servers are *not* retryable — resubmitting can
    never help.
    """
    from repro.faults import FaultError
    from repro.serve.errors import RegistryLoadFailed, ServerOverloaded

    return (FaultError, ServerOverloaded, RegistryLoadFailed)


RETRYABLE = _retryable()


def _record_solve(t0: float, matrix: str, method: str) -> float:
    """Seconds since ``t0``, also fed to the ``serve_solve*`` metrics."""
    dt = time.perf_counter() - t0
    if obs.enabled():
        obs.observe_summary("serve_solve_seconds", dt, matrix=matrix)
        obs.inc("serve_solves_total", 1, matrix=matrix, method=method)
    return dt


def solve_on(
    op,
    b,
    *,
    matrix: str,
    method: str,
    tol: float,
    max_iter: int | None,
) -> dict:
    """CG on ``op`` (a leased clone, a routed operator).

    Returns the JSON-friendly result dict of ``solve``.
    """
    if method != "cg":
        raise ValueError(f"unknown solve method {method!r}; use 'cg'")
    from repro.solvers import conjugate_gradient

    t0 = time.perf_counter()
    res = conjugate_gradient(op, np.asarray(b), tol=tol, max_iter=max_iter)
    return {
        "x": res.x,
        "iterations": res.iterations,
        "residual_norm": float(res.residual_norm),
        "converged": bool(res.converged),
        "spmv_count": res.spmv_count,
        "seconds": _record_solve(t0, matrix, method),
    }


def eigsh_on(
    op,
    *,
    matrix: str,
    num_eigenvalues: int,
    tol: float,
    max_iter: int,
    seed: int,
) -> dict:
    """Lanczos on ``op``; the result dict of ``eigsh``."""
    from repro.solvers import lanczos

    t0 = time.perf_counter()
    res = lanczos(
        op,
        num_eigenvalues=num_eigenvalues,
        tol=tol,
        max_iter=max_iter,
        seed=seed,
    )
    return {
        "eigenvalues": res.eigenvalues,
        "iterations": res.iterations,
        "residual_norms": res.residual_norms,
        "spmv_count": res.spmv_count,
        "seconds": _record_solve(t0, matrix, "lanczos"),
    }


class Client:
    """Typed convenience wrapper around one :class:`SpMVServer`.

    ``retry`` (a :class:`~repro.faults.retry.RetryPolicy`) makes
    :meth:`spmv` resubmit requests that failed with a transient error
    (see :data:`RETRYABLE`); the exhausted case raises
    :class:`~repro.faults.retry.RetryExhausted` with the full fault
    history.
    """

    def __init__(self, server: SpMVServer, *, retry=None):
        self.server = server
        self.retry = retry
        #: trace id of the most recent traced front-end call on this
        #: client (best-effort under concurrency; a convenience for
        #: ``repro obs trace`` and tests, not a correctness surface)
        self.last_trace_id: str | None = None

    @contextmanager
    def _front_span(self, name: str, **attrs):
        """Front-end span: the trace root when no caller span is open."""
        with obs.span(name, **attrs) as sp:
            tid = getattr(sp, "trace_id", "") or None
            if tid:
                self.last_trace_id = tid
            yield sp

    # -- matvec ------------------------------------------------------------
    def spmv(
        self,
        matrix: str,
        x,
        *,
        deadline_ms: float | None = None,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Blocking ``y = A @ x`` through the batching scheduler.

        With a ``retry`` policy, transiently failed requests are
        resubmitted (fresh deadline per attempt) with the policy's
        backoff between attempts.  Under instrumentation the call is a
        trace front-end: every submission (including retries) lands in
        one trace rooted at ``client.spmv``.
        """
        with self._front_span("client.spmv", matrix=matrix):
            if self.retry is None:
                return self.server.spmv(
                    matrix, x, deadline_ms=deadline_ms, timeout=timeout
                )
            from repro.faults.retry import call_with_retry

            def _on_retry(attempt: int, exc: Exception) -> None:
                if obs.enabled():
                    obs.inc(
                        "serve_client_retries_total",
                        1,
                        matrix=matrix,
                        error=type(exc).__name__,
                    )
                    obs.annotate_current(
                        retried=attempt, retry_error=type(exc).__name__
                    )

            return call_with_retry(
                lambda: self.server.spmv(
                    matrix, x, deadline_ms=deadline_ms, timeout=timeout
                ),
                self.retry,
                site=f"client.spmv[{matrix}]",
                retryable=RETRYABLE,
                on_retry=_on_retry,
            )

    # -- solvers -----------------------------------------------------------
    @contextmanager
    def _leased_clone(self, matrix: str):
        """A worker-private clone, the matrix pinned against eviction."""
        with self.server.registry.acquire(matrix) as lease:
            yield lease.clone_for(("solve", threading.get_ident()))

    def solve(
        self,
        matrix: str,
        b,
        *,
        method: str = "cg",
        tol: float = 1e-8,
        max_iter: int | None = None,
    ) -> dict:
        """Solve ``A x = b`` (``method="cg"``) on a leased matrix clone.

        Returns a JSON-friendly dict (``x`` as a list through the HTTP
        shim stays an ndarray here).
        """
        with self._front_span("serve.solve", matrix=matrix, method=method):
            with self._leased_clone(matrix) as bound:
                return solve_on(
                    bound, b, matrix=matrix, method=method, tol=tol,
                    max_iter=max_iter,
                )

    def eigsh(
        self,
        matrix: str,
        *,
        num_eigenvalues: int = 1,
        tol: float = 1e-8,
        max_iter: int = 200,
        seed: int = 0,
    ) -> dict:
        """Smallest eigenvalues via Lanczos on a leased matrix clone."""
        with self._front_span("serve.solve", matrix=matrix, method="lanczos"):
            with self._leased_clone(matrix) as bound:
                return eigsh_on(
                    bound, matrix=matrix, num_eigenvalues=num_eigenvalues,
                    tol=tol, max_iter=max_iter, seed=seed,
                )

    # -- introspection / lifecycle -----------------------------------------
    def names(self) -> list[str]:
        """All registered matrix names (the HTTP banner + 404 hints)."""
        return self.server.registry.names()

    def close(self) -> None:
        """Shut the underlying server down (drains the queue)."""
        self.server.close()

    def stats(self) -> dict:
        return self.server.stats()

    def health(self) -> dict:
        s = self.server
        return {
            "status": "closing" if s.stats()["closing"] else "ok",
            "queue_depth": s.queue_depth,
            "resident": s.registry.resident(),
        }
