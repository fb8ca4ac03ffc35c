"""Binding a matrix to a tuned, zero-allocation execution state.

``bind(matrix)`` packages a format instance with

* a persistent :class:`~repro.engine.workspace.Workspace` (gather /
  product / accumulator scratch created on first call, reused after),
* the autotuned kernel variant for this matrix's structure,

so iterative solvers can run allocation-free inner loops.  The bound
kernels compute in the matrix's native dtype (the Eq. (1) code-balance
argument: fewer bytes moved per flop) and expose the same stored-basis
``spmv_permuted`` shortcut as the jagged formats themselves.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.engine.tuner import TuneResult, autotune
from repro.engine.workspace import Workspace
from repro.obs import profile as _profile
from repro.ops.registry import (
    KernelVariant,
    get_variant,
    kernels_for,
    variants_for,
)
from repro.ops.spmm_kernels import rhs_block, spmm_dispatch, spmv_dispatch
from repro.formats.base import SparseMatrixFormat

__all__ = ["BoundMatrix", "bind"]


class BoundMatrix:
    """A format instance bound to a workspace and a chosen kernel variant.

    The variant is the spmv kernel only.  :meth:`spmm` runs the
    format's rank-0 spmm kernel (:attr:`spmm_kernel`), whatever the
    variant, so a batch's bits never depend on it.
    """

    def __init__(
        self,
        matrix: SparseMatrixFormat,
        variant: KernelVariant,
        workspace: Workspace,
        tune_result: TuneResult | None = None,
        faults=None,
        label: str | None = None,
    ):
        self.matrix = matrix
        self.variant = variant
        #: the format's rank-0 spmm kernel, which :meth:`spmm` runs;
        #: ``None`` when the format has none (batches loop over columns)
        self.spmm_kernel = next(iter(kernels_for(matrix, "spmm")), None)
        self.workspace = workspace
        self.tune_result = tune_result
        #: optional :class:`~repro.faults.inject.FaultInjector`; its
        #: engine-layer events fire at the top of :meth:`spmv`
        self.faults = faults
        #: attribution-table identity of the *matrix* (formats of the
        #: same matrix share it); the serve registry sets the served
        #: name here, anonymous handles get a shape-derived default
        self.matrix_label = label or f"m{matrix.nrows}x{matrix.ncols}"
        self.calls = 0
        # per-handle instrumentation cache: (metrics generation,
        # profiler generation, counter child, spmv slot, spmm slot,
        # Eq.-1 balance).  Resolving the labeled counter child and the
        # profiler slot once per handle keeps the instrumented hot
        # path to an attribute read + a couple of float adds — the
        # --obs-overhead gate budget.
        self._obs_cache: tuple | None = None

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    @property
    def variant_name(self) -> str:
        return self.variant.name

    @property
    def spmm_variant_name(self) -> str:
        """Name of the batch kernel (``spmm_percolumn`` when none)."""
        k = self.spmm_kernel
        return k.name if k is not None else "spmm_percolumn"

    # ------------------------------------------------------------------
    def _obs_state(self) -> tuple:
        """Cached instrumentation handles (valid for one obs generation)."""
        reg = obs.get_registry()
        prof = _profile.get_profiler()
        cache = self._obs_cache
        if (
            cache is not None
            and cache[0] == reg.generation
            and cache[1] == prof.generation
        ):
            return cache
        m = self.matrix
        nnzr = m.nnz / max(m.nrows, 1)
        cache = (
            reg.generation,
            prof.generation,
            reg.counter("engine_spmv_total").labels(
                format=m.name, variant=self.variant.name
            ),
            prof.slot(self.matrix_label, m.name, self.variant.name, "spmv"),
            prof.slot(self.matrix_label, m.name, self.spmm_variant_name, "spmm"),
            _profile.model_bytes_per_flop(max(nnzr, 1e-9)),
        )
        self._obs_cache = cache
        return cache

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x`` through the bound (tuned, workspace) kernel.

        With a caller-provided ``out`` the steady state performs no
        allocation at all.  Under instrumentation the call feeds the
        attribution profiler and — when a span is open on this thread,
        i.e. the call belongs to a trace — records an ``engine.spmv``
        kernel span annotated with achieved vs Eq.-1 model bandwidth.
        """
        m = self.matrix
        if self.faults is not None:
            # chaos hook: kernel_exception raises, slow_worker sleeps
            self.faults.engine_fault(format=m.name, variant=self.variant.name)
        x = m.check_rhs(x)
        y = m.alloc_result(out, x)
        self.calls += 1
        if not obs.enabled():
            return spmv_dispatch(m, x, y, self.workspace, self.variant)
        _, _, counter, slot, _, balance = self._obs_state()
        counter.inc()
        tracer = obs.get_tracer()
        traced = tracer.current() is not None
        n = _profile.get_profiler().sample_every
        slot.calls += 1
        sampled = n > 0 and slot.calls % n == 1 % n
        if not (traced or sampled):
            return spmv_dispatch(m, x, y, self.workspace, self.variant)
        if traced:
            with tracer.span(
                "engine.spmv",
                matrix=self.matrix_label,
                format=m.name,
                variant=self.variant.name,
            ) as sp:
                t0 = time.perf_counter()
                spmv_dispatch(m, x, y, self.workspace, self.variant)
                dt = time.perf_counter() - t0
                gflops = 2.0 * m.nnz / dt / 1e9 if dt > 0 else 0.0
                sp.set_attr("gflops", gflops)
                sp.set_attr("gbs", gflops * balance)
                sp.set_attr("model_balance", balance)
        else:
            t0 = time.perf_counter()
            spmv_dispatch(m, x, y, self.workspace, self.variant)
            dt = time.perf_counter() - t0
        if sampled:
            slot.add(
                _profile.KernelSample(
                    matrix=self.matrix_label,
                    fmt=m.name,
                    variant=self.variant.name,
                    op="spmv",
                    seconds=dt,
                    nnz=m.nnz,
                    nnzr=m.nnz / max(m.nrows, 1),
                )
            )
        return y

    def spmv_permuted(self, x_perm: np.ndarray) -> np.ndarray:
        """Stored-basis product for the Sect. II-A Krylov workflow.

        Only jagged formats (whose variants understand the permuted
        column indices) support this; the result is written into a
        persistent staging buffer — copy it if you need it to survive
        the next call.
        """
        m = self.matrix
        if not self.variant.supports_permuted:
            raise TypeError(
                f"variant {self.variant.name!r} has no permuted-basis kernel"
            )
        if m.nrows != m.ncols:
            raise ValueError("permuted-basis spmv requires a square matrix")
        x_perm = m.check_rhs(x_perm)
        y = self.workspace.buf("bound_yperm", m.nrows, m.dtype)
        self.calls += 1
        return spmv_dispatch(
            m, x_perm, y, self.workspace, self.variant, permuted=True
        )

    def spmm(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched multi-vector product through :attr:`spmm_kernel`.

        ``X`` and ``out`` may have any memory order.  For a format with
        a ``*_scipy`` spmv variant, every column is bitwise that spmv.
        Instrumented like :meth:`spmv`: profiler sample per call (the
        batch path is cold enough that thinning isn't needed) and an
        ``engine.spmm`` kernel span when a trace is active — this is
        the span a served batch's trace tree bottoms out in.
        """
        X, out = self.matrix.check_rhs_block(X, out)
        self.calls += 1
        m = self.matrix
        kernel = self.spmm_kernel
        if not obs.enabled():
            return spmm_dispatch(m, X, out, self.workspace, kernel)
        _, _, _, _, slot, balance = self._obs_state()
        block = int(X.shape[1])
        tracer = obs.get_tracer()
        slot.calls += 1
        if tracer.current() is not None:
            with tracer.span(
                "engine.spmm",
                matrix=self.matrix_label,
                format=m.name,
                variant=self.spmm_variant_name,
                block=block,
            ) as sp:
                t0 = time.perf_counter()
                y = spmm_dispatch(m, X, out, self.workspace, kernel)
                dt = time.perf_counter() - t0
                gflops = 2.0 * m.nnz * block / dt / 1e9 if dt > 0 else 0.0
                sp.set_attr("gflops", gflops)
                sp.set_attr("gbs", gflops * balance)
                sp.set_attr("model_balance", balance)
        else:
            t0 = time.perf_counter()
            y = spmm_dispatch(m, X, out, self.workspace, kernel)
            dt = time.perf_counter() - t0
        slot.add(
            _profile.KernelSample(
                matrix=self.matrix_label,
                fmt=m.name,
                variant=self.spmm_variant_name,
                op="spmm",
                seconds=dt,
                nnz=m.nnz,
                nnzr=m.nnz / max(m.nrows, 1),
                block=block,
            )
        )
        return y

    def rhs_block(self, k: int) -> np.ndarray:
        """A ``(ncols, k)`` block of this handle's workspace that
        :meth:`spmm` reads without copying it: stack a batch here.  The
        next batch on this handle overwrites it."""
        return rhs_block(self.matrix, self.workspace, k)

    def clone(self) -> "BoundMatrix":
        """A new handle sharing the matrix + tune decision, fresh workspace.

        A :class:`BoundMatrix` is **not** safe to call from two threads
        at once: ``spmv``/``spmm`` scribble into the handle's named
        :class:`~repro.engine.workspace.Workspace` buffers, so
        concurrent calls corrupt each other's scratch.  ``clone()`` is
        the supported way to share one tuned matrix across workers — the
        (read-only) matrix data and the autotuner's variant decision are
        shared, while every clone owns private scratch.  The matrix registry of
        :mod:`repro.serve` hands each worker its own clone.

        The fault injector (when set) is shared by clones: its firing
        state is thread-safe and per-event budgets are global, so a
        ``times=1`` engine fault fires exactly once across all workers.
        """
        return BoundMatrix(
            self.matrix, self.variant, Workspace(), self.tune_result,
            faults=self.faults, label=self.matrix_label,
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BoundMatrix {self.matrix.name} {self.nrows}x{self.ncols} "
            f"variant={self.variant.name} calls={self.calls}>"
        )


def bind(
    matrix: SparseMatrixFormat,
    *,
    tune: bool = True,
    variant: str | None = None,
    reps: int = 3,
    seed: int = 0,
    cache=None,
    use_cache: bool = True,
    faults=None,
    label: str | None = None,
) -> BoundMatrix:
    """Bind ``matrix`` to a workspace and a kernel variant.

    ``variant`` forces a specific kernel by name; otherwise the
    autotuner runs (``tune=True``, cached per fingerprint) or the
    format's first-listed variant is taken (``tune=False``).
    ``faults`` attaches a :class:`~repro.faults.inject.FaultInjector`
    whose engine-layer events fire inside :meth:`BoundMatrix.spmv`.
    ``label`` names the matrix in profiler attribution tables.
    A format with no registered spmv kernel raises ``TypeError``.
    """
    if not variants_for(matrix):
        raise TypeError(f"no spmv kernel registered for format {matrix.name!r}")
    tr = None
    if variant is not None:
        chosen = get_variant(matrix, variant)
    elif tune:
        with obs.span("engine.bind", format=matrix.name):
            tr = autotune(
                matrix, reps=reps, seed=seed, cache=cache,
                use_cache=use_cache,
            )
        chosen = get_variant(matrix, tr.variant)
    else:
        chosen = variants_for(matrix)[0]
    return BoundMatrix(
        matrix, chosen, Workspace(), tr, faults=faults, label=label
    )
