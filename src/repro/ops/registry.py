"""Central kernel registry: (format class, op) -> ordered kernel specs.

The paper's core claim (Sect. II) is that spMVM performance is a
property of the *kernel chosen for a format*, not of the caller.
Related GPU-format work (Kreutzer et al. 2012; Koza et al., CMRS)
treats format<->kernel binding as a pluggable registry decision; this
module is that registry.  Every kernel table (spmv and batched spmm)
lives here, and every consumer — the autotuner roster, :class:`~repro.engine.bound.BoundMatrix`,
the solvers' operator layer, the distributed runtime, and
the serving registry — resolves kernels through the same tables, so
one tuned decision flows everywhere.

Kernels are declared with the :func:`register_kernel` decorator::

    @register_kernel(COOMatrix, "spmv", name="coo_scipy", tags=("scipy",))
    def _coo_scipy(m, ws, x, y, permuted=False): ...

Resolution walks the matrix class's MRO, so subclasses (ELLPACK-R,
ELLR-T, pJDS, ...) inherit their base format's kernels unless they
register their own.  Every format of the package registers a spmv
kernel, and the unbound :meth:`SparseMatrixFormat.spmv
<repro.formats.base.SparseMatrixFormat.spmv>` runs the rank-0 one
(through :func:`repro.ops.spmm_kernels.spmv_dispatch`), so there is
no per-format spmv body outside this registry; a format registered
nowhere must override ``spmv`` itself.

Kernel contracts (per ``op``):

``spmv``
    ``run(matrix, ws, x, y_stored, permuted=False)`` fully writes
    ``y_stored`` (length ``nrows``) in the format's *stored* row
    order; ``x`` is already coerced to the matrix dtype.  The rank-0
    kernel is what the unbound ``spmv``, an untuned bound matrix and
    every distributed rank run.
``spmm``
    ``run(matrix, X, out, ws)`` with ``(ncols, k)`` X, writing the
    *original*-order ``(nrows, k)`` result into ``out``; both may have
    any memory order.  Every batch runs the rank-0 kernel, and that
    kernel never hands off to another one.  Every format with a
    stored-CSR view registers the one batch body
    (:func:`repro.ops.spmm_kernels.stored_spmm`) with a compiled sweep.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = [
    "KernelSpec",
    "KernelVariant",
    "OPS",
    "CNATIVE_TAG",
    "STORED_CSR_TAG",
    "register_kernel",
    "kernels_for",
    "kernel_names_for",
    "get_kernel",
    "registry_rows",
    "variants_for",
    "variant_names_for",
    "get_variant",
]

#: operations the registry understands
OPS = ("spmv", "spmm")

#: tag of the compiled C tier (:mod:`repro.kernels.compiled`).  Its
#: spmv kernels rank after the scipy ones (the autotuner ranks spmv
#: per matrix) and its spmm kernels rank first (nothing tunes spmm;
#: the compiled one gives the same bits in less time), whatever module
#: registers first
CNATIVE_TAG = "cnative"

#: tag of the scipy delegates that sweep a format's stored-order CSR
#: view (:func:`repro.ops.spmv_kernels.stored_csr_triplet`) rather
#: than its own arrays: the format shootout's row-order baseline
STORED_CSR_TAG = "stored-csr"


@dataclass(frozen=True)
class KernelSpec:
    """One interchangeable kernel implementation for a (format, op) pair."""

    name: str
    run: Callable[..., None]
    #: supports the permuted-basis (stored-order in, stored-order out)
    #: solver path of jagged formats
    supports_permuted: bool = False
    #: free-form labels ("scipy", "stored-csr", "cnative") surfaced
    #: by ``repro ops list`` and usable for roster filtering
    tags: tuple[str, ...] = ()


#: the engine layer's name for a spmv kernel spec
KernelVariant = KernelSpec

_REGISTRY: dict[tuple[type, str], list[KernelSpec]] = {}
_LOCK = threading.RLock()
_LOADED = False


def register_kernel(
    fmt_cls: type,
    op: str = "spmv",
    *,
    name: str,
    supports_permuted: bool = False,
    tags: Iterable[str] = (),
):
    """Decorator registering a kernel for ``fmt_cls`` (and subclasses).

    Kernels join the candidate list in registration order, so the
    first one registered is the best-guess default taken when tuning
    is off.  Kernels tagged
    :data:`CNATIVE_TAG` are kept behind every other spmv kernel and
    ahead of every other spmm kernel, whichever module registers
    first.  Registering the same name twice for one (format, op) pair
    raises unless it is the identical function (idempotent
    re-registration, e.g. module reloads).
    """
    if op not in OPS:
        raise ValueError(f"op must be one of {OPS}, got {op!r}")
    if not isinstance(fmt_cls, type):
        raise TypeError(
            f"register_kernel expects a format class, got {type(fmt_cls).__name__}"
        )

    def decorate(fn: Callable[..., None]) -> Callable[..., None]:
        spec = KernelSpec(
            name=name,
            run=fn,
            supports_permuted=supports_permuted,
            tags=tuple(tags),
        )
        with _LOCK:
            lst = _REGISTRY.setdefault((fmt_cls, op), [])
            for existing in lst:
                if existing.name == name:
                    if existing.run is fn:
                        return fn  # idempotent
                    raise ValueError(
                        f"kernel {name!r} already registered for "
                        f"{fmt_cls.__name__}/{op} with a different function"
                    )
            lst.append(spec)
            # stable: each tier keeps its registration order
            lst.sort(key=lambda s: (CNATIVE_TAG in s.tags) == (op == "spmv"))
        return fn

    return decorate


def _ensure_loaded() -> None:
    """Import the kernel modules once so their decorators have run."""
    global _LOADED
    if _LOADED:
        return
    with _LOCK:
        if _LOADED:
            return
        from repro.ops import spmm_kernels, spmv_kernels  # noqa: F401

        # optional compiled tier (cnative); the module imports cleanly
        # and registers nothing when no backend is available
        from repro.kernels import compiled  # noqa: F401

        _LOADED = True


def _resolve(cls: type, op: str) -> list[KernelSpec]:
    for c in cls.__mro__:
        lst = _REGISTRY.get((c, op))
        if lst:
            return lst
    return []


def kernels_for(matrix, op: str = "spmv") -> list[KernelSpec]:
    """Candidate kernels for a matrix (or format class), best-guess first.

    The list is empty for a format nobody registered a kernel for:
    its spmv then raises ``TypeError`` and its spmm loops over
    columns of its (overridden) spmv.
    """
    if op not in OPS:
        raise ValueError(f"op must be one of {OPS}, got {op!r}")
    _ensure_loaded()
    cls = matrix if isinstance(matrix, type) else type(matrix)
    return list(_resolve(cls, op))


def kernel_names_for(matrix, op: str = "spmv") -> list[str]:
    return [k.name for k in kernels_for(matrix, op)]


def get_kernel(matrix, name: str, op: str = "spmv") -> KernelSpec:
    """Look up one kernel by name (raises ``KeyError`` when unknown)."""
    for k in kernels_for(matrix, op):
        if k.name == name:
            return k
    cls = matrix if isinstance(matrix, type) else type(matrix)
    raise KeyError(
        f"no variant {name!r} for {cls.__name__}; "
        f"candidates: {kernel_names_for(matrix, op)}"
    )


def registry_rows() -> list[dict]:
    """Flat, deterministic snapshot of the registry for introspection.

    One dict per registered kernel:
    ``{"format", "op", "variant", "supports_permuted", "tags", "rank"}``
    where ``rank`` is the kernel's position in its candidate list
    (rank 0 is the untuned default).
    """
    _ensure_loaded()

    def _fmt_name(cls: type) -> str:
        # an abstract base (JaggedDiagonalsBase.name == "abstract")
        # reads as the formats it serves, e.g. "JDS/pJDS"
        n = getattr(cls, "name", cls.__name__)
        if n != "abstract":
            return n
        from repro.formats import FORMATS, available_formats

        served = [f for f in available_formats() if issubclass(FORMATS[f], cls)]
        return "/".join(served) or cls.__name__

    rows = []
    with _LOCK:
        items = sorted(
            _REGISTRY.items(),
            key=lambda kv: (_fmt_name(kv[0][0]), kv[0][1]),
        )
        for (cls, op), specs in items:
            fmt = _fmt_name(cls)
            for rank, s in enumerate(specs):
                rows.append(
                    {
                        "format": fmt,
                        "op": op,
                        "variant": s.name,
                        "supports_permuted": s.supports_permuted,
                        "tags": list(s.tags),
                        "rank": rank,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# spmv shorthands
# ---------------------------------------------------------------------------

def variants_for(matrix) -> list[KernelSpec]:
    """Candidate spmv kernels for a matrix, best-guess first."""
    return kernels_for(matrix, "spmv")


def variant_names_for(matrix) -> list[str]:
    return kernel_names_for(matrix, "spmv")


def get_variant(matrix, name: str) -> KernelSpec:
    """Look up one spmv kernel by name (``KeyError`` when unknown)."""
    return get_kernel(matrix, name, "spmv")
