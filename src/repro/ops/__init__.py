"""repro.ops — unified operator protocol and central kernel registry.

One import point for the two cross-cutting abstractions of the
package:

* the **kernel registry** — every (format, op) kernel table lives in
  :mod:`repro.ops.registry`; formats register implementations with
  :func:`register_kernel` and every consumer (autotuner, engine,
  solvers, distributed runtime, serving) resolves through
  :func:`kernels_for` / :func:`get_kernel`;
* the **LinearOperator protocol** — :mod:`repro.ops.protocol` defines
  the minimal ``apply``/``apply_block``/``shape``/``dtype`` surface
  the solvers code against.  A raw format or an engine-bound matrix
  becomes a :class:`BoundOperator` (a raw format binds untuned); the
  distributed :class:`~repro.distributed.runtime.RankPool` and the
  serve fleet's ``RoutedOperator`` are operators themselves.
"""

from repro.ops.protocol import (
    BoundOperator,
    CountingOperator,
    LinearOperator,
    PermutedOperator,
    apply_repeated,
    as_linear_operator,
    solver_operator,
)
from repro.ops.registry import (
    OPS,
    KernelSpec,
    KernelVariant,
    get_kernel,
    get_variant,
    kernel_names_for,
    kernels_for,
    register_kernel,
    registry_rows,
    variant_names_for,
    variants_for,
)
from repro.ops.spmv_kernels import stored_csr_triplet

__all__ = [
    # registry
    "OPS",
    "KernelSpec",
    "KernelVariant",
    "register_kernel",
    "kernels_for",
    "kernel_names_for",
    "get_kernel",
    "registry_rows",
    "variants_for",
    "variant_names_for",
    "get_variant",
    "stored_csr_triplet",
    "spmv_dispatch",
    "spmm_dispatch",
    "spmm_permuted",
    # compiled tier introspection
    "kernel_tiers",
    "backend_status",
    # protocol
    "LinearOperator",
    "BoundOperator",
    "PermutedOperator",
    "CountingOperator",
    "as_linear_operator",
    "solver_operator",
    "apply_repeated",
]


def __getattr__(name):
    # the dispatchers import the format classes (and thus most of the
    # package); resolve them lazily to keep ``import repro.ops`` cheap
    # and cycle-free.
    if name in ("spmv_dispatch", "spmm_dispatch", "spmm_permuted"):
        from repro.ops import spmm_kernels

        return getattr(spmm_kernels, name)
    # the compiled tier builds/loads its shared library on first touch;
    # resolve lazily so ``import repro.ops`` stays cheap
    if name in ("kernel_tiers", "backend_status"):
        from repro.kernels import compiled

        return getattr(compiled, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
