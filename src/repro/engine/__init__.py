"""Zero-allocation autotuned SpMV/SpMM execution engine.

The engine layer turns a *storage format* (the :mod:`repro.formats` /
:mod:`repro.core` classes, which describe how nonzeros are laid out)
into an *execution state*: a matrix **bound** to a persistent
workspace and the kernel variant that the autotuner measured to be
fastest for its structure.

* :mod:`repro.engine.workspace` — named, reusable scratch buffers so
  steady-state kernel calls perform no allocation.
* :mod:`repro.ops` — the central kernel registry the engine resolves
  variants from (per format: a scipy delegate, one NumPy kernel, the
  optional cnative kernel, and the batched SpMM kernels).
* :mod:`repro.engine.tuner` — times the format's compiled candidates
  (its NumPy kernels only when it has none) on the live matrix and
  caches the decision under a structural fingerprint.
* :mod:`repro.engine.bound` — :class:`BoundMatrix` and :func:`bind`;
  solvers reach a bound matrix through
  :class:`repro.ops.BoundOperator`.

``variants_for``/``get_variant``/``spmm_dispatch``/``spmm_permuted``
are canonical re-exports from :mod:`repro.ops`.
"""

from repro.engine.bound import BoundMatrix, bind
from repro.engine.tuner import (
    TuneResult,
    autotune,
    default_tuner_cache,
    fingerprint,
    tune_candidates,
)
from repro.engine.workspace import Workspace
from repro.ops.registry import KernelVariant, get_variant, variants_for
from repro.ops.spmm_kernels import spmm_dispatch, spmm_permuted

__all__ = [
    "BoundMatrix",
    "KernelVariant",
    "TuneResult",
    "Workspace",
    "autotune",
    "bind",
    "default_tuner_cache",
    "fingerprint",
    "get_variant",
    "spmm_dispatch",
    "spmm_permuted",
    "tune_candidates",
    "variants_for",
]
