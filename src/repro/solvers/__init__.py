"""spMVM-dominated solvers using the permuted-basis workflow (Sect. II-A).

Every solver takes a raw format, an engine-bound matrix or any
:class:`~repro.ops.protocol.LinearOperator`, and iterates on
:func:`repro.ops.solver_operator` of it.  A raw format runs its
untuned rank-0 kernel; a caller who wants tuned kernels passes
``bind(m)``.
"""

from repro.ops.protocol import PermutedOperator
from repro.solvers.bicgstab import BiCGSTABResult, bicgstab
from repro.solvers.cg import CGResult, conjugate_gradient
from repro.solvers.kpm import KPMResult, jackson_kernel, kpm_spectral_density
from repro.solvers.lanczos import LanczosResult, lanczos
from repro.solvers.power import PowerResult, power_iteration

__all__ = [
    "BiCGSTABResult",
    "bicgstab",
    "CGResult",
    "conjugate_gradient",
    "KPMResult",
    "jackson_kernel",
    "kpm_spectral_density",
    "LanczosResult",
    "lanczos",
    "PermutedOperator",
    "PowerResult",
    "power_iteration",
]
