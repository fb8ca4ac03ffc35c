"""repro — pJDS spMVM on (simulated) GPGPU clusters.

Reproduction of M. Kreutzer et al., "Sparse matrix-vector
multiplication on GPGPU clusters: A new storage format and a scalable
implementation" (IPDPS Workshops, 2012).

Public API layers:

* :mod:`repro.formats` — COO/CRS/ELLPACK/ELLPACK-R substrate formats
* :mod:`repro.core` — pJDS, JDS, SELL-C-sigma (the contribution)
* :mod:`repro.kernels` — paper-listing reference + compiled spMVM kernels
* :mod:`repro.gpu` — mechanistic Fermi-class device model
* :mod:`repro.perfmodel` — Eqs. (1)-(4) + the Westmere CPU baseline
* :mod:`repro.matrices` — the (synthetic) paper matrix suite
* :mod:`repro.distributed` — multi-GPGPU layer (Sect. III)
* :mod:`repro.solvers` — CG / Lanczos / power iteration
"""

from repro.core import JDSMatrix, Permutation, PJDSMatrix, SELLMatrix
from repro.formats import (
    COOMatrix,
    CSRMatrix,
    ELLPACKMatrix,
    ELLPACKRMatrix,
    available_formats,
    convert,
)

__version__ = "1.0.0"

__all__ = [
    "JDSMatrix",
    "Permutation",
    "PJDSMatrix",
    "SELLMatrix",
    "COOMatrix",
    "CSRMatrix",
    "ELLPACKMatrix",
    "ELLPACKRMatrix",
    "available_formats",
    "convert",
    "__version__",
]
