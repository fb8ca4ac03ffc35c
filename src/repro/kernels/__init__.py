"""spMVM reference kernels: literal transcriptions of the paper listings.

The fast kernels live in the central registry (:mod:`repro.ops`) and
the compiled tier (:mod:`repro.kernels.compiled`).
"""

from repro.kernels.reference import (
    csr_spmv_reference,
    ellpack_r_spmv_reference,
    ellpack_spmv_reference,
    pjds_spmv_reference,
)

__all__ = [
    "csr_spmv_reference",
    "ellpack_r_spmv_reference",
    "ellpack_spmv_reference",
    "pjds_spmv_reference",
]
