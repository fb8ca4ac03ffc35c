"""Baseline sparse storage formats (substrate layer).

COO is the interchange format, CRS the CPU baseline of Table I,
ELLPACK/ELLPACK-R the GPU baselines the pJDS contribution is measured
against (Sect. II-A).
"""

from repro.formats.base import (
    INDEX_DTYPE,
    STORED_INDEX_DTYPE,
    IndexRangeError,
    SparseMatrixFormat,
    index_nbytes,
)
from repro.formats.conversions import (
    FORMATS,
    available_formats,
    convert,
    register_format,
)
from repro.formats.argcsr import ARGCSRMatrix
from repro.formats.bellpack import BELLPACKMatrix
from repro.formats.cmrs import CMRSMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.ellpack import ELLPACKMatrix
from repro.formats.ellpack_r import ELLPACKRMatrix
from repro.formats.ellr_t import ELLRTMatrix
from repro.formats.verify import FormatInvariantError, verify_format

__all__ = [
    "INDEX_DTYPE",
    "STORED_INDEX_DTYPE",
    "IndexRangeError",
    "SparseMatrixFormat",
    "index_nbytes",
    "FORMATS",
    "available_formats",
    "convert",
    "register_format",
    "ARGCSRMatrix",
    "BELLPACKMatrix",
    "CMRSMatrix",
    "COOMatrix",
    "CSRMatrix",
    "ELLPACKMatrix",
    "ELLPACKRMatrix",
    "ELLRTMatrix",
    "FormatInvariantError",
    "verify_format",
]
