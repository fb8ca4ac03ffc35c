"""Kernel access-trace extraction from the actual storage arrays.

The executor's byte accounting is *mechanistic*: for every format we
enumerate the (warp, iteration) slots its CUDA kernel would execute and
the device-memory addresses each slot touches, straight from the same
``val``/``col_idx`` arrays the kernels read.  Nothing is fitted.

A trace lists one record per *executed slot* (an active lane in one
warp-iteration):

* ``unit`` — execution-order id: warps are processed in resident
  groups of ``device.resident_warps``; within a group all warps advance
  through their iterations ``j`` together, group after group.  One unit
  is one (group, j) pair; the cache model deduplicates transactions
  per unit and measures reuse distance in units.
* ``val_line`` / ``idx_line`` — 128-byte device-memory line holding the
  matrix entry / its column index;
* ``rhs_line`` — line of the gathered RHS element.

Plain ELLPACK executes (and therefore loads) its zero fill; ELLPACK-R
skips it but leaves warp slots reserved; pJDS's sorted prefix keeps
active lanes contiguous.  All three behaviours emerge from the slot
enumeration below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.jds import JaggedDiagonalsBase
from repro.core.sell import SELLMatrix
from repro.formats.base import SparseMatrixFormat
from repro.formats.ellpack import ELLPACKMatrix
from repro.formats.ellpack_r import ELLPACKRMatrix
from repro.gpu.device import DeviceSpec, Precision, precision_dtype

__all__ = ["KernelTrace", "extract_trace"]

#: guard against accidentally materialising a gigantic plain-ELLPACK trace
MAX_TRACE_SLOTS = 80_000_000


@dataclass
class KernelTrace:
    """Addresses and scheduling of one spMVM kernel invocation."""

    format_name: str
    precision: Precision
    nrows: int
    nnz: int
    #: executed slots in execution order (sorted by unit)
    unit: np.ndarray
    val_line: np.ndarray
    idx_line: np.ndarray
    rhs_line: np.ndarray
    #: total warp-iterations *reserved* (a warp holds its slot until its
    #: longest lane finishes — the light boxes of Fig. 2)
    reserved_steps: int
    #: distinct (warp, j) pairs actually issued
    active_steps: int
    #: bytes of result-vector traffic (read + write of c[])
    lhs_bytes: int
    #: bytes of auxiliary array traffic charged to memory (rowmax etc.)
    aux_bytes: int
    #: per-(warp, iteration) deduplicated val/col_idx transactions —
    #: what the L2 interconnect serves (coalesced formats: ~1-2 per
    #: warp-step; scalar CSR: up to one per lane)
    val_transactions: int = 0
    idx_transactions: int = 0

    @property
    def executed_slots(self) -> int:
        return int(self.unit.shape[0])


def extract_trace(
    matrix: SparseMatrixFormat,
    device: DeviceSpec,
    precision: Precision | None = None,
) -> KernelTrace:
    """Build the :class:`KernelTrace` of ``matrix``'s kernel on ``device``.

    ``precision`` defaults to the matrix dtype ("SP" for float32).
    """
    if precision is None:
        precision = "SP" if matrix.dtype == np.float32 else "DP"
    itemsize = precision_dtype(precision).itemsize
    from repro.formats.argcsr import ARGCSRMatrix
    from repro.formats.bellpack import BELLPACKMatrix
    from repro.formats.cmrs import CMRSMatrix
    from repro.formats.csr import CSRMatrix
    from repro.formats.ellr_t import ELLRTMatrix

    if isinstance(matrix, JaggedDiagonalsBase):
        return _trace_jagged(matrix, device, precision, itemsize)
    if isinstance(matrix, SELLMatrix):
        return _trace_sell(matrix, device, precision, itemsize)
    if isinstance(matrix, BELLPACKMatrix):
        return _trace_bellpack(matrix, device, precision, itemsize)
    if isinstance(matrix, ELLRTMatrix):
        return _trace_ellr_t(matrix, device, precision, itemsize)
    if isinstance(matrix, ELLPACKRMatrix):
        return _trace_ellpack(matrix, device, precision, itemsize, skip_padding=True)
    if isinstance(matrix, ELLPACKMatrix):
        return _trace_ellpack(matrix, device, precision, itemsize, skip_padding=False)
    if isinstance(matrix, CMRSMatrix):
        return _trace_cmrs(matrix, device, precision, itemsize)
    if isinstance(matrix, ARGCSRMatrix):
        return _trace_argcsr(matrix, device, precision, itemsize)
    if isinstance(matrix, CSRMatrix):
        return _trace_csr_scalar(matrix, device, precision, itemsize)
    raise TypeError(
        f"no GPU kernel trace for format {type(matrix).__name__}; "
        "supported: ELLPACK, ELLPACK-R, ELLR-T, BELLPACK, JDS, pJDS, "
        "SELL-C-sigma, CMRS, ARG-CSR, CRS"
    )


def _finalize(
    matrix: SparseMatrixFormat,
    device: DeviceSpec,
    precision: Precision,
    itemsize: int,
    *,
    pos: np.ndarray,
    col: np.ndarray,
    j: np.ndarray,
    stored_row: np.ndarray,
    stored_lengths: np.ndarray,
    rowmax_array: bool,
    rows_per_warp: int | None = None,
) -> KernelTrace:
    """Assemble a trace from slot positions / columns / schedule indices.

    ``rows_per_warp`` defaults to the warp size; ELLR-T passes
    ``warp_size / T`` because T threads cooperate on each row.
    ``stored_lengths`` must already be in *warp-iteration* units
    (i.e. divided by T for ELLR-T).
    """
    ws = rows_per_warp if rows_per_warp is not None else device.warp_size
    warp = stored_row // ws
    group = warp // max(device.resident_warps, 1)
    width = int(j.max()) + 1 if j.size else 1
    unit = group * width + j
    step = j * (int(warp.max()) + 1 if warp.size else 1) + warp

    line = device.cache_line_bytes
    val_line = (pos * itemsize) // line
    idx_line = (pos * 4) // line
    # col may be a stored int32 array: widen before the byte offset
    rhs_line = (col.astype(np.int64) * itemsize) // line

    order = np.argsort(unit, kind="stable")
    unit = unit[order]
    val_line = val_line[order]
    idx_line = idx_line[order]
    rhs_line = rhs_line[order]
    active_steps = int(np.unique(step).shape[0]) if step.size else 0

    step_sorted = step[order]

    def _transactions(lines: np.ndarray) -> int:
        """Distinct (warp-step, line) pairs: one 128-byte transaction
        serves every lane of a warp touching the same line in the same
        iteration; different warps or iterations issue their own."""
        if lines.size == 0:
            return 0
        key = np.lexsort((lines, step_sorted))
        ls, ss = lines[key], step_sorted[key]
        first = np.empty(ls.shape[0], dtype=bool)
        first[0] = True
        first[1:] = (ss[1:] != ss[:-1]) | (ls[1:] != ls[:-1])
        return int(np.count_nonzero(first))

    val_tr = _transactions(val_line)
    idx_tr = _transactions(idx_line)

    nwarps = -(-stored_lengths.shape[0] // ws)
    per_warp = np.zeros(nwarps, dtype=np.int64)
    np.maximum.at(
        per_warp, np.arange(stored_lengths.shape[0]) // ws, stored_lengths
    )
    reserved = int(per_warp.sum())

    lhs = 2 * itemsize * matrix.nrows
    aux = 4 * matrix.nrows if rowmax_array else 0
    return KernelTrace(
        matrix.name,
        precision,
        matrix.nrows,
        matrix.nnz,
        unit,
        val_line,
        idx_line,
        rhs_line,
        reserved,
        active_steps,
        lhs,
        aux,
        val_transactions=val_tr,
        idx_transactions=idx_tr,
    )


def _trace_ellpack(
    matrix: ELLPACKMatrix,
    device: DeviceSpec,
    precision: Precision,
    itemsize: int,
    *,
    skip_padding: bool,
) -> KernelTrace:
    width = matrix.width
    npad = matrix.padded_rows
    total = width * npad
    if total > MAX_TRACE_SLOTS:
        raise MemoryError(
            f"ELLPACK trace would hold {total} slots (> {MAX_TRACE_SLOTS}); "
            "use a smaller matrix scale"
        )
    # slot (j, i): flat storage offset j*npad + i (column-major rectangle)
    j = np.repeat(np.arange(width, dtype=np.int64), npad)
    i = np.tile(np.arange(npad, dtype=np.int64), width)
    row_lengths = matrix._row_lengths  # noqa: SLF001 - padded-row lengths
    if skip_padding:
        active = row_lengths[i] > j
        j = j[active]
        i = i[active]
    pos = j * npad + i
    col = matrix.col.reshape(-1)[pos]
    stored_lengths = row_lengths if skip_padding else np.full(npad, width, np.int64)
    return _finalize(
        matrix,
        device,
        precision,
        itemsize,
        pos=pos,
        col=col,
        j=j,
        stored_row=i,
        stored_lengths=stored_lengths,
        rowmax_array=skip_padding,
    )


def _trace_csr_scalar(
    matrix,
    device: DeviceSpec,
    precision: Precision,
    itemsize: int,
) -> KernelTrace:
    """Scalar CSR kernel (Bell & Garland's baseline): one thread per row.

    Thread ``i`` streams ``val[indptr[i] + j]`` — at iteration ``j`` a
    warp's 32 lanes sit at 32 *unrelated* flat positions, so almost
    every load is its own transaction.  This is the uncoalesced access
    pattern whose cost made ELLPACK the GPU standard (ref. [1] of the
    paper); tracing it quantifies the motivation.
    """
    indptr = np.asarray(matrix.indptr, dtype=np.int64)
    lengths = np.diff(indptr)
    n = matrix.nrows
    total = matrix.nnz
    if total > MAX_TRACE_SLOTS:
        raise MemoryError("CSR trace too large; use a smaller scale")
    row = np.repeat(np.arange(n, dtype=np.int64), lengths)
    j = np.arange(total, dtype=np.int64) - indptr[row]
    pos = np.arange(total, dtype=np.int64)  # flat CSR position
    col = np.asarray(matrix.indices, dtype=np.int64)
    return _finalize(
        matrix,
        device,
        precision,
        itemsize,
        pos=pos,
        col=col,
        j=j,
        stored_row=row,
        stored_lengths=lengths,
        rowmax_array=True,  # row pointer plays the rowmax role
    )


def _trace_bellpack(
    matrix,
    device: DeviceSpec,
    precision: Precision,
    itemsize: int,
) -> KernelTrace:
    """BELLPACK: one thread per scalar row; each thread streams the
    ``bc`` values of every non-empty block in its block-row.

    Like plain ELLPACK, the kernel computes the explicit zeros inside
    partially-filled blocks — the fill ratio is paid in both transfers
    and flops, which is exactly why the format needs true block
    structure to win.
    """
    br, bc = matrix.block_shape
    nbr = matrix.nblockrows
    blocks = np.asarray(matrix.blocks_per_row, dtype=np.int64)
    total_blocks = int(blocks.sum())
    if total_blocks * br * bc > MAX_TRACE_SLOTS:
        raise MemoryError("BELLPACK trace too large; use a smaller scale")

    # enumerate active (slot j, block-row B) pairs
    block_row = np.repeat(np.arange(nbr, dtype=np.int64), blocks)
    starts = np.zeros(nbr + 1, dtype=np.int64)
    np.cumsum(blocks, out=starts[1:])
    j_of_block = np.arange(total_blocks, dtype=np.int64) - starts[block_row]
    bcol = matrix._col[j_of_block, block_row]  # noqa: SLF001

    # expand every block into its br x bc scalar slots
    per = br * bc
    eb = np.repeat(np.arange(total_blocks, dtype=np.int64), per)
    local = np.tile(np.arange(per, dtype=np.int64), total_blocks)
    r_in = local // bc
    c_in = local - r_in * bc
    B = block_row[eb]
    jj = j_of_block[eb]

    row = B * br + r_in
    pos = ((jj * nbr + B) * br + r_in) * bc + c_in  # flat val index
    col = bcol[eb] * bc + c_in
    # scalar iteration index: thread sweeps its block-row's values
    step_j = jj * bc + c_in

    stored_lengths = np.repeat(blocks * bc, br)  # iterations per scalar row
    return _finalize(
        matrix,
        device,
        precision,
        itemsize,
        pos=pos,
        col=col,
        j=step_j,
        stored_row=row,
        stored_lengths=stored_lengths,
        rowmax_array=True,
    )


def _trace_ellr_t(
    matrix,
    device: DeviceSpec,
    precision: Precision,
    itemsize: int,
) -> KernelTrace:
    """ELLR-T: T threads per row; element j runs in warp-iteration j//T.

    Storage and addresses equal ELLPACK-R's; only the schedule changes:
    a warp covers ``warp_size / T`` rows and is reserved for
    ``max(ceil(rowmax / T))`` iterations — long rows block the warp for
    a factor T less (the format's point), at the price of the padded
    width and the (un-modelled, cheap) in-warp reduction.
    """
    width = matrix.width
    npad = matrix.padded_rows
    T = matrix.threads_per_row
    total = width * npad
    if total > MAX_TRACE_SLOTS:
        raise MemoryError(
            f"ELLR-T trace would hold {total} slots (> {MAX_TRACE_SLOTS})"
        )
    j = np.repeat(np.arange(width, dtype=np.int64), npad)
    i = np.tile(np.arange(npad, dtype=np.int64), width)
    active = matrix.rowmax[i] > j
    j = j[active]
    i = i[active]
    pos = j * npad + i
    col = matrix.col.reshape(-1)[pos]
    rows_per_warp = max(device.warp_size // T, 1)
    return _finalize(
        matrix,
        device,
        precision,
        itemsize,
        pos=pos,
        col=col,
        j=j // T,
        stored_row=i,
        stored_lengths=-(-matrix.rowmax // T),
        rowmax_array=True,
        rows_per_warp=rows_per_warp,
    )


def _trace_jagged(
    matrix: JaggedDiagonalsBase,
    device: DeviceSpec,
    precision: Precision,
    itemsize: int,
) -> KernelTrace:
    cs = matrix.col_start
    col_len = np.diff(cs)
    width = matrix.width

    # slot enumeration: column j owns flat positions cs[j] .. cs[j+1]
    pos = np.arange(matrix.total_slots, dtype=np.int64)
    j = np.repeat(np.arange(width, dtype=np.int64), col_len)
    k = pos - cs[j]  # stored row of each slot
    active = matrix.rowmax[k] > j  # rowmax guard of Listing 2 skips padding
    pos, j, k = pos[active], j[active], k[active]
    col = matrix.col_idx[pos]
    return _finalize(
        matrix,
        device,
        precision,
        itemsize,
        pos=pos,
        col=col,
        j=j,
        stored_row=k,
        stored_lengths=np.asarray(matrix.rowmax),
        rowmax_array=True,
    )


def _trace_cmrs(
    matrix,
    device: DeviceSpec,
    precision: Precision,
    itemsize: int,
) -> KernelTrace:
    """CMRS: one warp per strip sweeping the strip's flat entry stream.

    Lane ``l`` of the warp handles entries ``sptr[s] + j*ws + l`` — the
    val/col loads are perfectly coalesced (consecutive flat positions)
    no matter how ragged the rows are, which is the format's selling
    point (Koza et al.); the per-lane partial products are then routed
    to ``y[s*HS + row_in_strip]`` through shared memory (un-modelled,
    on-chip).  A strip is reserved for ``ceil(count / warp_size)``
    iterations.  The rowmax-style aux charge stands in for the strip
    pointer + row-counter streams.
    """
    if matrix.nnz > MAX_TRACE_SLOTS:
        raise MemoryError("CMRS trace too large; use a smaller scale")
    sptr = np.asarray(matrix.strip_ptr, dtype=np.int64)
    counts = np.diff(sptr)
    strip = np.repeat(np.arange(matrix.nstrips, dtype=np.int64), counts)
    pos = np.arange(matrix.nnz, dtype=np.int64)
    j = (pos - sptr[strip]) // device.warp_size
    col = np.asarray(matrix.col_idx, dtype=np.int64)
    return _finalize(
        matrix,
        device,
        precision,
        itemsize,
        pos=pos,
        col=col,
        j=j,
        stored_row=strip,
        stored_lengths=-(-counts // device.warp_size),
        rowmax_array=True,
        rows_per_warp=1,  # stored_row is already the warp (strip) id
    )


def _trace_argcsr(
    matrix,
    device: DeviceSpec,
    precision: Precision,
    itemsize: int,
) -> KernelTrace:
    """ARG-CSR: one thread per stored row; device rectangles are
    column-major per group (Heller & Oberhuber), so iteration ``j``
    reads ``gptr[g] + j*n_g + r`` — consecutive addresses across the
    group's rows, i.e. coalesced like ELLPACK but at the group's width
    instead of the global maximum.  The per-row true-length guard
    skips the power-of-two padding (the host arrays stay row-major;
    only the modelled device addresses transpose).
    """
    if matrix.total_slots > MAX_TRACE_SLOTS:
        raise MemoryError("ARG-CSR trace too large; use a smaller scale")
    gp = np.asarray(matrix.group_ptr, dtype=np.int64)
    gw = np.asarray(matrix.group_width, dtype=np.int64)
    rp = np.asarray(matrix.group_rows_ptr, dtype=np.int64)
    tl_all = np.asarray(matrix.true_lengths, dtype=np.int64)
    col_host = np.asarray(matrix.col_idx, dtype=np.int64)

    pos_parts, col_parts, j_parts, row_parts = [], [], [], []
    for g in range(matrix.ngroups):
        lo, L = int(gp[g]), int(gw[g])
        r0, r1 = int(rp[g]), int(rp[g + 1])
        ng = r1 - r0
        tl = tl_all[r0:r1]
        J = np.broadcast_to(np.arange(L, dtype=np.int64), (ng, L))
        R = np.broadcast_to(np.arange(ng, dtype=np.int64)[:, None], (ng, L))
        active = J < tl[:, None]
        j_g = J[active]
        r_g = R[active]
        pos_parts.append(lo + j_g * ng + r_g)  # column-major device slot
        col_parts.append(col_host[lo + r_g * L + j_g])  # host row-major
        j_parts.append(j_g)
        row_parts.append(r0 + r_g)
    cat = (
        lambda parts: np.concatenate(parts)
        if parts
        else np.empty(0, dtype=np.int64)
    )
    return _finalize(
        matrix,
        device,
        precision,
        itemsize,
        pos=cat(pos_parts),
        col=cat(col_parts),
        j=cat(j_parts),
        stored_row=cat(row_parts),
        stored_lengths=tl_all,
        rowmax_array=True,
    )


def _trace_sell(
    matrix: SELLMatrix,
    device: DeviceSpec,
    precision: Precision,
    itemsize: int,
) -> KernelTrace:
    C = matrix.chunk_rows
    n = matrix.nrows
    nchunks = matrix.nchunks
    widths = matrix.chunk_widths
    ptr = matrix.chunk_ptr

    pos = np.arange(matrix.total_slots, dtype=np.int64)
    chunk = np.repeat(np.arange(nchunks, dtype=np.int64), widths * C)
    off = pos - ptr[chunk]
    j = off // C
    r = off - j * C
    k = chunk * C + r
    rowmax = np.zeros(nchunks * C, dtype=np.int64)
    rowmax[:n] = np.asarray(matrix.row_lengths())[matrix.permutation.perm]
    active = rowmax[k] > j
    pos, j, k = pos[active], j[active], k[active]
    col = matrix.col_idx[pos]
    return _finalize(
        matrix,
        device,
        precision,
        itemsize,
        pos=pos,
        col=col,
        j=j,
        stored_row=k,
        stored_lengths=rowmax,
        rowmax_array=True,
    )
