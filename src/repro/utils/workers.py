"""The package's worker processes: how they start and the memory they share."""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os

import numpy as np

__all__ = ["mp_context"]


def mp_context():
    """Context every worker process (rank pool, fleet shard) starts from.

    Always ``fork``: the child inherits the parent's imports, read-only
    matrix data and memfd mappings without pickling them, and the
    tracer (``isolate_forked``) and the compiled tier (``pthread_atfork``)
    are written for a forked child.
    """
    return mp.get_context("fork")


class _Slot:
    """One memfd-backed buffer mapped by the parent and its workers.

    A worker forked after the slot exists inherits the mapping; the fleet
    hands ``fd`` to an already running shard instead, and ``fd`` stays
    open only until the shard has received it.
    """

    __slots__ = ("id", "size", "mm", "fd")

    def __init__(self, slot_id: int, size: int):
        fd = os.memfd_create(f"repro-slot-{slot_id}", os.MFD_CLOEXEC)
        try:
            os.ftruncate(fd, size)
            self.mm = mmap.mmap(fd, size)
        except BaseException:
            os.close(fd)
            raise
        self.id, self.size, self.fd = slot_id, size, fd

    def array(self, dtype, shape) -> np.ndarray:
        return np.ndarray(shape, dtype=dtype, buffer=self.mm)

    def close(self) -> None:
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        self.mm.close()
