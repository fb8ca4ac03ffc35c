"""The one multiprocessing start-method decision of the package."""

from __future__ import annotations

import multiprocessing as mp

__all__ = ["mp_context"]


def mp_context():
    """Context every worker process (rank pool, fleet shard) starts from.

    ``fork`` where the platform offers it: the child inherits the
    parent's imports and read-only matrix data without pickling them.
    ``spawn`` elsewhere; every worker target and argument is picklable,
    so both methods run the same code.
    """
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")
