"""Row sorting and permutation handling for the jagged-diagonal formats.

The pJDS construction ("sort" step of Fig. 1) orders rows by descending
non-zero count.  The sort is *stable* so that rows of equal length keep
their original relative order — this preserves whatever RHS-access
locality survives the permutation, which the paper identifies as the
format's main caveat (destroyed off-diagonals / dense blocks).

The paper's outlook names SELL-C-sigma-style *windowed* sorting as
follow-up work: sorting only within windows of ``sigma`` consecutive
rows trades padding reduction against locality preservation.  Both
strategies live here.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import INDEX_DTYPE
from repro.utils.validation import as_1d_array, check_positive_int

__all__ = ["Permutation", "descending_row_sort", "windowed_row_sort"]


def descending_row_sort(row_lengths: np.ndarray) -> np.ndarray:
    """Stable permutation sorting rows by descending length.

    Returns ``perm`` with ``perm[k]`` = original index of the row placed
    at sorted position ``k``.
    """
    lengths = as_1d_array(row_lengths, name="row_lengths")
    # argsort is stable for kind="stable"; negate for descending order
    return np.argsort(-lengths.astype(np.int64), kind="stable").astype(INDEX_DTYPE)


def windowed_row_sort(row_lengths: np.ndarray, sigma: int) -> np.ndarray:
    """Stable descending sort restricted to windows of ``sigma`` rows.

    ``sigma = 1`` is the identity permutation (no reordering);
    ``sigma >= nrows`` equals :func:`descending_row_sort`.  Intermediate
    values are the SELL-C-sigma compromise the paper's Sect. IV points to.
    """
    lengths = as_1d_array(row_lengths, name="row_lengths")
    sigma = check_positive_int(sigma, "sigma")
    n = lengths.shape[0]
    if sigma >= n:
        return descending_row_sort(lengths)
    perm = np.empty(n, dtype=INDEX_DTYPE)
    for start in range(0, n, sigma):
        stop = min(start + sigma, n)
        window = lengths[start:stop]
        order = np.argsort(-window.astype(np.int64), kind="stable")
        perm[start:stop] = start + order
    return perm


class Permutation:
    """A row permutation with its inverse, as used by JDS/pJDS/SELL.

    ``perm[k]`` is the *original* index of the row stored at position
    ``k``; ``inverse[i]`` is the stored position of original row ``i``.

    The permuted-basis workflow of Sect. II-A ("permutation of the
    indices needs to be done only before the start and after the end of
    the algorithm") maps onto :meth:`to_permuted` / :meth:`to_original`.
    """

    def __init__(self, perm: np.ndarray):
        perm = as_1d_array(perm, dtype=INDEX_DTYPE, name="perm")
        n = perm.shape[0]
        seen = np.zeros(n, dtype=bool)
        if n and (perm.min() < 0 or perm.max() >= n):
            raise ValueError("perm entries out of range")
        seen[perm] = True
        if not seen.all():
            raise ValueError("perm is not a permutation (duplicate entries)")
        self._perm = perm
        self._inv = np.empty(n, dtype=INDEX_DTYPE)
        rows = np.arange(n, dtype=INDEX_DTYPE)
        self._inv[perm] = rows
        # checked once: every unbound spmv of a permuting format asks
        self._identity = bool(np.array_equal(perm, rows))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=INDEX_DTYPE))

    @property
    def size(self) -> int:
        return self._perm.shape[0]

    @property
    def perm(self) -> np.ndarray:
        v = self._perm.view()
        v.flags.writeable = False
        return v

    @property
    def inverse(self) -> np.ndarray:
        v = self._inv.view()
        v.flags.writeable = False
        return v

    @property
    def is_identity(self) -> bool:
        return self._identity

    # ------------------------------------------------------------------
    def to_permuted(self, x: np.ndarray) -> np.ndarray:
        """Reorder a vector from original into permuted (stored) basis."""
        x = np.asarray(x)
        if x.shape[0] != self.size:
            raise ValueError(f"vector length {x.shape[0]} != {self.size}")
        return x[self._perm]

    def to_original(self, x_perm: np.ndarray) -> np.ndarray:
        """Reorder a vector from permuted (stored) back to original basis."""
        x_perm = np.asarray(x_perm)
        if x_perm.shape[0] != self.size:
            raise ValueError(f"vector length {x_perm.shape[0]} != {self.size}")
        return x_perm[self._inv]

    def compose(self, other: "Permutation") -> "Permutation":
        """Permutation equivalent to applying ``other`` first, then ``self``."""
        if other.size != self.size:
            raise ValueError("size mismatch in composition")
        return Permutation(other._perm[self._perm])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and np.array_equal(
            self._perm, other._perm
        )

    def __hash__(self):  # pragma: no cover - mutability guard
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Permutation n={self.size} identity={self.is_identity}>"
