"""On-disk caching of generated suite matrices and tuner decisions.

The synthetic generators are deterministic but not free (the larger
suite matrices take seconds).  ``cached_generate`` memoises them as
``.npz`` triplet files keyed by (matrix, scale, seed, dtype), so
repeated benchmark runs skip regeneration.  The cache is content-safe:
a corrupt or truncated file is regenerated, never trusted.

The same directory also holds the :mod:`repro.engine` autotuner's
decision store (``tuner_cache.json``): a flat JSON map from matrix
fingerprints (shape/nnz/row-length-histogram hashes) to the winning
kernel-variant name, so re-binding a structurally identical matrix
skips the timing phase entirely.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np

from repro.formats.coo import COOMatrix
from repro.matrices.suite import generate

__all__ = [
    "cached_generate",
    "default_cache_dir",
    "save_coo",
    "load_coo",
    "TunerCache",
]

_FORMAT_VERSION = 1
_TUNER_CACHE_VERSION = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-pjds``."""
    import os

    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-pjds"


def save_coo(matrix: COOMatrix, path: Path | str) -> None:
    """Persist a COO matrix as a compressed ``.npz`` triplet file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        shape=np.asarray(matrix.shape, dtype=np.int64),
        rows=matrix.rows,
        cols=matrix.cols,
        values=matrix.values,
    )


def load_coo(path: Path | str) -> COOMatrix:
    """Load a matrix written by :func:`save_coo`.

    Raises ``ValueError`` for unreadable or version-mismatched files.
    """
    try:
        with np.load(path) as data:
            if int(data["version"]) != _FORMAT_VERSION:
                raise ValueError(f"unsupported cache version in {path}")
            shape = tuple(int(s) for s in data["shape"])
            return COOMatrix(
                data["rows"], data["cols"], data["values"], shape,
                sum_duplicates=False,
            )
    except (OSError, KeyError, ValueError) as exc:
        raise ValueError(f"unreadable matrix cache file {path}: {exc}") from exc


def cached_generate(
    key: str,
    *,
    scale: int = 64,
    seed: int = 0,
    dtype=np.float64,
    cache_dir: Path | str | None = None,
) -> COOMatrix:
    """:func:`repro.matrices.generate` with a transparent disk cache."""
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    dt = np.dtype(dtype)
    path = base / f"{key}_s{scale}_r{seed}_{dt.name}.npz"
    if path.exists():
        try:
            return load_coo(path)
        except ValueError:
            path.unlink(missing_ok=True)  # corrupt: regenerate below
    matrix = generate(key, scale=scale, seed=seed, dtype=dtype)
    save_coo(matrix, path)
    return matrix


class TunerCache:
    """Fingerprint-keyed store of autotuner decisions.

    Entries map a matrix fingerprint (see
    :func:`repro.engine.tuner.fingerprint`) to a decision record::

        {"variant": "csr_cc", "timings": {...}, "format": "CRS"}

    The store is an in-memory dict optionally mirrored to
    ``<cache_dir>/tuner_cache.json``.  Disk I/O is best-effort: a
    corrupt or unwritable file silently degrades to memory-only
    operation (tuning again is always safe, just slower).

    All public methods are thread-safe: concurrent ``bind()`` calls
    from a worker pool (see :mod:`repro.serve`) race on the lazy load
    and on ``put`` otherwise, losing updates or double-reading the
    mirror file.
    """

    def __init__(self, path: Path | str | None = None, *, persist: bool = True):
        if path is None:
            path = default_cache_dir() / "tuner_cache.json"
        self._path = Path(path)
        self._persist = persist
        self._entries: dict[str, dict] = {}
        self._loaded = False
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    def _load(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        if not self._persist:
            return
        try:
            with open(self._path, encoding="utf-8") as fh:
                blob = json.load(fh)
            if blob.get("version") == _TUNER_CACHE_VERSION and isinstance(
                blob.get("entries"), dict
            ):
                self._entries.update(blob["entries"])
        except (OSError, ValueError):
            pass  # absent or corrupt: start empty

    def _flush(self) -> None:
        if not self._persist:
            return
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self._path.with_suffix(".json.tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(
                    {"version": _TUNER_CACHE_VERSION, "entries": self._entries},
                    fh,
                    indent=0,
                    sort_keys=True,
                )
            tmp.replace(self._path)
        except OSError:
            pass  # read-only cache dir: memory-only operation

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> dict | None:
        """Return the cached decision record or None."""
        with self._lock:
            self._load()
            return self._entries.get(fingerprint)

    def put(self, fingerprint: str, record: dict) -> None:
        """Store a decision record and mirror it to disk."""
        with self._lock:
            self._load()
            self._entries[fingerprint] = dict(record)
            self._flush()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._loaded = True
            if self._persist:
                try:
                    self._path.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        with self._lock:
            self._load()
            return len(self._entries)
