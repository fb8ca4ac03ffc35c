"""Pytest fixtures for the test suite (helpers live in _test_common)."""

from _test_common import (  # noqa: F401 - re-exported fixtures
    ALL_FORMATS,
    GPU_FORMATS,
    PERMUTING_FORMATS,
    any_format,
    no_leaks,
    random_coo,
    rect_coo,
    rng,
    small_coo,
    spd_coo,
)
