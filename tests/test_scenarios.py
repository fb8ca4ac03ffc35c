"""Coverage floors of the parity grid (``PARITY_GRID``).

The grid is one explicit case per (format, kernel tier, matrix class)
in which the format has a kernel of that tier; these floors fail if a
format, a tier or a matrix class silently drops out of it.
"""

from __future__ import annotations

from _test_common import MATRIX_CLASSES, PARITY_GRID


def _axes(param) -> dict:
    """The ``format`` / ``kernel-tier`` / ``matrix-class`` of a case,
    read back from its id."""
    return dict(part.split("=", 1) for part in param.id.split("/"))


class TestSuites:
    def test_migration_parity_covers_old_grid(self):
        """The old hand-rolled parity matrix parametrised 21 cases."""
        assert len(PARITY_GRID) >= 21

    def test_migration_parity_floor_with_new_formats(self):
        """The CMRS / ARG-CSR registrations grew the parity space to
        11 formats x 5 matrix classes x 2 kernel tiers = 110 cells.
        Every format has a scipy kernel; COO and BELLPACK have no
        compiled one, so 10 of those cells have no kernel and the grid
        runs the other 100; the floors pin both so a format can never
        silently fall out."""
        formats = {_axes(p)["format"] for p in PARITY_GRID}
        tiers = {_axes(p)["kernel-tier"] for p in PARITY_GRID}
        assert len(formats) * len(tiers) * len(MATRIX_CLASSES) >= 110
        assert len(PARITY_GRID) >= 100

    def test_parity_covers_new_formats_across_all_tiers(self):
        """Every (new format, kernel tier) pair gets a parity case for
        every matrix class."""
        seen = {}
        for p in PARITY_GRID:
            axes = _axes(p)
            seen.setdefault(
                (axes["format"], axes["kernel-tier"]), set()
            ).add(axes["matrix-class"])
        for fmt in ("CMRS", "ARG-CSR"):
            for tier in ("scipy", "compiled"):
                assert seen.get((fmt, tier)) == set(MATRIX_CLASSES), (fmt, tier)
