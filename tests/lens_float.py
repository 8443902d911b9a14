"""The lens enumeration on float rows: the reference for the exact turns.

``catalog.enumerate_group`` enumerates a cyclic group as the powers of its
generator's eigen-turns on the 1/(2p) grid (``catalog.Turns``).  This
is the float enumeration it replaced, kept so that the tests can check that
the turns give the same order, freeness count and eigen-residues as the
rows of the generator that ``catalog.generators_of`` evaluates.
"""

import numpy as np

from u2sing.catalog import (KEY_SCALE, Turns, _canonical_rows, _snap_residue,
                            generators_of)
from u2sing.errors import ClosureOverflow

from freeness_float import RowGroup


def powers(gen: np.ndarray, max_order: int) -> np.ndarray:
    """The powers of one row (a, b1, 0), identity first, up to the first one
    whose row on the KEY_SCALE integer grid (the grid of
    ``catalog._row_keys``) equals the identity's: the order is found, not
    assumed.  Powers k = 0..max_order are computed as one table from the
    angles of a and b1, and k = 0..2 * max_order only if the identity does
    not recur in it.  Raises ClosureOverflow past 2 * max_order elements,
    as the closures do."""
    a0, b0 = np.angle(gen[0]), np.angle(gen[1])
    for last in (max_order, 2 * max_order):
        k = np.arange(last + 1)
        rows = np.zeros((last + 1, 3), dtype=complex)
        np.exp(1j * a0 * k, out=rows[:, 0])
        np.exp(1j * b0 * k, out=rows[:, 1])
        rows = _canonical_rows(rows)
        grid = np.rint(rows.view(np.float64) * KEY_SCALE).astype(np.int64)
        back = (grid[1:] == grid[0]).all(axis=1)
        if back.any():
            return rows[:back.argmax() + 1]
    raise ClosureOverflow(
        f"closure exceeded {2 * max_order} elements (expected {max_order})")


def lens_rows(spec) -> RowGroup:
    """A lens spec's group as the float powers of its generator row: k = 0..p,
    and k = 0..2p only when the p-th is not the identity."""
    return RowGroup(powers(generators_of(spec)[0], spec.p))


def turns_of(rows: np.ndarray, p: int) -> Turns:
    """Rows [a, b1, 0] of a cyclic group as ``catalog.Turns``: the angles
    x/2p and y/2p of a and b1 snapped to the 1/(2p) grid
    (``catalog._snap_residue``), held as the eigen-turns
    ((x + y) mod 2p, (x - y) mod 2p)."""
    x, y = (np.array([_snap_residue(float(np.angle(z)), 2 * p)
                      for z in col.tolist()], dtype=int)
            for col in (rows[:, 0], rows[:, 1]))
    return Turns((x + y) % (2 * p), (x - y) % (2 * p), p)
