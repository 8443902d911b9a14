"""Dimino's closure on float rows: the reference for the label closure.

``catalog.enumerate_group`` enumerates a non-cyclic group on exact labels
(``catalog._dimino``).  This is the float closure it replaced, kept so that
the tests can check that the label group's rows (``rows_of``) carry the
same grid keys in the same order.  It composes rows, with the same sign rule
and grid keys as ``catalog._canonical_rows`` and ``catalog._row_keys``, and
walks its seed's powers itself, one composition at a time.  Its seed rule
reads the orders it walks, not the label bounds of ``catalog._dimino``.
"""

import math
import struct

import numpy as np

from u2sing.catalog import (EQ_TOL, KEY_SCALE, FiniteGroup, Labels,
                            _canonical_rows, _row_keys)
from u2sing.errors import ClosureOverflow


def rows_of(group: Labels, idx=slice(None)) -> np.ndarray:
    """Canonical (a, b1, b2) rows of the elements at ``idx`` of a labelled
    group: (k, j) is the row of [e^{i pi k/N}, g_j]."""
    a = np.exp(1j * math.pi / group.n * group.k[idx])
    return _canonical_rows(np.column_stack([a, group.gstar.su2[group.j[idx]]]))


# One row as a tuple of three Python complex numbers: the scalar steps of
# the Dimino closure, with the same sign rule and the same key bytes as the
# array functions of the catalog.
_Row = tuple[complex, complex, complex]
_KEY_STRUCT = struct.Struct("=6q")      # native int64, as _row_keys' view


def _canonical_row(g: _Row) -> _Row:
    """``_canonical_rows`` for one row: its first real coordinate beyond
    EQ_TOL is positive."""
    a, b1, b2 = g
    for x in (a.real, a.imag, b1.real, b1.imag, b2.real, b2.imag):
        if abs(x) > EQ_TOL:
            return g if x > 0 else (-a, -b1, -b2)
    return g


def _row_key(g: _Row) -> bytes:
    """``_row_keys`` for one row: round half to even, like ``np.rint``."""
    a, b1, b2 = g
    return _KEY_STRUCT.pack(
        round(a.real * KEY_SCALE), round(a.imag * KEY_SCALE),
        round(b1.real * KEY_SCALE), round(b1.imag * KEY_SCALE),
        round(b2.real * KEY_SCALE), round(b2.imag * KEY_SCALE))


def _compose_row(f: _Row, g: _Row) -> _Row:
    """f then g: the BFS candidate ``g o f`` for one pair of rows."""
    return (g[0] * f[0], f[1] * g[1] - f[2] * g[2].conjugate(),
            f[1] * g[2] + f[2] * g[1].conjugate())


def _cycle(g: _Row, limit: int, too_many: str) -> list[_Row]:
    """The powers of row ``g``, identity first, up to the first whose key is
    the identity's, each composed from the one before; ClosureOverflow
    past ``limit`` of them."""
    one = (1.0 + 0j, 1.0 + 0j, 0j)
    cycle, power = [one], _canonical_row(g)
    while _row_key(power) != _row_key(one):
        cycle.append(power)
        if len(cycle) > limit:
            raise ClosureOverflow(too_many)
        power = _canonical_row(_compose_row(power, g))
    return cycle


def dimino_closure(generators: np.ndarray, max_order: int) -> FiniteGroup:
    """Dimino's closure of the generator rows under composition.

    The seed is the first generator, or the product of the first two (if
    there are two) when its cycle is longer; the product then takes the
    first generator's place.  On the catalog's generators, where the fiber
    has SU(2) part 1 and the second generator phase 1, the product's cycle
    is longer exactly when its label order bound is larger, so this rule
    and ``catalog._dimino``'s pick the same seed.  The seed's powers come
    first (``_cycle``).  Each later
    generator that is not yet a member extends the group G generated so far
    by whole right cosets G.r (each element of G, then r): first r = the
    generator, then every product of a coset representative and a generator
    so far that is not yet a member.  Those products are composed one row
    at a time; each coset is one block composition, keyed in one pass.
    Deduplication is up to joint negation, by the grid keys of
    ``_row_keys``.  Raises ClosureOverflow past 2 * max_order elements,
    which signals numerical drift rather than a genuine group.
    """
    generators = np.asarray(generators, dtype=complex)
    gens = [_canonical_row(g) for g in generators.tolist()]
    limit = 2 * max_order
    too_many = f"closure exceeded {limit} elements (expected {max_order})"
    cycle = _cycle(gens[0], limit, too_many)
    if len(gens) > 1:
        product = _canonical_row(_compose_row(gens[0], gens[1]))
        longer = _cycle(product, limit, too_many)
        if len(longer) > len(cycle):
            gens[0], cycle = product, longer
    powers = np.array(cycle)
    blocks, seen = [powers], set(_row_keys(powers))
    order = len(powers)

    for i in range(1, len(gens)):
        if _row_key(gens[i]) in seen:
            continue
        # G.r for the group G generated by gens[:i], one column at a time.
        a, b1, b2 = np.concatenate(blocks).T.copy()
        reps = []

        def add_coset(r: _Row) -> None:
            nonlocal order
            block = _canonical_rows(np.stack(
                [a * r[0], b1 * r[1] - b2 * r[2].conjugate(),
                 b1 * r[2] + b2 * r[1].conjugate()], axis=1))
            seen.update(_row_keys(block))
            blocks.append(block)
            reps.append(r)
            order += len(block)
            if order > limit:
                raise ClosureOverflow(too_many)

        add_coset(gens[i])
        # reps grows while it is walked, so every new representative is
        # multiplied by every generator so far in its turn.
        for r in reps:
            for s in gens[:i + 1]:
                c = _canonical_row(_compose_row(r, s))
                if _row_key(c) not in seen:
                    add_coset(c)
    return FiniteGroup(np.concatenate(blocks))
