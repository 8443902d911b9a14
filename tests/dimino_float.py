"""Dimino's closure on float rows, and the float labelling of rows: the
references for the label closure and the declared generator labels.

``catalog.enumerate_group`` enumerates a non-cyclic group on exact labels
(``catalog._dimino``).  This is the float closure it replaced, kept so that
the tests can check that the label group's rows (``rows_of``) carry the
same grid keys in the same order.  It composes rows, with the same sign rule
and grid keys as ``catalog._canonical_rows`` and ``catalog._row_keys``, and
walks its seed's powers itself, one composition at a time.  Its seed rule
reads the orders it walks, not the label bounds of ``catalog._dimino``.

The generators are declared as labels (``catalog._declared``); before they
were, the rows of ``catalog.generators_of`` were snapped to labels, and
that snap is ``label_rows`` here.  D*_4n is a formula on its labels
(``catalog._binary_dihedral``); its float rows are ``gstar_rows``, and
``float_fields`` derives its negation, orders and residues from them as the
float T*, O* and I* tables are derived.  ``check_declared_labels`` compares
the exact labels and D*_4n's exact fields with these references, and
``check_gstar_closures`` each cached G* closure with the closure of the
spec's own generator rows.
"""

import math
import struct

import numpy as np

from u2sing.catalog import (EQ_TOL, KEY_SCALE, Family, FiniteGroup, GStar,
                            Labels, _binary_dihedral, _canonical_rows,
                            _generator_labels, _gstar, _gstar_closure,
                            _gstar_kind, _row_keys, _snap_residue,
                            generate_closure, generators_of)
from u2sing.errors import ClosureOverflow, SnapFailure


def gstar_rows(g: GStar) -> np.ndarray:
    """The elements of a G* as float (b1, b2) rows, in index order: D*_4n's
    element a + 2n*b as e^{i pi a/n} jhat^b = (0, e^{i pi a/n}) for b = 1,
    and a table's as the SU(2) columns of the closure it was keyed from
    (the closure of T*, O* or I* is cached under the first letter of its
    name)."""
    if g.table is not None:
        return _gstar_closure(g.name[0]).rows[:, 1:]
    z = np.exp(1j * math.pi / g.n * np.arange(2 * g.n))
    zero = np.zeros(2 * g.n, dtype=complex)
    return np.concatenate([np.stack([z, zero], 1), np.stack([zero, z], 1)])


def rows_of(group: Labels, idx=slice(None)) -> np.ndarray:
    """Canonical (a, b1, b2) rows of the elements at ``idx`` of a labelled
    group: (k, j) is the row of [e^{i pi k/N}, g_j]."""
    a = np.exp(1j * math.pi / group.n * group.k[idx])
    return _canonical_rows(np.column_stack(
        [a, gstar_rows(group.gstar)[group.j[idx]]]))


def float_fields(su2: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
    """The negation map, orders and residues of the G* with float elements
    ``su2``: the negative by the grid key of -g (-1 if none is an element),
    and the order and residue from one snap of arccos(Re b1) to the
    2 pi / |G*| grid (``catalog._snap_residue``)."""
    index = {k: i for i, k in enumerate(_row_keys(su2))}
    neg = np.array([index.get(k, -1) for k in _row_keys(-su2)])
    phi = np.arccos(np.clip(su2[:, 0].real, -1.0, 1.0))
    t = np.array([_snap_residue(f, len(su2)) for f in phi.tolist()])
    order = len(su2) // np.gcd(t, len(su2))
    return neg, order, t * order // len(su2)


def label_rows(spec, rows: np.ndarray, what: str) -> Labels:
    """The labels (k, j) of rows of ``spec``'s group, k in 0..N-1.  The
    phase of each must snap to the pi/N grid and its SU(2) part must have
    the grid key of an element of G*; else SnapFailure names the row as
    ``what`` and its index.  A phase past pi is wrapped by the grid key of
    the negated SU(2) part."""
    g = _gstar(*_gstar_kind(spec))
    n = {Family.INDEX2: 2 * spec.m, Family.INDEX3: 3 * spec.m}.get(
        spec.family, spec.m)
    su2 = gstar_rows(g)
    index = {key: i for i, key in enumerate(_row_keys(su2))}
    k = np.empty(len(rows), dtype=int)
    j = np.empty(len(rows), dtype=int)
    keys = _row_keys(rows[:, 1:3])
    for i, (a, key) in enumerate(zip(rows[:, 0].tolist(), keys)):
        try:
            k[i] = _snap_residue(math.atan2(a.imag, a.real), 2 * n)
        except SnapFailure:
            raise SnapFailure(f"{spec.label()}: the phase of {what} {i} is "
                              f"not on the pi/{n} grid") from None
        if key not in index:
            raise SnapFailure(f"{spec.label()}: the SU(2) part of {what} {i} "
                              f"is not in {g.name}")
        j[i] = index[key]
        if k[i] >= n:
            k[i], j[i] = k[i] - n, index[_row_keys(-su2[j[i]][None])[0]]
    return Labels(k, j, g, n)


def check_declared_labels(specs, dstar_n_max: int) -> int:
    """Compare each non-cyclic spec's declared generator labels
    (``catalog._generator_labels``) with ``label_rows`` of the rows
    ``generators_of`` evaluates, and the exact negation, orders and
    residues of D*_4n for n = 1..``dstar_n_max`` with ``float_fields`` of
    its float rows.  Returns the number of specs compared."""
    count = 0
    for spec in specs:
        if spec.is_cyclic:
            continue
        _, n, gens = _generator_labels(spec)
        ref = label_rows(spec, generators_of(spec), "generator")
        assert n == ref.n, spec
        assert gens == list(zip(ref.k.tolist(), ref.j.tolist())), spec
        count += 1
    for n in range(1, dstar_n_max + 1):
        g = _binary_dihedral(n)
        for got, want in zip((g.neg, g.order, g.residue),
                             float_fields(gstar_rows(g))):
            assert got.tolist() == want.tolist(), n
    return count


def check_gstar_closures(specs) -> int:
    """Compare, for each product spec (dihedral, T, O and I families), the
    cached closure of its G* (``catalog._gstar_closure``, from the G*
    generators declared once in ``catalog._gstar_gens``) with the closure
    of the spec's own generator rows without the Hopf-fiber rotation,
    ``generators_of(spec)[1:]``: the same rows in the same order, bit for
    bit.  Returns the number of specs compared."""
    count = 0
    for spec in specs:
        if spec.family in (Family.CYCLIC, Family.INDEX2, Family.INDEX3):
            continue
        cached = _gstar_closure(*_gstar_kind(spec)).rows
        own = generate_closure(generators_of(spec)[1:],
                               spec.expected_order() // spec.m).rows
        assert cached.shape == own.shape, spec
        assert cached.tobytes() == own.tobytes(), spec
        count += 1
    return count


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
