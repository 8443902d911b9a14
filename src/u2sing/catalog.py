"""The seven families of finite U(2) subgroups acting freely on S^3.

Each family is given by explicit quaternion-pair generators with integer
parameters and a coprimality condition:

    family                      condition          order   generators
    -----------------------------------------------------------------------
    cyclic L(q,p)               (q,p)=1            p       one diagonal pair
    dihedral product            (m,2n)=1           4mn     [e^{i pi/m},1], [1,e^{i pi/n}], [1,j]
    tetrahedral product         (m,6)=1            24m     ... binary tetrahedral pairs
    octahedral product          (m,6)=1            48m
    icosahedral product         (m,30)=1           120m    (golden ratio entries)
    index-2 diagonal            (m,2)=2,(m,n)=1    4mn     [e^{i pi/(2m)}, j] replaces [1,j]
    index-3 diagonal            (m,6)=3            24m     diagonal order-3 extension

``FAMILIES`` is the one place where a family's parameters and rules are
declared: its parameters in label order, |Gamma|, the order h of its Mobius
image, and its condition with the text that refuses a spec failing it.
``GroupSpec``'s constructor applies the condition, so every spec that
exists is valid and no stage checks one again.
Every ``GroupSpec`` method that depends on the family, and the CLI's spec
flags, read that table; the generators above, the singularity table and
the closed forms stay separate, as the independent routes the checks
compare.

The module enumerates each non-cyclic group by Dimino's algorithm (Butler,
Fundamental Algorithms for Permutation Groups, LNCS 559, 1991), deduplicating
up to simultaneous negation of the pair by a 48-byte grid key per element.
The Hopf-fiber rotation's powers come first, identity first; each later
generator that is not yet a member adds whole right cosets of the group
generated so far, one block composition per coset, and only the coset
representatives' products with the generators are tested for membership.
Cyclic specs are the powers of their one generator up to the first one
with the identity's key, so their order is found, not assumed.  The
breadth-first closure is kept for Gamma', whose row order the deformation
residual reads; the Mobius cosets of the resolution module use the same
sign rule (``_canonical_rows``) and grid keys as the rows.
It also provides the structural checks used downstream: freeness on S^3 (no
eigenvalue 1 away from the identity), eigenvalue statistics, and
normalization of the cyclic singularity labels L(alpha, beta).
"""

from __future__ import annotations

import math
import struct
from collections import Counter, namedtuple
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import ClosureOverflow, InvalidParameters, NotCoprime, SnapFailure

TAU = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# Group specifications
# ---------------------------------------------------------------------------

class Family(str, Enum):
    CYCLIC = "cyclic"
    DIHEDRAL = "dihedral"
    TETRAHEDRAL = "tetrahedral"
    OCTAHEDRAL = "octahedral"
    ICOSAHEDRAL = "icosahedral"
    INDEX2 = "index2"
    INDEX3 = "index3"


# What the catalog declares about one family: its parameters, in label
# order; |Gamma|, h (the order of the Mobius image; None if cyclic) and the
# catalog condition, as functions of the spec; the condition as its refusal
# states it; the refusal of a missing parameter, formatted with the family
# and the parameter's name; and the label and key as str.format templates
# over the spec.
FamilyRules = namedtuple("FamilyRules",
                         "params order h holds rule needs label key")


def _rules(f: Family, params: tuple[str, ...], order, h, holds, rule: str,
           needs: str = "{} needs a positive parameter {}") -> FamilyRules:
    return FamilyRules(
        params, order, h, holds, rule, needs,
        f"{f.value}(" + ",".join(f"{x}={{0.{x}}}" for x in params) + ")",
        "_".join([f.value, *(f"{x}{{0.{x}}}" for x in params)]))


# The index-2 and index-3 diagonal families project onto the dihedral and
# tetrahedral rotation groups, hence their h.
FAMILIES: dict[Family, FamilyRules] = {f: _rules(f, *row) for f, row in {
    Family.CYCLIC: (("q", "p"), lambda s: s.p, None,
                    lambda s: math.gcd(s.q, s.p) == 1, "gcd(q,p) must be 1",
                    "{} needs parameters q, p with p >= 1"),
    Family.DIHEDRAL: (("m", "n"), lambda s: 4 * s.m * s.n, lambda s: 2 * s.n,
                      lambda s: math.gcd(s.m, 2 * s.n) == 1, "gcd(m,2n) must be 1"),
    Family.TETRAHEDRAL: (("m",), lambda s: 24 * s.m, lambda s: 12,
                         lambda s: math.gcd(s.m, 6) == 1, "gcd(m,6) must be 1"),
    Family.OCTAHEDRAL: (("m",), lambda s: 48 * s.m, lambda s: 24,
                        lambda s: math.gcd(s.m, 6) == 1, "gcd(m,6) must be 1"),
    Family.ICOSAHEDRAL: (("m",), lambda s: 120 * s.m, lambda s: 60,
                         lambda s: math.gcd(s.m, 30) == 1, "gcd(m,30) must be 1"),
    Family.INDEX2: (("m", "n"), lambda s: 4 * s.m * s.n, lambda s: 2 * s.n,
                    lambda s: s.m % 2 == 0 and math.gcd(s.m, s.n) == 1,
                    "needs m even and gcd(m,n)=1"),
    Family.INDEX3: (("m",), lambda s: 24 * s.m, lambda s: 12,
                    lambda s: math.gcd(s.m, 6) == 3, "gcd(m,6) must be 3"),
}.items()}


@dataclass(frozen=True)
class GroupSpec:
    """One catalog family with its integer parameters."""

    family: Family
    m: int | None = None
    n: int | None = None
    q: int | None = None
    p: int | None = None

    def __post_init__(self) -> None:
        """Refuse a spec outside the catalog with InvalidParameters, so that
        every GroupSpec that exists is valid and no stage checks it again.
        Every parameter the family takes must be set, to an int (not a
        bool), and every one but the residue q must be at least 1; no other
        parameter may be set.  The residue q must lie in 1..p-1, so that a
        lens space has one key."""
        r = FAMILIES[self.family]
        for x in r.params:
            v = getattr(self, x)
            if v is not None and type(v) is not int:
                raise InvalidParameters(
                    f"{self.family.value}: {x} must be an int, got {v!r}")
            if v is None or v < 1 and x != "q":
                raise InvalidParameters(r.needs.format(self.family.value, x))
        # all the parameters it takes are set; is any other one?
        if (self.m, self.n, self.q, self.p).count(None) + len(r.params) < 4:
            raise InvalidParameters(f"{self.family.value} takes no parameters "
                                    f"but {', '.join(r.params)}")
        if self.p == 1:
            raise InvalidParameters(
                "the trivial group has no singularity to resolve")
        if not r.holds(self):
            raise InvalidParameters(f"{r.label.format(self)}: {r.rule}")
        if self.q is not None and not 0 < self.q < self.p:
            raise InvalidParameters(
                f"{r.label.format(self)}: q must lie in 1..p-1")

    # -- constructors ------------------------------------------------------

    @classmethod
    def cyclic(cls, q: int, p: int) -> "GroupSpec":
        """L(q, p) with q reduced mod p when both are ints and p >= 1;
        anything else is passed through, and refused, as every bad
        parameter is, when the spec is built."""
        reduce = type(q) is int and type(p) is int and p >= 1
        return cls(Family.CYCLIC, q=q % p if reduce else q, p=p)

    @classmethod
    def dihedral(cls, m: int, n: int) -> "GroupSpec":
        return cls(Family.DIHEDRAL, m=m, n=n)

    @classmethod
    def tetrahedral(cls, m: int) -> "GroupSpec":
        return cls(Family.TETRAHEDRAL, m=m)

    @classmethod
    def octahedral(cls, m: int) -> "GroupSpec":
        return cls(Family.OCTAHEDRAL, m=m)

    @classmethod
    def icosahedral(cls, m: int) -> "GroupSpec":
        return cls(Family.ICOSAHEDRAL, m=m)

    @classmethod
    def index2(cls, m: int, n: int) -> "GroupSpec":
        return cls(Family.INDEX2, m=m, n=n)

    @classmethod
    def index3(cls, m: int) -> "GroupSpec":
        return cls(Family.INDEX3, m=m)

    # -- structure ---------------------------------------------------------

    @property
    def is_cyclic(self) -> bool:
        return self.family is Family.CYCLIC

    @property
    def is_degenerate_cyclic(self) -> bool:
        """n = 1 members of the families that take n are cyclic groups."""
        return self.n == 1 and "n" in FAMILIES[self.family].params

    def expected_order(self) -> int:
        return FAMILIES[self.family].order(self)

    def pgl_image_order(self) -> int:
        """Order h of the induced Mobius group on the Hopf base."""
        h = FAMILIES[self.family].h
        if h is None:
            raise InvalidParameters("PGL image order is only used for non-cyclic specs")
        return h(self)

    def quotient_index(self) -> int:
        """|Gamma| / 4m, the modulus in the central self-intersection formula."""
        return self.expected_order() // (4 * self.m)

    def label(self) -> str:
        return FAMILIES[self.family].label.format(self)

    def key(self) -> str:
        """Filesystem/config-safe identifier."""
        return FAMILIES[self.family].key.format(self)


# ---------------------------------------------------------------------------
# Cyclic singularity labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class CyclicType:
    """Lens label L(alpha, beta), normalized to 1 <= alpha <= beta - 1."""

    beta: int
    alpha: int

    @property
    def is_trivial(self) -> bool:
        return self.beta == 1

    def conjugate(self) -> "CyclicType":
        """The inverse label L(alpha^{-1} mod beta, beta)."""
        if self.is_trivial:
            return self
        return canonical_cyclic(pow(self.alpha, -1, self.beta), self.beta)

    def conj_key(self) -> tuple[int, int]:
        """Canonical form insensitive to alpha <-> alpha^{-1}."""
        if self.is_trivial:
            return (1, 0)
        return (self.beta, min(self.alpha, pow(self.alpha, -1, self.beta)))

    def __str__(self) -> str:
        return f"L({self.alpha},{self.beta})"


def canonical_cyclic(a: int, beta: int) -> CyclicType:
    """Normalize (a, beta) to the representative with 1 <= a <= beta - 1.

    beta = 1 gives the trivial type L(0,1); otherwise a must be a unit
    modulo beta.
    """
    if beta < 1:
        raise NotCoprime(f"beta must be positive, got {beta}")
    if beta == 1:
        return CyclicType(1, 0)
    a_mod = a % beta
    if math.gcd(a_mod, beta) != 1:
        raise NotCoprime(f"gcd({a},{beta}) != 1")
    return CyclicType(beta, a_mod)


# ---------------------------------------------------------------------------
# Element storage
#
# A point of C^2 is the quaternion z1 + z2*jhat, and a unit quaternion pair
# [alpha, beta] acts on S^3, composing by
#
#     [a2, b2] o [a1, b1] = [a2*a1, b1*b2];
#
# the pair and its joint negation [-alpha, -beta] give the same
# transformation (the kernel of the double cover).  Every catalog element
# has a circle left member alpha = e^{i*theta}, so it is stored as the row
# of three complex numbers (a, b1, b2), a = e^{i*theta}, beta = b1 + b2*jhat,
# with |a| = 1 and |b1|^2 + |b2|^2 = 1, modulo joint negation.  The row acts
# on column vectors (z1, z2) as the unitary matrix
#
#     a * [[b1, -conj(b2)], [b2, conj(b1)]],
#
# and through the Hopf map H(z1, z2) = z1/z2 it descends to the Mobius
# transformation w -> (b1*w - conj(b2)) / (b2*w + conj(b1)) of
# S^2 = C u {oo}; the left phase cancels.  Enumeration and every
# per-element statistic work on (N, 3) complex arrays of such rows.
#
# Everything is double precision: rows are compared to EQ_TOL and keyed on
# a 1 / KEY_SCALE grid, which is safe because catalog group orders are
# bounded and products of table generators stay many orders of magnitude
# away from grid midpoints.
# ---------------------------------------------------------------------------

EQ_TOL = 1e-9
# Multiply by KEY_SCALE rather than divide by the grid 1e-6: x / 1e-6 and
# x * 1e6 differ in the last bit for many x, and a key can sit on a midpoint.
KEY_SCALE = 1e6
# The fixed threshold of the three float decisions that read a tolerance.
# Each reads it from its own module's globals when it runs, so a test
# patches it where it is read.  Their margins on the default sweep:
#   - freeness (``FiniteGroup.eigenvalue_one_count``): an element has
#     eigenvalue 1 when an eigenvalue lies within it of 1; every other
#     element's distance is >= 1.1e-3, the least at dihedral(119, 24);
#   - the character-sum snap of ``invariants.dim_sfk``: worst residual
#     5.2e-13;
#   - the Eisenstein check ``sweep.check_eisenstein``: worst residual
#     2.1e-12.
# The other float decisions do not read it: ``_snap_residue`` snaps within
# 1e-6 * modulus, row keys round on the 1 / KEY_SCALE grid, and the sign
# rule compares coordinates to EQ_TOL.
DEFAULT_TOLERANCE = 1e-6


_ONE = (1.0, 0.0, 0.0, 0.0)
_IHAT = (0.0, 1.0, 0.0, 0.0)
_JHAT = (0.0, 0.0, 1.0, 0.0)


def _circle(theta: float) -> tuple[float, float, float, float]:
    """The unit quaternion e^{i*theta}, as coefficients (x0, x1, x2, x3)."""
    return (math.cos(theta), math.sin(theta), 0.0, 0.0)


def _row(theta: float, beta: tuple[float, float, float, float]) -> list[complex]:
    """The row of the pair [e^{i*theta}, beta]: the left entry is normalised,
    the right entries x0 + x1 i and x2 + x3 i are taken as given."""
    z = complex(math.cos(theta), math.sin(theta))
    return [z / abs(z), complex(beta[0], beta[1]), complex(beta[2], beta[3])]


def generators_of(spec: GroupSpec) -> np.ndarray:
    """Generator rows (k, 3) of the family table; the Hopf-fiber rotation
    [e^{i pi/m}, 1] always comes first for the non-cyclic families."""
    f, m, n = spec.family, spec.m, spec.n
    if f is Family.CYCLIC:
        q, p = spec.q, spec.p
        # 2k = q+1 (mod p); for even p, q is odd so q+1 is even.
        if p % 2 == 1:
            k = ((q + 1) * pow(2, -1, p)) % p
        else:
            k = ((q + 1) // 2) % p
        return np.array([_row(2 * math.pi * k / p,
                              _circle(2 * math.pi * (1 - k) / p))])

    fiber = _row(math.pi / m, _ONE)
    if f is Family.DIHEDRAL:
        rows = [fiber, _row(0.0, _circle(math.pi / n)), _row(0.0, _JHAT)]
    elif f is Family.TETRAHEDRAL:
        rows = [fiber, _row(0.0, (0.5, 0.5, 0.5, -0.5)),
                _row(0.0, (0.5, 0.5, 0.5, 0.5))]
    elif f is Family.OCTAHEDRAL:
        rows = [fiber, _row(0.0, _circle(math.pi / 4)),
                _row(0.0, (0.5, 0.5, 0.5, 0.5))]
    elif f is Family.ICOSAHEDRAL:
        rows = [fiber, _row(0.0, (0.5, TAU / 2, 0.0, -0.5 / TAU)),
                _row(0.0, (TAU / 2, 0.5, 0.5 / TAU, 0.0))]
    elif f is Family.INDEX2:
        rows = [fiber, _row(0.0, _circle(math.pi / n)),
                _row(math.pi / (2 * m), _JHAT)]
    else:       # index-3 diagonal inside the tetrahedral product
        rows = [fiber, _row(0.0, _IHAT), _row(0.0, _JHAT),
                _row(math.pi / (3 * m), (-0.5, -0.5, -0.5, 0.5))]
    return np.array(rows)


def gamma_prime_generators(spec: GroupSpec) -> np.ndarray:
    """The generator rows with the Hopf-fiber rotation omitted (the
    subgroup used in the deformation character sum)."""
    if spec.is_cyclic:
        raise InvalidParameters("gamma-prime is defined for non-cyclic specs")
    return generators_of(spec)[1:]


def _canonical_rows(arr: np.ndarray) -> np.ndarray:
    """Fix the joint sign of each row of a complex 2-D array: its first real
    coordinate beyond EQ_TOL is positive.  On (a, b1, b2) rows, where
    |a| = 1, that is the real or else the imaginary part of a."""
    x = arr.view(np.float64)
    first = (np.abs(x) > EQ_TOL).argmax(axis=1)
    return arr * np.sign(x[np.arange(len(x)), first])[:, None]


def _row_keys(arr: np.ndarray) -> list[bytes]:
    """One key per row of a real or complex 2-D array: the bytes of its real
    coordinates on the KEY_SCALE integer grid (a void view of the int64
    grid, one row each; 48 bytes for an (a, b1, b2) row)."""
    grid = np.rint(arr.view(np.float64) * KEY_SCALE).astype(np.int64)
    return grid.view(np.dtype((np.void, 8 * grid.shape[1]))).ravel().tolist()


def _fresh_indices(keys: list[bytes], seen: set[bytes]) -> list[int]:
    """Indices of the keys not yet in seen, first occurrence only; they are
    added to seen on the way."""
    add = seen.add
    return [i for i, k in enumerate(keys) if k not in seen and not add(k)]


# One row as a tuple of three Python complex numbers: the scalar steps of
# the Dimino closure, with the same sign rule and the same key bytes as the
# array functions above.
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


@dataclass
class FiniteGroup:
    """An enumerated subgroup: all elements as canonical (a, b1, b2) rows
    with the identity first."""

    rows: np.ndarray

    @property
    def order(self) -> int:
        return len(self.rows)

    def eigen_data(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, phi) per element: eigenvalues are exp(i(theta +- phi))."""
        theta = np.angle(self.rows[:, 0])
        c = np.clip(self.rows[:, 1].real, -1.0, 1.0)
        return theta, np.arccos(c)

    def eigenvalue_one_count(self) -> int:
        theta, phi = self.eigen_data()
        d1 = np.abs(np.exp(1j * (theta + phi)) - 1.0)
        d2 = np.abs(np.exp(1j * (theta - phi)) - 1.0)
        return int(np.count_nonzero(np.minimum(d1, d2) < DEFAULT_TOLERANCE))


def generate_closure(generators: np.ndarray, max_order: int) -> FiniteGroup:
    """Breadth-first closure of the generator rows under composition.

    Deduplication is up to joint negation (quotient by the kernel of the
    double cover).  Raises ClosureOverflow past 2 * max_order elements,
    which signals numerical drift rather than a genuine group.

    Only Gamma' is still enumerated this way: the deformation residual is a
    float sum over Gamma' in this row order, and the benchmark goldens and
    ``tests/sweep_slice.sha256`` pin its bytes.  The BFS goes when ROADMAP
    item 4(a) makes the character sum independent of row order.
    """
    gen_rows = _canonical_rows(np.asarray(generators, dtype=complex))
    frontier = _canonical_rows(np.array([[1.0 + 0j, 1.0 + 0j, 0.0 + 0j]]))
    seen = set(_row_keys(frontier))
    chunks = [frontier]

    while len(frontier):
        # Generator-major candidates gen_0 o frontier, gen_1 o frontier, ...
        # (apply the frontier element first), composed as flat columns: a
        # (1, 1) broadcast product takes another NumPy loop and can differ
        # in the last bit from the same product in a 1-D array.
        a_g, b1_g, b2_g = gen_rows.repeat(len(frontier), axis=0).T
        a, b1, b2 = np.concatenate([frontier] * len(gen_rows)).T
        cand = np.empty((len(a), 3), dtype=complex)
        cand[:, 0] = a_g * a
        cand[:, 1] = b1 * b1_g - b2 * np.conj(b2_g)
        cand[:, 2] = b1 * b2_g + b2 * np.conj(b1_g)
        cand = _canonical_rows(cand)
        fresh = _fresh_indices(_row_keys(cand), seen)
        if len(seen) > 2 * max_order:
            raise ClosureOverflow(
                f"closure exceeded {2 * max_order} elements (expected {max_order})")
        frontier = cand[fresh]
        chunks.append(frontier)

    return FiniteGroup(np.concatenate(chunks, axis=0))


def _powers(gen: np.ndarray, start: int,
            max_order: int) -> tuple[np.ndarray, list[bytes]]:
    """The powers of one row (a, b1, 0), identity first, up to the first one
    with the identity's grid key, and their keys: the order is found, not
    assumed.  Powers k = 0..start are computed as one table from the angles
    of a and b1, and the table doubles while the identity does not recur.
    Raises ClosureOverflow past 2 * max_order elements, as the closures do."""
    limit = 2 * max_order
    a0, b0 = np.angle(gen[0]), np.angle(gen[1])
    last = min(start, limit)
    while True:
        k = np.arange(last + 1)
        rows = _canonical_rows(np.stack([np.exp(1j * a0 * k),
                                         np.exp(1j * b0 * k),
                                         np.zeros(last + 1, dtype=complex)],
                                        axis=1))
        keys = _row_keys(rows)
        if keys[0] in keys[1:]:
            order = keys.index(keys[0], 1)
            return rows[:order], keys[:order]
        if last == limit:
            raise ClosureOverflow(
                f"closure exceeded {limit} elements (expected {max_order})")
        last = min(2 * last, limit)


def dimino_closure(generators: np.ndarray, max_order: int) -> FiniteGroup:
    """Dimino's closure of the generator rows under composition.

    The powers of the first generator, a row (a, b1, 0), come first (from
    ``_powers``).  Each later generator that is not yet a member extends
    the group G generated so far by whole right cosets G.r (each element of
    G, then r): first r = the generator, then every product of a coset
    representative and a generator so far that is not yet a member.  Those
    products are composed one row at a time; each coset is one block
    composition, keyed in one pass.  Deduplication is up to joint negation,
    by the grid keys of ``_row_keys``.  Raises ClosureOverflow past
    2 * max_order elements, which signals numerical drift rather than a
    genuine group.
    """
    generators = np.asarray(generators, dtype=complex)
    gens = [_canonical_row(g) for g in generators.tolist()]
    limit = 2 * max_order
    too_many = f"closure exceeded {limit} elements (expected {max_order})"
    powers, keys = _powers(generators[0], 16, max_order)
    blocks, seen = [powers], set(keys)
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


def _enumerate_cyclic(spec: GroupSpec) -> FiniteGroup:
    """The powers of the one generator, identity first: k = 0..p, and
    k = 0..2p only when the p-th is not the identity."""
    return FiniteGroup(_powers(generators_of(spec)[0], spec.p, spec.p)[0])


def enumerate_group(spec: GroupSpec) -> FiniteGroup:
    """All elements of the group, identity first."""
    if spec.is_cyclic:
        return _enumerate_cyclic(spec)
    return dimino_closure(generators_of(spec), spec.expected_order())


def enumerate_gamma_prime(spec: GroupSpec) -> FiniteGroup:
    """Closure of the generators without the Hopf-fiber rotation.

    For the product families this is the binary polyhedral group itself;
    for the index-2 and index-3 diagonal families it is the whole group.
    """
    return generate_closure(gamma_prime_generators(spec), spec.expected_order())


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

def is_fixed_point_free(group: FiniteGroup) -> bool:
    """True iff no element besides the identity has eigenvalue 1 (no complex
    reflections, equivalently the action on S^3 is free)."""
    return group.eigenvalue_one_count() == 1


def _snap_residue(angle: float, modulus: int) -> int:
    """angle = 2*pi*k/modulus up to snap tolerance; return k mod modulus."""
    x = angle * modulus / (2 * math.pi)
    k = round(x)
    if abs(x - k) > 1e-6 * modulus:
        raise SnapFailure(f"angle {angle} is not a multiple of 2pi/{modulus}")
    return k % modulus


def cyclic_equivalent_type(group: FiniteGroup) -> CyclicType | None:
    """Lens label of a cyclic group, or None if no single generator exists.

    A free cyclic group of order N contains an element whose matrix is
    conjugate to diag(zeta_N, zeta_N^q); normalizing the exponent pair by
    the inverse of the first gives q, reported insensitive to the
    conjugation swap q <-> q^{-1}.
    """
    n = group.order
    theta, phi = group.eigen_data()
    for a1, a2 in zip((theta + phi).tolist(), (theta - phi).tolist()):
        k1, k2 = _snap_residue(a1, n), _snap_residue(a2, n)
        if math.gcd(k1, n) == 1:
            q = (k2 * pow(k1, -1, n)) % n
            if math.gcd(q, n) != 1:
                continue        # eigenvalue 1 somewhere: not free, not a lens
            q = min(q, pow(q, -1, n))
            return canonical_cyclic(q, n)
    return None


def eigenvalue_histogram(group: FiniteGroup) -> Counter:
    """Multiset of eigenvalue pairs, keyed by the exact pair of angle
    fractions (angle / 2pi, sorted), with element counts.

    Angles in a finite matrix group of order N are multiples of 2pi/N, so
    snapping each to one (``_snap_residue``) is exact.
    """
    theta, phi = group.eigen_data()
    n = group.order
    counts: Counter = Counter()
    for a1, a2 in zip((theta + phi).tolist(), (theta - phi).tolist()):
        counts[tuple(sorted((Fraction(_snap_residue(a1, n), n),
                             Fraction(_snap_residue(a2, n), n))))] += 1
    return counts
