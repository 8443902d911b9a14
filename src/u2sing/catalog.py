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
Fundamental Algorithms for Permutation Groups, LNCS 559, 1991) on exact
labels: an element is a phase step k and the index j of its SU(2) part in a
binary polyhedral group G* (D*_4n, T*, O* or I*), whose product is a table
or, for D*_4n, a formula.  Each G* is built once per process and checked as
a group before use (Latin square, Light's associativity test on its
generators).  The Hopf-fiber rotation's powers come first, identity first;
each later generator that is not yet a member adds whole right cosets of
the group generated so far, one vector product per coset, and only the
coset representatives' products with the generators are tested for
membership.  Rows are built from the labels where a float is read.
Cyclic specs stay float rows: the powers of their one generator up to the
first one with the identity's grid key, so their order is found, not
assumed.  The breadth-first closure on rows (``generate_closure``) closes
each G* once per process: T*, O* and I* take their elements from it, and it
is the Gamma' of every product spec over that G*.  The index-2 and index-3
Gamma', the whole group, is closed per spec; the deformation residual reads
Gamma' in this row order.
It also provides the structural checks used downstream: freeness on S^3 (no
eigenvalue 1 away from the identity), eigenvalue statistics, and
normalization of the cyclic singularity labels L(alpha, beta).
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import (ClosureOverflow, InvalidParameters, NotAGroup, NotCoprime,
                     SnapFailure)

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
# S^2 = C u {oo}; the left phase cancels.  The cyclic groups, Gamma' and
# every float statistic work on (N, 3) complex arrays of such rows; the
# non-cyclic groups are enumerated on exact labels (below) and their rows
# built from those.
#
# Rows are double precision: they are compared to EQ_TOL and keyed on a
# 1 / KEY_SCALE grid, which is safe because catalog group orders are
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
#   - freeness on rows (``FiniteGroup.eigenvalue_one_count`` of a group
#     without labels: the lens path): an element has eigenvalue 1 when an
#     eigenvalue lies within it of 1.  Over the 12,231 lens specs the
#     identity's distance is 0 and every other element's is
#     >= 2 sin(pi/200) = 3.1e-2, the least at p = 200.  Non-cyclic freeness
#     is an exact count on labels and does not read it;
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


# Generating quaternions (x0, x1, x2, x3) of T*, O* and I*; the family
# generators are built from the same tuples.
_T_GENS = ((0.5, 0.5, 0.5, -0.5), (0.5, 0.5, 0.5, 0.5))
_O_GENS = (_circle(math.pi / 4), (0.5, 0.5, 0.5, 0.5))
_I_GENS = ((0.5, TAU / 2, 0.0, -0.5 / TAU), (TAU / 2, 0.5, 0.5 / TAU, 0.0))


def _gstar_generators(kind: str, n: int = 0) -> np.ndarray:
    """Generator rows [1, g] of the G* of ``kind`` ("D" with n, "T", "O" or
    "I"): e^{i pi/n} and jhat for D*_4n, else the quaternions above."""
    quats = {"T": _T_GENS, "O": _O_GENS, "I": _I_GENS}.get(kind)
    return np.array([_row(0.0, q) for q in
                     quats or (_circle(math.pi / n), _JHAT)])


def generators_of(spec: GroupSpec) -> np.ndarray:
    """Generator rows (k, 3) of the family table; the Hopf-fiber rotation
    [e^{i pi/m}, 1] always comes first for the non-cyclic families, and a
    product family's G* generators (``_gstar_generators``) follow it."""
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
    if f is Family.INDEX2:
        rows = [fiber, _row(0.0, _circle(math.pi / n)),
                _row(math.pi / (2 * m), _JHAT)]
    elif f is Family.INDEX3:    # diagonal inside the tetrahedral product
        rows = [fiber, _row(0.0, _IHAT), _row(0.0, _JHAT),
                _row(math.pi / (3 * m), (-0.5, -0.5, -0.5, 0.5))]
    else:
        rows = [fiber, *_gstar_generators(*_gstar_kind(spec))]
    return np.array(rows)


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


class FiniteGroup:
    """An enumerated subgroup, identity first: canonical (a, b1, b2) rows,
    or the exact ``Labels`` of a non-cyclic group, whose rows are built
    from the labels when they are first read."""

    def __init__(self, rows: np.ndarray | None = None,
                 labels: Labels | None = None) -> None:
        self._rows, self.labels = rows, labels

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            self._rows = self.labels.rows()
        return self._rows

    @property
    def order(self) -> int:
        return len(self.labels.k) if self._rows is None else len(self._rows)

    def eigen_data(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, phi) per element: eigenvalues are exp(i(theta +- phi))."""
        theta = np.angle(self.rows[:, 0])
        c = np.clip(self.rows[:, 1].real, -1.0, 1.0)
        return theta, np.arccos(c)

    def eigenvalue_one_count(self) -> int:
        """The elements with eigenvalue 1: exactly on labels, and within
        DEFAULT_TOLERANCE of 1 on rows alone (the cyclic path)."""
        if self.labels is not None:
            return self.labels.eigenvalue_one_count()
        theta, phi = self.eigen_data()
        d1 = np.abs(np.exp(1j * (theta + phi)) - 1.0)
        d2 = np.abs(np.exp(1j * (theta - phi)) - 1.0)
        return int(np.count_nonzero(np.minimum(d1, d2) < DEFAULT_TOLERANCE))


def generate_closure(generators: np.ndarray, max_order: int) -> FiniteGroup:
    """Breadth-first closure of the generator rows under composition.

    Deduplication is up to joint negation (quotient by the kernel of the
    double cover).  Raises ClosureOverflow past 2 * max_order elements,
    which signals numerical drift rather than a genuine group.

    It closes each G* once (``_gstar_closure``), for the T*, O* and I*
    tables and the product families' Gamma', and the index-2 and index-3
    Gamma' per spec.  The deformation residual is a float sum over Gamma' in
    this row order, and the benchmark goldens and
    ``tests/sweep_slice.sha256`` pin its bytes; Gamma' can become a view of
    Gamma once the character sum no longer reads row order (ROADMAP item 1).
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


# ---------------------------------------------------------------------------
# Exact labels for the non-cyclic groups
#
# Every non-cyclic catalog group is the image of a phase group times one
# binary polyhedral group G* in SU(2): D*_4n, T*, O* or I*.  Its element
# [e^{i pi k / N}, g_j] is the label (k, j), with N = m, 2m or 3m for the
# product, index-2 and index-3 families and g_j the j-th element of G*.
# The pairs (k, j) and (k + N, -j) are one element, so k is kept in
# 0..N-1, and the key k * |G*| + j is exact.  Products, membership,
# freeness and the Mobius image read these integers; rows are built from
# them only where a float is read (``FiniteGroup.rows``).
# ---------------------------------------------------------------------------

# Check a G* product this many entries at a time, so that no |G*|^2 array
# is made for the large D*_4n (n = 397 gives |G*| = 1588).
_CHECK_BLOCK = 1 << 16


def _su2_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The quaternion products x y of (b1, b2) pairs (last axis),
    broadcast over the leading axes."""
    x1, x2, y1, y2 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    return np.stack([x1 * y1 - x2 * np.conj(y2),
                     x1 * y2 + x2 * np.conj(y1)], -1)


@dataclass(eq=False)
class GStar:
    """A finite subgroup of SU(2) with its exact product.

    ``su2`` holds the elements as (b1, b2) rows, identity first, and
    ``gens`` the indices of a generating set.  The product of elements x and
    y (the quaternion g_x g_y) is ``table[x, y]``, or for D*_4n, whose
    element a + 2n*b is e^{i pi a/n} jhat^b, the formula of ``mul``.  The
    negation map, each element's order and its eigen-residue r (eigenvalues
    e^{+-2 pi i r / order}) are set by ``_checked``.
    """

    name: str
    su2: np.ndarray
    gens: tuple[int, ...]
    table: np.ndarray | None = None
    n: int = 0
    neg: np.ndarray | None = None
    order: np.ndarray | None = None
    residue: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.index = {k: i for i, k in enumerate(_row_keys(self.su2))}

    def mul(self, x, y):
        """The index of g_x g_y, for ints or broadcast integer arrays."""
        if self.table is not None:
            return self.table[x, y]
        n2 = 2 * self.n
        (b1, a1), (b2, a2) = divmod(x, n2), divmod(y, n2)
        # jhat e^{i t} = e^{-i t} jhat, and jhat^2 = -1 = e^{i pi n / n}
        return (a1 + (1 - 2 * b1) * a2 + self.n * b1 * b2) % n2 + n2 * (b1 ^ b2)


def _checked(g: GStar) -> GStar:
    """``g`` with its negation map, orders and eigen-residues, once it is a
    group; NotAGroup otherwise.

    The product must have element 0 as identity and be a Latin square, and
    it must pass Light's associativity test on the generators, which must
    generate every element: then it is a group.  The negation of each
    element (by grid key) must be a fixed-point-free involution, equal to
    the product with -1 on either side.  Each element's order and residue
    come from one snap of its eigen-angle arccos(Re b1) to the 2 pi / |G*|
    grid, and its power to that order in the product must be 1.
    """
    size, every = len(g.su2), np.arange(len(g.su2))

    def fail(what: str):
        raise NotAGroup(f"{g.name}: {what}")

    if not (np.array_equal(g.mul(0, every), every)
            and np.array_equal(g.mul(every, 0), every)):
        fail("element 0 is not the identity")
    for lo in range(0, size, max(1, _CHECK_BLOCK // size)):
        x = every[lo:lo + max(1, _CHECK_BLOCK // size), None]
        if not ((np.sort(g.mul(x, every), axis=1) == every).all()
                and (np.sort(g.mul(every, x), axis=1) == every).all()):
            fail("the product is not a Latin square")
        for s in g.gens:
            if not np.array_equal(g.mul(g.mul(x, s), every),
                                  g.mul(x, g.mul(s, every))):
                fail(f"Light's test fails at generator {s}")
    reach, front = every == 0, np.zeros(1, dtype=int)
    while len(front):
        new = np.zeros(size, dtype=bool)
        new[g.mul(front[:, None], np.array(g.gens))] = True
        new &= ~reach
        reach |= new
        front = np.flatnonzero(new)
    if not reach.all():
        fail("the generators do not generate it")

    neg = np.array([g.index.get(k, -1) for k in _row_keys(-g.su2)])
    if not ((neg >= 0).all() and (neg != every).all()
            and np.array_equal(neg[neg], every)
            and np.array_equal(g.mul(every, neg[0]), neg)
            and np.array_equal(g.mul(neg[0], every), neg)):
        fail("negation is not a central fixed-point-free involution")

    # eigenvalues e^{+-i phi}, phi = 2 pi t / |G*| (every order divides
    # |G*|), and t / |G*| = residue / order in lowest terms
    phi = np.arccos(np.clip(g.su2[:, 0].real, -1.0, 1.0))
    t = np.array([_snap_residue(f, size) for f in phi.tolist()])
    order = size // np.gcd(t, size)
    residue = t * order // size
    power, base, e = np.zeros(size, dtype=int), every, order
    while e.any():              # every element to the power of its order
        power = np.where(e & 1, g.mul(power, base), power)
        base, e = g.mul(base, base), e >> 1
    if power.any():
        fail("an element's power to the order of its eigenvalues is not 1")
    return replace(g, neg=neg, order=order, residue=residue)


@functools.cache
def _gstar_closure(kind: str, n: int = 0) -> FiniteGroup:
    """G* of ``kind`` as ``generate_closure`` of its generator rows
    [1, g], built on first use and kept for the process: the T*, O* and I*
    tables and every product family's Gamma' read it.  NotAGroup unless it
    has exactly |G*| elements (24, 48, 120 or 4n)."""
    size = {"T": 24, "O": 48, "I": 120}.get(kind, 4 * n)
    group = generate_closure(_gstar_generators(kind, n), size)
    if group.order != size:
        raise NotAGroup(f"{kind}*{4 * n or ''}: the closure has "
                        f"{group.order} elements, not {size}")
    group.rows.flags.writeable = False      # every m shares it
    return group


def _tabled(kind: str) -> GStar:
    """T*, O* or I* from its closure's SU(2) columns (identity first), with
    the product table of all pairs keyed back into them."""
    els = np.ascontiguousarray(_gstar_closure(kind).rows[:, 1:])
    index = {k: i for i, k in enumerate(_row_keys(els))}
    table = np.empty((len(els), len(els)), dtype=int)
    for lo in range(0, len(els), 8):       # 8 rows of products at a time
        keys = _row_keys(_su2_product(els[lo:lo + 8, None], els[None, :])
                         .reshape(-1, 2))
        try:
            table[lo:lo + 8] = np.fromiter(map(index.__getitem__, keys), int,
                                           len(keys)).reshape(-1, len(els))
        except KeyError:
            raise NotAGroup(f"{kind}*: a product is not an element") from None
    # the generators' own indices: the closure added each of them
    gens = _row_keys(_gstar_generators(kind)[:, 1:])
    return GStar(f"{kind}*", els, tuple(map(index.__getitem__, gens)), table)


def _binary_dihedral(n: int) -> GStar:
    """D*_4n exactly: element a + 2n*b is e^{i pi a/n} jhat^b, generated by
    e^{i pi/n} and jhat; its product is a formula, not a table."""
    z = np.exp(1j * math.pi / n * np.arange(2 * n))
    zero = np.zeros(2 * n, dtype=complex)
    su2 = np.concatenate([np.stack([z, zero], 1), np.stack([zero, z], 1)])
    return GStar(f"D*{4 * n}", su2, (1, 2 * n), n=n)


@functools.cache
def _gstar(kind: str, n: int = 0) -> GStar:
    """The checked G* of ``kind`` ("D" with n, "T", "O" or "I"), built on
    first use and kept for the process."""
    return _checked(_binary_dihedral(n) if kind == "D" else _tabled(kind))


def _gstar_kind(spec: GroupSpec) -> tuple:
    """The arguments that name a non-cyclic spec's G* to ``_gstar`` and
    ``_gstar_closure``: ("D", n), or ("T",), ("O",) or ("I",) as the
    tables call them, so that each G* has one key in each cache."""
    f = spec.family
    if f in (Family.DIHEDRAL, Family.INDEX2):
        return "D", spec.n
    return ({Family.OCTAHEDRAL: "O", Family.ICOSAHEDRAL: "I"}.get(f, "T"),)


def _gstar_of(spec: GroupSpec) -> tuple[GStar, int]:
    """The G* of a non-cyclic spec and its phase modulus N."""
    m = spec.m
    return (_gstar(*_gstar_kind(spec)),
            {Family.INDEX2: 2 * m, Family.INDEX3: 3 * m}.get(spec.family, m))


@dataclass(eq=False)
class Labels:
    """The elements (k[i], j[i]) of a group over ``gstar`` with phase
    modulus ``n``, identity first."""

    k: np.ndarray
    j: np.ndarray
    gstar: GStar
    n: int

    def rows(self, idx=slice(None)) -> np.ndarray:
        """Canonical (a, b1, b2) rows of the elements at ``idx``."""
        a = np.exp(1j * math.pi / self.n * self.k[idx])
        su2 = self.gstar.su2[self.j[idx]]
        return _canonical_rows(np.column_stack([a, su2]))

    def eigenvalue_one_count(self) -> int:
        """(k, j) has eigenvalues e^{i pi k/N} e^{+-2 pi i r/o}, with o and
        r the order and residue of g_j: eigenvalue 1 iff
        k o +- 2N r = 0 mod 2N o."""
        o, r = self.gstar.order[self.j], self.gstar.residue[self.j]
        a, b, mod = self.k * o, 2 * self.n * r, 2 * self.n * o
        ones = ((a + b) % mod == 0) | ((a - b) % mod == 0)
        return int(np.count_nonzero(ones))


def _label_rows(spec: GroupSpec, rows: np.ndarray, what: str) -> Labels:
    """The labels (k, j) of rows of ``spec``'s group, k in 0..N-1.  The
    phase of each must snap to the pi/N grid and its SU(2) part must have
    the grid key of an element of G*; else SnapFailure names the row as
    ``what`` and its index."""
    g, n = _gstar_of(spec)
    k = np.empty(len(rows), dtype=int)
    j = np.empty(len(rows), dtype=int)
    keys = _row_keys(rows[:, 1:3])
    for i, (a, key) in enumerate(zip(rows[:, 0].tolist(), keys)):
        try:
            k[i] = _snap_residue(math.atan2(a.imag, a.real), 2 * n)
        except SnapFailure:
            raise SnapFailure(f"{spec.label()}: the phase of {what} {i} is "
                              f"not on the pi/{n} grid") from None
        if key not in g.index:
            raise SnapFailure(f"{spec.label()}: the SU(2) part of {what} {i} "
                              f"is not in {g.name}")
        j[i] = g.index[key]
    wrap = k >= n
    k[wrap] -= n
    j[wrap] = g.neg[j[wrap]]
    return Labels(k, j, g, n)


def _labelled(spec: GroupSpec, group: FiniteGroup) -> FiniteGroup:
    """``group`` with exact labels: itself, or its rows labelled."""
    if group.labels is not None:
        return group
    return FiniteGroup(group.rows, _label_rows(spec, group.rows, "row"))


def _dimino(spec: GroupSpec) -> Labels:
    """Dimino's closure of the generators of a non-cyclic ``spec`` on
    labels.

    The powers of the first generator come first, identity first, up to
    the first that is the identity.  Each later generator that is not yet a
    member extends the group G generated so far by whole right cosets G.r
    (each element of G, then r): first r = the generator, then every
    product of a coset representative and a generator so far that is not
    yet a member.  A coset is one vector product over G's labels; membership
    is one boolean per key.  Raises ClosureOverflow past 2 * |Gamma|
    elements, as the float closures do.
    """
    lab = _label_rows(spec, generators_of(spec), "generator")
    g, n = lab.gstar, lab.n
    gens = list(zip(lab.k.tolist(), lab.j.tolist()))
    size, max_order = len(g.su2), spec.expected_order()
    limit = 2 * max_order
    too_many = f"closure exceeded {limit} elements (expected {max_order})"

    def wrap(k, j):             # (k, j) with k in 0..2N-1 as k in 0..N-1
        over = k >= n
        return k - n * over, np.where(over, g.neg[j], j)

    # Powers t of (k0, j0): t*k0 with the t-th power of j0 in G*, up to the
    # first that is the identity; the L-th is, L the lcm of the orders of
    # the two parts, so no later one is looked at.
    k0, j0 = gens[0]
    cycle = [0]
    for _ in range(int(g.order[j0]) - 1):
        cycle.append(int(g.mul(cycle[-1], j0)))
    t = np.arange(1, min(math.lcm(2 * n // math.gcd(k0, 2 * n), len(cycle)),
                         limit) + 1)
    kp, jp = wrap(t * k0 % (2 * n), np.array(cycle)[t % len(cycle)])
    ones = np.flatnonzero((kp == 0) & (jp == 0))
    if not len(ones):
        raise ClosureOverflow(too_many)
    ks = [np.concatenate([[0], kp[:ones[0]]])]
    js = [np.concatenate([[0], jp[:ones[0]]])]
    member = np.zeros(n * size, dtype=bool)
    member[ks[0] * size + js[0]] = True
    order = len(ks[0])

    for i in range(1, len(gens)):
        if member[gens[i][0] * size + gens[i][1]]:
            continue
        k_g, j_g = np.concatenate(ks), np.concatenate(js)
        reps = []

        def add_coset(r: tuple[int, int]) -> None:
            nonlocal order
            kc, jc = wrap(k_g + r[0], g.mul(j_g, r[1]))
            member[kc * size + jc] = True
            ks.append(kc)
            js.append(jc)
            reps.append(r)
            order += len(kc)
            if order > limit:
                raise ClosureOverflow(too_many)

        add_coset(gens[i])
        # reps grows while it is walked, so every new representative is
        # multiplied by every generator so far in its turn.
        for r in reps:
            for s in gens[:i + 1]:
                k, j = r[0] + s[0], int(g.mul(r[1], s[1]))
                c = (k - n, int(g.neg[j])) if k >= n else (k, j)
                if not member[c[0] * size + c[1]]:
                    add_coset(c)
    return Labels(np.concatenate(ks), np.concatenate(js), g, n)


def _enumerate_cyclic(spec: GroupSpec) -> FiniteGroup:
    """The powers of the one generator, identity first: k = 0..p, and
    k = 0..2p only when the p-th is not the identity."""
    return FiniteGroup(_powers(generators_of(spec)[0], spec.p, spec.p)[0])


def enumerate_group(spec: GroupSpec) -> FiniteGroup:
    """All elements of the group, identity first: a cyclic spec's as rows,
    every other as exact labels (``_dimino``)."""
    if spec.is_cyclic:
        return _enumerate_cyclic(spec)
    return FiniteGroup(labels=_dimino(spec))


def enumerate_gamma_prime(spec: GroupSpec) -> FiniteGroup:
    """Gamma': the closure of the generators without the Hopf-fiber
    rotation; InvalidParameters for a cyclic spec.

    For the product families this is the binary polyhedral group G*
    itself, the one cached closure that its table reads and that every m
    shares (``_gstar_closure``); for the index-2 and index-3 diagonal
    families it is the whole group, closed here for the spec.
    """
    if spec.is_cyclic:
        raise InvalidParameters("gamma-prime is defined for non-cyclic specs")
    if spec.family in (Family.INDEX2, Family.INDEX3):
        return generate_closure(generators_of(spec)[1:], spec.expected_order())
    return _gstar_closure(*_gstar_kind(spec))


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
