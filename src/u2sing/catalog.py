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
or, for D*_4n, a formula on (a, b).  Each generator is declared once as
such a label (``_declared``), and ``generators_of`` evaluates the
declaration as float rows.  Each G* is built once per process and checked
as a group before use (Latin square, Light's associativity test on its
generators).  The seed's powers come first, identity first; each later
generator that is not yet a member adds whole right cosets of the group
generated so far, and only the coset representatives' products with the
generators are tested for membership.  The G* holds the power cycles and
right multiplications that Dimino reads, built on first use, so a coset is
one gather and an enumeration over a G* that has them takes no product of
it.  The group is its labels (``Labels``): freeness, the eigenvalue
tables, an n = 1 group's lens type and the pole types read exact
eigen-angles off them, and no row is built from them.
A cyclic spec's generator is declared once as exact turns
(``_lens_turns``), in units of 1/(2p) turn, and its group is the powers of
the generator's eigen-turns, the sum and difference of those turns mod 2p,
up to the first that is (0, 0), so its order is found, not assumed
(``Turns``); joint negation leaves eigen-turns alone, so each element is
one pair, and its freeness and eigen-angles are integer tests on them.
The breadth-first closure on rows
(``generate_closure``) closes each G* once per process: T*, O* and I* take
their elements from it, and it is the Gamma' of every product spec over
that G*.  The index-2 and index-3 Gamma', the whole group, is closed per
spec; the deformation residual reads Gamma' in this row order.
It also provides the structural checks used downstream: freeness on S^3 (no
eigenvalue 1 away from the identity), eigenvalue statistics, and
normalization of the cyclic singularity labels L(alpha, beta).
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field
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
# order; |Gamma| and h (the order of the Mobius image; None if cyclic), as
# functions of the spec; the catalog condition, a predicate on the
# parameters in label order, so that a sweep refuses a candidate before it
# builds a spec; the condition as its refusal states it; the refusal of a
# missing parameter, formatted with the family and the parameter's name;
# and the label and key as str.format templates over the spec.
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
                    lambda q, p: math.gcd(q, p) == 1, "gcd(q,p) must be 1",
                    "{} needs parameters q, p with p >= 1"),
    Family.DIHEDRAL: (("m", "n"), lambda s: 4 * s.m * s.n, lambda s: 2 * s.n,
                      lambda m, n: math.gcd(m, 2 * n) == 1, "gcd(m,2n) must be 1"),
    Family.TETRAHEDRAL: (("m",), lambda s: 24 * s.m, lambda s: 12,
                         lambda m: math.gcd(m, 6) == 1, "gcd(m,6) must be 1"),
    Family.OCTAHEDRAL: (("m",), lambda s: 48 * s.m, lambda s: 24,
                        lambda m: math.gcd(m, 6) == 1, "gcd(m,6) must be 1"),
    Family.ICOSAHEDRAL: (("m",), lambda s: 120 * s.m, lambda s: 60,
                         lambda m: math.gcd(m, 30) == 1, "gcd(m,30) must be 1"),
    Family.INDEX2: (("m", "n"), lambda s: 4 * s.m * s.n, lambda s: 2 * s.n,
                    lambda m, n: m % 2 == 0 and math.gcd(m, n) == 1,
                    "needs m even and gcd(m,n)=1"),
    Family.INDEX3: (("m",), lambda s: 24 * s.m, lambda s: 12,
                    lambda m: math.gcd(m, 6) == 3, "gcd(m,6) must be 3"),
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
        if not r.holds(*(getattr(self, x) for x in r.params)):
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
# S^2 = C u {oo}; the left phase cancels.  Gamma' and the G* closures are
# (N, 3) complex arrays of such rows (``FiniteGroup``); a cyclic group is
# its exact eigen-turns and a non-cyclic group its exact labels (both
# below), and no row is built from either.
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
# The fixed threshold of the two float decisions that read a tolerance.
# Each reads it from its own module's globals when it runs, so a test
# patches it where it is read.  Their margins on the default sweep:
#   - the character-sum snap of ``invariants.dim_sfk``: worst residual
#     5.2e-13;
#   - the Eisenstein check ``sweep.check_eisenstein``: worst residual
#     2.1e-12 (2.0747847884194925e-12), first at (n, k) = (198, 35), from
#     one DFT per n.
# Freeness reads no float: a cyclic group is its exact eigen-turns and a
# non-cyclic group its exact labels, closed from declared generator labels.
# The other float decisions do not read it: ``_snap_residue`` snaps the
# T*, O* and I* residues within 1e-6 * modulus, row keys round on the
# 1 / KEY_SCALE grid, the sign rule compares coordinates to EQ_TOL, and
# ``invariants._chi_real_sum`` sends an element with sin(phi) <= 1e-7 to
# the Dirichlet kernel's limit 2m - 1.  Its margins on the default sweep's
# 1,762 Gamma' sums: the largest sin(phi) sent to the limit is 4.47e-8
# (2.2x below the cutoff), on 189 index-2 specs, index2(m=10, n=19) first,
# from BFS drift of about 1e-15 in Re b1; the smallest kept is 0.1305, at
# dihedral(m=5, n=24).  At the cutoff the two branches differ by at most
# 2.3e-8 per element for m <= 120, so no dimension can flip, only the
# residual's last bits (``tests/ci_steps.py`` checks the gap).
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


# Generating quaternions (x0, x1, x2, x3) of T*, O* and I*, and the SU(2)
# part of the index-3 family's diagonal generator, an element of T*.
_T_GENS = ((0.5, 0.5, 0.5, -0.5), (0.5, 0.5, 0.5, 0.5))
_O_GENS = (_circle(math.pi / 4), (0.5, 0.5, 0.5, 0.5))
_I_GENS = ((0.5, TAU / 2, 0.0, -0.5 / TAU), (TAU / 2, 0.5, 0.5 / TAU, 0.0))
_T_DIAGONAL = (-0.5, -0.5, -0.5, 0.5)


def _gstar_quaternions(kind: str) -> tuple:
    """The quaternions that the catalog names in the table of ``kind`` ("T",
    "O" or "I"): its two generators, 1, and for T* the i, j and diagonal
    part that the index-3 generators take from it."""
    gens = {"T": _T_GENS, "O": _O_GENS, "I": _I_GENS}[kind]
    return (*gens, _ONE, *((_IHAT, _JHAT, _T_DIAGONAL) if kind == "T" else ()))


def _gstar_gens(kind: str, n: int = 0) -> tuple:
    """The two generators of the G* of ``kind`` ("D" with n, "T", "O" or
    "I"), declared once: D*_4n's elements 1 and 2n (e^{i pi/n} and jhat,
    as ``_binary_dihedral`` indexes it), else the table's first two named
    quaternions.  Every reader takes them from here: the spec generators
    (``_declared``), each G*'s generating set (``_binary_dihedral``,
    ``_tabled``) and its closure on rows (``_gstar_closure``)."""
    return (1, 2 * n) if kind == "D" else _gstar_quaternions(kind)[:2]


def _lens_turns(spec: GroupSpec) -> tuple[int, int]:
    """The generator [e^{2 pi i k/p}, e^{2 pi i (1 - k)/p}] of L(q, p), with
    2k = q + 1 mod p, declared as its turns k/p and (1 - k)/p in units of
    1/(2p) turn: (2k, 2(1 - k)).  Its eigenvalues are e^{2 pi i/p} and
    e^{2 pi i q/p}."""
    q, p = spec.q, spec.p
    # for even p, q is odd so q+1 is even
    k = (q + 1) * pow(2, -1, p) % p if p % 2 else (q + 1) // 2 % p
    return 2 * k, 2 * (1 - k)


def _declared(spec: GroupSpec) -> tuple[int, list[tuple[int, int | tuple]]]:
    """A non-cyclic spec's generators, declared once: its phase modulus N
    (m, 2m or 3m for the product, index-2 and index-3 families) and each
    generator [e^{i pi k/N}, g] as (k, g), g the D*_4n element a + 2n*b or
    a quaternion that the table of T*, O* or I* names
    (``_gstar_quaternions``).  The Hopf-fiber rotation [e^{i pi/m}, 1]
    comes first, and a product family's G* generators (``_gstar_gens``)
    follow it; the index-2 family takes D*_4n's with phase steps 0 and 1,
    the index-3 family T*'s i, j and diagonal part."""
    f, m = spec.family, spec.m
    if f is Family.INDEX3:      # diagonal inside the tetrahedral product
        return 3 * m, [(3, _ONE), (0, _IHAT), (0, _JHAT), (1, _T_DIAGONAL)]
    gens = _gstar_gens(*_gstar_kind(spec))
    if f is Family.INDEX2:      # [e^{i pi/(2m)}, jhat] replaces [1, jhat]
        return 2 * m, [(2, 0), *zip((0, 1), gens)]
    return m, [(1, 0 if f is Family.DIHEDRAL else _ONE),
               *((0, g) for g in gens)]


def _quaternion(g: int | tuple, n: int) -> tuple[float, float, float, float]:
    """A declared SU(2) part as a quaternion: a named one as it is, the
    D*_4n element a + 2n*b as e^{i pi a/n} jhat^b."""
    if isinstance(g, tuple):
        return g
    x = _circle(math.pi * (g % (2 * n)) / n)
    return x[2:] + x[:2] if g >= 2 * n else x   # e^{it} jhat: (0, 0, cos, sin)


def generators_of(spec: GroupSpec) -> np.ndarray:
    """Generator rows (k, 3) of the family table: the declared generators,
    evaluated.  A cyclic spec's is its turns (``_lens_turns``); a
    non-cyclic spec's (``_declared``) are [e^{i pi k/N}, g], the phase
    taken as pi * a / b with k/N = a/b in lowest terms.  The rows are read
    by the index-2 and index-3 Gamma' and by the tests' float references;
    the enumeration reads the declared labels."""
    if spec.is_cyclic:
        x, y = _lens_turns(spec)
        return np.array([_row(math.pi * x / spec.p,
                              _circle(math.pi * y / spec.p))])
    big_n, gens = _declared(spec)
    # k/N in lowest terms: the fiber's phase 3 pi/3m is pi/m, to the bit
    return np.array([_row(math.pi * t.numerator / t.denominator,
                          _quaternion(g, spec.n))
                     for t, g in ((Fraction(k, big_n), g) for k, g in gens)])


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


@dataclass(eq=False)
class FiniteGroup:
    """A group closed on rows: canonical (a, b1, b2) rows, identity first
    (Gamma', or a G* as its rows [1, g])."""

    rows: np.ndarray

    @property
    def order(self) -> int:
        return len(self.rows)

    def eigen_data(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, phi) per element: eigenvalues are exp(i(theta +- phi))."""
        theta = np.angle(self.rows[:, 0])
        c = np.clip(self.rows[:, 1].real, -1.0, 1.0)
        return theta, np.arccos(c)


def _su2_product(x1, x2, y1, y2) -> tuple[np.ndarray, np.ndarray]:
    """The quaternion product (x1 + x2 jhat)(y1 + y2 jhat) as its two
    coordinates, for complex scalars or broadcast columns.  No array of
    pairs is stacked: ``generate_closure`` writes each coordinate straight
    into its column of candidates, and ``_tabled`` stacks once per block."""
    return x1 * y1 - x2 * np.conj(y2), x1 * y2 + x2 * np.conj(y1)


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
    Gamma once the character sum no longer reads row order (ROADMAP item B).
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
        cand[:, 1], cand[:, 2] = _su2_product(b1, b2, b1_g, b2_g)
        cand = _canonical_rows(cand)
        fresh = _fresh_indices(_row_keys(cand), seen)
        if len(seen) > 2 * max_order:
            raise ClosureOverflow(
                f"closure exceeded {2 * max_order} elements (expected {max_order})")
        frontier = cand[fresh]
        chunks.append(frontier)

    return FiniteGroup(np.concatenate(chunks, axis=0))


# ---------------------------------------------------------------------------
# Exact labels for the non-cyclic groups
#
# Every non-cyclic catalog group is the image of a phase group times one
# binary polyhedral group G* in SU(2): D*_4n, T*, O* or I*.  Its element
# [e^{i pi k / N}, g_j] is the label (k, j), with N = m, 2m or 3m for the
# product, index-2 and index-3 families and g_j the j-th element of G*.
# The pairs (k, j) and (k + N, -j) are one element, so k is kept in
# 0..N-1, and the key k * |G*| + j is exact.  The generators are declared
# as labels (``_declared``), and products, membership, freeness, the
# eigen-angles and the Mobius image read these integers; no row is built
# from labels.  D*_4n is a formula on (a, b); the float decisions left are
# the grid keys and residue snaps of the T*, O* and I* tables (``_tabled``).
# ---------------------------------------------------------------------------

# Check a G* product this many entries at a time, so that no |G*|^2 array
# is made for the large D*_4n (n = 397 gives |G*| = 1588).
_CHECK_BLOCK = 1 << 16


@dataclass(eq=False)
class GStar:
    """A finite subgroup of SU(2) with its exact product.

    Element 0 is the identity, and ``gens`` holds the indices of a
    generating set.  The product of elements x and y (the quaternion
    g_x g_y) is ``table[x, y]``, or for D*_4n, whose element a + 2n*b is
    e^{i pi a/n} jhat^b, the formula of ``mul``.  ``neg`` maps each element
    to its negative, and ``order`` and ``residue`` give its eigenvalues
    e^{+-2 pi i residue / order}; ``_checked`` checks all of them.  A
    table's ``named`` maps each quaternion the catalog names in it
    (``_gstar_quaternions``) to its index.

    ``tables`` holds what Dimino asks of the G* (``right``, ``cycle``,
    ``ints``), each built from ``mul`` on first use, and the stabilizers of
    its Mobius image (``resolution._image_stabilizers``), each kept on the
    object by ``held``: they go with it when ``_gstar``'s cache is cleared.
    """

    name: str
    gens: tuple[int, ...]
    neg: np.ndarray
    order: np.ndarray
    residue: np.ndarray
    table: np.ndarray | None = None
    n: int = 0
    named: dict | None = None
    tables: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def size(self) -> int:
        return 4 * self.n if self.table is None else len(self.table)

    def held(self, key, build):
        """``tables[key]``, made by ``build()`` on first use."""
        if key not in self.tables:
            self.tables[key] = build()
        return self.tables[key]

    def right(self, r: int) -> np.ndarray:
        """Right multiplication by element r, the permutation
        ``mul(arange(size), r)``."""
        return self.held(("right", r),
                          lambda: self.mul(np.arange(self.size), r))

    def cycle(self, j: int) -> np.ndarray:
        """The powers of element j, identity first, up to its order."""
        def build():
            powers = [0]
            for _ in range(int(self.order[j]) - 1):
                powers.append(int(self.mul(powers[-1], j)))
            return np.array(powers)
        return self.held(("cycle", j), build)

    def ints(self) -> tuple[list[int], list[int]]:
        """``neg`` and ``order`` as lists of ints."""
        return self.held("ints", lambda: (self.neg.tolist(),
                                           self.order.tolist()))

    def mul(self, x, y):
        """The index of g_x g_y, for ints or broadcast integer arrays."""
        if self.table is not None:
            return self.table[x, y]
        n2 = 2 * self.n
        (b1, a1), (b2, a2) = divmod(x, n2), divmod(y, n2)
        # jhat e^{i t} = e^{-i t} jhat, and jhat^2 = -1 = e^{i pi n / n}
        return (a1 + (1 - 2 * b1) * a2 + self.n * b1 * b2) % n2 + n2 * (b1 ^ b2)


def _checked(g: GStar) -> GStar:
    """``g`` once it is a group with the negation, orders and residues it
    carries; NotAGroup otherwise.

    The product must have element 0 as identity and be a Latin square, and
    it must pass Light's associativity test on the generators, which must
    generate every element: then it is a group.  The negation must be a
    fixed-point-free involution, equal to the product with -1 on either
    side, and each element's power to its order in the product must be 1.
    """
    size, every = g.size, np.arange(g.size)

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

    neg = g.neg
    if not ((neg >= 0).all() and (neg != every).all()
            and np.array_equal(neg[neg], every)
            and np.array_equal(g.mul(every, neg[0]), neg)
            and np.array_equal(g.mul(neg[0], every), neg)):
        fail("negation is not a central fixed-point-free involution")

    power, base, e = np.zeros(size, dtype=int), every, g.order
    while e.any():              # every element to the power of its order
        power = np.where(e & 1, g.mul(power, base), power)
        base, e = g.mul(base, base), e >> 1
    if power.any():
        fail("an element's power to the order of its eigenvalues is not 1")
    return g


def _orders(t: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The orders and residues of elements with eigenvalues
    e^{+-2 pi i t / size}: t / size = residue / order in lowest terms (every
    order divides |G*| = size)."""
    order = size // np.gcd(t, size)
    return order, t * order // size


@functools.cache
def _gstar_closure(kind: str, n: int = 0) -> FiniteGroup:
    """G* of ``kind`` as ``generate_closure`` of its generator rows
    [1, g], ``_gstar_gens`` evaluated as ``generators_of`` evaluates a
    declaration, built on first use and kept for the process: the T*, O*
    and I* tables and every product family's Gamma' read it.  NotAGroup
    unless it has exactly |G*| elements (24, 48, 120 or 4n)."""
    size = {"T": 24, "O": 48, "I": 120}.get(kind, 4 * n)
    rows = [_row(0.0, _quaternion(g, n)) for g in _gstar_gens(kind, n)]
    group = generate_closure(np.array(rows), size)
    if group.order != size:
        raise NotAGroup(f"{kind}*{4 * n or ''}: the closure has "
                        f"{group.order} elements, not {size}")
    group.rows.flags.writeable = False      # every m shares it
    return group


def _tabled(kind: str) -> GStar:
    """T*, O* or I* from its closure's SU(2) columns (identity first): the
    product table of all pairs, the negation map and the named quaternions
    keyed back into them, and each element's order and residue from one
    snap of its eigen-angle arccos(Re b1) to the 2 pi / |G*| grid.  These
    are the catalog's one float G*.  NotAGroup when a product or a named
    quaternion is not an element of the closure."""
    els = np.ascontiguousarray(_gstar_closure(kind).rows[:, 1:])
    index = {k: i for i, k in enumerate(_row_keys(els))}
    table = np.empty((len(els), len(els)), dtype=int)
    for lo in range(0, len(els), 8):       # 8 rows of products at a time
        c1, c2 = _su2_product(els[lo:lo + 8, 0, None], els[lo:lo + 8, 1, None],
                              els[:, 0], els[:, 1])
        keys = _row_keys(np.stack([c1.ravel(), c2.ravel()], -1))
        try:
            table[lo:lo + 8] = np.fromiter(map(index.__getitem__, keys), int,
                                           len(keys)).reshape(-1, len(els))
        except KeyError:
            raise NotAGroup(f"{kind}*: a product is not an element") from None
    # the closure added each named quaternion: they are its generators or
    # products of them
    quats = _gstar_quaternions(kind)
    keys = _row_keys(np.array([_row(0.0, q)[1:] for q in quats]))
    if any(k not in index for k in keys):
        raise NotAGroup(f"{kind}*: a named quaternion is not an element")
    named = dict(zip(quats, map(index.__getitem__, keys)))
    neg = np.array([index.get(k, -1) for k in _row_keys(-els)])
    phi = np.arccos(np.clip(els[:, 0].real, -1.0, 1.0))
    t = np.array([_snap_residue(f, len(els)) for f in phi.tolist()])
    return GStar(f"{kind}*", tuple(named[q] for q in _gstar_gens(kind)), neg,
                 *_orders(t, len(els)), table=table, named=named)


def _binary_dihedral(n: int) -> GStar:
    """D*_4n exactly, on (a, b) alone: element a + 2n*b is
    e^{i pi a/n} jhat^b, generated by e^{i pi/n} and jhat; its product is a
    formula, not a table.  Its negative is (a + n mod 2n) + 2n*b, and its
    eigenvalues are e^{+-2 pi i t / 4n} with t = 2 min(a, 2n - a) for b = 0
    and t = n (+-i) for b = 1."""
    a, b = np.tile(np.arange(2 * n), 2), np.repeat([0, 1], 2 * n)
    t = np.where(b, n, 2 * np.minimum(a, 2 * n - a))
    return GStar(f"D*{4 * n}", _gstar_gens("D", n),
                 (a + n) % (2 * n) + 2 * n * b,
                 *_orders(t, 4 * n), n=n)


@functools.cache
def _gstar(kind: str, n: int = 0) -> GStar:
    """The checked G* of ``kind`` ("D" with n, "T", "O" or "I"), built on
    first use and kept for the process with the tables Dimino and the
    Mobius image build on it (``GStar.tables``): ``cache_clear`` drops
    both."""
    return _checked(_binary_dihedral(n) if kind == "D" else _tabled(kind))


def _gstar_kind(spec: GroupSpec) -> tuple:
    """The arguments that name a non-cyclic spec's G* to ``_gstar`` and
    ``_gstar_closure``: ("D", n), or ("T",), ("O",) or ("I",) as the
    tables call them, so that each G* has one key in each cache."""
    f = spec.family
    if f in (Family.DIHEDRAL, Family.INDEX2):
        return "D", spec.n
    return ({Family.OCTAHEDRAL: "O", Family.ICOSAHEDRAL: "I"}.get(f, "T"),)


@dataclass(eq=False)
class Labels:
    """The elements (k[i], j[i]) of a group over ``gstar`` with phase
    modulus ``n``, identity first."""

    k: np.ndarray
    j: np.ndarray
    gstar: GStar
    n: int

    @property
    def order(self) -> int:
        return len(self.k)

    def eigen_residues(self, modulus: int) -> tuple[np.ndarray, np.ndarray]:
        """The eigen-angles k/2N + r/o and k/2N - r/o turns of each element
        (o and r the order and residue of g_j), times ``modulus``, as two
        integer arrays mod ``modulus``: modulus (k o +- 2N r) / (2N o).
        SnapFailure unless every one is an integer."""
        o, r = self.gstar.order[self.j], self.gstar.residue[self.j]
        return _residues(self.k * o + 2 * self.n * r,
                         self.k * o - 2 * self.n * r, 2 * self.n * o, modulus)

    def eigenvalue_one_count(self) -> int:
        """(k, j) has eigenvalues e^{i pi k/N} e^{+-2 pi i r/o}, with o and
        r the order and residue of g_j (coprime): eigenvalue 1 iff
        k o +- 2N r = 0 mod 2N o, that is iff o divides 2N and
        k = -+(2N/o) r mod 2N.  So two witness tables with one entry per
        element j of G* hold the k in 0..2N-1 that gives each sign
        eigenvalue 1, or -1 where o does not divide 2N; the count reads
        them at every element's j, two gathers and two compares with no
        modulo over the group."""
        two_n, o, r = 2 * self.n, self.gstar.order, self.gstar.residue
        divides, step = two_n % o == 0, two_n // o
        plus = np.where(divides, -step * r % two_n, -1)
        minus = np.where(divides, step * r % two_n, -1)
        ones = (self.k == plus[self.j]) | (self.k == minus[self.j])
        return int(np.count_nonzero(ones))


def _residues(plus: np.ndarray, minus: np.ndarray, den,
              modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """The turns plus / den and minus / den times ``modulus``, as two integer
    arrays mod ``modulus``; SnapFailure unless every one is an integer."""
    out = []
    for num in (plus, minus):
        q, rem = np.divmod(modulus * num, den)
        if rem.any():
            raise SnapFailure(f"an eigen-angle is not a multiple of "
                              f"1/{modulus} turn")
        out.append(q % modulus)
    return tuple(out)


def _generator_labels(spec: GroupSpec) -> tuple[GStar, int,
                                                list[tuple[int, int]]]:
    """A non-cyclic spec's G*, its phase modulus N and its declared
    generators (``_declared``) as labels (k, j) with k in 0..N-1: (k, j)
    with k >= N is (k - N, -j), and a named quaternion is the index its
    table gave it once.  No float is read."""
    g = _gstar(*_gstar_kind(spec))
    n, gens = _declared(spec)
    labels = [(k, g.named[e] if isinstance(e, tuple) else e) for k, e in gens]
    return g, n, [(k - n, int(g.neg[j])) if k >= n else (k, j)
                  for k, j in labels]


def _dimino(spec: GroupSpec) -> Labels:
    """Dimino's closure of the generators of a non-cyclic ``spec`` on
    labels.

    The seed is the first generator, the Hopf-fiber rotation, or the
    product of the first two when its order bound is larger; the product
    then takes the fiber's place among the generators, which still generate
    Gamma.  The bound of (k, j) is lcm(2N / gcd(k, 2N), |g_j|).  Dimino
    pays one coset per index of the seed's cycle in Gamma, so the longer
    cycle means fewer cosets: a dihedral or index-2 seed
    [e^{i pi/m}, e^{i pi/n}] has index 2 (its powers and one jhat coset),
    or 4 for a dihedral spec with odd n, where its order is mn, against
    about 2n for the fiber.  The seed's powers come first, identity first,
    up to the first that is the identity: one gather from the G*'s cycle of
    the seed's SU(2) part (``GStar.cycle``).  Each later generator that is
    not yet a member extends the group G generated so far by whole right
    cosets G.r (each element of G, then r): first r = the generator, then
    every product of a coset representative and a generator so far that is
    not yet a member.  A coset is one gather of G's j through the
    permutation that right-multiplies by r's SU(2) part (``GStar.right``),
    and a representative's product is one lookup in such a permutation, so
    a G* that holds its tables is not multiplied again; membership is one
    boolean per key.  Raises ClosureOverflow past 2 * |Gamma| elements, as
    the float closures do.

    The order of the listing is the seed's; the Mobius stage reads Gamma
    as a set (``resolution._coset_indices``).
    """
    g, n, gens = _generator_labels(spec)
    size, max_order = g.size, spec.expected_order()
    limit = 2 * max_order
    too_many = f"closure exceeded {limit} elements (expected {max_order})"
    negs, orders = g.ints()

    def wrap(k, j):             # (k, j) with k in 0..2N-1 as k in 0..N-1
        over = k >= n
        return k - n * over, np.where(over, g.neg[j], j)

    def times(r, s):            # the label of the product r s
        k, j = r[0] + s[0], int(g.right(s[1])[r[1]])
        return (k - n, negs[j]) if k >= n else (k, j)

    def bound(k, j):            # the lcm of the orders of the two parts
        return math.lcm(2 * n // math.gcd(k, 2 * n), orders[j])

    product = times(*gens[:2])
    if bound(*product) > bound(*gens[0]):
        gens[0] = product
    # Powers t of the seed (k0, j0): t*k0 with the t-th power of j0 in G*,
    # up to the first that is the identity; the bound-th is, so no later
    # one is looked at.
    k0, j0 = gens[0]
    cycle = g.cycle(j0)
    t = np.arange(1, min(bound(k0, j0), limit) + 1)
    kp, jp = wrap(t * k0 % (2 * n), cycle[t % len(cycle)])
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
            kc, jc = wrap(k_g + r[0], g.right(r[1])[j_g])
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
                c = times(r, s)
                if not member[c[0] * size + c[1]]:
                    add_coset(c)
    return Labels(np.concatenate(ks), np.concatenate(js), g, n)


# ---------------------------------------------------------------------------
# Exact turns for the cyclic groups
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Turns:
    """The elements diag(e^{i pi plus[i]/p}, e^{i pi minus[i]/p}) of a
    cyclic group, identity first: the eigen-turns plus/2p and minus/2p of
    each element on the 1/(2p) grid, in 0..2p-1.  The pair [e^{i pi x/p},
    e^{i pi y/p}] has eigen-turns (x + y, x - y) mod 2p, and its joint
    negation (x + p, y + p) has the same ones, so each element has one
    pair."""

    plus: np.ndarray
    minus: np.ndarray
    p: int

    @property
    def order(self) -> int:
        return len(self.plus)

    def eigen_residues(self, modulus: int) -> tuple[np.ndarray, np.ndarray]:
        """The eigen-turns plus/2p and minus/2p of each element, times
        ``modulus``, as two integer arrays mod ``modulus``.  SnapFailure
        unless every one is an integer."""
        return _residues(self.plus, self.minus, 2 * self.p, modulus)

    def eigenvalue_one_count(self) -> int:
        """The elements with eigenvalue 1: plus or minus is 0."""
        return int(np.count_nonzero((self.plus == 0) | (self.minus == 0)))


def _enumerate_cyclic(spec: GroupSpec) -> Turns:
    """The powers t (plus, minus) mod 2p of the eigen-turns
    ((x + y) mod 2p, (x - y) mod 2p) of the declared generator turns
    (x, y) (``_lens_turns``), identity first, up to the first one at
    (0, 0): the order is found, not assumed.  The 2p-th power is (0, 0),
    so the order divides 2p."""
    two_p = 2 * spec.p
    x, y = _lens_turns(spec)
    t = np.arange(two_p + 1)
    plus, minus = t * ((x + y) % two_p) % two_p, t * ((x - y) % two_p) % two_p
    # the first power after the identity with plus | minus = 0; the 2p-th
    # is one
    order = (plus | minus)[1:].argmin() + 1
    return Turns(plus[:order], minus[:order], spec.p)


def enumerate_group(spec: GroupSpec) -> Turns | Labels:
    """All elements of the group, identity first: a cyclic spec's as exact
    eigen-turns, every other as exact labels (``_dimino``)."""
    return _enumerate_cyclic(spec) if spec.is_cyclic else _dimino(spec)


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

def is_fixed_point_free(group: Turns | Labels) -> bool:
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


def cyclic_equivalent_type(group: Turns | Labels) -> CyclicType | None:
    """Lens label of a cyclic group, or None if no single generator exists.

    A free cyclic group of order N contains an element whose matrix is
    conjugate to diag(zeta_N, zeta_N^q); normalizing the exponent pair by
    the inverse of the first gives q, reported insensitive to the
    conjugation swap q <-> q^{-1}.  The exponents are the group's
    ``eigen_residues`` mod N, all of them snapped, and they are read one
    element at a time up to the first that gives a type: for a lens group
    that is element 1, its generator.
    """
    n = group.order
    for k1, k2 in zip(*group.eigen_residues(n)):
        k1, k2 = int(k1), int(k2)
        if math.gcd(k1, n) == 1:
            q = (k2 * pow(k1, -1, n)) % n
            if math.gcd(q, n) != 1:
                continue        # eigenvalue 1 somewhere: not free, not a lens
            return canonical_cyclic(min(q, pow(q, -1, n)), n)
    return None


def eigenvalue_histogram(group: Turns | Labels) -> Counter:
    """Multiset of eigenvalue pairs, keyed by the exact pair of angle
    fractions (angle / 2pi, sorted), with element counts.

    Angles in a finite matrix group of order N are multiples of 2pi/N, so
    they are the group's ``eigen_residues`` mod N.
    """
    n = group.order
    counts: Counter = Counter()
    for a1, a2 in zip(*(x.tolist() for x in group.eigen_residues(n))):
        counts[tuple(sorted((Fraction(a1, n), Fraction(a2, n))))] += 1
    return counts
