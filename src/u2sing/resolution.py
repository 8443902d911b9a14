"""Orbifold singularities, resolution and compactification graphs.

For a non-cyclic catalog group the model quotient carries exactly three
isolated cyclic singularities sitting on a central rational curve.  This
module computes the three types twice:

  * by the family table (dihedral-shaped families get {L(1,2), L(1,2),
    L(-m,n)}, the tetrahedral product {L(1,2), L(-m,3), L(-m,3)}, and so on),
  * and algorithmically, from the enumerated group alone: project it to
    its Mobius action on the Hopf base (one coset per Mobius map: the
    group's G* labels up to sign), take the image's product table from the
    checked G* product of the coset labels, and read the pole orbits from
    it exactly: each conjugacy class of pole stabilizers (the largest cyclic
    subgroups) gives one orbit or two, as its normalizer swaps a stabilizer's
    two poles or not.  The type at a pole is read from the eigen-angles of
    a stabilizer generator, exact fractions of a turn read off its label
    and kept as integer pairs (num, den): the tangent rotation is the ratio
    of its eigenvalues, and the normal direction carries the 2m-th power of
    the eigenvalue on the pole's line, because the model fiber is a
    degree-2m quotient; each rotation number is one integer ``divmod``.  No
    float is read on this route: the group's generators are declared as
    labels (``catalog._declared``), and only the T*, O* and I* tables were
    keyed from floats, once per process (``catalog._tabled``).  The
    stabilizer classes depend on the G* alone: every image is G*/+-1, so
    they are computed once per process for each G*; the types are read per
    spec.

``singularity_triple`` returns the triple only when the two routes agree
exactly.

The minimal resolution is the star-shaped plumbing with central weight
-b_Gamma and one Hirzebruch-Jung string per singularity (first entry adjacent
to the center); the compactification adds a second star with the dual
strings L(beta - alpha, beta).  The central weight satisfies two independent
identities that are cross-checked everywhere:

    b = 2 + (4m/|Gamma|) * (m - (m mod |Gamma|/4m))
    b = alpha1/beta1 + alpha2/beta2 + alpha3/beta3 + 2m/h,

with h the order of the Mobius image; the rational sum is one integer pair
(num, den), compared with the integer route by cross-multiplication.  The
boundary of a star-shaped plumbing is Seifert fibered with rational Euler
number

    e = center + sum_i 1/[e^i_1, ..., e^i_{k_i}]

(read from the center outward); for resolution stars this is exactly -2m/h,
which pins the arm orientation, and the compactification star must carry the
orientation-reversed value +2m/h.  That fixes its central weight b' (the
Seifert solution 2m/h - sum q_i/p_i, one integer pair from the continuants
(p_i, q_i) of the dual strings, read through ``hj.continuant``); the
lattice criteria (signature (1, kappa), square determinant) are a second
route to it, evaluated for every candidate weight from one elimination
because only the compactification centre's pivot depends on the weight.

All lattice computations (definiteness, signature, determinants) run in
exact integer arithmetic by eliminating the plumbing tree leaf-first: each
pivot is an integer pair (num, den), an arm pivot the continuant of the
arm's tail, the centre pivot over the common denominator of the arm heads.
A signature reads sign(num) * sign(den) of each pivot, and a determinant is
one exact division of the product of the numerators by that of the
denominators.  ``resolution_graph`` eliminates the resolution star once,
and ``resolution_chain`` a lens chain; the record carries the pivots and
how many are positive and negative, counted in one pass.  Definiteness
and tau read those counts; the Seifert Euler number (the centre pivot is
the Schur complement center + sum 1/[|w_1|, ..., |w_k|]) and the
resolution block of every b' determinant are read from the pivots.  The
compactification star is eliminated at c = 0 for the pencil and again at b'
for the full elimination, the two lattice routes of the b' cross-check.

Every exact test of this module runs on integers.  A ``Fraction`` is built
only for a stored or printed value: ``seifert_value`` (2m/h), the
pencil's threshold (``CentrePencil.threshold``), and the reduced value
that a failed b_Gamma or b' cross-check prints.  ``b_gamma`` returns the
int b_Gamma; ``report`` builds the report's ``b_gamma_rational`` from it
(Fraction(b_Gamma), what the rational route equals once the routes
agree), and one more ``Fraction`` for the ``seifert_euler_calibration``
detail, from the centre pivot.

``GroupSpec``'s constructor refuses parameters outside the catalog, so every
stage trusts the spec it is given; ``table_singularities`` still refuses a
cyclic one (n = 1 included).  The stages take the records of the stages
before them (the enumerated group, the triple, b_Gamma, the resolution) and
trust them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .catalog import (CyclicType, Family, GroupSpec, GStar, Labels,
                      canonical_cyclic)
from .errors import (AmbiguousCandidate, CrossCheckFailure, InvalidParameters,
                     MalformedGraph, NoCandidate, OrbitCountMismatch,
                     SnapFailure, TableDisagreement)
from . import hj
from .hj import dual_type, hj_string


# ---------------------------------------------------------------------------
# Plumbing graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlumbingGraph:
    """Star-shaped weighted tree: a central vertex and up to three chains.

    Arm tuples hold the signed self-intersection weights, the entry adjacent
    to the center first.  A bare chain is a star with a single arm.
    """

    center: int
    arms: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return 1 + sum(len(a) for a in self.arms)

    def weights(self) -> list[int]:
        """Center first, then each arm outward (the DOT/report order)."""
        out = [self.center]
        for arm in self.arms:
            out.extend(arm)
        return out

    def _edges(self) -> Iterator[tuple[int, int]]:
        """Each arm's edges outward from the center, as vertex indices in
        ``weights()`` order."""
        pos = 1
        for arm in self.arms:
            prev = 0
            for _ in arm:
                yield prev, pos
                prev = pos
                pos += 1

    def pivots(self) -> list[tuple[int, int]]:
        """Diagonal of the exact LDL^T elimination, leaves first, each pivot
        an integer pair (num, den) meaning num/den, den never zero.

        By Sylvester's law the signs sign(num) * sign(den) give the
        signature; the product is the determinant of the intersection matrix.
        """
        out: list[tuple[int, int]] = []
        cn, cd = self.center, 1
        for arm in self.arms:
            # Integer continuants: the pivot w - 1/(num/den) is (w*num - den)/num.
            num, den = 1, 0
            for w in reversed(arm):
                num, den = w * num - den, num
                if num == 0:
                    raise MalformedGraph("zero pivot while eliminating an arm")
                out.append((num, den))
            cn, cd = cn * num - den * cd, cd * num      # cn/cd - den/num
        out.append((cn, cd))
        return out


def _inertia(pivots: list[tuple[int, int]]) -> tuple[int, int]:
    """(positive, negative) counts of elimination pivots (Sylvester's law),
    each pivot's sign that of num * den; raises on a zero pivot, i.e. a
    degenerate matrix."""
    signs = [num * den for num, den in pivots]
    if 0 in signs:
        raise MalformedGraph("degenerate intersection matrix")
    return sum(s > 0 for s in signs), sum(s < 0 for s in signs)


def _integer_det(pivots: list[tuple[int, int]]) -> int:
    """Product of elimination pivots, the determinant of an integer matrix:
    one exact division of the numerators' product by the denominators'."""
    det, rest = divmod(math.prod(num for num, _ in pivots),
                       math.prod(den for _, den in pivots))
    if rest:
        raise CrossCheckFailure("integer matrix with non-integer determinant")
    return det


# ---------------------------------------------------------------------------
# Singularity triples
# ---------------------------------------------------------------------------

def table_singularities(spec: GroupSpec) -> tuple[CyclicType, CyclicType, CyclicType]:
    """The family table of orbifold types, normalized mod beta.

    A cyclic spec (n = 1 included) is refused.
    """
    if spec.is_cyclic:
        raise InvalidParameters(f"{spec.label()} is cyclic")
    if spec.is_degenerate_cyclic:
        raise InvalidParameters(
            f"{spec.label()} is cyclic (n = 1); resolution data is chain-type")
    f, m, n = spec.family, spec.m, spec.n
    if f in (Family.DIHEDRAL, Family.INDEX2):
        triple = (canonical_cyclic(1, 2), canonical_cyclic(1, 2),
                  canonical_cyclic(-m, n))
    elif f is Family.TETRAHEDRAL:
        triple = (canonical_cyclic(1, 2), canonical_cyclic(-m, 3),
                  canonical_cyclic(-m, 3))
    elif f is Family.OCTAHEDRAL:
        triple = (canonical_cyclic(1, 2), canonical_cyclic(-m, 3),
                  canonical_cyclic(-m, 4))
    elif f is Family.ICOSAHEDRAL:
        triple = (canonical_cyclic(1, 2), canonical_cyclic(-m, 3),
                  canonical_cyclic(-m, 5))
    else:
        triple = (canonical_cyclic(1, 2), canonical_cyclic(1, 3),
                  canonical_cyclic(2, 3))
    return tuple(sorted(triple))


def _coset_indices(lab: Labels) -> np.ndarray:
    """Index of one representative per element of the Mobius image, in
    ascending class id.

    The cosets of the Mobius-trivial subgroup are the classes of the SU(2)
    label up to sign, with class id min(j, -j).  Each class is represented
    by its element of smallest label key k * |G*| + j, so the
    representatives, like their order, depend on Gamma as a set and not on
    how the enumeration lists it.
    """
    size, h = lab.gstar.size, len(lab.j)
    cls = np.minimum(lab.j, lab.gstar.neg[lab.j])
    # key * h + index: the least per class names its smallest key's element
    least = np.full(size, lab.n * size * h)
    np.minimum.at(least, cls, (lab.k * size + lab.j) * h + np.arange(h))
    return least[least < lab.n * size * h] % h


def _mobius_table(gstar: GStar) -> np.ndarray:
    """The product table of G*/+-1 over its class ids min(j, -j) in
    ascending order, the j with j < -j, so the identity is first.  Entry
    (a, b) is the index of the class of the G* product g_a g_b."""
    j = np.flatnonzero(np.arange(gstar.size) < gstar.neg)
    coset = np.empty(gstar.size, dtype=int)
    coset[j] = coset[gstar.neg[j]] = np.arange(len(j))
    return coset[gstar.mul(j[:, None], j[None, :])]


def _stabilizers(table: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """(generator, order, normalizer order) of one cyclic group C per
    conjugacy class of the pole stabilizers of the rotation group with
    product ``table`` (identity at index 0).

    Every non-identity rotation turns about one axis, and the rotations
    about it form a cyclic group, the stabilizer of either pole: the
    largest cyclic subgroup that holds the rotation.  Elements are taken
    by decreasing order, so one that no stabilizer found so far holds
    generates a new one, C; every conjugate kCk^-1 is marked as found, and
    the k with kCk^-1 = C count the normalizer N(C).  Orders and inverses
    come from one walk of all elements' powers, a vector of h at a time;
    only the chosen generators' powers are kept.  ``_image_stabilizers``
    takes the classes of G*/+-1 as one tuple, so an exception raised here
    for a later class surfaces before any earlier class has been checked.
    """
    h = len(table)
    every = np.arange(h)
    order, inverse = np.zeros(h, dtype=int), np.zeros(h, dtype=int)
    prev, power = np.zeros(h, dtype=int), every     # i^(t-1) and i^t
    for t in range(1, h + 1):
        done = (power == 0) & (order == 0)
        order[done], inverse[done] = t, prev[done]
        if order.all():
            break
        prev, power = power, table[power, every]
    found = order == 1
    for g in np.argsort(-order, kind="stable"):
        if found[g]:
            continue
        c = [0]
        while len(c) < order[g]:
            c.append(table[c[-1], g])
        c = np.array(c)
        conjugates = np.sort(table[table[:, c], inverse[:, None]], axis=1)
        found[conjugates] = True
        normalizer = np.count_nonzero((conjugates == np.sort(c)).all(axis=1))
        yield int(g), int(order[g]), normalizer


def _image_stabilizers(gstar: GStar) -> tuple[tuple[int, int, int], ...]:
    """``_stabilizers`` of G*/+-1, the Mobius image of every group over
    ``gstar``, indexed as ``_mobius_table`` indexes it.  Held on the G*
    (``GStar.tables``), so it goes with the G* when ``catalog._gstar``'s
    cache is cleared: only this tuple is kept, not the h x h table."""
    return gstar.held("stabilizers",
                      lambda: tuple(_stabilizers(_mobius_table(gstar))))


def _pole_type(theta: tuple[int, int], phi: tuple[int, int], p: int,
               m: int) -> CyclicType:
    """The type at a pole of a stabilizer of order p, from a generator
    a * S with a = e^{2 pi i theta}, angles in turns given as integer pairs
    theta = k/2N and phi = r/o: S has eigenvalue e^{2 pi i phi} on the
    pole's line and e^{-2 pi i phi} on the tangent line, so the tangent
    rotation is e^{2 pi i t/p}, t = -2 phi p = -2rp/o, and the degree-2m
    normal fiber turns by e^{2 pi i u/p}, u = 2m (theta + phi) p =
    2mp(k o + 2N r)/(2N o); the type is L(t^-1 u, p).  Each of t and u is
    one ``divmod`` of integers, and SnapFailure unless both are exact.
    The other pole of the same axis is phi -> -phi, the pair (-r, o)."""
    (k, two_n), (r, o) = theta, phi
    t, t_rest = divmod(-2 * r * p, o)
    u, u_rest = divmod(2 * m * p * (k * o + two_n * r), two_n * o)
    if t_rest or u_rest:
        raise SnapFailure(f"a rotation at a pole of order {p} is not a "
                          f"multiple of 1/{p} turn")
    return canonical_cyclic(pow(t, -1, p) * u, p)


def algorithmic_singularities(spec: GroupSpec, lab: Labels
                              ) -> tuple[CyclicType, CyclicType, CyclicType]:
    """Compute the three orbifold types from the Mobius action of the
    enumerated group of ``spec``, given as its exact labels ``lab``.

    The singular points are the poles of the image's rotations, and their
    orbits are read from the image's product table (``_mobius_table``).
    The image is read from Gamma as a set: its cosets in ascending class id,
    each represented by its element of smallest label key
    (``_coset_indices``), so no result depends on the order in which
    ``catalog._dimino`` lists Gamma.  Gamma projects onto its G*, so the
    image must have h = |G*|/2 elements: then it is all of G*/+-1, a group
    because ``catalog._checked`` made G* one, and it is indexed as
    ``_mobius_table`` indexes G*/+-1.  Its stabilizer classes
    (``_stabilizers``) are computed once per process for each G*
    (``_image_stabilizers``), and taken whole, so an exception inside
    ``_stabilizers`` surfaces before the earlier classes are checked; every
    check below reads the spec's own group.  The poles of a stabilizer C
    are one orbit of size h/|C| when N(C) swaps them, |N(C)| = 2|C|, and
    two orbits when |N(C)| = |C|; there must be exactly three orbits.  Each
    type is read at one pole per orbit from a generator's label (k, j): its
    eigen-angles k/2N +- r/o turns, r and o the residue and order of g_j,
    passed as the integer pairs (k, 2N) and (+-r, o) (``_pole_type``).  The
    family table is never consulted.
    """
    h, half = spec.pgl_image_order(), lab.gstar.size // 2
    coset_idx = _coset_indices(lab)
    if not len(coset_idx) == h == half:
        raise OrbitCountMismatch(
            f"{spec.label()}: Mobius image has {len(coset_idx)} elements, "
            f"expected h = {h} and |G*|/2 = {half}")
    reps = lab.j[coset_idx]
    types = []
    for g, p, normalizer in _image_stabilizers(lab.gstar):
        if normalizer not in (p, 2 * p):
            raise OrbitCountMismatch(
                f"{spec.label()}: a pole stabilizer of order {p} has a "
                f"normalizer of order {normalizer}")
        theta = (int(lab.k[coset_idx[g]]), 2 * lab.n)
        r, o = int(lab.gstar.residue[reps[g]]), int(lab.gstar.order[reps[g]])
        signs = (1, -1) if normalizer == p else (1,)
        types += [_pole_type(theta, (s * r, o), p, spec.m) for s in signs]
    if len(types) != 3:
        raise OrbitCountMismatch(
            f"{spec.label()}: found {len(types)} singular orbits, expected 3")
    return tuple(sorted(types))


def singularity_triple(spec: GroupSpec, lab: Labels
                       ) -> tuple[CyclicType, CyclicType, CyclicType]:
    """The algorithmic types of the enumerated group's labels ``lab``, once
    they equal the family table's; TableDisagreement otherwise.

    The normalized triples must be equal: each arm of the resolution star is
    the Hirzebruch-Jung string of its type L(alpha, beta) read outward from
    the centre, and L(alpha^-1, beta) is the reversed string, a different
    plumbing, so agreement up to alpha <-> alpha^-1 is a disagreement.
    """
    table = table_singularities(spec)
    computed = algorithmic_singularities(spec, lab)
    if table != computed:
        raise TableDisagreement(
            f"{spec.label()}: table {tuple(map(str, table))} != "
            f"computed {tuple(map(str, computed))}")
    return computed


# ---------------------------------------------------------------------------
# Central weight b_Gamma
# ---------------------------------------------------------------------------

def _rational_b(spec: GroupSpec,
                triple: tuple[CyclicType, ...]) -> tuple[int, int]:
    """The rational route to b_Gamma, alpha1/beta1 + alpha2/beta2 +
    alpha3/beta3 + 2m/h, summed as one integer pair (num, den), not
    reduced."""
    num, den = 2 * spec.m, spec.pgl_image_order()
    for t in triple:
        num, den = num * t.beta + t.alpha * den, den * t.beta
    return num, den


def b_gamma(spec: GroupSpec, triple: tuple[CyclicType, ...]) -> int:
    """Central self-intersection by both derivations, agreement enforced.

    Integer route: 2 + (4m/|Gamma|)(m - (m mod |Gamma|/4m)); rational route:
    sum of the fractions of the singularity ``triple`` plus 2m/h, as the
    integer pair (num, den) of ``_rational_b``.  The routes agree when
    num = b * den, compared by cross-multiplication; only a disagreement
    builds a ``Fraction``, to print the rational route reduced.  Once the
    routes agree the rational route is b itself, so b alone is returned.
    """
    m = spec.m
    idx = spec.quotient_index()
    b_int = 2 + (m - m % idx) // idx
    num, den = _rational_b(spec, triple)
    if num != b_int * den:
        raise CrossCheckFailure(
            f"{spec.label()}: b integer route {b_int} != rational route "
            f"{Fraction(num, den)}")
    if b_int < 2:
        raise CrossCheckFailure(f"{spec.label()}: b = {b_int} < 2")
    return b_int


# ---------------------------------------------------------------------------
# Resolution graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolutionData:
    """The resolution graph; the type of each arm (for a cyclic spec, the
    chain's type) and its HJ string, in arm order; the pivots of the
    graph's one elimination as integer pairs (num, den)
    (``PlumbingGraph.pivots``, the centre's last); and how many of them
    are positive and how many negative, each pivot's sign that of
    num * den, so that a zero pivot counts as neither and shows as a
    failed check, not an error."""

    graph: PlumbingGraph
    types: tuple[CyclicType, ...]
    strings: tuple[tuple[int, ...], ...]
    pivots: tuple[tuple[int, int], ...]
    positive: int
    negative: int

    @property
    def k_gamma(self) -> int:
        """The number of curves of the resolution."""
        return self.graph.vertex_count

    @property
    def tau(self) -> int:
        """Signature, #positive - #negative pivots (Sylvester's law)."""
        return self.positive - self.negative

    @property
    def negative_definite(self) -> bool:
        """Every pivot is negative."""
        return self.negative == len(self.pivots)


def _resolution(graph: PlumbingGraph, types: tuple[CyclicType, ...],
                strings: tuple[tuple[int, ...], ...]) -> ResolutionData:
    """``graph`` with its types and strings, its pivots, and their signs
    counted in one pass."""
    pivots = tuple(graph.pivots())
    positive = negative = 0
    for num, den in pivots:
        sign = num * den
        if sign > 0:
            positive += 1
        elif sign < 0:
            negative += 1
    return ResolutionData(graph, types, strings, pivots, positive, negative)


def resolution_chain(t: CyclicType) -> ResolutionData:
    """The minimal resolution of the lens type ``t``: the chain of its
    Hirzebruch-Jung string, and the pivots of its elimination."""
    s = hj_string(t)
    graph = PlumbingGraph(-s[0], (tuple(-e for e in s[1:]),)
                          if len(s) > 1 else ())
    return _resolution(graph, (t,), (s,))


def resolution_graph(triple: tuple[CyclicType, ...], b: int) -> ResolutionData:
    """Minimal-resolution star of a non-cyclic group and the pivots of its
    elimination: center -b, b = b_Gamma, and the Hirzebruch-Jung string of
    each singularity of ``triple`` as an arm, first entry adjacent to the
    center."""
    strings = tuple(hj_string(t) for t in triple)
    graph = PlumbingGraph(-b, tuple(tuple(-e for e in s) for s in strings))
    return _resolution(graph, tuple(triple), strings)


# ---------------------------------------------------------------------------
# Compactification and the central weight at infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BPrimeResult:
    """Outcome of the b' oracle.

    ``value`` is the unique integer passing every criterion: the Seifert
    Euler number of the compactification star equals +2m/h (orientation
    reversal of the resolution boundary), the full two-star configuration
    has signature (1, kappa), and |det| is a perfect square (necessary for a
    finite-index embedding in the odd unimodular lattice of rank kappa + 1).
    ``lattice_candidates`` lists every integer of ``window`` that passes the
    two lattice criteria; ``determinant`` and ``signature`` come from the
    full elimination of the chosen configuration.  The value is a derived
    observation; the source construction asserts only its existence.
    """

    value: int
    seifert_value: Fraction
    lattice_candidates: tuple[int, ...]
    kappa: int
    determinant: int
    signature: tuple[int, int]
    window: tuple[int, int]


def _comp_star(b_prime: int,
               dual_strings: tuple[tuple[int, ...], ...]) -> PlumbingGraph:
    return PlumbingGraph(b_prime, tuple(tuple(-e for e in s) for s in dual_strings))


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


@dataclass(frozen=True)
class CentrePencil:
    """The two-star configuration as a function of the compactification
    centre weight c, from one elimination.

    Eliminating leaves first (as ``PlumbingGraph.pivots`` does), every pivot
    but the compactification centre's is independent of c, and that one is
    c - threshold.  So the other pivots fix an inertia, the signature gains
    a positive or a negative direction as c passes the threshold (where the
    matrix is degenerate), and det(c) = det_res * A * (c - threshold), with
    A the product of the compactification arm pivots.  The pivots stay
    integer pairs; the threshold is the one ``Fraction``.
    """

    inertia: tuple[int, int]      # of every pivot but the centre's
    scale: int                    # det_res * A
    offset: int                   # det_res * A * threshold
    threshold: Fraction

    @classmethod
    def of(cls, res_pivots: tuple[tuple[int, int], ...],
           dual_strings: tuple[tuple[int, ...], ...]) -> "CentrePencil":
        """From the resolution's pivots and the dual strings' arms."""
        fixed = _comp_star(0, dual_strings).pivots()
        num, den = fixed.pop()               # the centre pivot at c = 0
        fixed += res_pivots
        return cls(_inertia(fixed), _integer_det(fixed),
                   _integer_det(fixed + [(-num, den)]), Fraction(-num, den))

    def signature(self, c: int) -> tuple[int, int]:
        if c == self.threshold:
            raise MalformedGraph("degenerate intersection matrix")
        pos, neg = self.inertia
        return (pos + 1, neg) if c > self.threshold else (pos, neg + 1)

    def determinant(self, c: int) -> int:
        return self.scale * c - self.offset

    def lattice_candidates(self, lo: int, hi: int, kappa: int) -> tuple[int, ...]:
        """Integers in [lo, hi] with signature (1, kappa) and square |det|.

        The signature is (1, kappa) on one side of the threshold at most,
        decided by the inertia: above it for inertia (0, kappa), below it for
        (1, kappa - 1).  Only that side's integers are tested, each for a
        square |det| alone."""
        num, den = self.threshold.numerator, self.threshold.denominator
        if self.inertia == (0, kappa):
            lo = max(lo, num // den + 1)         # floor(threshold) + 1
        elif self.inertia == (1, kappa - 1):
            hi = min(hi, -(-num // den) - 1)     # ceil(threshold) - 1
        else:
            return ()
        scale, offset = self.scale, self.offset
        return tuple(c for c in range(lo, hi + 1)
                     if _is_square(abs(scale * c - offset)))


def _seifert_solution(spec: GroupSpec,
                      dual_strings: tuple[tuple[int, ...], ...]
                      ) -> tuple[int, int]:
    """The Seifert route to b', 2m/h - sum q_i/p_i, as one integer pair
    (num, den), not reduced: q_i/p_i is the value of the i-th dual string,
    read from ``hj.continuant`` as the pair (p_i, q_i)."""
    num, den = 2 * spec.m, spec.pgl_image_order()
    for s in dual_strings:
        p, q = hj.continuant(s)
        num, den = num * p - q * den, den * p
    return num, den


def solve_b_prime(spec: GroupSpec, res: ResolutionData,
                  dual_strings: tuple[tuple[int, ...], ...]) -> BPrimeResult:
    """Determine the central self-intersection b' of the curve at infinity
    from the resolution ``res`` and the ``dual_strings`` of its arms.

    No closed formula is asserted by the source construction, so this is an
    oracle that intersects two independent derivations.  The Seifert
    equation center + sum (beta-alpha)/beta = 2m/h is linear, hence has a
    unique rational solution, which lands on the integer b_Gamma - 3: it is
    the integer pair of ``_seifert_solution``, an integer when den
    divides num.  ``seifert_value`` is the target 2m/h as a
    ``Fraction``, and a disagreement prints the solution reduced.  The
    lattice route eliminates the configuration once (``CentrePencil``):
    det(c) = det_res * A * (c - s), and the signature changes only at the
    threshold s, so the side of s with signature (1, kappa) is decided once
    and each of its integers c in the window [min(1, seifert) - 4,
    10 b_Gamma] is tested for a square |det| in integer arithmetic
    (b_Gamma is minus the resolution's centre weight).  The
    two routes must meet in a single value.  The compactification star at
    that value is then eliminated in full, once, and with the resolution's
    pivots gives the configuration's signature and determinant; they must
    equal the pencil's.
    """
    kappa = res.k_gamma + sum(map(len, dual_strings))
    num, den = _seifert_solution(spec, dual_strings)
    seifert_int = num // den if num % den == 0 else None

    lo = min(1, seifert_int if seifert_int is not None else 1) - 4
    hi = -10 * res.graph.center
    try:
        pencil = CentrePencil.of(res.pivots, dual_strings)
        lattice = pencil.lattice_candidates(lo, hi, kappa)
    except MalformedGraph:
        lattice = ()

    if seifert_int is not None and seifert_int in lattice:
        pivots = _comp_star(seifert_int, dual_strings).pivots() + list(res.pivots)
        sig, det = _inertia(pivots), _integer_det(pivots)
        predicted = (pencil.signature(seifert_int), pencil.determinant(seifert_int))
        if (sig, det) != predicted:
            raise CrossCheckFailure(f"{spec.label()}: full elimination gives "
                                    f"{(sig, det)}, the pencil {predicted}")
        return BPrimeResult(seifert_int,
                            Fraction(2 * spec.m, spec.pgl_image_order()),
                            lattice, kappa, det, sig, (lo, hi))
    if seifert_int is None and not lattice:
        raise NoCandidate(
            f"{spec.label()}: no integer in [{lo},{hi}] satisfies any criterion")
    raise AmbiguousCandidate(
        f"{spec.label()}: Seifert criterion gives {Fraction(num, den)}, "
        f"lattice criterion gives {list(lattice)}")


@dataclass(frozen=True)
class CompactificationData:
    """The compactification star, the dual string of each resolution arm
    (in arm order), and the b' oracle's result, which holds kappa.  The
    star and the resolution graph are the kappa + 1 curves of the
    compactified configuration, disjoint: one star sits over the origin,
    the other at infinity."""

    star: PlumbingGraph
    dual_strings: tuple[tuple[int, ...], ...]
    b_prime: BPrimeResult


def compactification(spec: GroupSpec,
                     res: ResolutionData) -> CompactificationData:
    """Compactification star of the resolution ``res``: the dual strings
    L(beta - alpha, beta) of its arm types, and the central weight b' at
    which they close up."""
    dual_strings = tuple(hj_string(dual_type(t)) for t in res.types)
    bp = solve_b_prime(spec, res, dual_strings)
    return CompactificationData(_comp_star(bp.value, dual_strings),
                                dual_strings, bp)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def graph_to_dot(graph: PlumbingGraph, name: str = "plumbing",
                 star: PlumbingGraph | None = None) -> str:
    """DOT text with one node per curve, labeled by its weight; node order
    is deterministic (center first, arms in input order).  With a
    compactification ``star``, the two disjoint stars of the compactified
    configuration: the star's nodes c0, c1, ... first, then ``graph``'s
    r0, r1, ...; alone, ``graph``'s nodes are v0, v1, ...."""
    lines = [f"graph {name} {{"]
    parts = [("v", graph)] if star is None else [("c", star), ("r", graph)]
    for prefix, graph in parts:
        w = graph.weights()
        for i, weight in enumerate(w):
            lines.append(f'  {prefix}{i} [label="{weight}"];')
        for i, j in graph._edges():
            lines.append(f"  {prefix}{i} -- {prefix}{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
