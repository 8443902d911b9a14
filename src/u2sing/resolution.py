"""Orbifold singularities, resolution and compactification graphs.

For a non-cyclic catalog group the model quotient carries exactly three
isolated cyclic singularities sitting on a central rational curve.  This
module computes the three types twice:

  * by the family table (dihedral-shaped families get {L(1,2), L(1,2),
    L(-m,n)}, the tetrahedral product {L(1,2), L(-m,3), L(-m,3)}, and so on),
  * and algorithmically: project the group to its Mobius action on the Hopf
    base (one coset per Mobius map, found by the enumeration's key pass),
    find the fixed points of the non-identity cosets, partition them
    into orbits (all cosets act on all fixed points as one numpy array), and
    read the tangent/normal rotation numbers of a stabilizer generator off
    the eigenvalues of its unitary matrix (the normal direction carries the
    2m-th power because the model fiber is a degree-2m quotient).

The minimal resolution is the star-shaped plumbing with central weight
-b_Gamma and one Hirzebruch-Jung string per singularity (first entry adjacent
to the center); the compactification adds a second star with the dual
strings L(beta - alpha, beta).  The central weight satisfies two independent
identities that are cross-checked everywhere:

    b = 2 + (4m/|Gamma|) * (m - (m mod |Gamma|/4m))
    b = alpha1/beta1 + alpha2/beta2 + alpha3/beta3 + 2m/h,

with h the order of the Mobius image.  The boundary of a star-shaped
plumbing is Seifert fibered with rational Euler number

    e = center + sum_i 1/[e^i_1, ..., e^i_{k_i}]

(read from the center outward); for resolution stars this is exactly -2m/h,
which pins the arm orientation, and the compactification star must carry the
orientation-reversed value +2m/h.  That fixes its central weight b'; the
lattice criteria (signature (1, kappa), square determinant) are a second
route to it, evaluated for every candidate weight from one elimination
because only the compactification centre's pivot depends on the weight.

All lattice computations (definiteness, signature, determinants) run in
exact rational arithmetic by eliminating the plumbing tree leaf-first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .catalog import (EQ_TOL, CyclicType, Family, FiniteGroup, GroupSpec,
                      _fresh_indices, _row_keys, _snap_residue,
                      canonical_cyclic, enumerate_group)
from .errors import (AmbiguousCandidate, CrossCheckFailure, InvalidParameters,
                     MalformedGraph, NoCandidate, OrbitCountMismatch,
                     SnapFailure, TableDisagreement)
from .hj import HJString, cf_value, dual_type, hj_string

POINT_TOL = 1e-6


def _require_noncyclic(spec: GroupSpec) -> GroupSpec:
    spec.validate()
    if spec.is_cyclic:
        raise InvalidParameters(f"{spec.label()} is cyclic")
    if spec.is_degenerate_cyclic:
        raise InvalidParameters(
            f"{spec.label()} is cyclic (n = 1); resolution data is chain-type")
    return spec


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

    def intersection_matrix(self) -> list[list[int]]:
        w = self.weights()
        n = len(w)
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = w[i]
        for i, j in self._edges():
            mat[i][j] = mat[j][i] = 1
        return mat

    def pivots(self) -> list[Fraction]:
        """Diagonal of the exact LDL^T elimination, leaves first.

        By Sylvester's law the signs give the signature; the product is the
        determinant of the intersection matrix.
        """
        out: list[Fraction] = []
        head_inv = Fraction(0)
        for arm in self.arms:
            # Integer continuants: the pivot w - 1/(num/den) is (w*num - den)/num.
            num, den = 1, 0
            for w in reversed(arm):
                num, den = w * num - den, num
                if num == 0:
                    raise MalformedGraph("zero pivot while eliminating an arm")
                out.append(Fraction(num, den))
            head_inv += Fraction(den, num)
        out.append(self.center - head_inv)
        return out

    def is_negative_definite(self) -> bool:
        return all(d < 0 for d in self.pivots())

    def signature(self) -> tuple[int, int]:
        """(positive, negative) inertia; raises on a degenerate matrix."""
        return _inertia(self.pivots())

    def determinant(self) -> int:
        return _integer_det(self.pivots())


def _inertia(pivots: list[Fraction]) -> tuple[int, int]:
    """(positive, negative) counts of elimination pivots (Sylvester's law);
    raises on a zero pivot, i.e. a degenerate matrix."""
    if 0 in pivots:
        raise MalformedGraph("degenerate intersection matrix")
    return sum(d > 0 for d in pivots), sum(d < 0 for d in pivots)


def _integer_det(pivots: list[Fraction]) -> int:
    """Product of elimination pivots: the determinant of an integer matrix."""
    det = math.prod(pivots, start=Fraction(1))
    if det.denominator != 1:
        raise AssertionError("integer matrix with non-integer determinant")
    return int(det)


@dataclass(frozen=True)
class SeifertData:
    """Central weight, the arm fractions, and the rational Euler number
    e = center + sum(arm fractions) of the plumbed boundary."""

    center: int
    arm_fractions: tuple[Fraction, ...]
    euler: Fraction


def seifert_euler(graph: PlumbingGraph) -> Fraction:
    """Rational Euler number of the Seifert fibered boundary of the star.

    Equals 1/((Q^{-1})_cc) for the intersection matrix Q and central vertex
    c: eliminating the arms leaves the Schur complement
    center + sum 1/[|w_1|,...,|w_k|].
    """
    return seifert_data(graph).euler


def seifert_data(graph: PlumbingGraph) -> SeifertData:
    fracs = []
    for arm in graph.arms:
        if any(w > -2 for w in arm):
            raise MalformedGraph(f"arm weights must be <= -2, got {arm}")
        fracs.append(cf_value([-w for w in arm]))
    euler = Fraction(graph.center) + sum(fracs, Fraction(0))
    return SeifertData(graph.center, tuple(fracs), euler)


@dataclass(frozen=True)
class CurveConfiguration:
    """The full compactified curve system: resolution star and
    compactification star, disjoint (one sits over the origin, the other at
    infinity)."""

    resolution: PlumbingGraph
    compactification: PlumbingGraph

    @property
    def vertex_count(self) -> int:
        return self.resolution.vertex_count + self.compactification.vertex_count

    def _pivots(self) -> list[Fraction]:
        """The elimination pivots of both (disjoint) stars."""
        return self.compactification.pivots() + self.resolution.pivots()

    def signature(self) -> tuple[int, int]:
        return _inertia(self._pivots())

    def determinant(self) -> int:
        return _integer_det(self._pivots())

    def intersection_matrix(self) -> list[list[int]]:
        a = self.compactification.intersection_matrix()
        b = self.resolution.intersection_matrix()
        na, nb = len(a), len(b)
        mat = [[0] * (na + nb) for _ in range(na + nb)]
        for i in range(na):
            mat[i][:na] = a[i]
        for i in range(nb):
            for j in range(nb):
                mat[na + i][na + j] = b[i][j]
        return mat


# ---------------------------------------------------------------------------
# Singularity triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularityTriple:
    types: tuple[CyclicType, CyclicType, CyclicType]
    conjugate_equivalence_used: bool = False

    def sorted_types(self) -> tuple[CyclicType, ...]:
        return tuple(sorted(self.types))


def table_singularities(spec: GroupSpec) -> tuple[CyclicType, CyclicType, CyclicType]:
    """The family table of orbifold types, normalized mod beta."""
    _require_noncyclic(spec)
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


def _coset_indices(group: FiniteGroup) -> np.ndarray:
    """Row index of one representative per element of the Mobius image,
    in row order.

    Cosets of the Mobius-trivial subgroup are keyed by the SU(2) part with
    its sign fixed (first nonzero coefficient positive), through the same
    grid keys and first-occurrence pass as the group enumeration.
    """
    su2 = group.rows[:, 1:3]
    comps = np.stack([su2[:, 0].real, su2[:, 0].imag,
                      su2[:, 1].real, su2[:, 1].imag], axis=1)
    sign = np.zeros(len(comps))
    for j in range(4):
        undecided = sign == 0
        big = undecided & (np.abs(comps[:, j]) > EQ_TOL)
        sign[big] = np.sign(comps[big, j])
    return np.array(_fresh_indices(_row_keys(comps * sign[:, None]), set()))


def _sphere_vecs(z: np.ndarray) -> np.ndarray:
    """Unit-sphere embedding of homogeneous points (z1, z2) ~ z1/z2, shape
    (..., 2) -> (..., 3); chordal distance is Euclidean distance there, and
    oo = (1, 0) needs no special case."""
    z1, z2 = z[..., 0], z[..., 1]
    n1, n2 = np.abs(z1) ** 2, np.abs(z2) ** 2
    w = 2 * z1 * np.conj(z2)
    return np.stack([w.real, w.imag, n1 - n2], axis=-1) / (n1 + n2)[..., None]


def _singular_points(mats: np.ndarray) -> np.ndarray:
    """Fixed points of the non-identity maps, homogeneous and unit length;
    points within POINT_TOL of an earlier one are dropped, so the first
    occurrence in coset order is kept."""
    b1, b2 = mats[:, 0, 0], mats[:, 1, 0]
    moving = (np.abs(b2) > 1e-7) | (np.abs(b1 - np.conj(b1)) > 1e-7)
    a, b, c, d = (x[moving, None] for x in (b1, mats[:, 0, 1], b2, mats[:, 1, 1]))
    # Eigenvalues e^{+-i phi}, cos(phi) = Re(a); each eigenvector is
    # (b, lam - a) or (lam - d, c), whichever is longer.
    lam = a.real + np.sqrt(1.0 - np.clip(a.real, -1.0, 1.0) ** 2) * np.array([1j, -1j])
    v1 = np.stack(np.broadcast_arrays(b, lam - a), -1)
    v2 = np.stack(np.broadcast_arrays(lam - d, c), -1)
    n1, n2 = np.abs(v1).sum(axis=-1), np.abs(v2).sum(axis=-1)
    cand = np.where((n1 >= n2)[..., None], v1, v2).reshape(-1, 2)
    cand /= np.sqrt((np.abs(cand) ** 2).sum(axis=-1))[:, None]
    vecs = _sphere_vecs(cand)
    close = 2.0 - 2.0 * np.einsum("ix,jx->ij", vecs, vecs) < POINT_TOL ** 2
    return cand[~np.tril(close, -1).any(axis=1)]


def _orbit(mats: np.ndarray, point: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the target (a unit sphere vector) nearest to each map's
    image of ``point``; every image must lie within POINT_TOL of it
    (chordal distance, whose square is 2 - 2 x.y on the unit sphere)."""
    images = _sphere_vecs(np.einsum("gij,j->gi", mats, point))
    dots = np.einsum("gx,jx->gj", images, targets)
    if not (2.0 - 2.0 * dots.max(axis=1) < POINT_TOL ** 2).all():
        raise OrbitCountMismatch("orbit left the fixed-point set")
    return dots.argmax(axis=1)


def _tangent_normal(row: np.ndarray, point: np.ndarray, p_orb: int,
                    m: int) -> tuple[int, int] | None:
    """Rotation numbers (t, u) of a stabilizer element at a fixed point.

    ``row`` is the coset representative (a, b1, b2) and ``point`` the unit
    homogeneous fixed point (z1, z2).  Diagonalize the matrix of the row to
    eigenvalues (mu1, mu2) with the fixed point on the mu2 eigenline (the
    eigenline within POINT_TOL of it, in chordal distance); then
    mu1/mu2 = e^{2 pi i t/p} is the tangent rotation and
    mu2^{2m} = e^{2 pi i u/p} the rotation of the degree-2m normal fiber.
    Both are invariant under changing the coset representative.  Returns
    None for the identity coset.
    """
    a, b1, b2 = (complex(x) for x in row)
    phase = a / abs(a)
    nrm = math.sqrt(b1.real ** 2 + b1.imag ** 2 + b2.real ** 2 + b2.imag ** 2)
    b1, b2 = b1 / nrm, b2 / nrm
    phi = math.acos(max(-1.0, min(1.0, b1.real)))
    if math.sin(phi) < 1e-9:
        return None                      # beta = +-1: identity on the base
    lam_plus = phase * cmath.exp(1j * phi)
    lam_minus = phase * cmath.exp(-1j * phi)
    if abs(b2) < 1e-9:
        vecs = {True: ((1, 0), (0, 1)), False: ((0, 1), (1, 0))}[b1.imag > 0]
        v_plus, v_minus = vecs
    else:
        v_plus = (b2.conjugate(), b1 - cmath.exp(1j * phi))
        v_minus = (b2.conjugate(), b1 - cmath.exp(-1j * phi))
    sphere = _sphere_vecs(np.array([v_plus, v_minus, point], dtype=complex))
    chordal = np.linalg.norm(sphere[:2] - sphere[2], axis=1)
    on_plus, on_minus = chordal <= POINT_TOL
    if on_plus:
        mu2, mu1 = lam_plus, lam_minus
    elif on_minus:
        mu2, mu1 = lam_minus, lam_plus
    else:
        raise SnapFailure("fixed point does not lie on either eigenline")
    t = _snap_residue(cmath.phase(mu1 / mu2), p_orb)
    u = _snap_residue(cmath.phase(mu2 ** (2 * m)), p_orb)
    return t, u


def algorithmic_singularities(spec: GroupSpec,
                              group: FiniteGroup | None = None
                              ) -> tuple[CyclicType, CyclicType, CyclicType]:
    """Compute the three orbifold types from the Mobius action itself.

    The h maps of the Mobius image form one (h, 2, 2) array acting on
    fixed points in homogeneous coordinates (z1, z2), so oo is no special
    case.  The fixed points of the non-identity maps are merged within
    POINT_TOL, keeping the first in coset order; every map is applied to
    the first point of each orbit at once and each image is matched to its
    nearest point in one chordal-distance array.  There must be exactly
    three orbits.  At the first point of each orbit the stabilizer (the maps
    whose image of it matches it) must have order h / |orbit|, and its first
    element in coset order that generates it gives the type through
    ``_tangent_normal``.  The family table is never consulted.
    """
    _require_noncyclic(spec)
    if group is None:
        group = enumerate_group(spec)
    h = spec.pgl_image_order()
    coset_idx = _coset_indices(group)
    if len(coset_idx) != h:
        raise OrbitCountMismatch(
            f"{spec.label()}: Mobius image has {len(coset_idx)} elements, expected {h}")
    su2 = group.rows[coset_idx, 1:3]
    b1, b2 = (su2 / np.sqrt((np.abs(su2) ** 2).sum(axis=1))[:, None]).T
    mats = np.stack([np.stack([b1, -np.conj(b2)], -1),      # the Mobius matrix
                     np.stack([b2, np.conj(b1)], -1)], -2)
    points = _singular_points(mats)

    targets = _sphere_vecs(points)
    orbit_of = np.full(len(points), -1)
    orbits = []                          # (first point, image of it under each map)
    for i in range(len(points)):
        if orbit_of[i] < 0:
            images = _orbit(mats, points[i], targets)
            orbit_of[images] = len(orbits)
            orbits.append((i, images))
    if len(orbits) != 3:
        raise OrbitCountMismatch(
            f"{spec.label()}: found {len(orbits)} singular orbits, expected 3")

    types: list[CyclicType] = []
    for r, images in orbits:
        size = len(set(images.tolist()))
        if h % size != 0:
            raise OrbitCountMismatch("orbit size does not divide the group order")
        p_orb = h // size
        stab = np.flatnonzero(images == r)
        if len(stab) != p_orb:
            raise OrbitCountMismatch(
                f"stabilizer order {len(stab)} != {p_orb} at a singular point")
        for g in stab:
            tn = _tangent_normal(group.rows[coset_idx[g]], points[r], p_orb, spec.m)
            if tn is None:
                continue
            t, u = tn
            if math.gcd(t, p_orb) == 1:
                u_norm = (pow(t, -1, p_orb) * u) % p_orb
                types.append(canonical_cyclic(u_norm, p_orb))
                break
        else:
            raise OrbitCountMismatch("no generator found in a cyclic stabilizer")
    return tuple(sorted(types))


def singularity_triple(spec: GroupSpec,
                       group: FiniteGroup | None = None) -> SingularityTriple:
    """Table and algorithmic types, with agreement asserted.

    Exact equality of the normalized triples is required; agreement only up
    to the inverse label alpha <-> alpha^{-1} is accepted but flagged.
    """
    table = table_singularities(spec)
    computed = algorithmic_singularities(spec, group)
    if table == computed:
        return SingularityTriple(computed)
    if tuple(sorted(t.conj_key() for t in table)) == \
       tuple(sorted(t.conj_key() for t in computed)):
        return SingularityTriple(computed, conjugate_equivalence_used=True)
    raise TableDisagreement(
        f"{spec.label()}: table {tuple(map(str, table))} != "
        f"computed {tuple(map(str, computed))}")


# ---------------------------------------------------------------------------
# Central weight b_Gamma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BGamma:
    value: int
    rational: Fraction


def b_gamma(spec: GroupSpec,
            triple: tuple[CyclicType, ...] | None = None) -> BGamma:
    """Central self-intersection by both derivations, agreement enforced.

    Integer route: 2 + (4m/|Gamma|)(m - (m mod |Gamma|/4m)); rational route:
    sum of the singularity fractions plus 2m/h.
    """
    _require_noncyclic(spec)
    m = spec.m
    idx = spec.quotient_index()
    b_int = 2 + (m - m % idx) // idx
    if triple is None:
        triple = table_singularities(spec)
    h = spec.pgl_image_order()
    b_rat = sum((Fraction(t.alpha, t.beta) for t in triple), Fraction(0)) \
        + Fraction(2 * m, h)
    if b_rat != b_int:
        raise CrossCheckFailure(
            f"{spec.label()}: b integer route {b_int} != rational route {b_rat}")
    if b_int < 2:
        raise CrossCheckFailure(f"{spec.label()}: b = {b_int} < 2")
    return BGamma(b_int, b_rat)


# ---------------------------------------------------------------------------
# Resolution graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolutionData:
    graph: PlumbingGraph
    strings: tuple[HJString, ...]
    k_gamma: int
    tau: int


def resolution_graph(spec: GroupSpec,
                     triple: tuple[CyclicType, ...] | None = None,
                     b: BGamma | None = None) -> ResolutionData:
    """Minimal-resolution plumbing graph with signature data.

    Non-cyclic: star with center -b_Gamma and the Hirzebruch-Jung string of
    each singularity as an arm, first entry adjacent to the center.  Cyclic:
    the plain chain.
    """
    spec.validate()
    if spec.is_cyclic:
        if spec.p == 1:
            raise InvalidParameters("the trivial group has an empty resolution")
        s = hj_string(canonical_cyclic(spec.q, spec.p))
        graph = PlumbingGraph(-s.entries[0], (tuple(-e for e in s.entries[1:]),)
                              if s.length > 1 else ())
        return ResolutionData(graph, (s,), s.length, -s.length)
    if triple is None:
        triple = table_singularities(spec)
    if b is None:
        b = b_gamma(spec, triple)
    strings = tuple(hj_string(t) for t in triple)
    arms = tuple(tuple(-e for e in s.entries) for s in strings)
    graph = PlumbingGraph(-b.value, arms)
    k = 1 + sum(s.length for s in strings)
    return ResolutionData(graph, strings, k, -k)


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

    @property
    def positive(self) -> bool:
        return self.value > 0


def _comp_star(b_prime: int, dual_strings: tuple[HJString, ...]) -> PlumbingGraph:
    return PlumbingGraph(b_prime,
                         tuple(tuple(-e for e in s.entries) for s in dual_strings))


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
    A the product of the compactification arm pivots.
    """

    inertia: tuple[int, int]      # of every pivot but the centre's
    scale: int                    # det_res * A
    offset: int                   # det_res * A * threshold
    threshold: Fraction

    @classmethod
    def of(cls, res_graph: PlumbingGraph,
           dual_strings: tuple[HJString, ...]) -> "CentrePencil":
        fixed = _comp_star(0, dual_strings).pivots()
        threshold = -fixed.pop()             # the centre pivot at c = 0
        fixed += res_graph.pivots()
        return cls(_inertia(fixed), _integer_det(fixed),
                   _integer_det(fixed + [threshold]), threshold)

    def signature(self, c: int) -> tuple[int, int]:
        if c == self.threshold:
            raise MalformedGraph("degenerate intersection matrix")
        pos, neg = self.inertia
        return (pos + 1, neg) if c > self.threshold else (pos, neg + 1)

    def determinant(self, c: int) -> int:
        return self.scale * c - self.offset

    def lattice_candidates(self, lo: int, hi: int, kappa: int) -> tuple[int, ...]:
        """Integers in [lo, hi] with signature (1, kappa) and square |det|."""
        return tuple(c for c in range(lo, hi + 1)
                     if c != self.threshold and self.signature(c) == (1, kappa)
                     and _is_square(abs(self.determinant(c))))


def solve_b_prime(spec: GroupSpec,
                  res: ResolutionData | None = None,
                  dual_strings: tuple[HJString, ...] | None = None,
                  b: BGamma | None = None) -> BPrimeResult:
    """Determine the central self-intersection b' of the curve at infinity.

    No closed formula is asserted by the source construction, so this is an
    oracle that intersects two independent derivations.  The Seifert
    equation center + sum (beta-alpha)/beta = 2m/h is linear, hence has a
    unique rational solution, which lands on the integer b_Gamma - 3.  The
    lattice route eliminates the configuration once (``CentrePencil``):
    det(c) = det_res * A * (c - s), and the signature changes only at the
    threshold s, so every integer c of the window [min(1, seifert) - 4,
    10 b_Gamma] is tested for signature (1, kappa) and a square |det| in
    constant time.  The two routes must meet in a single value, and the
    configuration at that value is then eliminated in full, once, for both
    its signature and its determinant; they must equal the pencil's.
    """
    _require_noncyclic(spec)
    triple = None
    if res is None:
        triple = table_singularities(spec)
        res = resolution_graph(spec, triple, b)
    if dual_strings is None:
        if triple is None:
            triple = tuple(s.source for s in res.strings)
        dual_strings = tuple(hj_string(dual_type(t)) for t in triple)
    if b is None:
        b = b_gamma(spec, tuple(s.source for s in res.strings))

    m, h = spec.m, spec.pgl_image_order()
    target = Fraction(2 * m, h)
    kappa = res.k_gamma + sum(s.length for s in dual_strings)
    dual_sum = sum((cf_value(s) for s in dual_strings), Fraction(0))

    seifert_solution = target - dual_sum
    seifert_int = int(seifert_solution) if seifert_solution.denominator == 1 else None

    lo = min(1, seifert_int if seifert_int is not None else 1) - 4
    hi = 10 * b.value
    try:
        pencil = CentrePencil.of(res.graph, dual_strings)
        lattice = pencil.lattice_candidates(lo, hi, kappa)
    except MalformedGraph:
        lattice = ()

    if seifert_int is not None and seifert_int in lattice:
        pivots = CurveConfiguration(
            res.graph, _comp_star(seifert_int, dual_strings))._pivots()
        sig, det = _inertia(pivots), _integer_det(pivots)
        predicted = (pencil.signature(seifert_int), pencil.determinant(seifert_int))
        if (sig, det) != predicted:
            raise CrossCheckFailure(f"{spec.label()}: full elimination gives "
                                    f"{(sig, det)}, the pencil {predicted}")
        return BPrimeResult(seifert_int, target, lattice, kappa, det, sig,
                            (lo, hi))
    if seifert_int is None and not lattice:
        raise NoCandidate(
            f"{spec.label()}: no integer in [{lo},{hi}] satisfies any criterion")
    raise AmbiguousCandidate(
        f"{spec.label()}: Seifert criterion gives {seifert_solution}, "
        f"lattice criterion gives {list(lattice)}")


@dataclass(frozen=True)
class CompactificationData:
    star: PlumbingGraph
    dual_strings: tuple[HJString, ...]
    kappa: int
    b_prime: BPrimeResult
    configuration: CurveConfiguration


def compactification(spec: GroupSpec,
                     res: ResolutionData | None = None,
                     b: BGamma | None = None) -> CompactificationData:
    """Compactification star, the blow-up count kappa, and the full
    curve configuration (kappa + 1 curves)."""
    _require_noncyclic(spec)
    if res is None:
        res = resolution_graph(spec, None, b)
    triple = tuple(s.source for s in res.strings)
    dual_strings = tuple(hj_string(dual_type(t)) for t in triple)
    bp = solve_b_prime(spec, res, dual_strings, b)
    star = _comp_star(bp.value, dual_strings)
    config = CurveConfiguration(res.graph, star)
    if config.vertex_count != bp.kappa + 1:
        raise CrossCheckFailure(
            f"{spec.label()}: configuration has {config.vertex_count} curves, "
            f"expected kappa + 1 = {bp.kappa + 1}")
    return CompactificationData(star, dual_strings, bp.kappa, bp, config)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def graph_to_dot(obj: PlumbingGraph | CurveConfiguration,
                 name: str = "plumbing") -> str:
    """DOT text with one node per curve, labeled by its weight; node order
    is deterministic (center first, arms in input order)."""
    lines = [f"graph {name} {{"]
    if isinstance(obj, CurveConfiguration):
        parts = [("c", obj.compactification), ("r", obj.resolution)]
    else:
        parts = [("v", obj)]
    for prefix, graph in parts:
        w = graph.weights()
        for i, weight in enumerate(w):
            lines.append(f'  {prefix}{i} [label="{weight}"];')
        for i, j in graph._edges():
            lines.append(f"  {prefix}{i} -- {prefix}{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
