"""Singularity triples, plumbing graphs, central weights, compactifications."""

import cmath
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from u2sing import resolution
from u2sing.catalog import (EQ_TOL, KEY_SCALE, Family, GroupSpec,
                            canonical_cyclic, enumerate_group)
from u2sing.errors import (CrossCheckFailure, InvalidParameters,
                           MalformedGraph, OrbitCountMismatch)
from u2sing.hj import cf_value, dual_type, hj_string
from u2sing.resolution import (CentrePencil, CurveConfiguration, PlumbingGraph,
                               _coset_indices, _orbit, _singular_points,
                               _sphere_vecs, b_gamma,
                               algorithmic_singularities, compactification,
                               graph_to_dot, resolution_graph, seifert_data,
                               seifert_euler, singularity_triple,
                               solve_b_prime, table_singularities)
from u2sing.sweep import SweepConfig, specs_in_sweep

from rowalg import matrix, mobius, scalar

D4_STAR = PlumbingGraph(-2, ((-2,), (-2,), (-2,)))


# -- singularity triples ----------------------------------------------------

TRIPLE_CASES = [
    (GroupSpec.dihedral(1, 2), ((1, 2), (1, 2), (1, 2))),
    (GroupSpec.dihedral(3, 4), ((1, 2), (1, 2), (1, 4))),     # L(-3,4)=L(1,4)
    (GroupSpec.dihedral(7, 12), ((1, 2), (1, 2), (5, 12))),
    (GroupSpec.tetrahedral(7), ((1, 2), (2, 3), (2, 3))),
    (GroupSpec.octahedral(5), ((1, 2), (1, 3), (3, 4))),
    (GroupSpec.octahedral(7), ((1, 2), (2, 3), (1, 4))),
    (GroupSpec.icosahedral(7), ((1, 2), (2, 3), (3, 5))),
    (GroupSpec.index2(2, 3), ((1, 2), (1, 2), (1, 3))),
    (GroupSpec.index2(4, 7), ((1, 2), (1, 2), (3, 7))),
    (GroupSpec.index3(3), ((1, 2), (1, 3), (2, 3))),
    (GroupSpec.index3(9), ((1, 2), (1, 3), (2, 3))),
]


@pytest.mark.parametrize("spec,expected", TRIPLE_CASES)
def test_singularity_triple_both_routes(spec, expected):
    want = tuple(sorted(canonical_cyclic(a, b) for a, b in expected))
    assert table_singularities(spec) == want
    trip = singularity_triple(spec)
    assert trip.sorted_types() == want
    assert not trip.conjugate_equivalence_used


def test_algorithmic_route_is_independent():
    # run the Mobius-orbit computation directly on the enumerated group
    spec = GroupSpec.octahedral(1)
    group = enumerate_group(spec)
    assert len(_coset_indices(group)) == 24
    got = algorithmic_singularities(spec, group)
    assert got == table_singularities(spec)


ONE_PER_FAMILY = [GroupSpec.dihedral(5, 4), GroupSpec.tetrahedral(7),
                  GroupSpec.octahedral(5), GroupSpec.icosahedral(7),
                  GroupSpec.index2(4, 3), GroupSpec.index3(9)]


def _lexsort_coset_indices(group):
    """The coset representatives by a stable lexsort of the integer grid
    keys: the reference for the key pass in _coset_indices."""
    su2 = group.rows[:, 1:3]
    comps = np.stack([su2[:, 0].real, su2[:, 0].imag,
                      su2[:, 1].real, su2[:, 1].imag], axis=1)
    sign = np.zeros(len(comps))
    for j in range(4):
        undecided = sign == 0
        big = undecided & (np.abs(comps[:, j]) > EQ_TOL)
        sign[big] = np.sign(comps[big, j])
    keys = np.round(comps * sign[:, None] * KEY_SCALE).astype(np.int64)
    # A stable lexsort puts each key's first row at the start of its run.
    order = np.lexsort(keys.T[::-1])
    runs = np.any(np.diff(keys[order], axis=0) != 0, axis=1)
    return np.sort(order[np.concatenate(([True], runs))])


@pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=GroupSpec.key)
def test_coset_indices_match_the_lexsort_reference(spec):
    group = enumerate_group(spec)
    got = _coset_indices(group)
    assert len(got) == spec.pgl_image_order()
    assert got.tolist() == _lexsort_coset_indices(group).tolist()


def _residue(z, p):
    x = cmath.phase(z) * p / (2 * math.pi)
    assert abs(x - round(x)) < 1e-6 * p
    return round(x) % p


@pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=GroupSpec.key)
def test_tangent_normal_matches_the_rayleigh_quotient(spec, monkeypatch):
    # At a unit fixed point v of M, mu2 = <v, M v> and mu1 = det M / mu2
    # need no choice of eigenline, so a swapped mu1/mu2 shows.  Every coset
    # that fixes a point the algorithm reads a type at is checked there.
    real, points = resolution._tangent_normal, {}

    def recording(row, point, p_orb, m):
        points[point.tobytes()] = (point, p_orb)
        return real(row, point, p_orb, m)

    monkeypatch.setattr(resolution, "_tangent_normal", recording)
    assert algorithmic_singularities(spec) == table_singularities(spec)
    assert len(points) == 3
    group = enumerate_group(spec)
    reps = group.rows[_coset_indices(group)]
    for point, p in points.values():
        stabilizer = 0
        for row in reps:
            mat = np.array(matrix(scalar([row])[0]))
            mu2 = np.vdot(point, mat @ point)
            if abs(abs(mu2) - 1) > 1e-9:        # moves the point
                continue
            stabilizer += 1
            mu1 = np.linalg.det(mat) / mu2
            tn = real(row, point, p, spec.m)
            if abs(mu1 - mu2) < 1e-9:           # identity on the Hopf base
                assert tn is None
            else:
                assert tn == (_residue(mu1 / mu2, p),
                              _residue(mu2 ** (2 * spec.m), p))
        assert stabilizer == p


def test_singularity_rejects_cyclic():
    with pytest.raises(InvalidParameters):
        singularity_triple(GroupSpec.cyclic(3, 5))
    with pytest.raises(InvalidParameters):
        table_singularities(GroupSpec.dihedral(3, 1))


# -- b_gamma ----------------------------------------------------------------

def test_b_gamma_examples():
    assert b_gamma(GroupSpec.dihedral(1, 2)).value == 2
    b = b_gamma(GroupSpec.tetrahedral(7))
    assert b.value == 3
    # rational route by hand: 1/2 + 2/3 + 2/3 + 14/12 = 3
    assert b.rational == F(1, 2) + F(2, 3) + F(2, 3) + F(14, 12) == 3
    assert b_gamma(GroupSpec.index3(3)).value == 2


def test_b_gamma_at_least_two():
    for spec in (GroupSpec.dihedral(119, 2), GroupSpec.icosahedral(113),
                 GroupSpec.index2(118, 23), GroupSpec.octahedral(25)):
        assert b_gamma(spec).value >= 2


# -- resolution graphs ------------------------------------------------------

def test_resolution_d4():
    rd = resolution_graph(GroupSpec.dihedral(1, 2))
    assert rd.graph == D4_STAR
    assert rd.k_gamma == 4 and rd.tau == -4
    assert rd.graph.is_negative_definite()
    assert rd.graph.determinant() == 4          # D4 lattice discriminant


def test_resolution_index3():
    rd = resolution_graph(GroupSpec.index3(3))
    assert rd.graph.center == -2
    assert sorted(rd.graph.arms) == [(-3,), (-2, -2), (-2,)] or \
           sorted(map(list, rd.graph.arms)) == [[-3], [-2], [-2, -2]]
    assert rd.k_gamma == 5 and rd.tau == -5


def test_resolution_cyclic_chain():
    rd = resolution_graph(GroupSpec.cyclic(3, 5))
    assert rd.graph.weights() == [-2, -3]
    assert rd.tau == -2
    assert rd.graph.is_negative_definite()


def test_resolution_adopts_ade_types():
    # m = 1 products resolve to the ADE graphs: E6/E7/E8 vertex counts and
    # lattice discriminants 3/2/1
    for spec, k, disc in ((GroupSpec.tetrahedral(1), 6, 3),
                          (GroupSpec.octahedral(1), 7, 2),
                          (GroupSpec.icosahedral(1), 8, 1)):
        rd = resolution_graph(spec)
        assert rd.k_gamma == k
        assert abs(rd.graph.determinant()) == disc
        assert all(w == -2 for w in rd.graph.weights())


def test_intersection_matrix_shape():
    mat = np.array(D4_STAR.intersection_matrix())
    assert (mat == mat.T).all()
    assert mat[0, 1] == mat[0, 2] == mat[0, 3] == 1
    assert np.count_nonzero(mat) == 4 + 6
    eig = np.linalg.eigvalsh(mat)
    assert (eig < 0).all()


def _fraction_pivots(graph):
    """The LDL^T pivots by Fraction arithmetic, leaves first: the reference
    for the continuant recurrence in PlumbingGraph.pivots."""
    out = []
    head_inv = F(0)
    for arm in graph.arms:
        d = None
        for w in reversed(arm):
            d = F(w) if d is None else F(w) - 1 / d
            if d == 0:
                raise MalformedGraph("zero pivot while eliminating an arm")
            out.append(d)
        head_inv += 1 / d
    out.append(F(graph.center) - head_inv)
    return out


def _pivots_or_error(pivots, graph):
    try:
        return pivots(graph)
    except MalformedGraph:
        return MalformedGraph


def test_pivots_match_the_fraction_elimination():
    rng = random.Random(7)
    raised = 0
    for _ in range(2000):
        arms = tuple(tuple(rng.randint(-7, 3) for _ in range(rng.randint(1, 6)))
                     for _ in range(rng.randint(0, 3)))
        graph = PlumbingGraph(rng.randint(-9, 4), arms)
        want = _pivots_or_error(_fraction_pivots, graph)
        assert _pivots_or_error(PlumbingGraph.pivots, graph) == want, graph
        raised += want is MalformedGraph
    assert 0 < raised < 2000


def test_pivots_of_d4_and_of_a_vanishing_centre():
    assert D4_STAR.pivots() == _fraction_pivots(D4_STAR) == [-2, -2, -2, F(-1, 2)]
    # 1/(-2) + 1/(-2) + 1/(-1) = -2: the centre pivot vanishes at -2.
    star = PlumbingGraph(-2, ((-2,), (-2,), (-1,)))
    assert star.pivots() == _fraction_pivots(star) == [-2, -2, -1, 0]
    with pytest.raises(MalformedGraph):
        star.signature()
    assert not star.is_negative_definite()
    with pytest.raises(MalformedGraph):
        PlumbingGraph(-2, ((-1, -1),)).pivots()     # -1 - 1/(-1) = 0


# -- Seifert Euler numbers --------------------------------------------------

def test_seifert_examples():
    assert seifert_euler(D4_STAR) == F(-1, 2)            # -2 + 3*(1/2)
    assert seifert_euler(PlumbingGraph(-5, ())) == -5
    rd = resolution_graph(GroupSpec.tetrahedral(7))
    assert seifert_euler(rd.graph) == F(-14, 12)         # -3 + 1/2 + 2/3 + 2/3


def test_seifert_data_fields():
    sd = seifert_data(D4_STAR)
    assert sd.center == -2
    assert sd.arm_fractions == (F(1, 2), F(1, 2), F(1, 2))


def test_seifert_calibration_sample():
    for spec in (GroupSpec.dihedral(9, 4), GroupSpec.octahedral(11),
                 GroupSpec.index2(10, 3), GroupSpec.index3(21)):
        rd = resolution_graph(spec)
        assert seifert_euler(rd.graph) == F(-2 * spec.m, spec.pgl_image_order())


def test_malformed_graph():
    with pytest.raises(MalformedGraph):
        seifert_euler(PlumbingGraph(-2, ((-1,),)))


# -- compactification and b' ------------------------------------------------

def test_kappa_spot_values():
    # blow-up counts for the three smallest cases
    assert compactification(GroupSpec.dihedral(1, 2)).kappa == 7
    assert compactification(GroupSpec.dihedral(1, 3)).kappa == 8
    assert compactification(GroupSpec.index2(2, 3)).kappa == 8


# golden values frozen from the oracle (lattice signature + square
# determinant + Seifert e-match); equal to b_gamma - 3 in every case
B_PRIME_GOLDEN = [
    (GroupSpec.dihedral(1, 2), -1),
    (GroupSpec.dihedral(1, 3), -1),
    (GroupSpec.dihedral(3, 4), -1),
    (GroupSpec.dihedral(5, 2), 1),
    (GroupSpec.dihedral(7, 2), 2),
    (GroupSpec.tetrahedral(1), -1),
    (GroupSpec.tetrahedral(7), 0),
    (GroupSpec.octahedral(5), -1),
    (GroupSpec.icosahedral(7), -1),
    (GroupSpec.index2(2, 3), -1),
    (GroupSpec.index2(6, 5), 0),
    (GroupSpec.index3(9), 0),
    (GroupSpec.index3(15), 1),
]


@pytest.mark.parametrize("spec,expected", B_PRIME_GOLDEN)
def test_b_prime_oracle(spec, expected):
    bp = solve_b_prime(spec)
    assert bp.value == expected == b_gamma(spec).value - 3
    assert bp.value in bp.lattice_candidates
    assert bp.seifert_value == F(2 * spec.m, spec.pgl_image_order())
    assert bp.signature == (1, bp.kappa)
    assert math.isqrt(abs(bp.determinant)) ** 2 == abs(bp.determinant)


def test_b_prime_determinant_identity():
    # |det| of the full configuration is the square of the resolution
    # discriminant (prod beta_i) * 2m / h
    for spec in (GroupSpec.dihedral(1, 2), GroupSpec.tetrahedral(7),
                 GroupSpec.index3(9)):
        bp = solve_b_prime(spec)
        rd = resolution_graph(spec)
        assert abs(bp.determinant) == rd.graph.determinant() ** 2 \
            or abs(bp.determinant) == abs(rd.graph.determinant()) ** 2


def test_configuration_counts():
    comp = compactification(GroupSpec.dihedral(1, 2))
    cfg = comp.configuration
    assert cfg.vertex_count == comp.kappa + 1 == 8
    assert cfg.signature() == (1, 7)
    assert comp.dual_strings == tuple(
        hj_string(dual_type(t)) for t in table_singularities(GroupSpec.dihedral(1, 2)))
    mat = np.array(cfg.intersection_matrix())
    assert mat.shape == (8, 8) and (mat == mat.T).all()


# The b' oracle before the centre pencil: a full exact elimination of the
# configuration for every integer of the window.  Kept as the reference the
# pencil must reproduce.

def scan_lattice_candidates(res_graph, dual_strings, lo, hi, kappa):
    lattice = []
    for cand in range(lo, hi + 1):
        star = PlumbingGraph(cand, tuple(tuple(-e for e in s.entries)
                                         for s in dual_strings))
        config = CurveConfiguration(res_graph, star)
        try:
            sig = config.signature()
        except MalformedGraph:
            continue
        if sig == (1, kappa) and math.isqrt(abs(config.determinant())) ** 2 \
                == abs(config.determinant()):
            lattice.append(cand)
    return tuple(lattice)


def scan_b_prime(spec):
    res = resolution_graph(spec)
    duals = tuple(hj_string(dual_type(s.source)) for s in res.strings)
    kappa = res.k_gamma + sum(s.length for s in duals)
    seifert = F(2 * spec.m, spec.pgl_image_order()) - sum(
        (cf_value(s) for s in duals), F(0))
    assert seifert.denominator == 1
    lo, hi = min(1, int(seifert)) - 4, 10 * b_gamma(spec).value
    lattice = scan_lattice_candidates(res.graph, duals, lo, hi, kappa)
    assert int(seifert) in lattice
    config = CurveConfiguration(res.graph, PlumbingGraph(
        int(seifert), tuple(tuple(-e for e in s.entries) for s in duals)))
    return (int(seifert), lattice, (lo, hi), config.determinant(),
            config.signature())


SMALL_NONCYCLIC = [s for s in specs_in_sweep(SweepConfig(m_max=25, n_max=6))
                   if not (s.is_cyclic or s.is_degenerate_cyclic)]


def test_b_prime_pencil_matches_scan():
    assert {s.family for s in SMALL_NONCYCLIC} == set(Family) - {Family.CYCLIC}
    for spec in SMALL_NONCYCLIC:
        bp = solve_b_prime(spec)
        got = (bp.value, bp.lattice_candidates, bp.window, bp.determinant,
               bp.signature)
        assert got == scan_b_prime(spec), spec.label()


def test_pencil_skips_the_degenerate_centre():
    # Two (-2) arms give threshold 1/(-2) + 1/(-2) = -1: the centre pivot
    # vanishes at c = -1, inside the window.
    duals = (hj_string(canonical_cyclic(1, 2)),) * 2
    pencil = CentrePencil.of(D4_STAR, duals)
    assert pencil.threshold == -1
    with pytest.raises(MalformedGraph):
        pencil.signature(-1)
    # det = det(D4) * (-2)(-2) * (c + 1) = 16 (c + 1); signature (1, 6) above
    assert pencil.determinant(3) == 64 and pencil.signature(3) == (1, 6)
    got = pencil.lattice_candidates(-5, 20, 6)
    assert got == scan_lattice_candidates(D4_STAR, duals, -5, 20, 6)
    assert got == (0, 3, 8, 15)
    assert pencil.lattice_candidates(-5, -1, 6) == ()


def test_b_prime_cross_check_catches_a_wrong_pencil(monkeypatch):
    # a sign error keeps |det|, so only the full elimination can see it
    real = CentrePencil.determinant
    monkeypatch.setattr(CentrePencil, "determinant",
                        lambda self, c: -real(self, c))
    with pytest.raises(CrossCheckFailure, match="full elimination"):
        solve_b_prime(GroupSpec.dihedral(5, 2))


# -- the vectorized orbit finder --------------------------------------------

def _orbits(spec):
    """The orbits of the singular points, with each coset's map built from
    its row by the scalar row algebra rather than by the array code."""
    group = enumerate_group(spec)
    reps = scalar(group.rows[_coset_indices(group)])
    mats = np.array([mobius(g) for g in reps])
    points = _singular_points(mats)
    targets = _sphere_vecs(points)
    orbits = {frozenset(_orbit(mats, p, targets).tolist()) for p in points}
    return mats, points, orbits


@pytest.mark.parametrize("spec,h,stabilizers", [
    (GroupSpec.dihedral(3, 4), 8, (2, 2, 4)),
    (GroupSpec.tetrahedral(7), 12, (2, 3, 3)),
    (GroupSpec.octahedral(5), 24, (2, 3, 4)),
    (GroupSpec.icosahedral(7), 60, (2, 3, 5)),
])
def test_orbit_finder(spec, h, stabilizers):
    assert spec.pgl_image_order() == h
    got = algorithmic_singularities(spec)
    assert got == table_singularities(spec)
    assert sorted(t.beta for t in got) == sorted(stabilizers)
    mats, points, orbits = _orbits(spec)
    assert len(mats) == h
    assert sorted(len(o) for o in orbits) == sorted(h // p for p in stabilizers)
    assert sum(len(o) for o in orbits) == len(points)


def test_orbit_finder_at_infinity():
    # the dihedral rotations fix 0 and oo, (0, 1) and (1, 0) homogeneously
    _, points, _ = _orbits(GroupSpec.dihedral(3, 4))
    assert any(abs(z2) <= 1e-9 for _, z2 in points)                  # oo
    assert any(abs(z1) < 1e-12 * abs(z2) for z1, z2 in points)       # 0


def test_orbit_finder_rejects_a_corrupted_point_set():
    mats, points, _ = _orbits(GroupSpec.icosahedral(7))
    with pytest.raises(OrbitCountMismatch, match="orbit left the fixed-point set"):
        _orbit(mats, points[0], _sphere_vecs(points[1:]))


# -- DOT export -------------------------------------------------------------

def test_dot_star():
    text = graph_to_dot(D4_STAR)
    assert text.count("label") == 4
    assert text.count("--") == 3


def test_dot_chain():
    text = graph_to_dot(PlumbingGraph(-2, ((-3,),)))
    assert text.count("label") == 2 and text.count("--") == 1


def test_dot_full_configuration():
    comp = compactification(GroupSpec.dihedral(1, 2))
    text = graph_to_dot(CurveConfiguration(
        resolution_graph(GroupSpec.dihedral(1, 2)).graph, comp.star))
    assert text.count("label") == 8      # kappa + 1 curves
    assert text.count("--") == 6         # two disjoint stars, 3 edges each
