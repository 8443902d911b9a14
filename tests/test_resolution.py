"""Singularity triples, plumbing graphs, central weights, compactifications."""

import cmath
import gc
import math
import random
import weakref
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from u2sing import resolution
from u2sing.catalog import (FAMILIES, Family, GroupSpec, Labels, _gstar,
                            _row_keys, canonical_cyclic, enumerate_group)
from u2sing.errors import (AmbiguousCandidate, CrossCheckFailure,
                           InvalidParameters, MalformedGraph, NotCoprime,
                           OrbitCountMismatch, SnapFailure, TableDisagreement,
                           U2SingError)
from u2sing.hj import cf_value, dual_type, hj_string
from u2sing.resolution import (CentrePencil, PlumbingGraph,
                               _coset_indices, _image_stabilizers,
                               _inertia, _integer_det, _mobius_table,
                               _stabilizers,
                               algorithmic_singularities, graph_to_dot,
                               resolution_chain, singularity_triple,
                               table_singularities)
from u2sing.report import describe
from u2sing.sweep import SweepConfig, specs_in_sweep

import mobius_float
from dimino_float import gstar_rows, label_rows, rows_of
from fraction_routes import check_exact_routes
from mobius_float import (_orbit, _singular_points, _sphere_vecs,
                          float_singularities)
from report_encoder import intersection_matrix
from rowalg import matrix, mobius, scalar
from stages import (dual_strings, table_b, table_b_prime,
                    table_compactification, table_resolution)

D4_STAR = PlumbingGraph(-2, ((-2,), (-2,), (-2,)))


def fractions(pivots):
    """The values num/den of elimination pivots given as integer pairs."""
    return [F(num, den) for num, den in pivots]


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
    assert singularity_triple(spec, enumerate_group(spec)) == want


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
    """Each Mobius class's element of smallest label key k * |G*| + j, in
    ascending class id, by a lexsort: the reference for _coset_indices.
    The class of an element is read from its float row: its id is the
    smaller of the G* indices that the grid keys of its SU(2) part and of
    that part's negative name."""
    su2 = rows_of(group)[:, 1:3]
    index = {k: i for i, k in enumerate(_row_keys(gstar_rows(group.gstar)))}
    ids = np.array([min(index[a], index[b])
                    for a, b in zip(_row_keys(su2), _row_keys(-su2))])
    # Sorted by id, then by label key: each class's run starts with the
    # element of smallest label key.
    order = np.lexsort((group.k * group.gstar.size + group.j, ids))
    runs = np.diff(ids[order]) != 0
    return order[np.concatenate(([True], runs))]


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


def _su2_and_phase(row):
    """The normalized SU(2) matrix and the unit left entry of a scalar row:
    what the float route hands _tangent_normal for its coset."""
    return np.array(mobius(row)), row[0] / abs(row[0])


def _recording_tangent_normal(monkeypatch):
    """The float route's real _tangent_normal, and a dict that collects each
    fixed point (with its stabilizer order) that float_singularities reads a
    type at, once the returned recorder is patched in."""
    real, points = mobius_float._tangent_normal, {}

    def recording(su2, phase, point, p_orb, m):
        points[point.tobytes()] = (point, p_orb)
        return real(su2, phase, point, p_orb, m)

    monkeypatch.setattr(mobius_float, "_tangent_normal", recording)
    return real, points


@pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=GroupSpec.key)
def test_tangent_normal_matches_the_rayleigh_quotient(spec, monkeypatch):
    # At a unit fixed point v of M, mu2 = <v, M v> and mu1 = det M / mu2
    # need no choice of eigenline, so a swapped mu1/mu2 shows.  Every coset
    # that fixes a point the algorithm reads a type at is checked there.
    real, points = _recording_tangent_normal(monkeypatch)
    group = enumerate_group(spec)
    assert float_singularities(spec, group) == table_singularities(spec)
    assert len(points) == 3
    reps = scalar(rows_of(group, _coset_indices(group)))
    for point, p in points.values():
        stabilizer = 0
        for row in reps:
            mat = np.array(matrix(row))
            mu2 = np.vdot(point, mat @ point)
            if abs(abs(mu2) - 1) > 1e-9:        # moves the point
                continue
            stabilizer += 1
            mu1 = np.linalg.det(mat) / mu2
            tn = real(*_su2_and_phase(row), point, p, spec.m)
            if abs(mu1 - mu2) < 1e-9:           # identity on the Hopf base
                assert tn is None
            else:
                assert tn == (_residue(mu1 / mu2, p),
                              _residue(mu2 ** (2 * spec.m), p))
        assert stabilizer == p


@pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=GroupSpec.key)
def test_tangent_normal_is_the_same_for_every_row_of_a_coset(spec,
                                                             monkeypatch):
    # The algorithm reads a type off one row per coset; every other row of
    # a stabilizing coset (the representative times a Mobius-trivial
    # element) must give the same rotation numbers.
    real, points = _recording_tangent_normal(monkeypatch)
    group = enumerate_group(spec)
    float_singularities(spec, group)
    assert len(points) == 3
    reps = np.array([mobius(r)
                     for r in scalar(rows_of(group, _coset_indices(group)))])
    kernel = group.order // len(reps)
    assert kernel > 1
    for point, p in points.values():
        by_coset = {}
        for row in scalar(rows_of(group)):
            mob = np.array(mobius(row))
            if abs(abs(np.vdot(point, mob @ point)) - 1) > 1e-9:   # moves it
                continue
            dist = np.minimum(np.abs(reps - mob).max(axis=(1, 2)),
                              np.abs(reps + mob).max(axis=(1, 2)))
            coset = int(dist.argmin())
            assert dist[coset] < 1e-9
            by_coset.setdefault(coset, []).append(
                real(*_su2_and_phase(row), point, p, spec.m))
        assert len(by_coset) == p
        for tns in by_coset.values():
            assert len(tns) == kernel
            assert len(set(tns)) == 1, tns


@pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=GroupSpec.key)
def test_swapped_eigenlines_are_an_equivalent_mutant(spec, monkeypatch):
    # Reading every type with phi -> -phi swaps the eigenlines: it reads
    # each stabilizer at its other pole.  A one-orbit class has both poles
    # in one orbit, and a two-orbit class reads both anyway, so the sorted
    # triple cannot change and no check can kill the flip.
    # phi is the integer pair (r, o), so the flip is (-r, o).
    real, calls = resolution._pole_type, []

    def flipped(theta, phi, p, m):
        calls.append((theta, phi, p, m))
        return real(theta, (-phi[0], phi[1]), p, m)

    monkeypatch.setattr(resolution, "_pole_type", flipped)
    assert (singularity_triple(spec, enumerate_group(spec))
            == table_singularities(spec))
    assert len(calls) == 3


# -- the product-table route against the float reference and the table ------

@pytest.mark.parametrize(
    "spec", list(dict.fromkeys([s for s, _ in TRIPLE_CASES] + ONE_PER_FAMILY)),
    ids=GroupSpec.key)
def test_table_route_agrees_with_the_float_route_and_the_table(spec):
    group = enumerate_group(spec)
    got = algorithmic_singularities(spec, group)
    assert got == float_singularities(spec, group) == table_singularities(spec)


def _catalog_specs(build, *params):
    """The specs ``build`` makes from drawn parameters; a draw outside the
    catalog (its gcd condition fails) is filtered out."""
    def make(args):
        try:
            return build(*args)
        except InvalidParameters:
            return None
    return st.tuples(*params).map(make).filter(lambda spec: spec is not None)


# The default sweep stops at m = 120 and n = 24.
PAST_THE_SWEEP = st.one_of(
    _catalog_specs(GroupSpec.dihedral, st.integers(1, 15), st.integers(2, 200)),
    _catalog_specs(GroupSpec.index2, st.integers(1, 8).map(lambda k: 2 * k),
                   st.integers(2, 200)),
    *(_catalog_specs(build, st.integers(1, 2000))
      for build in (GroupSpec.tetrahedral, GroupSpec.octahedral,
                    GroupSpec.icosahedral, GroupSpec.index3)))


@given(PAST_THE_SWEEP)
@settings(max_examples=20, deadline=None)
def test_table_route_agrees_past_the_sweep_bounds(spec):
    group = enumerate_group(spec)
    got = algorithmic_singularities(spec, group)
    assert got == float_singularities(spec, group) == table_singularities(spec)


# -- the memo of Mobius-image stabilizers ------------------------------------

def test_two_specs_with_one_image_compute_it_once(fresh_caches,
                                                  stabilizer_builds):
    # dihedral(3, 5) and dihedral(7, 5) differ in m only: one D*20, one
    # image of h = 10, one build, and each triple is still its own table's.
    first, second = GroupSpec.dihedral(3, 5), GroupSpec.dihedral(7, 5)
    labs = [enumerate_group(spec) for spec in (first, second)]
    assert labs[0].gstar is labs[1].gstar
    assert singularity_triple(first, labs[0]) == table_singularities(first)
    assert stabilizer_builds == [10]
    assert singularity_triple(second, labs[1]) == table_singularities(second)
    assert stabilizer_builds == [10]
    assert table_singularities(first) != table_singularities(second)


@pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=GroupSpec.key)
def test_a_group_listed_in_another_order_is_one_key(spec, fresh_caches,
                                                    stabilizer_builds):
    # The same elements, identity first and the rest reversed: one G*, so
    # the stabilizers are built once, and the representatives are read from
    # Gamma as a set, so the triple read from the other listing still
    # agrees with the table.
    lab = enumerate_group(spec)
    order = np.r_[0, np.arange(lab.order - 1, 0, -1)]
    permuted = Labels(lab.k[order], lab.j[order], lab.gstar, lab.n)
    assert singularity_triple(spec, lab) == table_singularities(spec)
    assert singularity_triple(spec, permuted) == table_singularities(spec)
    assert len(stabilizer_builds) == 1


def test_a_cleared_gstar_is_freed(fresh_caches):
    # D*96, the G* of dihedral(5, 24), holds its Dimino tables and its
    # image's stabilizers after a describe; once _gstar's cache is
    # cleared, nothing keeps it or them alive.
    spec = GroupSpec.dihedral(5, 24)
    assert describe(spec).all_passed()
    gstar = weakref.ref(enumerate_group(spec).gstar)
    assert "stabilizers" in gstar().tables and len(gstar().tables) > 1
    _gstar.cache_clear()
    gc.collect()
    assert gstar() is None


def test_every_memoized_image_equals_a_cold_one():
    # Every key, a G*, that the default sweep's non-cyclic specs with
    # n <= 6 meet, read from the memo that their triples filled (and
    # whatever ran before) and computed afresh from the table of G*/+-1.
    keys = set()
    for spec in specs_in_sweep(SweepConfig(n_max=6)):
        if not (spec.is_cyclic or spec.is_degenerate_cyclic):
            lab = enumerate_group(spec)
            assert singularity_triple(spec, lab) == table_singularities(spec)
            keys.add(lab.gstar)
    assert len(keys) == 8
    for gstar in keys:
        cold = tuple(_stabilizers(_mobius_table(gstar)))
        assert _image_stabilizers(gstar) == cold


# -- mutants of the table route ----------------------------------------------

@pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=GroupSpec.key)
def test_a_corrupted_coset_row_leaves_the_image_open(spec):
    # Every row of one non-identity coset (SU(2) part +-s) gets e^{i eps} s
    # instead, so the cosets keep their number but the image is no group.
    # The Mobius stage reads exact labels, and the reference snap labels
    # rows as the generators were labelled before they were declared: the
    # corrupted rows are in no G*, and the first of them is refused by name.
    group = enumerate_group(spec)
    rows = rows_of(group)
    su2 = rows[:, 1:3].copy()
    s = su2[_coset_indices(group)[1]]
    corrupted = np.abs((su2 @ s.conj()).real) > 1 - 1e-9
    rows[corrupted, 1:3] *= np.exp(1e-3j)
    first = int(np.flatnonzero(corrupted)[0])
    with pytest.raises(SnapFailure,
                       match=rf"SU\(2\) part of row {first} is not in"):
        label_rows(spec, rows, "row")


def test_the_table_of_every_gstar_mod_sign_is_a_latin_square():
    # One row and column per class id min(j, -j), in ascending order with
    # the identity first: |G*|/2 of them, each product in one class.
    for spec in ONE_PER_FAMILY:
        gstar = enumerate_group(spec).gstar
        table, half = _mobius_table(gstar), gstar.size // 2
        assert table.shape == (half, half), spec
        assert (table[0] == range(half)).all()
        assert (table[:, 0] == range(half)).all()
        assert (np.sort(table, axis=1) == range(half)).all()
        assert (np.sort(table.T, axis=1) == range(half)).all()


def test_an_image_short_of_gstar_mod_sign_is_refused(monkeypatch):
    # The elements of dihedral(3, 5) over the cyclic part of D*20: a
    # subgroup whose image C5 is a proper, closed subgroup of D*20/+-1.
    # With h patched to its 5 elements, the count alone refuses it.
    spec = GroupSpec.dihedral(3, 5)
    lab = enumerate_group(spec)
    cyclic = lab.j < 2 * 5
    sub = Labels(lab.k[cyclic], lab.j[cyclic], lab.gstar, lab.n)
    assert len(_coset_indices(sub)) == 5
    monkeypatch.setattr(GroupSpec, "pgl_image_order", lambda self: 5)
    with pytest.raises(OrbitCountMismatch,
                       match=r"has 5 elements, expected h = 5 and "
                             r"\|G\*\|/2 = 10$"):
        algorithmic_singularities(spec, sub)


def test_a_family_table_h_of_n_fails_the_triple(monkeypatch):
    # The dihedral h read as n, not 2n: the image of dihedral(3, 5) has
    # 10 elements, so the triple fails and no later stage runs.
    rules = FAMILIES[Family.DIHEDRAL]
    monkeypatch.setitem(FAMILIES, Family.DIHEDRAL,
                        rules._replace(h=lambda s: s.n))
    report = describe(GroupSpec.dihedral(3, 5))
    failing = [c for c in report.checks if not c.passed]
    assert [c.name for c in failing] == ["singularity_table_agreement"]
    assert "expected h = 5 and |G*|/2 = 10" in failing[0].detail
    assert report.b_gamma is None


@pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=GroupSpec.key)
def test_ignoring_the_normalizer_is_caught(spec, monkeypatch, fresh_caches):
    # Every class of stabilizers read as two orbits, whatever N(C) is.  The
    # image memo starts empty, so the patched _stabilizers is called even
    # when an earlier test has met the same image.
    real = resolution._stabilizers
    monkeypatch.setattr(resolution, "_stabilizers",
                        lambda table: ((g, p, p) for g, p, _ in real(table)))
    with pytest.raises((OrbitCountMismatch, TableDisagreement)):
        singularity_triple(spec, enumerate_group(spec))


@pytest.mark.parametrize("shift,errors", [
    (1, {NotCoprime, SnapFailure}),
    (2, {NotCoprime, SnapFailure, TableDisagreement}),
])
def test_a_wrong_normal_degree_is_caught(shift, errors, monkeypatch):
    # m + shift in place of m in the normal rotation e^{2m i (theta + phi)}.
    # Shifted by one, the normal rotation is no unit residue, or no residue
    # at all, on every spec here; shifted by two, it also gives types that
    # only the family table refutes.
    real = resolution._pole_type
    monkeypatch.setattr(resolution, "_pole_type",
                        lambda theta, phi, p, m: real(theta, phi, p, m + shift))
    caught = set()
    for spec in ONE_PER_FAMILY:
        with pytest.raises(U2SingError) as err:
            singularity_triple(spec, enumerate_group(spec))
        caught.add(err.type)
    assert caught == errors


def test_the_integer_routes_equal_their_fraction_references(monkeypatch):
    # The pole types, b_Gamma's rational route and b''s Seifert solution on
    # integer pairs, and the witness freeness count, against the Fraction
    # routes and the modulo count they replaced (tests/fraction_routes.py),
    # on every non-cyclic spec with m <= 20 and n <= 4, ONE_PER_FAMILY
    # among them.  tests/ci_steps.py makes the same comparison on the whole
    # default sweep.
    specs = [s for s in specs_in_sweep(SweepConfig(m_max=20, n_max=4))
             if not s.is_cyclic]
    assert set(ONE_PER_FAMILY) <= set(specs)
    counts = check_exact_routes(specs, monkeypatch)
    # 77 label groups, 57 of them with n > 1 and three poles each
    assert counts == {"freeness": 77, "pole_type": 171, "rational_b": 57,
                      "seifert": 57}


def test_singularity_rejects_cyclic():
    spec = GroupSpec.cyclic(3, 5)
    with pytest.raises(InvalidParameters):
        singularity_triple(spec, enumerate_group(spec))
    with pytest.raises(InvalidParameters):
        table_singularities(GroupSpec.dihedral(3, 1))


# -- b_gamma ----------------------------------------------------------------

def test_b_gamma_examples():
    assert table_b(GroupSpec.dihedral(1, 2)) == 2
    spec = GroupSpec.tetrahedral(7)
    b = table_b(spec)
    assert type(b) is int and b == 3
    # rational route by hand: 1/2 + 2/3 + 2/3 + 14/12 = 3
    assert F(*resolution._rational_b(spec, table_singularities(spec))) == \
        F(1, 2) + F(2, 3) + F(2, 3) + F(14, 12) == b
    assert table_b(GroupSpec.index3(3)) == 2


def _skewed_b(monkeypatch):
    # L(1,3) for one L(2,3) arm: 1/2 + 1/3 + 2/3 + 14/12 = 8/3, not 3
    triple = tuple(map(canonical_cyclic, (1, 1, 2), (2, 3, 3)))
    resolution.b_gamma(GroupSpec.tetrahedral(7), triple)


def _skewed_seifert(monkeypatch):
    # h = 3 for 4: 2m/h - 1/2 - 1/2 - 1/2 = 10/3 - 3/2 = 11/6, while the
    # lattice route still finds its candidates
    spec = GroupSpec.dihedral(5, 2)
    res = table_resolution(spec)
    monkeypatch.setattr(GroupSpec, "pgl_image_order", lambda self: 3)
    resolution.solve_b_prime(spec, res, dual_strings(res))


@pytest.mark.parametrize("skew, error, text", [
    (_skewed_b, CrossCheckFailure,
     "tetrahedral(m=7): b integer route 3 != rational route 8/3"),
    (_skewed_seifert, AmbiguousCandidate,
     "dihedral(m=5,n=2): Seifert criterion gives 11/6, lattice criterion "
     "gives [1, 21]"),
], ids=["b_gamma", "seifert"])
def test_a_failed_rational_route_prints_its_reduced_fraction(
        skew, error, text, monkeypatch):
    with pytest.raises(error) as err:
        skew(monkeypatch)
    assert str(err.value) == text


def test_b_gamma_at_least_two():
    for spec in (GroupSpec.dihedral(119, 2), GroupSpec.icosahedral(113),
                 GroupSpec.index2(118, 23), GroupSpec.octahedral(25)):
        assert table_b(spec) >= 2


# -- resolution graphs ------------------------------------------------------

def test_resolution_d4():
    rd = table_resolution(GroupSpec.dihedral(1, 2))
    assert rd.graph == D4_STAR
    assert rd.k_gamma == 4 and rd.tau == -4
    assert rd.pivots == tuple(rd.graph.pivots())
    assert all(d < 0 for d in fractions(rd.pivots))
    assert _integer_det(rd.pivots) == 4         # D4 lattice discriminant


def test_resolution_index3():
    rd = table_resolution(GroupSpec.index3(3))
    assert rd.graph.center == -2
    assert sorted(rd.graph.arms) == [(-3,), (-2, -2), (-2,)] or \
           sorted(map(list, rd.graph.arms)) == [[-3], [-2], [-2, -2]]
    assert rd.k_gamma == 5 and rd.tau == -5


def test_resolution_cyclic_chain():
    rd = resolution_chain(canonical_cyclic(3, 5))
    assert rd.graph.weights() == [-2, -3]
    assert rd.tau == -2
    assert rd.pivots == ((-3, 1), (5, -3))        # -2 - 1/(-3) = 5/(-3)
    assert fractions(rd.pivots) == [-3, F(-5, 3)]


def test_resolution_adopts_ade_types():
    # m = 1 products resolve to the ADE graphs: E6/E7/E8 vertex counts and
    # lattice discriminants 3/2/1
    for spec, k, disc in ((GroupSpec.tetrahedral(1), 6, 3),
                          (GroupSpec.octahedral(1), 7, 2),
                          (GroupSpec.icosahedral(1), 8, 1)):
        rd = table_resolution(spec)
        assert rd.k_gamma == k
        assert abs(_integer_det(rd.pivots)) == disc
        assert all(w == -2 for w in rd.graph.weights())


def test_intersection_matrix_shape():
    mat = np.array(intersection_matrix(D4_STAR))
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
        got = _pivots_or_error(lambda g: fractions(g.pivots()), graph)
        assert got == want, graph
        raised += want is MalformedGraph
    assert 0 < raised < 2000


def test_pivots_of_d4_and_of_a_vanishing_centre():
    assert fractions(D4_STAR.pivots()) == _fraction_pivots(D4_STAR) == [
        -2, -2, -2, F(-1, 2)]
    # the centre over the common denominator of the arm heads: -2 + 3/2
    assert D4_STAR.pivots()[-1] == (4, -8)
    # 1/(-2) + 1/(-2) + 1/(-1) = -2: the centre pivot vanishes at -2.
    star = PlumbingGraph(-2, ((-2,), (-2,), (-1,)))
    assert fractions(star.pivots()) == _fraction_pivots(star) == [-2, -2, -1, 0]
    assert star.pivots()[-1] == (0, -4)
    with pytest.raises(MalformedGraph):
        _inertia(star.pivots())
    assert not all(num * den < 0 for num, den in star.pivots())
    with pytest.raises(MalformedGraph):
        PlumbingGraph(-2, ((-1, -1),)).pivots()     # -1 - 1/(-1) = 0


# -- Seifert Euler numbers: the centre pivot ---------------------------------

def test_seifert_examples():
    assert F(*D4_STAR.pivots()[-1]) == F(-1, 2)          # -2 + 3*(1/2)
    assert PlumbingGraph(-5, ()).pivots() == [(-5, 1)]
    rd = table_resolution(GroupSpec.tetrahedral(7))
    assert F(*rd.pivots[-1]) == F(-14, 12)               # -3 + 1/2 + 2/3 + 2/3


def test_seifert_euler_adds_each_arm_fraction():
    # center -2 and the arm fractions 1/2, 1/3 and [2, 2] = 2/3
    star = PlumbingGraph(-2, ((-2,), (-3,), (-2, -2)))
    assert F(*star.pivots()[-1]) == -2 + F(1, 2) + F(1, 3) + F(2, 3)


def test_seifert_calibration_sample():
    for spec in (GroupSpec.dihedral(9, 4), GroupSpec.octahedral(11),
                 GroupSpec.index2(10, 3), GroupSpec.index3(21)):
        rd = table_resolution(spec)
        assert F(*rd.pivots[-1]) == F(-2 * spec.m, spec.pgl_image_order())


# -- compactification and b' ------------------------------------------------

def test_kappa_spot_values():
    # blow-up counts for the three smallest cases
    assert table_compactification(GroupSpec.dihedral(1, 2)).b_prime.kappa == 7
    assert table_compactification(GroupSpec.dihedral(1, 3)).b_prime.kappa == 8
    assert table_compactification(GroupSpec.index2(2, 3)).b_prime.kappa == 8


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
    bp = table_b_prime(spec)
    assert bp.value == expected == table_b(spec) - 3
    assert bp.value in bp.lattice_candidates
    assert bp.seifert_value == F(2 * spec.m, spec.pgl_image_order())
    assert bp.signature == (1, bp.kappa)
    assert math.isqrt(abs(bp.determinant)) ** 2 == abs(bp.determinant)


def test_b_prime_determinant_identity():
    # |det| of the full configuration is the square of the resolution
    # discriminant (prod beta_i) * 2m / h
    for spec in (GroupSpec.dihedral(1, 2), GroupSpec.tetrahedral(7),
                 GroupSpec.index3(9)):
        bp = table_b_prime(spec)
        rd = table_resolution(spec)
        assert abs(bp.determinant) == _integer_det(rd.pivots) ** 2


def test_configuration_counts():
    spec = GroupSpec.dihedral(1, 2)
    comp = table_compactification(spec)
    res = table_resolution(spec).graph
    assert res.vertex_count + comp.star.vertex_count \
        == comp.b_prime.kappa + 1 == 8
    assert _inertia(comp.star.pivots() + res.pivots()) == (1, 7)
    assert comp.dual_strings == tuple(
        hj_string(dual_type(t)) for t in table_singularities(GroupSpec.dihedral(1, 2)))
    a = np.array(intersection_matrix(comp.star))
    b = np.array(intersection_matrix(res))
    mat = np.block([[a, np.zeros((len(a), len(b)), int)],
                    [np.zeros((len(b), len(a)), int), b]])
    assert mat.shape == (8, 8) and (mat == mat.T).all()
    assert (np.linalg.eigvalsh(mat) > 0).sum() == 1


# The b' oracle before the centre pencil: a full exact elimination of the
# configuration for every integer of the window.  Kept as the reference the
# pencil must reproduce.

def scan_lattice_candidates(res_graph, dual_strings, lo, hi, kappa):
    lattice = []
    for cand in range(lo, hi + 1):
        star = PlumbingGraph(cand, tuple(tuple(-e for e in s)
                                         for s in dual_strings))
        pivots = star.pivots() + res_graph.pivots()
        try:
            sig = _inertia(pivots)
        except MalformedGraph:
            continue
        det = abs(_integer_det(pivots))
        if sig == (1, kappa) and math.isqrt(det) ** 2 == det:
            lattice.append(cand)
    return tuple(lattice)


def scan_b_prime(spec):
    res = table_resolution(spec)
    duals = dual_strings(res)
    kappa = res.k_gamma + sum(map(len, duals))
    seifert = F(2 * spec.m, spec.pgl_image_order()) - sum(
        (cf_value(s) for s in duals), F(0))
    assert seifert.denominator == 1
    lo, hi = min(1, int(seifert)) - 4, 10 * table_b(spec)
    lattice = scan_lattice_candidates(res.graph, duals, lo, hi, kappa)
    assert int(seifert) in lattice
    pivots = PlumbingGraph(int(seifert), tuple(
        tuple(-e for e in s) for s in duals)).pivots() + res.graph.pivots()
    return (int(seifert), lattice, (lo, hi), _integer_det(pivots),
            _inertia(pivots))


SMALL_NONCYCLIC = [s for s in specs_in_sweep(SweepConfig(m_max=25, n_max=6))
                   if not (s.is_cyclic or s.is_degenerate_cyclic)]


def test_b_prime_pencil_matches_scan():
    assert {s.family for s in SMALL_NONCYCLIC} == set(Family) - {Family.CYCLIC}
    for spec in SMALL_NONCYCLIC:
        bp = table_b_prime(spec)
        got = (bp.value, bp.lattice_candidates, bp.window, bp.determinant,
               bp.signature)
        assert got == scan_b_prime(spec), spec.label()


# The pencil's window scan before the integer one: each c compared with the
# Fraction threshold, its signature read on both sides.  Kept as the
# reference the one-sided integer scan must reproduce.

def fraction_scan(pencil, lo, hi, kappa):
    return tuple(c for c in range(lo, hi + 1)
                 if c != pencil.threshold and pencil.signature(c) == (1, kappa)
                 and resolution._is_square(abs(pencil.determinant(c))))


def test_integer_window_scan_matches_the_fraction_scan_on_the_pipeline():
    for spec in SMALL_NONCYCLIC:
        res = table_resolution(spec)
        bp = table_b_prime(spec)
        pencil = CentrePencil.of(res.pivots, dual_strings(res))
        lo, hi = bp.window
        got = pencil.lattice_candidates(lo, hi, bp.kappa)
        assert got == fraction_scan(pencil, lo, hi, bp.kappa), spec.label()
        assert got == bp.lattice_candidates


@given(st.integers(-30, 30), st.integers(1, 6),
       st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)),
       st.integers(0, 2), st.integers(0, 6), st.integers(0, 6),
       st.integers(-40, 40), st.integers(-40, 40))
@example(3, 1, 1, 0, 5, 5, -10, 30)      # integer threshold, above it
@example(-7, 2, 1, 1, 4, 5, -20, 10)     # half-integer threshold, below it
@example(3, 1, -1, 1, 4, 5, -10, 30)     # integer threshold, below it
@example(3, 1, 1, 1, 1, 5, -10, 30)      # neither side gives (1, kappa)
@settings(max_examples=300, deadline=None)
def test_integer_window_scan_matches_the_fraction_scan(num, den, k, pos, neg,
                                                        kappa, dlo, dhi):
    threshold = F(num, den)
    scale = k * threshold.denominator    # det(c) = scale * (c - threshold)
    pencil = CentrePencil((pos, neg), scale, int(scale * threshold), threshold)
    lo, hi = math.floor(threshold) + dlo, math.floor(threshold) + dhi
    assert pencil.lattice_candidates(lo, hi, kappa) == fraction_scan(
        pencil, lo, hi, kappa)


def test_pencil_skips_the_degenerate_centre():
    # Two (-2) arms give threshold 1/(-2) + 1/(-2) = -1: the centre pivot
    # vanishes at c = -1, inside the window.
    duals = (hj_string(canonical_cyclic(1, 2)),) * 2
    pencil = CentrePencil.of(tuple(D4_STAR.pivots()), duals)
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
        table_b_prime(GroupSpec.dihedral(5, 2))


# -- the vectorized orbit finder --------------------------------------------

def _orbits(spec):
    """The orbits of the singular points, with each coset's map built from
    its row by the scalar row algebra rather than by the array code."""
    group = enumerate_group(spec)
    reps = scalar(rows_of(group, _coset_indices(group)))
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
    got = algorithmic_singularities(spec, enumerate_group(spec))
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
    comp = table_compactification(GroupSpec.dihedral(1, 2))
    text = graph_to_dot(table_resolution(GroupSpec.dihedral(1, 2)).graph,
                        "compactification", comp.star)
    assert text.count("label") == 8      # kappa + 1 curves
    assert text.count("--") == 6         # two disjoint stars, 3 edges each
    # the star at infinity first, as c0..c3, then the resolution as r0..r3
    assert text == (
        'graph compactification {\n'
        '  c0 [label="-1"];\n  c1 [label="-2"];\n  c2 [label="-2"];\n'
        '  c3 [label="-2"];\n  c0 -- c1;\n  c0 -- c2;\n  c0 -- c3;\n'
        '  r0 [label="-2"];\n  r1 [label="-2"];\n  r2 [label="-2"];\n'
        '  r3 [label="-2"];\n  r0 -- r1;\n  r0 -- r2;\n  r0 -- r3;\n}\n')
