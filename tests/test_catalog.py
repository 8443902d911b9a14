"""Group enumeration, freeness, eigenvalue statistics and lens labels."""

import cmath
import dataclasses
import itertools
import math
import re
from collections import Counter
from fractions import Fraction as F
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import u2sing
import u2sing.catalog
from u2sing.catalog import (EQ_TOL, FAMILIES, KEY_SCALE, CyclicType, Family,
                            FiniteGroup, GroupSpec, GStar, Labels, Turns,
                            _canonical_rows, _checked, _gstar,
                            _gstar_closure, _gstar_kind, _row_keys,
                            _snap_residue, _su2_product, _T_GENS,
                            canonical_cyclic, cyclic_equivalent_type,
                            eigenvalue_histogram, enumerate_gamma_prime,
                            enumerate_group,
                            generate_closure, generators_of,
                            is_fixed_point_free)
from u2sing.cli import main
from u2sing.errors import (ClosureOverflow, InvalidParameters, NotAGroup,
                           NotCoprime, SnapFailure)
from u2sing.report import describe, report_to_json

from dimino_float import (_canonical_row, _row_key, check_declared_labels,
                          check_gstar_closures, dimino_closure, gstar_rows,
                          label_rows, rows_of)
from fraction_routes import check_lens_route
from freeness_float import (RowGroup, angle_distances,
                            angle_eigenvalue_one_count)
from lens_float import lens_rows, powers, turns_of
from reach_audit import PUBLIC
from rowalg import (canonical, compose, equivalent, inverse, key, mobius,
                    power, qmul, row, scalar)

IDENTITY = row()


# -- parameter validation ---------------------------------------------------

# Each case is a constructor call, made inside the test: the constructor is
# what refuses it.
@pytest.mark.parametrize("bad", [
    partial(GroupSpec.dihedral, 2, 2),       # gcd(m, 2n) != 1
    partial(GroupSpec.dihedral, 3, 3),
    partial(GroupSpec.tetrahedral, 2),
    partial(GroupSpec.tetrahedral, 9),
    partial(GroupSpec.octahedral, 3),
    partial(GroupSpec.icosahedral, 5),
    partial(GroupSpec.index2, 3, 2),         # m odd
    partial(GroupSpec.index2, 4, 6),         # gcd(m, n) != 1
    partial(GroupSpec.index3, 5),            # gcd(m, 6) != 3
    partial(GroupSpec, Family.CYCLIC, q=2, p=4),
    partial(GroupSpec, Family.CYCLIC, q=-1, p=5),    # L(4,5) under a second key
    partial(GroupSpec, Family.CYCLIC, q=6, p=5),     # L(1,5) under a second key
    partial(GroupSpec, Family.TETRAHEDRAL, m=1, n=5),  # a parameter it does not take
    partial(GroupSpec, Family.ICOSAHEDRAL, m=1, q=1),
    partial(GroupSpec, Family.DIHEDRAL, m=1, n=2, p=3),
    partial(GroupSpec, Family.INDEX3, m=3, p=0),
    partial(GroupSpec, Family.CYCLIC, q=3, p=5, m=1),
    partial(GroupSpec, Family.CYCLIC, q=3, p=5, n=0),
])
def test_invalid_parameters(bad):
    with pytest.raises(InvalidParameters):
        bad()


@pytest.mark.parametrize("value", [True, 5.0, "5"])
@pytest.mark.parametrize("family,params", [
    (Family.DIHEDRAL, {"m": 5, "n": 2}), (Family.ICOSAHEDRAL, {"m": 7}),
    (Family.CYCLIC, {"q": 2, "p": 5})])
def test_a_parameter_that_is_not_an_int_is_refused(family, params, value):
    # A bool is an int to Python: True would pass every catalog condition
    # that 1 passes, and give the key dihedral_mTrue_n2.
    for name in params:
        with pytest.raises(InvalidParameters):
            GroupSpec(family, **{**params, name: value})
    GroupSpec(family, **params)


@pytest.mark.parametrize("q,p", [(1, "5"), ("1", 5), (True, 5), (1, True),
                                 (2.0, 5)],
                         ids=["p-str", "q-str", "q-bool", "p-bool", "q-float"])
def test_the_cyclic_factory_passes_a_non_int_to_the_constructor(q, p):
    # reducing q mod p first would raise TypeError, or turn True into 1
    name = "q" if type(q) is not int else "p"
    with pytest.raises(InvalidParameters, match=f"{name} must be an int"):
        GroupSpec.cyclic(q, p)


def test_cyclic_factory_normalizes():
    assert GroupSpec.cyclic(-3, 5).q == 2
    assert GroupSpec.cyclic(7, 5).q == 2


@pytest.mark.parametrize("p", [0, -3])
def test_cyclic_p_below_one_is_refused_with_one_text(p):
    with pytest.raises(InvalidParameters) as direct:
        GroupSpec(Family.CYCLIC, q=1, p=p)
    with pytest.raises(InvalidParameters) as factory:
        GroupSpec.cyclic(1, p)
    assert str(factory.value) == str(direct.value)


def _chains_validate(f, s):
    """The per-family ``if`` chains that ``FAMILIES`` replaced: the
    reference the table must reproduce, for family ``f`` and parameters
    ``s`` (a namespace with m, n, q and p).  Returns the refusal text, or
    None for valid parameters."""
    if f is Family.CYCLIC:
        if s.p is None or s.q is None or s.p < 1:
            return "cyclic needs parameters q, p with p >= 1"
        if s.p == 1:
            return "the trivial group has no singularity to resolve"
        if math.gcd(s.q, s.p) != 1:
            return f"cyclic L({s.q},{s.p}): gcd(q,p) must be 1"
        return None
    if s.m is None or s.m < 1:
        return f"{f.value} needs a positive parameter m"
    if f in (Family.DIHEDRAL, Family.INDEX2) and (s.n is None or s.n < 1):
        return f"{f.value} needs a positive parameter n"
    if f is Family.DIHEDRAL and math.gcd(s.m, 2 * s.n) != 1:
        return f"dihedral(m={s.m},n={s.n}): gcd(m,2n) must be 1"
    if f in (Family.TETRAHEDRAL, Family.OCTAHEDRAL) and math.gcd(s.m, 6) != 1:
        return f"{f.value}(m={s.m}): gcd(m,6) must be 1"
    if f is Family.ICOSAHEDRAL and math.gcd(s.m, 30) != 1:
        return f"icosahedral(m={s.m}): gcd(m,30) must be 1"
    if f is Family.INDEX2 and (s.m % 2 != 0 or math.gcd(s.m, s.n) != 1):
        return f"index2(m={s.m},n={s.n}): needs m even and gcd(m,n)=1"
    if f is Family.INDEX3 and math.gcd(s.m, 6) != 3:
        return f"index3(m={s.m}): gcd(m,6) must be 3"
    return None


def _chains_facts(s):
    """label, key, |Gamma| and h of a valid spec, by the same chains."""
    f = s.family
    if f is Family.CYCLIC:
        return (f"cyclic(q={s.q},p={s.p})", f"cyclic_q{s.q}_p{s.p}", s.p, None)
    if f in (Family.DIHEDRAL, Family.INDEX2):
        return (f"{f.value}(m={s.m},n={s.n})", f"{f.value}_m{s.m}_n{s.n}",
                4 * s.m * s.n, 2 * s.n)
    order = {Family.TETRAHEDRAL: 24, Family.INDEX3: 24, Family.OCTAHEDRAL: 48,
             Family.ICOSAHEDRAL: 120}[f] * s.m
    h = {Family.OCTAHEDRAL: 24, Family.ICOSAHEDRAL: 60}.get(f, 12)
    return f"{f.value}(m={s.m})", f"{f.value}_m{s.m}", order, h


GRID_VALUES = [None, -1, 0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 30]


def _grid():
    """(family, parameters) pairs: every family with every grid value, or
    None, for each parameter it takes."""
    for family in Family:
        names = FAMILIES[family].params
        for values in itertools.product(GRID_VALUES, repeat=len(names)):
            yield family, dict(zip(names, values))


def test_the_table_agrees_with_the_per_family_chains():
    cases = list(_grid())
    assert len(cases) == 3 * 15 ** 2 + 4 * 15
    valid = 0
    for family, params in cases:
        s = SimpleNamespace(**{**dict.fromkeys("mnqp"), **params})
        expected = _chains_validate(family, s)
        try:
            spec = GroupSpec(family, **params)
            got = None
        except InvalidParameters as exc:
            got = str(exc)
        cyclic_label = f"cyclic(q={s.q},p={s.p})"
        if family is Family.CYCLIC and expected and expected.startswith(
                "cyclic L("):
            # the one text that moved: the gcd refusal names the label
            expected = f"{cyclic_label}: gcd(q,p) must be 1"
        if family is Family.CYCLIC and expected is None \
                and not 0 < s.q < s.p:
            # the one refusal added: a residue q outside 1..p-1, which the
            # chains left to the gcd alone, so that L(q,p) had two keys
            expected = f"{cyclic_label}: q must lie in 1..p-1"
        assert got == expected, (family, params)
        if got is None:
            valid += 1
            label, key, order, h = _chains_facts(spec)
            assert (spec.label(), spec.key(), spec.expected_order()) == (
                label, key, order), spec
            if h is None:
                with pytest.raises(InvalidParameters):
                    spec.pgl_image_order()
            else:
                assert spec.pgl_image_order() == h, spec
            assert spec.is_degenerate_cyclic == (
                spec.family in (Family.DIHEDRAL, Family.INDEX2) and spec.n == 1)
    assert valid > 100


def _two_coefficient_rule(arr):
    """The sign rule ``_canonical_rows`` had for (a, b1, b2) rows alone:
    the real part of a positive, or else its imaginary part."""
    re_a, im_a = arr[:, 0].real, arr[:, 0].imag
    return arr * np.where(np.abs(re_a) > 1e-9, np.sign(re_a),
                          np.sign(im_a))[:, None]


def test_canonical_rows_keep_the_two_coefficient_rule():
    from u2sing.sweep import SweepConfig, specs_in_sweep
    config = SweepConfig(families=tuple(set(Family) - {Family.CYCLIC}),
                         m_max=20, n_max=6)
    specs, imaginary = 0, 0
    for spec in specs_in_sweep(config):
        rows = rows_of(enumerate_group(spec))
        for x in (rows, -rows):
            assert _row_keys(_canonical_rows(x)) == \
                _row_keys(_two_coefficient_rule(x)), spec
        imaginary += int((np.abs(rows[:, 0].real) <= 1e-9).sum())
        specs += 1
    assert specs == 100 and imaginary > 0   # both branches of the old rule


# -- enumeration ------------------------------------------------------------

ORDER_CASES = [
    (GroupSpec.tetrahedral(1), 24),
    (GroupSpec.dihedral(1, 2), 8),
    (GroupSpec.cyclic(3, 5), 5),
    (GroupSpec.octahedral(1), 48),
    (GroupSpec.icosahedral(1), 120),
    (GroupSpec.index2(2, 3), 24),
    (GroupSpec.index3(3), 72),
    (GroupSpec.dihedral(3, 4), 48),
    (GroupSpec.tetrahedral(7), 168),
    (GroupSpec.icosahedral(7), 840),
    (GroupSpec.index2(8, 3), 96),
    (GroupSpec.cyclic(1, 200), 200),
]


@pytest.mark.parametrize("spec,order", ORDER_CASES)
def test_orders(spec, order):
    group = enumerate_group(spec)
    assert group.order == order == spec.expected_order()
    assert is_fixed_point_free(group)


def test_group_contains_identity_and_inverses():
    group = enumerate_group(GroupSpec.dihedral(3, 2))
    elements = scalar(rows_of(group))
    keys = {key(g) for g in elements}
    assert key(IDENTITY) in keys
    for g in elements[:10]:
        inv = inverse(g)
        assert key(inv) in keys
        assert equivalent(compose(g, inv), IDENTITY)


def test_closure_overflow():
    g = row(0.0, cmath.exp(1j * math.pi / 6))   # order 12
    with pytest.raises(ClosureOverflow):
        generate_closure([g], max_order=5)


def test_complex_reflection_detected():
    # group generated by diag(1, zeta_3): eigenvalue 1 is structural, and
    # both routes of the count find it in every element
    g = row(math.pi / 3, cmath.exp(-1j * math.pi / 3))
    group = RowGroup(generate_closure([g], 10).rows)
    assert group.order == 3
    assert not is_fixed_point_free(group)
    assert group.eigenvalue_one_count() == angle_eigenvalue_one_count(group) == 3


def _lens_groups(p_max):
    """Every lens spec L(q, p) with p <= p_max and its enumerated group,
    one at a time."""
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if math.gcd(q, p) == 1:
                spec = GroupSpec.cyclic(q, p)
                yield spec, enumerate_group(spec)


def test_the_freeness_count_is_the_angle_route_on_every_lens_group():
    # The exact count on the turns, the row count that reads a e^{+-i phi}
    # off the reference rows, and the angles theta +- phi: the same
    # elements on all 12,231 lens groups with p <= 200.  On the rows every
    # element but the identity is at least 2 sin(pi/200) from eigenvalue 1,
    # the margin the row count had when the lens path read it.
    count, nearest = 0, math.inf
    for spec, group in _lens_groups(200):
        rows = lens_rows(spec)
        assert group.eigenvalue_one_count() == 1, spec
        assert rows.eigenvalue_one_count() == 1, spec
        assert angle_eigenvalue_one_count(rows) == 1, spec
        d = angle_distances(rows)
        assert d[0] == 0.0
        count, nearest = count + 1, min(nearest, d[1:].min())
    assert count == 12231
    assert nearest == pytest.approx(2 * math.sin(math.pi / 200), rel=1e-9)
    assert nearest > 3.1e-2


@pytest.mark.parametrize("spec", [GroupSpec.index2(8, 3), GroupSpec.index3(9)],
                         ids=lambda s: s.key())
def test_the_freeness_count_is_the_angle_route_where_b2_is_not_zero(spec):
    group = RowGroup(enumerate_gamma_prime(spec).rows)
    assert np.abs(group.rows[:, 2]).max() > 0.5
    assert group.eigenvalue_one_count() == angle_eigenvalue_one_count(group) == 1


def test_fiber_subgroup_order_and_triviality():
    for spec in (GroupSpec.dihedral(3, 2), GroupSpec.tetrahedral(7),
                 GroupSpec.index3(9)):
        fiber = generators_of(spec)[0]
        sub = generate_closure([fiber], 4 * spec.m)
        assert sub.order == 2 * spec.m
        for g in scalar(sub.rows):
            (a, b), (c, d) = mobius(g)
            assert abs(b) <= 1e-7 and abs(c) <= 1e-7 and abs(a - d) <= 1e-7


def test_gamma_prime_orders():
    # products: the binary polyhedral group; diagonal families: everything
    assert enumerate_gamma_prime(GroupSpec.dihedral(5, 3)).order == 12
    assert enumerate_gamma_prime(GroupSpec.tetrahedral(7)).order == 24
    assert enumerate_gamma_prime(GroupSpec.octahedral(5)).order == 48
    assert enumerate_gamma_prime(GroupSpec.icosahedral(7)).order == 120
    assert enumerate_gamma_prime(GroupSpec.index2(2, 3)).order == 24
    assert enumerate_gamma_prime(GroupSpec.index3(3)).order == 72


# -- degenerate n = 1 specs -------------------------------------------------

@pytest.mark.parametrize("spec", [GroupSpec.dihedral(1, 1),
                                  GroupSpec.dihedral(5, 1),
                                  GroupSpec.index2(2, 1),
                                  GroupSpec.index2(4, 1)])
def test_degenerate_specs_are_cyclic(spec):
    assert spec.is_degenerate_cyclic
    group = enumerate_group(spec)
    t = cyclic_equivalent_type(group)
    assert t is not None and t.beta == group.order
    # single-generator check by brute force
    assert any(
        all(key(power(g, k)) != key(IDENTITY) for k in range(1, group.order))
        for g in scalar(rows_of(group)))


def _types_of_every_generator(group):
    """The values min(q, q^-1) mod N, q = k2/k1, of every element whose
    eigen-residues (k1, k2) mod N = |group| give a lens type: k1 and q
    units mod N."""
    n = group.order
    k1, k2 = (x.tolist() for x in group.eigen_residues(n))
    qs = (b * pow(a, -1, n) % n for a, b in zip(k1, k2) if math.gcd(a, n) == 1)
    return {min(q, pow(q, -1, n)) for q in qs if math.gcd(q, n) == 1}


def test_the_lens_type_is_the_one_every_generator_gives():
    # A generator g^s of a cyclic group of order N has eigen-residues
    # s (k1, k2), so q = k2/k1 mod N is one value over all of them:
    # cyclic_equivalent_type, which stops at the first element that gives
    # a type, reads the type that all of them give.  On every lens group
    # with p <= 60, where it is also the spec's own type up to
    # q <-> q^-1, and on every n = 1 spec of the default sweep.
    from u2sing.sweep import SweepConfig, specs_in_sweep
    lens = list(_lens_groups(60))
    degenerate = [(s, enumerate_group(s)) for s in specs_in_sweep(SweepConfig())
                  if s.is_degenerate_cyclic]
    assert (len(lens), len(degenerate)) == (1101, 120)
    for spec, group in lens + degenerate:
        t = cyclic_equivalent_type(group)
        assert t.beta == group.order, spec
        assert _types_of_every_generator(group) == {t.alpha}, spec
        if spec.is_cyclic:
            assert t.conj_key() == canonical_cyclic(spec.q, spec.p).conj_key()


def test_nondegenerate_not_flagged():
    assert not GroupSpec.dihedral(1, 2).is_degenerate_cyclic
    assert not GroupSpec.tetrahedral(1).is_degenerate_cyclic


# -- eigenvalue histograms (the three exceptional tables) -------------------

def test_histogram_tetrahedral():
    hist = eigenvalue_histogram(enumerate_group(GroupSpec.tetrahedral(1)))
    assert dict(hist) == {
        (F(0), F(0)): 1, (F(1, 2), F(1, 2)): 1, (F(1, 4), F(3, 4)): 6,
        (F(1, 6), F(5, 6)): 8, (F(1, 3), F(2, 3)): 8}


def test_histogram_octahedral():
    hist = eigenvalue_histogram(enumerate_group(GroupSpec.octahedral(1)))
    assert dict(hist) == {
        (F(0), F(0)): 1, (F(1, 2), F(1, 2)): 1, (F(1, 4), F(3, 4)): 18,
        (F(1, 6), F(5, 6)): 8, (F(1, 3), F(2, 3)): 8,
        (F(1, 8), F(7, 8)): 6, (F(3, 8), F(5, 8)): 6}


def test_histogram_icosahedral():
    hist = eigenvalue_histogram(enumerate_group(GroupSpec.icosahedral(1)))
    assert dict(hist) == {
        (F(0), F(0)): 1, (F(1, 2), F(1, 2)): 1, (F(1, 4), F(3, 4)): 30,
        (F(1, 6), F(5, 6)): 20, (F(1, 3), F(2, 3)): 20,
        (F(1, 10), F(9, 10)): 12, (F(1, 5), F(4, 5)): 12,
        (F(3, 10), F(7, 10)): 12, (F(2, 5), F(3, 5)): 12}


def test_exact_eigen_residues_are_the_snapped_rows():
    # eigen_residues(|Gamma|) on labels against _snap_residue of the angles
    # theta +- phi of the rows built from them.  The row sign rule may
    # negate a row, [-a, -S]: theta turns by pi and phi becomes pi - phi,
    # which swaps the two angles.
    from u2sing.sweep import SweepConfig, specs_in_sweep
    config = SweepConfig(families=tuple(set(Family) - {Family.CYCLIC}),
                         m_max=20, n_max=6)
    specs = list(specs_in_sweep(config))
    assert len(specs) == 100 and any(s.is_degenerate_cyclic for s in specs)
    swapped = 0
    for spec in specs:
        group = enumerate_group(spec)
        n = group.order
        exact = list(zip(*(x.tolist() for x in group.eigen_residues(n))))
        theta, phi = FiniteGroup(rows_of(group)).eigen_data()
        snapped = [(_snap_residue(a, n), _snap_residue(b, n))
                   for a, b in zip((theta + phi).tolist(),
                                   (theta - phi).tolist())]
        assert len(exact) == len(snapped) == n
        for e, f in zip(exact, snapped):
            assert e in (f, f[::-1]), spec
        swapped += sum(e != f for e, f in zip(exact, snapped))
    assert swapped > 0          # the swap happens, and is allowed for


@pytest.mark.parametrize("spec", [GroupSpec.tetrahedral(1),
                                  GroupSpec.icosahedral(1),
                                  GroupSpec.dihedral(5, 1),
                                  GroupSpec.index2(4, 1)],
                         ids=lambda s: s.key())
def test_the_row_readers_read_what_the_labels_give(spec):
    # eigenvalue_histogram and cyclic_equivalent_type read a row group by
    # its float residues (tests/freeness_float.py); on the rows built from
    # the labels each reads what its exact route reads on the labels.
    group = enumerate_group(spec)
    rows = RowGroup(rows_of(group))
    assert eigenvalue_histogram(rows) == eigenvalue_histogram(group)
    assert cyclic_equivalent_type(rows) == cyclic_equivalent_type(group)
    assert (cyclic_equivalent_type(group) is None) != spec.is_degenerate_cyclic


@pytest.mark.parametrize("spec", [GroupSpec.dihedral(5, 3),
                                  GroupSpec.dihedral(5, 1),
                                  GroupSpec.icosahedral(7),
                                  GroupSpec.index3(9),
                                  GroupSpec.cyclic(5, 12),
                                  GroupSpec.cyclic(187, 200)],
                         ids=lambda s: s.key())
def test_exact_eigen_residues_refuse_a_modulus_they_do_not_divide(spec):
    group = enumerate_group(spec)
    with pytest.raises(SnapFailure, match=re.escape(
            f"not a multiple of 1/{group.order - 1} turn")):
        group.eigen_residues(group.order - 1)


# -- lens labels ------------------------------------------------------------

def test_canonical_cyclic_examples():
    assert canonical_cyclic(-3, 5) == CyclicType(5, 2)
    assert canonical_cyclic(1, 2) == CyclicType(2, 1)
    for m in (3, 9, 15):               # 1 - m = 1 (mod 3) when m = 3 (mod 6)
        assert canonical_cyclic(1 - m, 3) == CyclicType(3, 1)
        assert canonical_cyclic(-1 - m, 3) == CyclicType(3, 2)
    assert canonical_cyclic(0, 1).is_trivial


def test_canonical_cyclic_rejects():
    with pytest.raises(NotCoprime):
        canonical_cyclic(2, 4)
    with pytest.raises(NotCoprime):
        canonical_cyclic(0, 3)


def test_cyclic_type_dual_and_conjugate():
    t = canonical_cyclic(2, 5)
    inverse = canonical_cyclic(3, 5)              # 2 * 3 = 6 = 1 (mod 5)
    assert inverse == CyclicType(5, 3)
    assert t.conj_key() == (5, 2) == inverse.conj_key()


# -- closure against the np.unique reference --------------------------------

def _reference_closure(generators, max_order):
    """The closure as enumerated with a per-level np.unique(axis=0) dedupe
    (the earlier implementation), kept as the reference for byte equality."""
    gen_rows = _canonical_rows(np.asarray(generators, dtype=complex))

    def grid_of(arr):
        grid = np.round(arr.view(np.float64).reshape(len(arr), 6) * KEY_SCALE)
        return np.ascontiguousarray(grid.astype(np.int64))

    frontier = _canonical_rows(np.array([row()]))
    seen = {grid_of(frontier)[0].tobytes()}
    chunks = [frontier]
    while len(frontier):
        batches = []
        for gen in gen_rows:
            a = gen[0] * frontier[:, 0]
            b1 = frontier[:, 1] * gen[1] - frontier[:, 2] * np.conj(gen[2])
            b2 = frontier[:, 1] * gen[2] + frontier[:, 2] * np.conj(gen[1])
            batches.append(np.stack([a, b1, b2], axis=1))
        cand = _canonical_rows(np.concatenate(batches, axis=0))
        grid = grid_of(cand)
        _, first = np.unique(grid, axis=0, return_index=True)
        first = np.sort(first)
        cand, grid = cand[first], grid[first]
        fresh = []
        for i in range(len(grid)):
            k = grid[i].tobytes()
            if k not in seen:
                seen.add(k)
                fresh.append(i)
        if len(seen) > 2 * max_order:
            raise ClosureOverflow("reference closure overflow")
        if not fresh:
            break
        frontier = cand[fresh]
        chunks.append(frontier)
    return np.concatenate(chunks, axis=0)


def _scalar_closure(generators, max_order):
    """The same breadth-first closure, one composition at a time with the
    scalar row algebra.  Python's complex product rounds differently from
    NumPy's complex multiply loop in the last bit, so it is compared on keys
    and values, not bytes."""
    gens = [canonical(g) for g in scalar(generators)]
    frontier = [canonical(IDENTITY)]
    seen, out = {key(IDENTITY)}, list(frontier)
    while frontier:
        fresh = []
        for g in gens:
            for f in frontier:
                c = canonical(compose(g, f))
                if key(c) not in seen:
                    seen.add(key(c))
                    fresh.append(c)
        if len(seen) > 2 * max_order:
            raise ClosureOverflow("scalar closure overflow")
        frontier = fresh
        out.extend(fresh)
    return out


def _assert_same_keys(rows, scalar_rows):
    assert [key(g) for g in scalar(rows)] == [key(g) for g in scalar_rows]
    assert np.abs(rows - np.array(scalar_rows)).max() < 1e-12


def _reference_cyclic_rows(spec):
    """Powers of the cyclic generator deduplicated by np.unique(axis=0)."""
    gen = generators_of(spec)[0]
    k = np.arange(spec.p)
    rows = _canonical_rows(np.stack([np.exp(1j * np.angle(gen[0]) * k),
                                     np.exp(1j * np.angle(gen[1]) * k),
                                     np.zeros(spec.p, dtype=complex)], axis=1))
    grid = np.round(rows.view(np.float64).reshape(spec.p, 6) * KEY_SCALE)
    _, idx = np.unique(grid.astype(np.int64), axis=0, return_index=True)
    return rows[np.sort(idx)]


def _assert_same_rows(rows, ref):
    assert rows.dtype == ref.dtype and rows.shape == ref.shape
    assert rows.tobytes() == ref.tobytes()


# One spec per family, the n = 1 case and the largest default-sweep group.
CLOSURE_CASES = [
    GroupSpec.cyclic(7, 30), GroupSpec.dihedral(5, 3), GroupSpec.dihedral(3, 1),
    GroupSpec.tetrahedral(7), GroupSpec.octahedral(5),
    GroupSpec.icosahedral(7), GroupSpec.icosahedral(119),
    GroupSpec.index2(8, 3), GroupSpec.index3(9)]


@pytest.mark.parametrize("spec", CLOSURE_CASES, ids=lambda s: s.key())
def test_closure_matches_reference(spec):
    gens, order = generators_of(spec), spec.expected_order()
    ref = _reference_closure(gens, order)
    assert len(ref) == order
    _assert_same_rows(generate_closure(gens, order).rows, ref)
    _assert_same_keys(ref, _scalar_closure(gens, order))
    if not spec.is_cyclic:
        # Dimino's closure lists the same elements in coset order, and its
        # last bits need not match the BFS's
        rows = rows_of(enumerate_group(spec))
        assert len(rows) == len(ref)
        assert (_row_keys(rows[:1]) == _row_keys(ref[:1])
                == _row_keys(np.array([IDENTITY])))
        assert set(_row_keys(rows)) == set(_row_keys(ref))


@pytest.mark.parametrize("spec", CLOSURE_CASES, ids=lambda s: s.key())
def test_reports_do_not_depend_on_the_enumeration_order(spec):
    # the report reads only exact, snapped results of Gamma, so the BFS
    # order and the enumeration's order give the same bytes; the BFS rows
    # are handed in as turns on the 1/(2p) grid for a cyclic spec, and for
    # every other as labels, labelled as the generators are
    bfs = generate_closure(generators_of(spec), spec.expected_order())
    if spec.is_cyclic:
        bfs = turns_of(bfs.rows, spec.p)
    else:
        bfs = label_rows(spec, bfs.rows, "row")
    assert (report_to_json(describe(spec, group=bfs))
            == report_to_json(describe(spec)))


@pytest.mark.parametrize("spec", [GroupSpec.dihedral(5, 3), GroupSpec.index2(8, 3),
                                  GroupSpec.icosahedral(7), GroupSpec.index3(9)],
                         ids=lambda s: s.key())
def test_scalar_keys_are_the_array_keys(spec):
    rows = rows_of(enumerate_group(spec))
    signs = np.where(np.arange(len(rows)) % 3 == 0, -1.0, 1.0)
    raw = rows * signs[:, None]             # every third row's other sign
    assert ([_row_key(_canonical_row(g)) for g in raw.tolist()]
            == _row_keys(_canonical_rows(raw)) == _row_keys(rows))


_COORDINATE = st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9),
                        st.floats(-2.0, 2.0))


@given(st.lists(_COORDINATE, min_size=6, max_size=6), st.booleans())
@settings(max_examples=300)
def test_scalar_sign_rule_is_the_array_sign_rule(coords, a_is_zero):
    # Both fix the sign by the first real coordinate beyond EQ_TOL of all
    # six, also where a = 0 leaves it to b1 or b2.
    if a_is_zero:
        coords[:2] = [0.0, 0.0]
    assume(any(abs(x) > EQ_TOL for x in coords))
    g = tuple(complex(x, y) for x, y in zip(coords[0::2], coords[1::2]))
    assert _canonical_row(g) == tuple(_canonical_rows(np.array([g]))[0].tolist())


def test_scalar_keys_round_half_to_even_like_the_array_keys():
    halves = [x for x in (k / KEY_SCALE for k in np.arange(0.5, 40.5))
              if (x * KEY_SCALE) % 1 == 0.5]
    assert len(halves) > 10
    for x in halves:
        g = (1.0 + x * 1j, complex(x, -x), complex(-x, x))
        assert _row_key(g) == _row_keys(np.array([g]))[0]


@pytest.mark.parametrize("drift", ["fiber", "later"])
def test_a_drifting_generator_overflows_the_dimino_closure(drift):
    # A generator row that drifts off the group runs the float closure on
    # until ClosureOverflow, and the reference snap that labelled the rows
    # before the generators were declared as labels refuses it by name.
    spec = GroupSpec.dihedral(5, 3)
    gens = generators_of(spec).copy()
    if drift == "fiber":    # its powers never return to the identity
        gens[0, 0] = cmath.exp(1j * math.pi / 5 * (1 + 1e-3))
        text = "the phase of generator 0 is not on the pi/5 grid"
    else:                   # |beta| > 1: its cosets never close up
        gens[1, 1:] *= 1.001
        text = "the SU(2) part of generator 1 is not in D*12"
    with pytest.raises(ClosureOverflow):
        dimino_closure(gens, spec.expected_order())
    with pytest.raises(SnapFailure, match=re.escape(text)):
        label_rows(spec, gens, "generator")


# -- the label closure against the float Dimino -----------------------------

def _assert_label_group_is_the_reference(spec):
    """The rows built from the labels (``rows_of``) carry the float Dimino's
    grid keys in its order, and there are |Gamma| of them."""
    group = enumerate_group(spec)
    assert isinstance(group, Labels) and group.order == spec.expected_order()
    ref = dimino_closure(generators_of(spec), spec.expected_order())
    assert _row_keys(rows_of(group)) == _row_keys(ref.rows), spec


def test_label_closure_matches_the_float_dimino_in_the_sweep():
    from u2sing.sweep import SweepConfig, specs_in_sweep
    config = SweepConfig(families=tuple(set(Family) - {Family.CYCLIC}),
                         m_max=20, n_max=6)
    specs = list(specs_in_sweep(config))
    assert len(specs) == 100 and any(s.is_degenerate_cyclic for s in specs)
    for spec in specs:
        _assert_label_group_is_the_reference(spec)


def test_the_declared_labels_are_the_reference_snap_in_the_sweep():
    # The generator labels that the enumeration reads are declared, not
    # snapped: on every non-cyclic spec with m <= 20 and n <= 6, every
    # ONE_PER_FAMILY spec of test_resolution.py among them, they are the
    # float snap of the rows generators_of evaluates, and D*_4n's exact
    # negation, orders and residues are the float route's for n <= 6
    # (tests/ci_steps.py: the default sweep and n <= 400).
    from test_resolution import ONE_PER_FAMILY
    from u2sing.sweep import SweepConfig, specs_in_sweep
    specs = list(specs_in_sweep(SweepConfig(
        families=tuple(set(Family) - {Family.CYCLIC}), m_max=20, n_max=6)))
    assert set(ONE_PER_FAMILY) <= set(specs)
    assert check_declared_labels(specs, 6) == 100


def test_each_gstar_closure_is_the_closure_of_its_specs_generators():
    # The G* generators are declared once (catalog._gstar_gens): the cached
    # G* closure is, bit for bit, the closure of generators_of(spec)[1:] on
    # the 72 product specs with m <= 20 and n <= 6 (tests/ci_steps.py: the
    # default sweep's 1,299).
    from u2sing.sweep import SweepConfig, specs_in_sweep
    specs = list(specs_in_sweep(SweepConfig(m_max=20, n_max=6)))
    assert check_gstar_closures(specs) == 72


def _catalog_spec(build, *params):
    def make(args):
        try:
            return build(*args)
        except InvalidParameters:
            return None
    return st.tuples(*params).map(make).filter(lambda spec: spec is not None)


@given(st.one_of(
    _catalog_spec(GroupSpec.dihedral, st.integers(1, 40), st.integers(1, 40)),
    _catalog_spec(GroupSpec.index2, st.integers(1, 20).map(lambda k: 2 * k),
                  st.integers(1, 40)),
    *(_catalog_spec(build, st.integers(1, 150))
      for build in (GroupSpec.tetrahedral, GroupSpec.octahedral,
                    GroupSpec.icosahedral, GroupSpec.index3))))
@settings(max_examples=25, deadline=None)
def test_label_closure_matches_the_float_dimino(spec):
    _assert_label_group_is_the_reference(spec)


# -- the G* tables -----------------------------------------------------------

# One spec over each G* checked here, the key ``_gstar_kind`` gives it,
# and |G*|.
GSTARS = [(GroupSpec.tetrahedral(1), ("T",), 24),
          (GroupSpec.octahedral(5), ("O",), 48),
          (GroupSpec.icosahedral(7), ("I",), 120),
          (GroupSpec.dihedral(1, 1), ("D", 1), 4),
          (GroupSpec.dihedral(1, 2), ("D", 2), 8),
          (GroupSpec.index2(2, 5), ("D", 5), 20),
          (GroupSpec.dihedral(5, 24), ("D", 24), 96)]


# The ids name each G* by kind and n, n = 0 for the tables: T-0, ..., D-24.
@pytest.mark.parametrize("spec,key,size", GSTARS,
                         ids=[f"{k[0]}-{k[1] if len(k) > 1 else 0}"
                              for _, k, _ in GSTARS])
def test_every_gstar_is_a_checked_group(spec, key, size):
    # Each product, negation, order and residue against the float
    # quaternions (tests/dimino_float.py): products agree to rounding, the
    # order is the first power that returns to 1, and the eigenvalues are
    # e^{+-2 pi i r / order}.  The table checked is the one object the
    # enumeration of every spec over it reads.
    assert _gstar_kind(spec) == key
    g = _gstar(*key)
    assert g is enumerate_group(spec).gstar
    assert g.size == size
    every, su2 = np.arange(size), gstar_rows(g)
    x1, x2 = su2.T
    prod = np.stack(_su2_product(x1[:, None], x2[:, None], x1, x2), -1)
    assert np.abs(prod - su2[g.mul(every[:, None], every)]).max() < 1e-12
    assert np.abs(su2[g.neg] + su2).max() < 1e-12
    power, order = su2.copy(), np.zeros(size, dtype=int)
    for t in range(1, size + 1):
        back = (np.abs(power - [1, 0]).max(axis=1) < 1e-9) & (order == 0)
        order[back] = t
        power = np.stack(_su2_product(*power.T, x1, x2), -1)
    assert order.tolist() == g.order.tolist()
    assert np.allclose(np.cos(2 * np.pi * g.residue / g.order),
                       su2[:, 0].real)


def test_su2_product_is_the_row_algebra_product():
    # Broadcast columns and complex scalars, against rowalg's one-pair
    # quaternion product.
    rng = np.random.default_rng(7)
    x, y = (rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2))
            for k in (5, 4))
    c1, c2 = _su2_product(x[:, 0, None], x[:, 1, None], y[:, 0], y[:, 1])
    assert c1.shape == c2.shape == (5, 4)
    for i, j in itertools.product(range(5), range(4)):
        want = qmul(tuple(x[i].tolist()), tuple(y[j].tolist()))
        assert abs(c1[i, j] - want[0]) < 1e-12
        assert abs(c2[i, j] - want[1]) < 1e-12
        got = _su2_product(*x[i].tolist(), *y[j].tolist())
        assert all(abs(u - v) < 1e-12 for u, v in zip(got, want))


def _tabled_dstar():
    """D*_20, exact, with its product formula written out as a table, so
    that a mutant can corrupt one product."""
    g = _gstar("D", 5)
    every = np.arange(g.size)
    return dataclasses.replace(g, table=g.mul(every[:, None], every))


def test_a_corrupted_table_fails_the_latin_square_or_lights_test():
    # On T* and on the exact D*_20 with its formula as a table.
    for g in (_gstar("T"), _tabled_dstar()):
        assert _checked(g) is g
        moved = g.table.copy()
        moved[0] = np.roll(moved[0], 1)
        with pytest.raises(NotAGroup, match="element 0 is not the identity"):
            _checked(dataclasses.replace(g, table=moved))
        bad = g.table.copy()
        bad[5, 7] = bad[5, 8]
        with pytest.raises(NotAGroup, match="not a Latin square"):
            _checked(dataclasses.replace(g, table=bad))
        # An intercalate swap keeps a Latin square with identity 0: the
        # cells (x, y), (-x, -y) hold u and (x, -y), (-x, y) hold -u;
        # exchanging the two values leaves every row and column a
        # permutation, but the product is no longer associative.
        x, y, minus = 1, 2, g.neg
        assert len({0, x, y, minus[x], minus[y]}) == 5
        swapped = g.table.copy()
        swapped[x, y] = swapped[minus[x], minus[y]] = g.table[x, minus[y]]
        swapped[x, minus[y]] = swapped[minus[x], y] = g.table[x, y]
        assert (np.sort(swapped, axis=1) == np.arange(g.size)).all()
        with pytest.raises(NotAGroup, match="Light's test"):
            _checked(dataclasses.replace(g, table=swapped))


def _swap_with_negative_of_an_order_6_element(g):
    # -x has order 3 (5 in D*_20): its order and residue are given to x,
    # but the product (unchanged) still gives x order 6 (10), so x^3 = -1
    # there (x^5)
    x = int(np.flatnonzero((g.order % 4 == 2) & (g.order > 2))[0])
    pair = [x, g.neg[x]]
    order, residue = g.order.copy(), g.residue.copy()
    order[pair], residue[pair] = order[pair[::-1]], residue[pair[::-1]]
    return dataclasses.replace(g, order=order, residue=residue)


def _negatives_paired_across(g):
    # x with -y and y with -x: still a fixed-point-free involution, but not
    # the product with -1
    x, y = 1, 2
    neg = g.neg.copy()
    neg[[x, y, g.neg[x], g.neg[y]]] = g.neg[y], g.neg[x], y, x
    return dataclasses.replace(g, neg=neg)


_LATER_MUTANTS = {
    "generation": (lambda g: dataclasses.replace(g, gens=g.gens[:1]),
                   "the generators do not generate it"),
    "negation": (_negatives_paired_across,
                 "negation is not a central fixed-point-free involution"),
    "orders": (_swap_with_negative_of_an_order_6_element,
               "power to the order of its eigenvalues is not 1"),
}


@pytest.mark.parametrize("check,key", [
    *((c, ("T",)) for c in _LATER_MUTANTS),
    *((c, ("D", 5)) for c in _LATER_MUTANTS)],
    ids=[*_LATER_MUTANTS, *(f"{c}-D20" for c in _LATER_MUTANTS)])
def test_each_later_gstar_check_refuses_its_mutant(check, key):
    # The product is untouched: a generating set that does not generate,
    # negatives paired with the wrong elements, and two elements' orders
    # traded with their negatives' each pass the Latin square and Light's
    # test, on T* and on the exact D*_20.
    mutant, text = _LATER_MUTANTS[check]
    g = _gstar(*key)
    with pytest.raises(NotAGroup, match=re.escape(text)):
        _checked(mutant(g))


@pytest.mark.parametrize("spec,patch,text", [
    (GroupSpec.tetrahedral(5), "octahedral",
     "tetrahedral(m=5): the SU(2) part of generator 1 is not in T*"),
    (GroupSpec.index3(3), "phase",
     "index3(m=3): the phase of generator 3 is not on the pi/9 grid"),
], ids=["outside-gstar", "off-the-grid"])
def test_a_generator_outside_gstar_or_off_the_grid_is_refused(
        spec, patch, text):
    # The reference snap keys a generator row against the spec's table
    # and refuses one outside it, or off the phase grid, by name.  The
    # enumeration reads declared labels, which are in the table by
    # construction.
    if patch == "octahedral":     # e^{i pi/4} is in O*, not in T*
        rows = generators_of(GroupSpec.octahedral(spec.m))
    else:
        rows = generators_of(spec)
        rows[3, 0] = cmath.exp(1j * math.pi / (2 * spec.m))
    with pytest.raises(SnapFailure, match=re.escape(text)):
        label_rows(spec, rows, "generator")


def test_the_gstar_tables_never_read_the_generators(monkeypatch, fresh_caches):
    # The tables come from their own quaternions: built while
    # generators_of refuses every call, they are the tables every spec
    # reads, so a patched generators_of cannot leave a stale one.
    def refuse(spec):
        raise AssertionError("a G* table read generators_of")

    monkeypatch.setattr(u2sing.catalog, "generators_of", refuse)
    for _, key, _ in GSTARS:
        assert _gstar(*key).neg is not None
    monkeypatch.undo()
    assert enumerate_group(GroupSpec.icosahedral(7)).order == 840


def test_a_gstar_closure_past_120_elements_overflows(monkeypatch, fresh_caches):
    # A generator of infinite order (an irrational angle) never closes up:
    # the closure of I* stops past twice its 120 elements.
    monkeypatch.setattr(u2sing.catalog, "_I_GENS",
                        ((math.cos(1.0), math.sin(1.0), 0.0, 0.0),
                         (0.5, 0.5, 0.5, 0.5)))
    with pytest.raises(ClosureOverflow,
                       match=re.escape("closure exceeded 240 elements")):
        _gstar("I")


def test_a_gstar_closure_of_the_wrong_order_is_refused(monkeypatch,
                                                        fresh_caches):
    # T*'s generators in place of O*'s close up, but to 24 elements, not 48:
    # no later check of the table reads its size.
    monkeypatch.setattr(u2sing.catalog, "_O_GENS", _T_GENS)
    with pytest.raises(NotAGroup, match=re.escape(
            "O*: the closure has 24 elements, not 48")):
        _gstar("O")


def test_a_named_quaternion_outside_its_closure_is_refused(
        monkeypatch, fresh_caches, capsys):
    # T*'s diagonal part moved off T*: keying the named quaternions back
    # into the closure refuses it by name, and the CLI exits 1 on the
    # refusal instead of ending in a KeyError traceback.
    monkeypatch.setattr(u2sing.catalog, "_T_DIAGONAL", (0.6, 0.8, 0.0, 0.0))
    with pytest.raises(NotAGroup, match=re.escape(
            "T*: a named quaternion is not an element")):
        _gstar("T")
    assert main(["describe", "--family", "index3", "--m", "3"]) == 1
    assert capsys.readouterr().err == (
        "check failure: T*: a named quaternion is not an element\n")


def test_each_gstar_is_closed_once_per_process(monkeypatch, fresh_caches):
    # Its table and the Gamma' of every product spec over it read one
    # closure; the index-2 and index-3 Gamma' are closed per spec.
    closed = []

    def counted(gens, max_order):
        closed.append(max_order)
        return generate_closure(gens, max_order)

    monkeypatch.setattr(u2sing.catalog, "generate_closure", counted)
    for spec in (GroupSpec.tetrahedral(1), GroupSpec.tetrahedral(5),
                 GroupSpec.icosahedral(7), GroupSpec.dihedral(1, 3),
                 GroupSpec.dihedral(5, 3), GroupSpec.index2(2, 3)):
        enumerate_group(spec)
        enumerate_gamma_prime(spec)
    assert closed == [24, 120, 12, 24]


def test_each_gstar_keys_its_elements_once(monkeypatch, fresh_caches):
    # D*_20 is exact and keys no row.  From its closure, T* keys its 24
    # elements for its index, three blocks of 8 x 24 products, its 6 named
    # quaternions, and its elements' negatives for the negation map: each
    # once.
    keyed = []

    def counted(arr):
        keyed.append(len(arr))
        return _row_keys(arr)

    _gstar_closure("T")
    monkeypatch.setattr(u2sing.catalog, "_row_keys", counted)
    assert _gstar("D", 5).neg is not None
    assert keyed == []
    assert _gstar("T").neg is not None
    assert keyed == [24, 192, 192, 192, 6, 24]


def _walk(g, j):
    """The powers of element j of ``g``, identity first, by one scalar
    product each, up to the first that is the identity again."""
    powers = [0]
    while (x := int(g.mul(powers[-1], j))) != 0:
        powers.append(x)
    return powers


def test_each_table_dimino_asked_for_is_a_cold_product(fresh_caches):
    # After enumerating the 1,908 non-cyclic specs of the default sweep,
    # every G* it touches (D*4 ... D*96, T*, O*, I*) holds the tables
    # Dimino asked for, each equal to its product computed cold: a right
    # multiplication by r to mul of every element by r, a power cycle to
    # the scalar walk, whose length is the element's order, and the int
    # lists to neg and order.  After the Mobius-image stabilizers of the
    # 1,788 specs with n > 1 are read, the 26 G*s over them (all but D*4)
    # hold those too, equal to a cold build.  A G* built after cache_clear
    # holds none.
    from u2sing.resolution import (_image_stabilizers, _mobius_table,
                                   _stabilizers)
    from u2sing.sweep import SweepConfig, specs_in_sweep
    gstars = {}
    for s in specs_in_sweep(SweepConfig()):
        if not s.is_cyclic:
            g = gstars[_gstar_kind(s)] = enumerate_group(s).gstar
            if not s.is_degenerate_cyclic:
                _image_stabilizers(g)
    assert len(gstars) == 27
    for g in gstars.values():
        kinds = Counter(k if isinstance(k, str) else k[0] for k in g.tables)
        assert kinds["ints"] == 1 and kinds["right"] and kinds["cycle"]
        assert kinds["stabilizers"] == (g.size > 4)
        assert sum(kinds.values()) == len(g.tables)
        every = np.arange(g.size)
        for key, table in g.tables.items():
            if key == "ints":
                assert table == (g.neg.tolist(), g.order.tolist())
            elif key == "stabilizers":
                assert table == tuple(_stabilizers(_mobius_table(g)))
            elif key[0] == "right":
                assert np.array_equal(table, g.mul(every, key[1])), key
            else:
                assert table.tolist() == _walk(g, key[1]), key
                assert len(table) == g.order[key[1]]
    _gstar.cache_clear()
    for key, g in gstars.items():
        fresh = _gstar(*key)
        assert fresh is not g and fresh.tables == {}


def test_a_wrong_right_multiplication_is_caught(monkeypatch, fresh_caches):
    # D*_4n's right multiplication by e^{i pi/n} with its first two entries
    # swapped: the enumeration reads that table, and on the m <= 20,
    # n <= 6 slice the closure count leaves the table order or overflows
    # on some spec.  With the table as built, every spec passes.
    from u2sing.sweep import SweepConfig, specs_in_sweep
    config = SweepConfig(families=tuple(set(Family) - {Family.CYCLIC}),
                         m_max=20, n_max=6)
    real = GStar.right

    def swapped(g, r):
        perm = real(g, r)
        if g.table is None and r == 1:
            perm = perm.copy()
            perm[[0, 1]] = perm[[1, 0]]
        return perm

    def failing():
        for spec in specs_in_sweep(config):
            try:
                if enumerate_group(spec).order != spec.expected_order():
                    yield spec
            except ClosureOverflow:
                yield spec

    monkeypatch.setattr(GStar, "right", swapped)
    assert any(failing())
    monkeypatch.undo()
    _gstar.cache_clear()
    assert not any(failing())


@pytest.mark.parametrize("spec", [GroupSpec.cyclic(1, 2),
                                  GroupSpec.cyclic(3, 7)],
                         ids=lambda s: s.key())
def test_gamma_prime_of_a_cyclic_spec_is_refused(spec):
    with pytest.raises(InvalidParameters, match="non-cyclic"):
        enumerate_gamma_prime(spec)


PRODUCT_SPECS = (
    [GroupSpec.dihedral(m, n) for n in range(2, 7) for m in range(1, 21)
     if math.gcd(m, 2 * n) == 1]
    + [GroupSpec(f, m=m) for f in (Family.TETRAHEDRAL, Family.OCTAHEDRAL,
                                   Family.ICOSAHEDRAL)
       for m in range(1, 21) if FAMILIES[f].holds(m)])


def test_product_gamma_prime_is_the_closure_of_its_generators():
    # Byte for byte the closure the spec's own generators give, and one
    # object for every spec over the same G*.
    first = {}
    for spec in PRODUCT_SPECS:
        gp = enumerate_gamma_prime(spec)
        ref = generate_closure(generators_of(spec)[1:], spec.expected_order())
        assert gp.rows.tobytes() == ref.rows.tobytes(), spec.key()
        assert first.setdefault((spec.family, spec.n), gp) is gp, spec.key()
    assert len(first) == 8


def test_a_closure_past_twice_the_order_overflows(monkeypatch):
    # index3(3) with the phase [e^{i pi/9}, 1] declared as one more
    # generator: every label (k, j) is then an element, 3 |Gamma| of them,
    # and the closure count stops past 2 |Gamma|, on labels as on the rows
    # that generators_of evaluates from the declaration.
    spec = GroupSpec.index3(3)
    real = u2sing.catalog._declared

    def one_more(s):
        n, gens = real(s)
        return n, [*gens, (1, (1.0, 0.0, 0.0, 0.0))]

    monkeypatch.setattr(u2sing.catalog, "_declared", one_more)
    gens = generators_of(spec)
    assert abs(gens[-1, 0] - cmath.exp(1j * math.pi / 9)) < 1e-15
    with pytest.raises(ClosureOverflow):
        dimino_closure(gens, spec.expected_order())
    with pytest.raises(ClosureOverflow, match="exceeded 144 elements"):
        enumerate_group(spec)


@pytest.mark.parametrize("spec", [GroupSpec.index2(8, 3), GroupSpec.index3(9),
                                  GroupSpec.tetrahedral(5)],
                         ids=lambda s: s.key())
def test_gamma_prime_matches_reference(spec):
    gens, order = generators_of(spec)[1:], spec.expected_order()
    rows = enumerate_gamma_prime(spec).rows
    _assert_same_rows(rows, _reference_closure(gens, order))
    _assert_same_keys(rows, _scalar_closure(gens, order))


def _halved_left_turn(monkeypatch):
    """Patch the declared lens turns (``_lens_turns``) so that the left turn
    k/p becomes k/2p: the generator's powers no longer close up at p."""
    real = u2sing.catalog._lens_turns

    def halved(spec):
        x, y = real(spec)
        return x // 2, y
    monkeypatch.setattr(u2sing.catalog, "_lens_turns", halved)


def test_a_lens_space_order_is_found_not_assumed(monkeypatch):
    # With the left turn of L(5, 12)'s generator halved, its 12th power is
    # (-1, 1, 0), not the identity, and the group it generates has order
    # 24: enumerating 12 powers would pass order_matches_table.  The
    # generator row that generators_of evaluates from the turns closes at
    # 24 as well.  Its 12th power has eigen-turns (12, 12), eigenvalues
    # -1 and -1; joint negation leaves eigen-turns alone, so the 24 powers
    # are 24 distinct pairs with no wrap to undo.
    _halved_left_turn(monkeypatch)
    spec = GroupSpec.cyclic(5, 12)
    group = enumerate_group(spec)
    assert (group.plus[12], group.minus[12]) == (12, 12)
    elements = set(zip(group.plus.tolist(), group.minus.tolist()))
    assert group.order == len(elements) == 24
    assert lens_rows(spec).order == 24
    check, = (c for c in describe(spec).checks
              if c.name == "order_matches_table")
    assert not check.passed and check.detail == "enumerated 24, expected 12"


def test_a_lens_order_on_the_turn_grid_divides_2p(monkeypatch):
    # A generator on the 1/(2p) grid has order dividing 2p, so the lens
    # enumeration cannot overflow.  For every pair of turns (x, y) on the
    # grid of p = 12 the order is the least t with t (x, y) at (0, 0) or
    # (12, 12) mod 24, found one power at a time here, and every divisor
    # of 24 occurs; none is larger.
    spec, orders = GroupSpec.cyclic(5, 12), set()
    for x, y in itertools.product(range(24), repeat=2):
        monkeypatch.setattr(u2sing.catalog, "_lens_turns",
                            lambda s, turns=(x, y): turns)
        first = next(t for t in range(1, 25)
                     if (t * x % 24, t * y % 24) in ((0, 0), (12, 12)))
        assert enumerate_group(spec).order == first, (x, y)
        orders.add(first)
    assert orders == {1, 2, 3, 4, 6, 8, 12, 24}


def test_lens_closures_match_reference():
    # the reference powers on every lens spec of the sweep; the
    # breadth-first closure on those with p <= 60
    for spec, group in _lens_groups(200):
        rows = lens_rows(spec).rows
        assert len(rows) == group.order == spec.p
        _assert_same_rows(rows, _reference_cyclic_rows(spec))
        if spec.p <= 60:
            gens = generators_of(spec)
            _assert_same_rows(generate_closure(gens, spec.p).rows,
                              _reference_closure(gens, spec.p))


def test_the_lens_turns_give_what_the_reference_rows_give():
    # On every lens spec with p <= 60, the order, the eigenvalue-one count
    # and eigen_residues(p) of the exact turns against the float rows of
    # tests/lens_float.py (tests/fraction_routes.py; tests/ci_steps.py
    # makes the same comparison on all 12,231 lens specs).  The residues
    # are compared up to a swap of the two angles, and the swap happens.
    specs = swapped = 0
    for spec, group in _lens_groups(60):
        assert isinstance(group, Turns)
        specs, swapped = specs + 1, swapped + check_lens_route(spec)
    assert specs == 1101 and swapped > 0


def test_the_eigen_turns_are_those_of_the_declared_turns_powers():
    # On every lens spec with p <= 60, the eigen-turns (plus, minus) in
    # enumeration order against (x + y, x - y) mod 2p of the powers
    # t (x, y) mod 2p of the declared turns, taken up to the first power
    # at (0, 0) or (p, p), the identity up to joint negation.
    specs = 0
    for spec, group in _lens_groups(60):
        p, two_p = spec.p, 2 * spec.p
        x, y = u2sing.catalog._lens_turns(spec)
        xs, ys = [0], [0]
        while True:
            xt, yt = (xs[-1] + x) % two_p, (ys[-1] + y) % two_p
            if xt == yt and xt % p == 0:
                break
            xs.append(xt)
            ys.append(yt)
        assert group.plus.tolist() == [(a + b) % two_p
                                       for a, b in zip(xs, ys)], spec
        assert group.minus.tolist() == [(a - b) % two_p
                                        for a, b in zip(xs, ys)], spec
        specs += 1
    assert specs == 1101


def test_an_order_past_max_order_is_found_in_the_second_table():
    # L(5, 12)'s generator has order 12: the first table of the reference
    # powers, k = 0..6 or k = 0..11, misses it, so the second,
    # k = 0..2 * max_order, holds it, and its first 12 rows are those of a
    # table of 12.  A max_order of 5 stops at k = 10.
    gen = generators_of(GroupSpec.cyclic(5, 12))[0]
    for max_order in (6, 11):
        rows = powers(gen, max_order)
        assert len(rows) == 12 and len(set(_row_keys(rows))) == 12
        assert rows.tobytes() == powers(gen, 12).tobytes()
    with pytest.raises(ClosureOverflow, match="exceeded 10 elements"):
        powers(gen, 5)


def test_powers_whose_identity_never_recurs_overflow():
    # e^{i} has infinite order: the table stops at 2 * max_order powers
    gen = np.array(row(0.0, cmath.exp(1j)))
    with pytest.raises(ClosureOverflow, match="exceeded 20 elements "
                                              r"\(expected 10\)"):
        powers(gen, 10)


def test_closure_overflow_threshold_matches_reference():
    gens = [row(0.0, cmath.exp(1j * math.pi / 6))]      # order 12
    for max_order in range(1, 14):
        try:
            _reference_closure(gens, max_order)
        except ClosureOverflow:
            with pytest.raises(ClosureOverflow):
                generate_closure(gens, max_order)
            with pytest.raises(ClosureOverflow):
                dimino_closure(gens, max_order)
        else:
            assert generate_closure(gens, max_order).order == 12
            assert dimino_closure(gens, max_order).order == 12


def test_closure_keeps_first_occurrence_within_a_level():
    # g and g_near differ by 1e-9 in angle: the same key, different bytes,
    # so every level holds a duplicate pair and only the first may survive.
    g = row(0.0, cmath.exp(1j * math.pi / 3))
    g_near = row(0.0, cmath.exp(1j * (math.pi / 3 + 1e-9)))
    alone = generate_closure([g], 6).rows
    alone_near = generate_closure([g_near], 6).rows
    assert alone.tobytes() != alone_near.tobytes()
    _assert_same_rows(generate_closure([g, g_near], 6).rows, alone)
    _assert_same_rows(generate_closure([g_near, g], 6).rows, alone_near)
    _assert_same_rows(generate_closure([g, g_near], 6).rows,
                      _reference_closure([g, g_near], 6))


# -- Gamma-prime and the public names -----------------------------------------

GAMMA_PRIME_IS_GAMMA = (
    [GroupSpec.index2(m, n) for m in (2, 4, 8) for n in range(1, 6)
     if math.gcd(m, n) == 1]
    + [GroupSpec.index3(m) for m in (3, 9, 15)])


@pytest.mark.parametrize("spec", GAMMA_PRIME_IS_GAMMA, ids=lambda s: s.key())
def test_gamma_prime_is_gamma_for_the_diagonal_families(spec):
    # the diagonal generator already contains the Hopf-fiber rotation, so
    # dropping it leaves the same set of elements, not just the same order
    gamma, gamma_prime = enumerate_group(spec), enumerate_gamma_prime(spec)
    assert gamma_prime.order == gamma.order == spec.expected_order()
    assert set(_row_keys(gamma_prime.rows)) == set(_row_keys(rows_of(gamma)))


def test_public_names_resolve():
    # The public API is declared once, each name with its reason, in
    # tests/reach_audit.py: u2sing.__all__ holds exactly those names.
    assert sorted(u2sing.__all__) == sorted(PUBLIC)
    for name in u2sing.__all__:
        assert getattr(u2sing, name) is not None, name
