"""Group enumeration, freeness, eigenvalue statistics and lens labels."""

import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

import u2sing
import u2sing.catalog
from u2sing.catalog import (KEY_SCALE, CyclicType, Family, GroupSpec,
                            _canonical_row, _canonical_rows, _row_key,
                            _row_keys, canonical_cyclic,
                            cyclic_equivalent_type, dimino_closure,
                            eigenvalue_histogram, enumerate_gamma_prime,
                            enumerate_group, generate_closure, generators_of,
                            is_fixed_point_free)
from u2sing.errors import ClosureOverflow, InvalidParameters, NotCoprime
from u2sing.report import describe, report_to_json

from rowalg import (canonical, compose, equivalent, inverse, key, mobius,
                    power, row, scalar)

IDENTITY = row()


# -- parameter validation ---------------------------------------------------

@pytest.mark.parametrize("bad", [
    GroupSpec.dihedral(2, 2),        # gcd(m, 2n) != 1
    GroupSpec.dihedral(3, 3),
    GroupSpec.tetrahedral(2),
    GroupSpec.tetrahedral(9),
    GroupSpec.octahedral(3),
    GroupSpec.icosahedral(5),
    GroupSpec.index2(3, 2),          # m odd
    GroupSpec.index2(4, 6),          # gcd(m, n) != 1
    GroupSpec.index3(5),             # gcd(m, 6) != 3
    GroupSpec(Family.CYCLIC, q=2, p=4),
])
def test_invalid_parameters(bad):
    with pytest.raises(InvalidParameters):
        bad.validate()


def test_cyclic_factory_normalizes():
    assert GroupSpec.cyclic(-3, 5).q == 2
    assert GroupSpec.cyclic(7, 5).q == 2


@pytest.mark.parametrize("p", [0, -3])
def test_cyclic_p_below_one_is_refused_with_one_text(p):
    with pytest.raises(InvalidParameters) as direct:
        GroupSpec(Family.CYCLIC, q=1, p=p).validate()
    with pytest.raises(InvalidParameters) as factory:
        GroupSpec.cyclic(1, p).validate()
    assert str(factory.value) == str(direct.value)


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
    elements = scalar(group.rows)
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
    # group generated by diag(1, zeta_3): eigenvalue 1 is structural
    g = row(math.pi / 3, cmath.exp(-1j * math.pi / 3))
    group = generate_closure([g], 10)
    assert group.order == 3
    assert not is_fixed_point_free(group)


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
        for g in scalar(group.rows))


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
    assert t.conjugate() == CyclicType(5, 3)      # 2 * 3 = 6 = 1 (mod 5)
    assert t.conj_key() == (5, 2) == t.conjugate().conj_key()


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
        rows = enumerate_group(spec).rows
        assert len(rows) == len(ref)
        assert (_row_keys(rows[:1]) == _row_keys(ref[:1])
                == _row_keys(np.array([IDENTITY])))
        assert set(_row_keys(rows)) == set(_row_keys(ref))


@pytest.mark.parametrize("spec", CLOSURE_CASES, ids=lambda s: s.key())
def test_reports_do_not_depend_on_the_enumeration_order(spec):
    # the report reads only exact, snapped results of Gamma, so the BFS
    # order and the Dimino order give the same bytes
    bfs = generate_closure(generators_of(spec), spec.expected_order())
    assert (report_to_json(describe(spec, group=bfs))
            == report_to_json(describe(spec)))


@pytest.mark.parametrize("spec", [GroupSpec.dihedral(5, 3), GroupSpec.index2(8, 3),
                                  GroupSpec.icosahedral(7), GroupSpec.index3(9)],
                         ids=lambda s: s.key())
def test_scalar_keys_are_the_array_keys(spec):
    rows = enumerate_group(spec).rows
    signs = np.where(np.arange(len(rows)) % 3 == 0, -1.0, 1.0)
    raw = rows * signs[:, None]             # every third row's other sign
    assert ([_row_key(_canonical_row(g)) for g in raw.tolist()]
            == _row_keys(_canonical_rows(raw)) == _row_keys(rows))


def test_scalar_keys_round_half_to_even_like_the_array_keys():
    halves = [x for x in (k / KEY_SCALE for k in np.arange(0.5, 40.5))
              if (x * KEY_SCALE) % 1 == 0.5]
    assert len(halves) > 10
    for x in halves:
        g = (1.0 + x * 1j, complex(x, -x), complex(-x, x))
        assert _row_key(g) == _row_keys(np.array([g]))[0]


@pytest.mark.parametrize("drift", ["fiber", "later"])
def test_a_drifting_generator_overflows_the_dimino_closure(drift, monkeypatch):
    spec = GroupSpec.dihedral(5, 3)
    gens = generators_of(spec).copy()
    if drift == "fiber":    # its powers never return to the identity
        gens[0, 0] = cmath.exp(1j * math.pi / 5 * (1 + 1e-3))
    else:                   # |beta| > 1: its cosets never close up
        gens[1, 1:] *= 1.001
    monkeypatch.setattr(u2sing.catalog, "generators_of", lambda s: gens)
    with pytest.raises(ClosureOverflow):
        enumerate_group(spec)


@pytest.mark.parametrize("spec", [GroupSpec.index2(8, 3), GroupSpec.index3(9),
                                  GroupSpec.tetrahedral(5)],
                         ids=lambda s: s.key())
def test_gamma_prime_matches_reference(spec):
    gens, order = generators_of(spec)[1:], spec.expected_order()
    rows = enumerate_gamma_prime(spec).rows
    _assert_same_rows(rows, _reference_closure(gens, order))
    _assert_same_keys(rows, _scalar_closure(gens, order))


def test_lens_closures_match_reference():
    for p in range(2, 61):
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            spec = GroupSpec.cyclic(q, p)
            gens = generators_of(spec)
            _assert_same_rows(generate_closure(gens, p).rows,
                              _reference_closure(gens, p))
            _assert_same_rows(enumerate_group(spec).rows,
                              _reference_cyclic_rows(spec))


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
    assert set(_row_keys(gamma_prime.rows)) == set(_row_keys(gamma.rows))


def test_public_names_resolve():
    for name in u2sing.__all__:
        assert getattr(u2sing, name) is not None, name
