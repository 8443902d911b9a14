"""Sawtooth/Eisenstein identities, characters, and the dimension formulas."""

import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import u2sing.invariants as invariants
import u2sing.sweep as sweep
from u2sing.catalog import GroupSpec, enumerate_gamma_prime, generators_of
from u2sing.errors import SnapFailure
from u2sing.invariants import (closed_form_dim, dim_h1_theta,
                               eisenstein_check, eisenstein_residuals,
                               moduli_dim, sawtooth)
from u2sing.resolution import PlumbingGraph
from u2sing.sweep import VerifySummary, check_eisenstein

from rowalg import compose, matrix, power, scalar
from stages import table_b, table_dim_sfk, table_resolution, table_topology


# -- sawtooth ---------------------------------------------------------------

def test_sawtooth_values():
    for k in (-3, 0, 5):
        assert sawtooth(k) == 0
    assert sawtooth(F(1, 2)) == 0
    assert sawtooth(F(1, 3)) == F(-1, 6)
    assert sawtooth(F(-1, 3)) == F(1, 6)
    assert sawtooth(F(7, 3)) == F(-1, 6)


# -- Eisenstein identity ----------------------------------------------------

def test_eisenstein_spot_values():
    assert eisenstein_check(2, 1) < 1e-9           # both sides vanish
    assert eisenstein_check(5, 5) < 1e-9           # k/n integral
    # n=3, k=1: RHS = -6 * ((1/3)) = 1; check the LHS numerically agrees
    j = np.arange(1, 3)
    lhs = np.sum(np.sin(2 * math.pi * j / 3) / np.tan(math.pi * j / 3))
    assert lhs == pytest.approx(1.0, abs=1e-9)
    assert eisenstein_check(3, 1) < 1e-9


def test_eisenstein_subrange():
    assert max(eisenstein_check(n, k)
               for n in range(2, 80) for k in range(0, 2 * n + 1)) < 1e-6


def test_eisenstein_residuals_equal_scalar_loop(monkeypatch):
    # The sweep's array form must report exactly what the scalar loop finds:
    # every residual, the worst one and the (n, k) where it first occurs.
    worst, at = 0.0, (0, 0)
    for n in range(2, 201):
        scalar = [eisenstein_check(n, k) for k in range(0, 2 * n + 1)]
        assert eisenstein_residuals(n).tolist() == scalar
        for k, r in enumerate(scalar):
            if r > worst:
                worst, at = r, (n, k)
    summary = VerifySummary()
    check_eisenstein(summary, 200)
    assert summary.passed_failed("eisenstein_identity") == (1, 0)
    # patched where check_eisenstein reads it, worst < worst fails
    monkeypatch.setattr(sweep, "DEFAULT_TOLERANCE", worst)
    summary = VerifySummary()
    check_eisenstein(summary, 200)
    assert summary.failures == [("global", "eisenstein_identity",
                                 f"worst residual {worst:.3e} at (n,k)={at}")]


# -- characters -------------------------------------------------------------

def char_rho(z1, z2, m):
    """chi(z1, z2) = (z1 z2) sum_{p=0}^{2m-2} z1^{2m-2-p} z2^p for unit z1, z2:
    the scalar reference for the Dirichlet-kernel sums of the library."""
    if abs(z1 - z2) > 1e-8:
        series = (z1 ** (2 * m - 1) - z2 ** (2 * m - 1)) / (z1 - z2)
    else:
        series = (2 * m - 1) * z1 ** (m - 1) * z2 ** (m - 1)
    return z1 * z2 * series


@pytest.mark.parametrize("m", [1, 2, 3, 7, 20])
def test_char_rho_at_center(m):
    assert char_rho(1, 1, m) == pytest.approx(2 * m - 1)
    assert char_rho(-1, -1, m) == pytest.approx(2 * m - 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8])
def test_char_rho_at_i_minus_i(m):
    # direct evaluation: (i)(-i) sum_p i^{2m-2-p}(-i)^p = (-1)^(m-1)
    assert char_rho(1j, -1j, m) == pytest.approx((-1) ** (m - 1))


@pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (6, 5)])
def test_char_rho_on_index2_odd_part(m, n):
    # the elements gamma_2 = [e^{i pi/(2m)}, j]^{2l+1} [1, e^{i pi k/n}] of
    # the index-2 diagonal group have character 1 when m is even
    gens = generators_of(GroupSpec.index2(m, n))
    rot, jgen = scalar(gens[1:])
    for ell in (0, 1, m - 1):
        for k in (0, 1, n - 1):
            gamma2 = compose(power(jgen, 2 * ell + 1), power(rot, k))
            mu1, mu2 = np.linalg.eigvals(np.array(matrix(gamma2)))
            chi = char_rho(complex(mu1), complex(mu2), m)
            assert chi == pytest.approx(1.0, abs=1e-8)


def test_character_identity_random():
    # sum_{p=0}^{2k} e^{i theta (2k-2p)} = sin((2k+1) theta)/sin(theta)
    rng = np.random.default_rng(7)
    for _ in range(500):
        k = int(rng.integers(1, 40))
        theta = float(rng.uniform(1e-3, math.pi - 1e-3))
        lhs = sum(cmath.exp(1j * theta * (2 * k - 2 * p)) for p in range(2 * k + 1))
        rhs = math.sin((2 * k + 1) * theta) / math.sin(theta)
        assert abs(lhs - rhs) < 1e-8


def test_index_identity_random():
    # chi(e^{i(t1+t2)}, e^{i(t1-t2)})
    #   = e^{2 i m t1} [sin(2(m-1)t2) cot(t2) + cos(2(m-1)t2)]
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(2, 25))
        t1 = float(rng.uniform(0, 2 * math.pi))
        t2 = float(rng.uniform(1e-3, math.pi - 1e-3))
        lhs = char_rho(cmath.exp(1j * (t1 + t2)), cmath.exp(1j * (t1 - t2)), m)
        bracket = (math.sin(2 * (m - 1) * t2) / math.tan(t2)
                   + math.cos(2 * (m - 1) * t2))
        rhs = cmath.exp(2j * m * t1) * bracket
        assert abs(lhs - rhs) < 1e-8


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**4))
@settings(max_examples=300)
def test_greatest_integer_simplify(x, y, z):
    # floor((x-y)/z) = (x - x mod z)/z whenever y < x mod z
    r = x % z
    if y < r:
        assert (x - y) // z == (x - r) // z == (x - r) / z


# -- deformation dimension --------------------------------------------------

@pytest.mark.parametrize("m", [3, 9, 15, 21])
def test_dim_sfk_index3_law(m):
    rep = table_dim_sfk(GroupSpec.index3(m))
    assert rep.brute_force_dim == rep.closed_form_dim == rep.two_b_minus_2
    assert rep.brute_force_dim == m // 3 + 1


def test_dim_sfk_tetrahedral7():
    rep = table_dim_sfk(GroupSpec.tetrahedral(7))
    assert (rep.brute_force_dim, rep.closed_form_dim, rep.two_b_minus_2) == (4, 4, 4)
    assert rep.residual < 1e-6
    assert rep.gamma_prime_order == 24


def test_dim_sfk_m1_gate():
    rep = table_dim_sfk(GroupSpec.dihedral(1, 2))
    assert rep.brute_force_dim == 0
    assert rep.closed_form_dim is None
    assert not rep.closed_forms_applicable
    assert rep.two_b_minus_2 == 2
    assert rep.agreement


@pytest.mark.parametrize("spec", [
    GroupSpec.dihedral(5, 2), GroupSpec.dihedral(9, 14), GroupSpec.dihedral(25, 4),
    GroupSpec.tetrahedral(5), GroupSpec.tetrahedral(13),
    GroupSpec.octahedral(5), GroupSpec.octahedral(7), GroupSpec.octahedral(11),
    GroupSpec.octahedral(13), GroupSpec.icosahedral(7), GroupSpec.icosahedral(11),
    GroupSpec.icosahedral(17), GroupSpec.icosahedral(31), GroupSpec.icosahedral(37),
    GroupSpec.index2(2, 5), GroupSpec.index2(8, 3), GroupSpec.index2(12, 7),
    GroupSpec.index3(27),
])
def test_dim_sfk_triple_agreement(spec):
    rep = table_dim_sfk(spec)
    assert rep.agreement, rep
    assert rep.residual < 1e-6


def test_dim_sfk_congruence_case_coverage():
    # one spec per congruence branch of each closed form
    cases = {
        GroupSpec.tetrahedral(5): 2, GroupSpec.tetrahedral(7): 4,
        GroupSpec.octahedral(11): 2, GroupSpec.octahedral(7): 2,
        GroupSpec.octahedral(17): 4, GroupSpec.octahedral(13): 4,
        GroupSpec.icosahedral(17): 2, GroupSpec.icosahedral(7): 2,
        GroupSpec.icosahedral(11): 2, GroupSpec.icosahedral(31): 4,
    }
    for spec, expect in cases.items():
        assert closed_form_dim(spec) == expect
        assert table_dim_sfk(spec).brute_force_dim == expect


def test_dim_sfk_snap_failure_on_absurd_tolerance(monkeypatch):
    # the threshold patched where dim_sfk reads it
    monkeypatch.setattr(invariants, "DEFAULT_TOLERANCE", 1e-17)
    with pytest.raises(SnapFailure, match="not within 1e-17 of an integer"):
        table_dim_sfk(GroupSpec.tetrahedral(7))


def test_character_sum_is_real():
    # imaginary parts of the full character sums stay tiny
    for spec in (GroupSpec.index2(4, 3), GroupSpec.index3(9)):
        gp = enumerate_gamma_prime(spec)
        theta, phi = gp.eigen_data()
        m = spec.m
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = np.sin((2 * m - 1) * phi) / np.sin(phi)
        kernel = np.where(np.sin(phi) > 1e-7, kernel, 2 * m - 1)
        total = np.sum(np.exp(2j * m * theta) * kernel)
        assert abs(total.imag) < 1e-6


# -- sheaf cohomology and moduli counts -------------------------------------

def test_dim_h1_theta():
    assert dim_h1_theta(PlumbingGraph(-2, ((-2,), (-2,), (-2,)))) == 4
    assert dim_h1_theta(PlumbingGraph(-3, ())) == 2
    assert dim_h1_theta(PlumbingGraph(-2, ((-2,),))) == 2
    rd = table_resolution(GroupSpec.tetrahedral(7))
    assert dim_h1_theta(rd.graph) == sum(abs(w) - 1 for w in rd.graph.weights())


def test_moduli_dim_examples():
    for spec, dim in ((GroupSpec.dihedral(1, 2), 6),     # 2*1 + 4
                      (GroupSpec.tetrahedral(7), 10),    # 2*2 + 6
                      (GroupSpec.index3(3), 7)):         # 2*1 + 5
        assert moduli_dim(table_b(spec), table_resolution(spec)) == dim


# -- topology ---------------------------------------------------------------

def test_topology_implied_eta():
    t = table_topology(GroupSpec.dihedral(1, 2))
    assert t.implied_eta == F(-3, 4)                      # (2 - 1/4 - 4)/3
    t = table_topology(GroupSpec.tetrahedral(1))
    assert t.implied_eta == (F(2) - F(1, 12) - 6) / 3
    assert t.chi_top == 1 + t.k_gamma
    assert t.chi_orb == t.chi_top - F(1, 24)
    assert t.tau_top == -t.k_gamma == -t.b2_minus


def test_topology_bound_equality_and_strictness():
    spec = GroupSpec.icosahedral(1)
    eq = table_topology(spec).implied_eta
    t = table_topology(spec, eta=eq)
    assert t.bound_holds and t.bound_is_equality
    spec = GroupSpec.icosahedral(7)
    above = table_topology(spec).implied_eta + F(1, 6)
    t = table_topology(spec, eta=above)
    assert t.bound_holds and not t.bound_is_equality
    below = table_topology(spec).implied_eta - F(1, 6)
    t = table_topology(spec, eta=below)
    assert not t.bound_holds
