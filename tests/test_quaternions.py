"""The quaternion-pair algebra of element rows, the matrix dictionary, and
the Hopf/Mobius descent."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2sing.catalog import FiniteGroup, GroupSpec, generators_of

from mobius_float import _singular_points
from rowalg import (compose, equivalent, inverse, key, matrix, mobius, power,
                    qmul, row, scalar, sphere)

RNG = np.random.default_rng(20240809)

ONE, IHAT, JHAT, KHAT = (1, 0), (1j, 0), (0, 1), (0, 1j)
IDENTITY = row()


def neg(x):
    return tuple(-c for c in x)


def close(x, y, tol=1e-9):
    return all(abs(u - v) <= tol for u, v in zip(x, y))


def random_beta():
    v = RNG.normal(size=4)
    v /= np.linalg.norm(v)
    return complex(v[0], v[1]), complex(v[2], v[3])


def random_element():
    return row(RNG.uniform(0, 2 * math.pi), *random_beta())


def eigen_angles(g):
    """Sorted eigen angles of one row, from the library's eigen data."""
    (theta,), (phi,) = FiniteGroup(np.array([g])).eigen_data()
    return tuple(sorted(float(x) % (2 * math.pi)
                        for x in (theta + phi, theta - phi)))


def same_point(z, w, tol):
    return np.linalg.norm(sphere(z) - sphere(w), axis=-1) <= tol


unit_quaternions = st.builds(
    lambda a, b, c, d: (complex(a, b), complex(c, d)),
    *[st.floats(-1, 1, allow_nan=False) for _ in range(4)],
).filter(lambda q: math.hypot(abs(q[0]), abs(q[1])) > 1e-3).map(
    lambda q: tuple(z / math.hypot(abs(q[0]), abs(q[1])) for z in q))


def norm(q):
    return math.hypot(abs(q[0]), abs(q[1]))


# -- basis algebra ----------------------------------------------------------

def test_basis_products():
    # i^2 = j^2 = k^2 = ijk = -1, worked out by hand from the Hamilton rules
    for u in (IHAT, JHAT, KHAT):
        assert close(qmul(u, u), neg(ONE))
    assert close(qmul(qmul(IHAT, JHAT), KHAT), neg(ONE))
    assert close(qmul(IHAT, JHAT), KHAT)
    assert close(qmul(JHAT, KHAT), IHAT)
    assert close(qmul(KHAT, IHAT), JHAT)
    assert close(qmul(JHAT, IHAT), neg(KHAT))


@given(unit_quaternions, unit_quaternions)
@settings(max_examples=150)
def test_norm_multiplicative(q1, q2):
    assert abs(norm(qmul(q1, q2)) - norm(q1) * norm(q2)) < 1e-9


@given(unit_quaternions, unit_quaternions, unit_quaternions)
@settings(max_examples=100)
def test_associativity(a, b, c):
    assert close(qmul(qmul(a, b), c), qmul(a, qmul(b, c)), 1e-9)
    ga, gb, gc = row(0.3, *a), row(1.1, *b), row(2.0, *c)
    assert close(compose(compose(ga, gb), gc), compose(ga, compose(gb, gc)))


# -- group elements and composition ----------------------------------------

def test_compose_identity():
    g = random_element()
    assert equivalent(compose(IDENTITY, g), g)
    assert equivalent(compose(g, IDENTITY), g)


def test_compose_j_squared():
    g = row(0.0, *JHAT)
    assert equivalent(compose(g, g), row(0.0, -1.0))


def test_compose_left_circle_powers():
    m = 7
    g = row(math.pi / m)
    assert equivalent(compose(g, g), row(2 * math.pi / m))
    assert equivalent(power(g, 2 * m), IDENTITY)


def test_kernel_equivalence():
    g = random_element()
    half = (-g[0], g[1], g[2])
    assert equivalent(g, neg(g))
    assert not equivalent(g, half)
    assert key(g) == key(neg(g))


def test_inverse():
    g = random_element()
    assert equivalent(compose(g, inverse(g)), IDENTITY)


def test_matrix_homomorphism():
    for _ in range(300):
        g1, g2 = random_element(), random_element()
        lhs = np.array(matrix(compose(g1, g2)))
        rhs = np.array(matrix(g1)) @ np.array(matrix(g2))
        assert np.allclose(lhs, rhs, atol=1e-9)


# -- the matrix of a row ----------------------------------------------------

def test_to_matrix_j():
    assert np.allclose(matrix(row(0.0, *JHAT)), [[0, -1], [1, 0]], atol=1e-12)


def test_to_matrix_identity():
    assert np.allclose(matrix(IDENTITY), np.eye(2), atol=1e-12)


@pytest.mark.parametrize("q,p", [(1, 2), (3, 5), (3, 8), (7, 12), (199, 200)])
def test_to_matrix_cyclic_generator(q, p):
    # the table generator [e^{2 pi i k/p}, e^{2 pi i (1-k)/p}] with
    # 2k = q+1 (mod p) must be diag(zeta_p, zeta_p^q)
    gen, = scalar(generators_of(GroupSpec.cyclic(q, p)))
    expect = np.diag([cmath.exp(2j * math.pi / p), cmath.exp(2j * math.pi * q / p)])
    assert np.allclose(matrix(gen), expect, atol=1e-9)


def test_su2_determinant():
    for _ in range(100):
        mat = np.array(matrix(row(0.0, *random_beta())))
        assert abs(np.linalg.det(mat) - 1) < 1e-9
        assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-9)


# -- eigen angles -----------------------------------------------------------

def test_eigen_angles_diagonal():
    n = 5
    a = eigen_angles(row(0.0, cmath.exp(1j * math.pi / n)))
    assert a == pytest.approx((math.pi / n, 2 * math.pi - math.pi / n))


def test_eigen_angles_j():
    assert eigen_angles(row(0.0, *JHAT)) == \
        pytest.approx((math.pi / 2, 3 * math.pi / 2))


def test_eigen_angles_identity():
    assert eigen_angles(IDENTITY) == pytest.approx((0.0, 0.0))


def test_eigen_angles_match_numpy():
    for _ in range(50):
        g = random_element()
        ours = sorted(eigen_angles(g))
        lam = np.linalg.eigvals(np.array(matrix(g)))
        theirs = sorted(a % (2 * math.pi) for a in np.angle(lam))
        assert ours == pytest.approx(theirs, abs=1e-8)


# -- Hopf map ---------------------------------------------------------------

def test_hopf_basics():
    # H(0, 1) = 0 is the south pole, H(1, 0) = oo the north pole
    assert np.allclose(sphere([0, 1]), [0, 0, -1])
    assert np.allclose(sphere([1, 0]), [0, 0, 1])


def test_hopf_fiber():
    # the circle e^{i theta}(w, 1)/sqrt(|w|^2+1) lies over w
    for _ in range(30):
        w = complex(*RNG.normal(size=2))
        theta = RNG.uniform(0, 2 * math.pi)
        s = cmath.exp(1j * theta) / math.sqrt(abs(w) ** 2 + 1)
        assert same_point([s * w, s], [w, 1], 1e-9)


# -- Mobius maps ------------------------------------------------------------

def is_mobius_identity(g, tol=1e-7):
    (a, b), (c, d) = mobius(g)
    return abs(b) <= tol and abs(c) <= tol and abs(a - d) <= tol


def test_mobius_left_factor_trivial():
    assert is_mobius_identity(row(1.234))


def test_mobius_diagonal_rotation():
    p = 7
    mob = np.array(mobius(row(0.0, cmath.exp(1j * math.pi / p))))
    w = 0.3 + 0.4j
    expect = cmath.exp(2j * math.pi / p) * w
    assert same_point(mob @ [w, 1], [expect, 1], 1e-9)
    assert same_point(mob @ [0, 1], [0, 1], 1e-6)
    assert same_point(mob @ [1, 0], [1, 0], 1e-6)


def test_mobius_j_inversion():
    mob = np.array(mobius(row(0.0, *JHAT)))
    for w in (1 + 2j, -0.5j, 3.0 + 0j):
        assert same_point(mob @ [w, 1], [-1 / w, 1], 1e-9)
    assert same_point(mob @ [0, 1], [1, 0], 1e-6)
    assert same_point(mob @ [1, 0], [0, 1], 1e-6)


def test_hopf_equivariance():
    # H(g.(z1,z2)) = mobius(g)(H(z1,z2)), 1000 samples per element
    for _ in range(5):
        g = random_element()
        mat, mob = np.array(matrix(g)), np.array(mobius(g))
        v = RNG.normal(size=(1000, 4))
        z = v[:, 0::2] + 1j * v[:, 1::2]
        z = z[np.abs(z).sum(axis=1) >= 1e-2]
        assert same_point(z @ mat.T, z @ mob.T, 1e-6).all()


def test_mobius_fixed_point_equation():
    # fixed points satisfy b2 w^2 + (conj(b1) - b1) w + conj(b2) = 0, here
    # homogeneously in w = z1/z2; the library finds them in closed form
    for _ in range(40):
        g = row(0.0, *random_beta())
        if is_mobius_identity(g):
            continue
        mob = np.array(mobius(g))
        b1, b2 = mob[0, 0], mob[1, 0]
        for z1, z2 in _singular_points(mob[None]):
            assert same_point(mob @ [z1, z2], [z1, z2], 1e-7)
            res = (b2 * z1 * z1 + (b1.conjugate() - b1) * z1 * z2
                   + b2.conjugate() * z2 * z2)
            assert abs(res) < 1e-7
