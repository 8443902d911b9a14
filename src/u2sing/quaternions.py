"""Quaternion pairs, 2x2 unitaries and Mobius maps of the Hopf base.

A point of C^2 is identified with the quaternion z1 + z2*jhat.  Unit
quaternion pairs [alpha, beta] act on S^3, composing by

    [a2, b2] o [a1, b1] = [a2*a1, b1*b2],

and the pair and its simultaneous negation [-alpha, -beta] give the same
transformation (the kernel of the double cover).  When the left member is a
complex phase e^{i*theta} (true for every element of the groups in the
catalog), the pair acts on column vectors (z1, z2) as the unitary matrix

    e^{i*theta} * [[b1, -conj(b2)], [b2, conj(b1)]],     beta = b1 + b2*jhat,

and through the Hopf map H(z1, z2) = z1/z2 it descends to the Mobius
transformation w -> (b1*w - conj(b2)) / (b2*w + conj(b1)) of S^2 = C u {oo};
the left phase cancels.

Everything here is double precision: equality of group elements is tested to
1e-9 and hashing rounds coordinates to a 1e-6 grid, which is safe because
catalog group orders are bounded and products of table generators stay many
orders of magnitude away from grid midpoints.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BothZero, NonCircleLeftFactor

EQ_TOL = 1e-9
KEY_GRID = 1e-6
# 1 / KEY_GRID, for the array keys: multiply by it, since x / 1e-6 and
# x * 1e6 differ in the last bit for many x and a key can sit on a midpoint.
KEY_SCALE = 1e6


# ---------------------------------------------------------------------------
# Quaternions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quaternion:
    """x0 + x1*ihat + x2*jhat + x3*khat with double-precision coefficients."""

    x0: float
    x1: float
    x2: float
    x3: float

    @classmethod
    def from_complex_pair(cls, z1: complex, z2: complex) -> "Quaternion":
        """Quaternion z1 + z2*jhat."""
        return cls(z1.real, z1.imag, z2.real, z2.imag)

    @property
    def z1(self) -> complex:
        return complex(self.x0, self.x1)

    @property
    def z2(self) -> complex:
        return complex(self.x2, self.x3)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        # In complex-pair form: (x1, x2)(y1, y2) = (x1 y1 - x2 conj(y2),
        #                                           x1 y2 + x2 conj(y1)).
        a, b = self.z1, self.z2
        c, d = other.z1, other.z2
        return Quaternion.from_complex_pair(a * c - b * d.conjugate(),
                                            a * d + b * c.conjugate())

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def norm(self) -> float:
        return math.sqrt(self.x0 ** 2 + self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2)

    def is_unit(self, tol: float = EQ_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def close_to(self, other: "Quaternion", tol: float = EQ_TOL) -> bool:
        return (abs(self.x0 - other.x0) <= tol and abs(self.x1 - other.x1) <= tol
                and abs(self.x2 - other.x2) <= tol and abs(self.x3 - other.x3) <= tol)

    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.x2, self.x3)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
IHAT = Quaternion(0.0, 1.0, 0.0, 0.0)
JHAT = Quaternion(0.0, 0.0, 1.0, 0.0)
KHAT = Quaternion(0.0, 0.0, 0.0, 1.0)


def circle(theta: float) -> Quaternion:
    """The unit quaternion exp(i*theta) on the distinguished circle."""
    return Quaternion(math.cos(theta), math.sin(theta), 0.0, 0.0)


# ---------------------------------------------------------------------------
# Group elements [alpha, beta]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """Unit quaternion pair [alpha, beta], defined up to joint negation."""

    left: Quaternion
    right: Quaternion

    def canonical(self) -> "GroupElement":
        """Representative with the first nonzero coefficient of alpha
        (in x0, x1, x2, x3 order) positive."""
        for c in self.left.coefficients():
            if abs(c) > EQ_TOL:
                if c < 0:
                    return GroupElement(-self.left, -self.right)
                return self
        raise ValueError("left quaternion is numerically zero")

    def key(self, grid: float = KEY_GRID) -> tuple[int, ...]:
        """Dedup key: canonical coefficients rounded to the given grid."""
        g = self.canonical()
        coeffs = g.left.coefficients() + g.right.coefficients()
        return tuple(int(round(c / grid)) for c in coeffs)

    def equivalent(self, other: "GroupElement", tol: float = EQ_TOL) -> bool:
        """Equality up to the kernel {(1,1), (-1,-1)}."""
        return (self.left.close_to(other.left, tol) and self.right.close_to(other.right, tol)) or \
               (self.left.close_to(-other.left, tol) and self.right.close_to(-other.right, tol))

    def left_phase(self) -> complex:
        """The left member as a point of the unit circle, or raise."""
        q = self.left
        if abs(q.x2) > EQ_TOL or abs(q.x3) > EQ_TOL or abs(q.norm() - 1.0) > 1e-7:
            raise NonCircleLeftFactor(f"left quaternion {q} is not exp(i*theta)")
        z = q.z1
        return z / abs(z)

    def is_identity(self, tol: float = 1e-7) -> bool:
        g = self.canonical()
        return g.left.close_to(ONE, tol) and g.right.close_to(ONE, tol)


IDENTITY = GroupElement(ONE, ONE)


def element(alpha: Quaternion, beta: Quaternion) -> GroupElement:
    return GroupElement(alpha, beta)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """g1 o g2 (apply g2 first): [a1, b1] o [a2, b2] = [a1*a2, b2*b1]."""
    return GroupElement(g1.left * g2.left, g2.right * g1.right)


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(g.left.conjugate(), g.right.conjugate())


def power(g: GroupElement, k: int) -> GroupElement:
    if k < 0:
        return power(inverse(g), -k)
    out = IDENTITY
    for _ in range(k):
        out = compose(out, g)
    return out


# ---------------------------------------------------------------------------
# 2x2 unitary matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class U2Matrix:
    """Row-major 2x2 complex matrix ((a, b), (c, d))."""

    a: complex
    b: complex
    c: complex
    d: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def trace(self) -> complex:
        return self.a + self.d

    def is_unitary(self, tol: float = EQ_TOL) -> bool:
        m = self.as_array()
        return bool(np.allclose(m @ m.conj().T, np.eye(2), atol=tol))

    def __matmul__(self, other: "U2Matrix") -> "U2Matrix":
        return U2Matrix(self.a * other.a + self.b * other.c,
                        self.a * other.b + self.b * other.d,
                        self.c * other.a + self.d * other.c,
                        self.c * other.b + self.d * other.d)

    def apply(self, z1: complex, z2: complex) -> tuple[complex, complex]:
        return (self.a * z1 + self.b * z2, self.c * z1 + self.d * z2)

    def close_to(self, other: "U2Matrix", tol: float = EQ_TOL) -> bool:
        return bool(np.allclose(self.as_array(), other.as_array(), atol=tol))


def to_matrix(g: GroupElement) -> U2Matrix:
    """Unitary matrix of a pair whose left member is a circle quaternion.

    [e^{i*theta}, b1 + b2*jhat] acts on column vectors (z1, z2) as
    e^{i*theta} [[b1, -conj(b2)], [b2, conj(b1)]]; the map is constant on
    kernel classes and sends composition to matrix product.
    """
    phase = g.left_phase()
    b1, b2 = g.right.z1, g.right.z2
    n = g.right.norm()
    b1, b2 = b1 / n, b2 / n
    return U2Matrix(phase * b1, -phase * b2.conjugate(),
                    phase * b2, phase * b1.conjugate())


def eigen_angles(g: GroupElement) -> tuple[float, float]:
    """Angles of the two unit eigenvalues of to_matrix(g), sorted.

    The SU(2) part has eigenvalues e^{+-i*phi} with cos(phi) = Re(b1), so no
    numerical eigensolver is ever needed.
    """
    phase = g.left_phase()
    theta = cmath.phase(phase)
    phi = math.acos(max(-1.0, min(1.0, g.right.z1.real / g.right.norm())))
    a1 = (theta + phi) % (2 * math.pi)
    a2 = (theta - phi) % (2 * math.pi)
    return (a1, a2) if a1 <= a2 else (a2, a1)


# ---------------------------------------------------------------------------
# The Hopf base S^2 = C u {oo}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiemannPoint:
    """A point of the Hopf base: a complex number, or the symbolic oo."""

    value: complex | None   # None encodes the point at infinity

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def chordal(self, other: "RiemannPoint") -> float:
        """Chordal distance on S^2 (diameter-2 normalization); treats oo
        exactly, never as an overflow sentinel."""
        if self.is_infinity and other.is_infinity:
            return 0.0
        if self.is_infinity:
            return 2.0 / math.sqrt(1.0 + abs(other.value) ** 2)
        if other.is_infinity:
            return 2.0 / math.sqrt(1.0 + abs(self.value) ** 2)
        num = 2.0 * abs(self.value - other.value)
        den = math.sqrt((1.0 + abs(self.value) ** 2) * (1.0 + abs(other.value) ** 2))
        return num / den

    def close_to(self, other: "RiemannPoint", tol: float = 1e-6) -> bool:
        return self.chordal(other) <= tol


INFINITY = RiemannPoint(None)


def riemann(w: complex) -> RiemannPoint:
    return RiemannPoint(complex(w))


def hopf_project(z1: complex, z2: complex) -> RiemannPoint:
    """Hopf map H(z1, z2) = z1/z2, with z2 = 0 mapping to oo."""
    if abs(z1) <= EQ_TOL and abs(z2) <= EQ_TOL:
        raise BothZero("Hopf map undefined at (0, 0)")
    if abs(z2) <= EQ_TOL * max(1.0, abs(z1)):
        return INFINITY
    return RiemannPoint(z1 / z2)


@dataclass(frozen=True)
class MobiusMap:
    """w -> (a*w + b) / (c*w + d) on C u {oo}, with ad - bc != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __call__(self, w: RiemannPoint) -> RiemannPoint:
        if w.is_infinity:
            if abs(self.c) <= EQ_TOL:
                return INFINITY
            return RiemannPoint(self.a / self.c)
        num = self.a * w.value + self.b
        den = self.c * w.value + self.d
        if abs(den) <= EQ_TOL * max(1.0, abs(num)):
            return INFINITY
        return RiemannPoint(num / den)

    def is_identity(self, tol: float = 1e-7) -> bool:
        return (abs(self.b) <= tol and abs(self.c) <= tol
                and abs(self.a - self.d) <= tol)

    def fixed_points(self) -> list[RiemannPoint]:
        """Solutions of c*w^2 + (d - a)*w - b = 0, including oo when c = 0."""
        if self.is_identity():
            raise ValueError("identity map fixes every point")
        if abs(self.c) <= EQ_TOL:
            pts = [INFINITY]
            if abs(self.a - self.d) > EQ_TOL:
                pts.append(RiemannPoint(self.b / (self.d - self.a)))
            return pts
        disc = cmath.sqrt((self.d - self.a) ** 2 + 4 * self.c * self.b)
        w1 = ((self.a - self.d) + disc) / (2 * self.c)
        w2 = ((self.a - self.d) - disc) / (2 * self.c)
        out = [RiemannPoint(w1)]
        if abs(w1 - w2) > EQ_TOL:
            out.append(RiemannPoint(w2))
        return out


def mobius_of(g: GroupElement) -> MobiusMap:
    """Mobius transformation induced on the Hopf base.

    Only the right quaternion matters: left circle factors rotate Hopf
    fibers and cancel under projection.
    """
    b1, b2 = g.right.z1, g.right.z2
    n = g.right.norm()
    b1, b2 = b1 / n, b2 / n
    return MobiusMap(b1, -b2.conjugate(), b2, b1.conjugate())


def project_su2(g: GroupElement) -> GroupElement:
    """Strip the circle left factor: [e^{i*theta}, beta] -> [1, beta]."""
    g.left_phase()   # validates the circle form
    return GroupElement(ONE, g.right)
