"""Scalar algebra of group-element rows, the reference for the array code.

A row (a, b1, b2) is the quaternion pair [a, b1 + b2*jhat] with a circle left
member; pairs compose by [a1, beta1] o [a2, beta2] = [a1*a2, beta2*beta1]
(apply the right operand first) and are equal up to joint negation.  Every
row function here works on one row of Python complex numbers at a time, so
it shares no code with the (N, 3) array paths of the library; ``sphere``
places points of the Hopf base with the float reference route's embedding.
"""

import cmath
import math

import numpy as np

from mobius_float import _sphere_vecs

KEY_SCALE = 1e6


def scalar(rows):
    """The rows of an (N, 3) array as tuples of Python complex numbers."""
    return [tuple(complex(x) for x in r) for r in rows]


def row(theta=0.0, b1=1.0, b2=0.0):
    """The pair [e^{i*theta}, b1 + b2*jhat] as a row."""
    return (cmath.exp(1j * theta), complex(b1), complex(b2))


def qmul(x, y):
    """Product of the quaternions x1 + x2*jhat and y1 + y2*jhat."""
    return (x[0] * y[0] - x[1] * y[1].conjugate(),
            x[0] * y[1] + x[1] * y[0].conjugate())


def compose(g, f):
    """g o f: apply f first."""
    b1, b2 = qmul(f[1:], g[1:])
    return (g[0] * f[0], b1, b2)


def inverse(g):
    return (g[0].conjugate(), g[1].conjugate(), -g[2])


def power(g, k):
    if k < 0:
        return power(inverse(g), -k)
    out = row()
    for _ in range(k):
        out = compose(out, g)
    return out


def canonical(g):
    """The representative whose first nonzero coefficient of a is positive."""
    c = g[0].real if abs(g[0].real) > 1e-9 else g[0].imag
    return g if c > 0 else tuple(-x for x in g)


def key(g):
    """Canonical coordinates on the KEY_SCALE integer grid."""
    return tuple(round(x * KEY_SCALE) for z in canonical(g)
                 for x in (z.real, z.imag))


def equivalent(g, h, tol=1e-9):
    """Equality up to the kernel {(1, 1), (-1, -1)}."""
    def close(u, v):
        return all(abs(x - y) <= tol for x, y in zip(u, v))
    return close(g, h) or close(g, tuple(-x for x in h))


def matrix(g):
    """a * [[b1, -conj(b2)], [b2, conj(b1)]] with beta normalised, as nested
    lists (rows of the 2x2 unitary acting on column vectors (z1, z2))."""
    a, b1, b2 = g
    n = math.sqrt(abs(b1) ** 2 + abs(b2) ** 2)
    b1, b2 = b1 / n, b2 / n
    return [[a * b1, -a * b2.conjugate()], [a * b2, a * b1.conjugate()]]


def mobius(g):
    """Matrix of the Mobius map w -> (b1*w - conj(b2)) / (b2*w + conj(b1))
    induced on the Hopf base; the left phase cancels."""
    a, b1, b2 = g
    n = math.sqrt(abs(b1) ** 2 + abs(b2) ** 2)
    b1, b2 = b1 / n, b2 / n
    return [[b1, -b2.conjugate()], [b2, b1.conjugate()]]


def sphere(z):
    """Hopf image of homogeneous points (..., 2) on the unit sphere."""
    return _sphere_vecs(np.asarray(z, dtype=complex))
