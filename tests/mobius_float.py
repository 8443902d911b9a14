"""The float fixed-point route to the singular orbits: the reference for
``resolution.algorithmic_singularities``.

It finds the same three orbifold types by geometry instead of by the
product table: the fixed points of the non-identity Mobius maps on the
Hopf base, merged within POINT_TOL in a unit-sphere embedding, partitioned
into orbits by nearest-point matching, and the tangent/normal rotation
numbers of a stabilizer generator read off the Rayleigh quotient of its
unitary matrix at the matched fixed point.  It shares only the coset
representatives (``_coset_indices``) and the residue snap with the library;
the library reads the types off exact labels, this route off float rows.
"""

import cmath
import math

import numpy as np

from u2sing.catalog import (CyclicType, GroupSpec, Labels, _snap_residue,
                            canonical_cyclic)
from u2sing.errors import OrbitCountMismatch
from u2sing.resolution import _coset_indices

from dimino_float import rows_of

POINT_TOL = 1e-6


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
    close = _chordal(vecs, vecs) < POINT_TOL
    return cand[~np.tril(close, -1).any(axis=1)]


def _chordal(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Chordal distances |x_i - y_j| between unit sphere vectors, shape
    (len(x), len(y)).  The difference keeps matched points at the rounding
    level (about 1e-15), where sqrt(2 - 2 x.y) bottoms out near 2e-8."""
    d = x[:, None, :] - y[None, :, :]
    return np.sqrt(np.einsum("ijx,ijx->ij", d, d))


def _orbit(mats: np.ndarray, point: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the target (a unit sphere vector) nearest to each map's
    image of ``point``; every image must lie within POINT_TOL of it
    (chordal distance)."""
    images = _sphere_vecs(np.einsum("gij,j->gi", mats, point))
    dist = _chordal(images, targets)
    if not (dist.min(axis=1) < POINT_TOL).all():
        raise OrbitCountMismatch("orbit left the fixed-point set")
    return dist.argmin(axis=1)


def _tangent_normal(su2: np.ndarray, phase: complex, point: np.ndarray,
                    p_orb: int, m: int) -> tuple[int, int] | None:
    """Rotation numbers (t, u) of a stabilizer element at a fixed point.

    ``su2`` is the normalized SU(2) part S of the stabilizing coset (its
    Mobius matrix), ``phase`` the unit left entry a/|a| of its row, and
    ``point`` the unit homogeneous fixed point (z1, z2) that ``_orbit``
    matched.  The point is an eigenvector of S, so the Rayleigh quotient
    s = <point, S point> is its eigenvalue and s-bar the other one; the
    row's matrix phase * S has eigenvalue mu2 = phase * s on the point's
    line and mu1 = phase * s-bar on the tangent line.  Then
    mu1/mu2 = e^{2 pi i t/p} is the tangent rotation and
    mu2^{2m} = e^{2 pi i u/p} the rotation of the degree-2m normal fiber.
    Both are the same for every row of the coset.  Returns None for the
    identity coset.
    """
    s = complex(np.vdot(point, su2 @ point))
    if abs(s.imag) < 1e-9:
        return None                      # S = +-1: identity on the base
    mu1, mu2 = phase * s.conjugate(), phase * s
    t = _snap_residue(cmath.phase(mu1 / mu2), p_orb)
    u = _snap_residue(cmath.phase(mu2 ** (2 * m)), p_orb)
    return t, u


def float_singularities(spec: GroupSpec, group: Labels
                              ) -> tuple[CyclicType, CyclicType, CyclicType]:
    """Compute the three orbifold types from the Mobius action of the
    enumerated ``group`` of ``spec``, on the rows built from its labels
    (``dimino_float.rows_of``).

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
    h = spec.pgl_image_order()
    coset_idx = _coset_indices(group)
    if len(coset_idx) != h:
        raise OrbitCountMismatch(
            f"{spec.label()}: Mobius image has {len(coset_idx)} elements, expected {h}")
    rows = rows_of(group, coset_idx)
    phases = rows[:, 0] / np.abs(rows[:, 0])
    su2 = rows[:, 1:3]
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
            tn = _tangent_normal(mats[g], complex(phases[g]), points[r],
                                 p_orb, spec.m)
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
