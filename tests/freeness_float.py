"""The routes that the freeness counts replaced, kept as their references.

``catalog.FiniteGroup.eigenvalue_one_count`` reads each row's eigenvalues
a e^{+-i phi} off a and cos phi = Re b1, with no angle.  The angle route it
replaced takes the angles theta + phi and theta - phi of ``eigen_data``,
each back to the circle, and compares them with 1 at the same threshold.

``catalog.Labels.eigenvalue_one_count`` reads two witness tables, one
entry per element of G*, at each element's label.  The modulo route it
replaced tests k o +- 2N r = 0 mod 2N o on every element of the group, in
exact integers like the witness count.
"""

import numpy as np

import u2sing.catalog as catalog


def angle_distances(group: catalog.FiniteGroup) -> np.ndarray:
    """Each element's least distance |e^{i(theta +- phi)} - 1| from an
    eigenvalue to 1."""
    theta, phi = group.eigen_data()
    return np.minimum(np.abs(np.exp(1j * (theta + phi)) - 1.0),
                      np.abs(np.exp(1j * (theta - phi)) - 1.0))


def angle_eigenvalue_one_count(group: catalog.FiniteGroup) -> int:
    """The elements of a row group with an eigenvalue e^{i(theta +- phi)}
    within ``catalog.DEFAULT_TOLERANCE`` of 1."""
    return int(np.count_nonzero(angle_distances(group)
                                < catalog.DEFAULT_TOLERANCE))


def modulo_eigenvalue_one_count(lab: catalog.Labels) -> int:
    """The elements (k, j) of a label group with k o +- 2N r = 0 mod 2N o,
    o and r the order and residue of g_j: those with eigenvalue 1."""
    o, r = lab.gstar.order[lab.j], lab.gstar.residue[lab.j]
    a, b, mod = lab.k * o, 2 * lab.n * r, 2 * lab.n * o
    return int(np.count_nonzero(((a + b) % mod == 0) | ((a - b) % mod == 0)))
