"""The freeness count by eigen-angles: the reference for the row count.

``catalog.FiniteGroup.eigenvalue_one_count`` reads each row's eigenvalues
a e^{+-i phi} off a and cos phi = Re b1, with no angle.  This is the route
it replaced, kept so that the tests can check that both routes count the
same elements: the angles theta + phi and theta - phi of ``eigen_data``,
each taken back to the circle and compared with 1 at the same threshold.
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
