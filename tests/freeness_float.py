"""The routes that the freeness counts replaced, kept as their references.

``RowGroup`` is a group held as float rows with the two readers that rows
had before a cyclic group became its exact turns (``catalog.Turns``):
``eigenvalue_one_count`` reads each row's eigenvalues a e^{+-i phi} off a
and cos phi = Re b1, with no angle, and ``eigen_residues`` snaps the
angles theta +- phi of ``eigen_data`` to a grid (``catalog._snap_residue``).
The angle route that the row count replaced takes the angles theta + phi
and theta - phi, each back to the circle, and compares them with 1 at the
same threshold.

``catalog.Labels.eigenvalue_one_count`` reads two witness tables, one
entry per element of G*, at each element's label.  The modulo route it
replaced tests k o +- 2N r = 0 mod 2N o on every element of the group, in
exact integers like the witness count.
"""

import numpy as np

import u2sing.catalog as catalog


class RowGroup(catalog.FiniteGroup):
    """A group as canonical (a, b1, b2) rows, with the float readers."""

    def eigen_residues(self, modulus: int) -> tuple[np.ndarray, np.ndarray]:
        """The angles theta + phi and theta - phi of each element, each
        snapped to a multiple k of 2 pi / modulus (``_snap_residue``), as
        two integer arrays of k mod modulus."""
        theta, phi = self.eigen_data()
        return tuple(np.array([catalog._snap_residue(a, modulus)
                               for a in x.tolist()], dtype=int)
                     for x in (theta + phi, theta - phi))

    def eigenvalue_one_count(self) -> int:
        """The elements with an eigenvalue within DEFAULT_TOLERANCE of 1.
        Row (a, b1, b2) has eigenvalues a e^{+-i phi}, cos phi = Re b1 (the
        trace of its SU(2) part is 2 Re b1), and e^{i phi} is
        c + i sqrt(1 - c^2) for c = Re b1 clipped to [-1, 1]."""
        a = self.rows[:, 0]
        c = np.clip(self.rows[:, 1].real, -1.0, 1.0)
        e = c + 1j * np.sqrt(1.0 - c * c)
        d = np.minimum(np.abs(a * e - 1.0), np.abs(a * e.conj() - 1.0))
        return int(np.count_nonzero(d < catalog.DEFAULT_TOLERANCE))


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
