"""Character sums and closed-form invariants of the model quotients.

The dimension of the space of invariant elements of a representation rho of
a finite group G is (1/|G|) * sum of characters.  Here rho + conj(rho) with
rho = S^{2m-2}(C^2) (x) det, whose character on an element with eigenvalues
(z1, z2) is

    chi(z1, z2) = (z1 z2) * sum_{p=0}^{2m-2} z1^{2m-2-p} z2^p.

Writing the eigenvalues as a*e^{+-i*phi} with a the left circle factor,
chi = a^{2m} * U_{2m-2}(cos phi) with U the Dirichlet kernel
sin((2m-1)phi)/sin(phi), which is how the element-wise sums are evaluated
(stable at phi = 0, pi where the value is 2m-1).

The brute-force dimension runs over the subgroup generated by the table
generators without the Hopf-fiber rotation; for every non-cyclic family with
m > 1 it must equal both the per-family closed form (floor expressions split
by congruence class of m) and 2*b_Gamma - 2.  For m = 1 (the ADE cases) the
deformation space is zero and the closed forms do not apply.

Also here: the sawtooth function and the Eisenstein cotangent identity used
to collapse the character sums, the sheaf-cohomology dimension
sum(e_i - 1), the moduli-dimension count 2(b-1) + k, and the topology
report fields tied to the ALE signature and Gauss-Bonnet identities
(eta invariants are external inputs, never computed).

The identity sum_{j=1}^{n-1} sin(2 pi k j/n) cot(pi j/n) = -2n((k/n)) is
checked for all k at once by one DFT: with c_0 = 0 and c_j = cot(pi j/n),
DFT(c)_k = sum_j c_j e^{-2 pi i k j/n}, so the left side is -Im DFT(c)_k.
Both sides are n-periodic in k, so rows k and k + n agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .catalog import DEFAULT_TOLERANCE, Family, FiniteGroup, GroupSpec
from .errors import InvalidParameters, SnapFailure
from .resolution import PlumbingGraph, ResolutionData


# ---------------------------------------------------------------------------
# Sawtooth and the Eisenstein identity
# ---------------------------------------------------------------------------

def sawtooth(x: Fraction | int) -> Fraction:
    """((x)) = x - floor(x) - 1/2 for non-integers, 0 at integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def eisenstein_residuals(n: int) -> np.ndarray:
    """|LHS - RHS| of sum_{j=1}^{n-1} sin(2 pi k j/n) cot(pi j/n)
    = -2n ((k/n)) for k = 0, ..., 2n, as one array from one DFT.

    With c_0 = 0 and c_j = cot(pi j/n) for 0 < j < n, the DFT
    C_k = sum_j c_j e^{-2 pi i k j/n} has Im C_k = -sum_j sin(2 pi k j/n) c_j,
    so the left side is -Im C_k.  The right side -2n((k/n)) is the integer
    n - 2(k mod n), or 0 where n | k.  Both sides depend on k only through
    k mod n (e^{-2 pi i (k+n) j/n} = e^{-2 pi i k j/n}), so rows
    k = 0, ..., n-1 are evaluated and then repeated: row k + n is row k.
    The sums are rounded differently from the direct sum of each (n, k)
    (the tests' reference, ``tests/eisenstein_direct.py``), and agree with
    it to 2e-13 for n <= 200.
    """
    if n < 2:
        raise InvalidParameters("Eisenstein identity needs n >= 2")
    c = np.zeros(n)
    c[1:] = 1 / np.tan(math.pi * np.arange(1, n) / n)
    lhs = -np.fft.fft(c).imag     # NumPy 2 loads numpy.fft at this first use
    k = np.arange(n)
    rhs = np.where(k == 0, 0, n - 2 * k)
    return np.abs(lhs - rhs)[np.arange(2 * n + 1) % n]


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------

def _chi_real_sum(group: FiniteGroup, m: int) -> float:
    """sum over the group of Re chi at each element's eigenvalue pair."""
    theta, phi = group.eigen_data()
    sin_phi = np.sin(phi)
    order = 2 * m - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.sin(order * phi) / sin_phi
    kernel = np.where(sin_phi > 1e-7, kernel, float(order))
    return float(np.sum(np.cos(2 * m * theta) * kernel))


# ---------------------------------------------------------------------------
# Deformation dimension, three ways
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeformationReport:
    brute_force_dim: int
    closed_form_dim: int | None
    two_b_minus_2: int
    agreement: bool
    residual: float
    closed_forms_applicable: bool
    gamma_prime_order: int


def closed_form_dim(spec: GroupSpec) -> int:
    """The family's case expression in floor functions (m > 1 only)."""
    m, f = spec.m, spec.family
    if m == 1:
        raise InvalidParameters("closed forms apply only for m > 1")
    if f in (Family.DIHEDRAL, Family.INDEX2):
        n = spec.n
        if (m - 1) % n == 0:
            return 2 * (m - 1) // n + 2    # m = 1 mod n: division is exact
        return 2 * ((m - 1) // n) + 2
    if f is Family.TETRAHEDRAL:
        if m % 6 == 5:
            return 4 * ((m - 1) // 3) - m + 3
        return (m - 1) // 3 + 2            # m = 1 mod 6
    if f is Family.OCTAHEDRAL:
        r = m % 12
        if r == 11:
            return 2 * ((m - 1) // 3) + 2 * ((m - 1) // 4) - m + 3
        if r == 7:
            return 2 * ((m - 1) // 4) + (1 - m) // 3 + 2
        if r == 5:
            return 2 * ((m - 1) // 3) + (1 - m) // 2 + 2
        return (m - 1) // 6 + 2            # m = 1 mod 12
    if f is Family.ICOSAHEDRAL:
        r = m % 30
        if r in (17, 23, 29):
            return 2 * ((m - 1) // 3) + 2 * ((m - 1) // 5) - m + 3
        if r in (7, 13, 19):
            return 2 * ((m - 1) // 5) + (1 - m) // 3 + 2
        if r == 11:
            return 2 * ((m - 1) // 3) + 3 * (1 - m) // 5 + 2
        return (m - 1) // 15 + 2           # m = 1 mod 30
    return m // 3 + 1                      # index-3 diagonal


def dim_sfk(spec: GroupSpec, gamma_prime: FiniteGroup,
            b: int) -> DeformationReport:
    """Deformation dimension by brute-force character sum over the
    enumerated ``gamma_prime``, by the family closed form, and as
    2*b_Gamma - 2 from ``b`` = b_Gamma.

    For m = 1 the representation-theoretic identification does not hold and
    the deformation space is zero; the report carries brute_force_dim = 0
    and marks the closed forms inapplicable.
    """
    two_b = 2 * b - 2
    if spec.m == 1:
        return DeformationReport(0, None, two_b, True, 0.0, False,
                                 gamma_prime.order)
    raw = 2.0 * _chi_real_sum(gamma_prime, spec.m) / gamma_prime.order
    snapped = round(raw)
    residual = abs(raw - snapped)
    if residual > DEFAULT_TOLERANCE:
        raise SnapFailure(f"{spec.label()}: character sum {raw} not within "
                          f"{DEFAULT_TOLERANCE} of an integer")
    closed = closed_form_dim(spec)
    agreement = (snapped == closed == two_b)
    return DeformationReport(snapped, closed, two_b, agreement, residual,
                             True, gamma_prime.order)


# ---------------------------------------------------------------------------
# Sheaf cohomology and moduli counts
# ---------------------------------------------------------------------------

def dim_h1_theta(graph: PlumbingGraph) -> int:
    """sum over the exceptional curves of (e_i - 1), e_i = |self-intersection|."""
    return sum(abs(w) - 1 for w in graph.weights())


def moduli_dim(b: int, res: ResolutionData) -> int:
    """Real dimension 2(b_Gamma - 1) + k_Gamma of the known metric family,
    from ``b`` = b_Gamma and the resolution ``res``."""
    return 2 * (b - 1) + res.k_gamma


# ---------------------------------------------------------------------------
# Topological report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopologyReport:
    k_gamma: int
    tau_top: int
    chi_top: int
    chi_orb: Fraction
    b2_minus: int
    implied_eta: Fraction
    eta: Fraction | None = None
    sfasd_bound: Fraction | None = None
    bound_holds: bool | None = None
    bound_is_equality: bool | None = None


def topology_report(spec: GroupSpec, res: ResolutionData,
                    eta: Fraction | None = None) -> TopologyReport:
    """Topological invariants of the minimal resolution ``res`` and the
    scalar-flat-anti-self-dual bound b2^- >= 2 - 2/|Gamma| - 3*eta.

    ``implied_eta`` is the eta value forced by equality in the bound; for
    the m = 1 families (groups inside SU(2)) equality is the true state of
    affairs.  External eta values are inputs, never computed here.
    """
    k = res.k_gamma
    order = spec.expected_order()
    chi_top = 1 + k
    chi_orb = Fraction(chi_top) - Fraction(1, order)
    implied = (Fraction(2) - Fraction(2, order) - k) / 3
    if eta is None:
        return TopologyReport(k, -k, chi_top, chi_orb, k, implied)
    bound = Fraction(2) - Fraction(2, order) - 3 * eta
    return TopologyReport(k, -k, chi_top, chi_orb, k, implied, eta, bound,
                          k >= bound, k == bound)
