"""The ``Fraction`` forms of the exact per-spec tests that now run on
integer pairs, kept as their references.

``resolution._pole_type`` reads the eigen-angles theta = k/2N and
phi = r/o as integer pairs, ``resolution._rational_b`` sums b_Gamma's
rational route as one pair, and ``resolution._seifert_solution`` forms
b''s Seifert solution 2m/h - sum q/p as one pair from ``hj.continuant``.
Each function here is the route it replaced, in ``Fraction`` arithmetic.
``check_exact_routes`` runs the pipeline's stages on a list of specs and
compares every integer route with its reference, the witness freeness
count with the modulo count of ``freeness_float``, and each lens group's
exact turns with the float rows of ``lens_float``.
"""

from collections import Counter
from fractions import Fraction

from u2sing import resolution
from u2sing.catalog import canonical_cyclic, enumerate_group
from u2sing.errors import SnapFailure
from u2sing.hj import cf_value

from freeness_float import modulo_eigenvalue_one_count
from lens_float import lens_rows
from stages import dual_strings


def pole_type(theta: Fraction, phi: Fraction, p: int, m: int):
    """The type L(t^-1 u, p) at a pole, t = -2 phi p and
    u = 2m (theta + phi) p; SnapFailure unless both are integers."""
    t, u = -2 * phi * p, 2 * m * (theta + phi) * p
    if t.denominator != 1 or u.denominator != 1:
        raise SnapFailure(f"a rotation at a pole of order {p} is not a "
                          f"multiple of 1/{p} turn")
    return canonical_cyclic(pow(int(t), -1, p) * int(u), p)


def rational_b(spec, triple) -> Fraction:
    """alpha1/beta1 + alpha2/beta2 + alpha3/beta3 + 2m/h."""
    return sum((Fraction(t.alpha, t.beta) for t in triple), Fraction(0)) \
        + Fraction(2 * spec.m, spec.pgl_image_order())


def seifert_solution(spec, duals) -> Fraction:
    """2m/h minus the value q/p of each dual string."""
    return Fraction(2 * spec.m, spec.pgl_image_order()) - sum(
        (cf_value(s) for s in duals), Fraction(0))


def check_lens_route(spec) -> int:
    """The exact turns of a lens spec against its reference rows: the same
    order and eigenvalue-one count, and eigen_residues(p) equal to the
    rows' snapped angles theta +- phi, each pair up to the swap that
    phi = arccos(Re b1) >= 0 and the row sign rule allow.  Returns the
    number of swapped pairs."""
    group, rows = enumerate_group(spec), lens_rows(spec)
    assert group.order == rows.order, spec.label()
    assert group.eigenvalue_one_count() == rows.eigenvalue_one_count(), \
        spec.label()
    pairs = list(zip(zip(*(x.tolist() for x in group.eigen_residues(spec.p))),
                     zip(*(x.tolist() for x in rows.eigen_residues(spec.p)))))
    assert all(e in (f, f[::-1]) for e, f in pairs), spec.label()
    return sum(e != f for e, f in pairs)


def check_exact_routes(specs, monkeypatch) -> Counter:
    """Compare every integer route with its reference on each spec of
    ``specs`` and count the comparisons by name.  A lens group's order,
    eigenvalue-one count and eigen_residues(p) are compared with its
    reference rows', the residues up to the swap of the two angles that
    the rows allow.  Every label group's freeness counts are compared; the
    triple, b_Gamma and Seifert routes run on the specs with n > 1.  Each
    pole type is compared inside the triple, by ``monkeypatch`` wrapping
    ``resolution._pole_type``."""
    real = resolution._pole_type
    counts = Counter()

    def checked(theta, phi, p, m):
        got = real(theta, phi, p, m)
        assert got == pole_type(Fraction(*theta), Fraction(*phi), p, m)
        counts["pole_type"] += 1
        return got

    monkeypatch.setattr(resolution, "_pole_type", checked)
    for spec in specs:
        if spec.is_cyclic:
            check_lens_route(spec)
            counts["lens"] += 1
            continue
        lab = enumerate_group(spec)
        assert lab.eigenvalue_one_count() == modulo_eigenvalue_one_count(
            lab), spec.label()
        counts["freeness"] += 1
        if spec.is_degenerate_cyclic:
            continue
        triple = resolution.singularity_triple(spec, lab)
        b = resolution.b_gamma(spec, triple)
        assert Fraction(*resolution._rational_b(spec, triple)) == \
            rational_b(spec, triple) == b, spec.label()
        counts["rational_b"] += 1
        duals = dual_strings(resolution.resolution_graph(triple, b))
        assert Fraction(*resolution._seifert_solution(spec, duals)) == \
            seifert_solution(spec, duals), spec.label()
        counts["seifert"] += 1
    return counts
