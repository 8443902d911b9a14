"""Invariant reports: one structure per group with every cross-check verdict.

``describe`` runs the whole pipeline for one spec -- enumeration, freeness,
singularity types by both routes, the two derivations of the central weight,
resolution and compactification graphs, the deformation dimensions, and the
topology fields -- and records a pass/fail verdict for each identity.  A
failed cross-check never disappears: it becomes a failing entry in
``report.checks`` (and downstream sections that depend on it are omitted).

``describe`` is three steps in a row, and the CLI calls the first two alone:
``resolve`` (enumeration to the resolution graph), ``compactify`` (b', kappa
and the dual star), then Gamma', the deformation dimensions, the moduli count
and the topology.  A report from the first steps has its later sections None
and holds the checks of the stages run so far.

Serialization is JSON derived from the report dataclasses: the keys are their
fields in declaration order (adding a field adds a key), except that
``brute_force_dim``, ``closed_form_dim``, ``closed_forms_applicable`` and
``passed`` are written ``brute``, ``closed``, ``applicable`` and ``pass``.
Integers are bit-exact and rationals are ``{"num": int, "den": int}``.
``report_from_json(report_to_json(r))`` reproduces the report
field-for-field.

All indented report text, from ``report_to_json`` and from the CLI's JSON
sections, comes from one writer, ``json_text``, which reproduces
``json.dumps(data, indent=k)`` byte for byte; ``indent=None`` is
``json.dumps``'s compact text.  (With an indent, the stdlib falls back to
its pure-Python encoder; the writer renders integer lists and the
intersection matrix with one ``str()`` each instead.)
"""

from __future__ import annotations

import functools
import json
import types
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Union, get_args, get_origin, get_type_hints

from .catalog import (CyclicType, FiniteGroup, GroupSpec, canonical_cyclic,
                      cyclic_equivalent_type, enumerate_gamma_prime,
                      enumerate_group, is_fixed_point_free)
from .errors import U2SingError
# hj_string is no longer called here, but bench/tracer.py and
# bench/test_bench.py bind u2sing.report.hj_string.
from .hj import cf_value, hj_string  # noqa: F401
from .invariants import (DeformationReport, TopologyReport, dim_h1_theta,
                         dim_sfk, moduli_dim, topology_report)
from .resolution import (BGamma, CurveConfiguration, PlumbingGraph,
                         ResolutionData, b_gamma, compactification,
                         graph_to_dot, resolution_graph, singularity_triple,
                         table_singularities)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CompactificationSection:
    b_prime: int
    b_prime_positive: bool
    seifert_value: Fraction
    lattice_candidates: tuple[int, ...]
    kappa: int
    dual_strings: tuple[tuple[int, ...], ...]
    star: PlumbingGraph
    configuration_determinant: int
    configuration_signature: tuple[int, int]


@dataclass(frozen=True)
class InvariantReport:
    spec: GroupSpec
    order: int
    # Every later field defaults to what a report holds for a stage that did
    # not run: no resolution (chi = 1 for the empty graph), no b_Gamma, no
    # later section, no check.
    degenerate_cyclic: bool = False
    singularities: tuple[CyclicType, ...] | None = None
    conjugate_equivalence_used: bool | None = None
    hj_strings: tuple[tuple[int, ...], ...] = ()
    hj_lengths: tuple[int, ...] = ()
    b_gamma: int | None = None
    b_gamma_rational: Fraction | None = None
    k_gamma: int = 0
    signature: int = 0
    chi: int = 1
    resolution: PlumbingGraph = PlumbingGraph(0, ())
    compactification: CompactificationSection | None = None
    deformations: DeformationReport | None = None
    moduli_dim: int | None = None
    h1_theta: int = 0
    topology: TopologyReport | None = None
    checks: tuple[CheckResult, ...] = ()

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def configuration(self) -> CurveConfiguration | None:
        if self.compactification is None:
            return None
        return CurveConfiguration(self.resolution, self.compactification.star)


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Resolved:
    """What ``resolve`` computes: the report up to the resolution graph, and
    the records the later stages take.  ``b`` and ``res`` are None when no
    later stage applies: for a cyclic group, and when b_Gamma failed."""
    report: InvariantReport
    b: BGamma | None = None
    res: ResolutionData | None = None


def describe(spec: GroupSpec,
             eta: Fraction | None = None,
             group: FiniteGroup | None = None) -> InvariantReport:
    """Full invariant report for one spec.

    A failed cross-check is recorded in the report, not raised.  No stage
    checks ``spec`` again: the ``GroupSpec`` constructor has refused bad
    parameters.  What raises: ClosureOverflow when ``group`` is None and the
    enumeration here overflows; and, for a degenerate (n = 1) spec, a
    SnapFailure when an element's eigenvalues do not snap.  A degenerate
    group with no lens type is a failing
    ``degenerate_cyclic_flag`` check, and the later sections keep their
    "stage did not run" defaults.

    ``group`` is the enumerated group of ``spec`` when the caller already
    holds it; otherwise it is enumerated here.  Every later stage takes its
    inputs from the records of the stages before it: ``resolve``, then
    ``compactify``, then Gamma', the deformation dimensions, the moduli
    count and the topology.
    """
    resolved = resolve(spec, group)
    report = compactify(resolved)
    b, rd = resolved.b, resolved.res
    if rd is None:
        return report
    checks = list(report.checks)

    deform = None
    try:
        gp = enumerate_gamma_prime(spec)
        deform = dim_sfk(spec, gp, b)
        if deform.closed_forms_applicable:
            checks.append(CheckResult(
                "deformation_triple_agreement", deform.agreement,
                f"brute {deform.brute_force_dim}, closed {deform.closed_form_dim}, "
                f"2b-2 {deform.two_b_minus_2}, residual {deform.residual:.2e}"))
        else:
            checks.append(CheckResult(
                "deformation_m1_gate", deform.brute_force_dim == 0,
                "m = 1: deformation space is zero, closed forms inapplicable"))
    except U2SingError as exc:
        checks.append(CheckResult("deformation_triple_agreement", False,
                                  f"invariants: {exc}"))

    topo = topology_report(spec, rd, eta)
    if eta is not None:
        checks.append(CheckResult(
            "eta_bound", bool(topo.bound_holds),
            f"b2- = {topo.b2_minus}, bound = {topo.sfasd_bound}, "
            f"equality = {topo.bound_is_equality}"))

    return replace(report, deformations=deform,
                   moduli_dim=moduli_dim(b, rd), topology=topo,
                   checks=tuple(checks))


def resolve(spec: GroupSpec, group: FiniteGroup | None = None) -> Resolved:
    """The resolution stages of ``describe``: order and freeness, the
    singularity triple, b_Gamma and the resolution graph, with the checks
    of each.  The report's later sections are None."""
    checks: list[CheckResult] = []

    if group is None:
        group = enumerate_group(spec)
    checks.append(CheckResult(
        "order_matches_table", group.order == spec.expected_order(),
        f"enumerated {group.order}, expected {spec.expected_order()}"))
    free = is_fixed_point_free(group)
    # Free means that the identity is the one element with eigenvalue 1.
    ones = 1 if free else group.eigenvalue_one_count()
    checks.append(CheckResult(
        "fixed_point_free", free, f"{ones} element(s) with eigenvalue 1"))

    if spec.is_cyclic or spec.is_degenerate_cyclic:
        return Resolved(_describe_cyclic(spec, group, checks))
    return _resolve_noncyclic(spec, group, checks)


def _describe_cyclic(spec: GroupSpec, group: FiniteGroup,
                     checks: list[CheckResult]) -> InvariantReport:
    degenerate = spec.is_degenerate_cyclic
    if degenerate:
        t = cyclic_equivalent_type(group)
        if t is None:                # no lens type: no later stage can run
            checks.append(CheckResult(
                "degenerate_cyclic_flag", False,
                "n = 1: flagged degenerate, but the group is not cyclic"))
            return InvariantReport(spec, group.order, degenerate,
                                   checks=tuple(checks))
        checks.append(CheckResult(
            "degenerate_cyclic_flag", True,
            f"n = 1: group is cyclic, equivalent to {t}"))
    else:
        t = canonical_cyclic(spec.q, spec.p)
    rd = resolution_graph(GroupSpec.cyclic(t.alpha, t.beta))
    s, = rd.strings
    checks.append(CheckResult("hj_round_trip",
                              cf_value(s) == Fraction(t.alpha, t.beta),
                              f"string {list(s)} for {t}"))
    checks.append(CheckResult("resolution_negative_definite",
                              all(d < 0 for d in rd.pivots), ""))
    return InvariantReport(spec, group.order, degenerate, singularities=(t,),
                           checks=tuple(checks), **_resolution_fields(rd))


def _resolution_fields(rd: ResolutionData) -> dict:
    """The seven report fields read off a resolution, chain or star."""
    return dict(hj_strings=rd.strings, hj_lengths=tuple(map(len, rd.strings)),
                k_gamma=rd.k_gamma, signature=rd.tau, chi=1 + rd.k_gamma,
                resolution=rd.graph, h1_theta=dim_h1_theta(rd.graph))


def _resolve_noncyclic(spec: GroupSpec, group: FiniteGroup,
                       checks: list[CheckResult]) -> Resolved:
    m, h = spec.m, spec.pgl_image_order()

    conj_used = None
    try:
        trip = singularity_triple(spec, group)
        triple, conj_used = trip.types, trip.conjugate_equivalence_used
        checks.append(CheckResult(
            "singularity_table_agreement", True,
            f"{tuple(map(str, triple))}, conjugate_equivalence_used={conj_used}"))
    except U2SingError as exc:
        checks.append(CheckResult("singularity_table_agreement", False,
                                  f"resolution_geometry: {exc}"))
        triple = table_singularities(spec)

    try:
        b = b_gamma(spec, triple)
    except U2SingError as exc:
        checks.append(CheckResult("b_gamma_double_derivation", False,
                                  f"resolution_geometry: {exc}"))
        return Resolved(InvariantReport(
            spec, group.order, singularities=triple,
            conjugate_equivalence_used=conj_used, checks=tuple(checks)))
    checks.append(CheckResult(
        "b_gamma_double_derivation", True,
        f"integer {b.value} == rational {b.rational}"))

    rd = resolution_graph(spec, triple, b)
    checks.append(CheckResult(
        "hj_round_trip",
        all(cf_value(s) == Fraction(t.alpha, t.beta)
            for t, s in zip(rd.types, rd.strings)), ""))
    checks.append(CheckResult(
        "resolution_negative_definite", all(d < 0 for d in rd.pivots),
        f"k_gamma={rd.k_gamma}"))
    checks.append(CheckResult(
        "tau_equals_minus_k", rd.tau == -rd.k_gamma, ""))
    # The centre pivot is the Schur complement center + sum 1/[arm]: the
    # boundary's Seifert Euler number, from the elimination's continuants.
    euler = rd.pivots[-1]
    checks.append(CheckResult(
        "seifert_euler_calibration", euler == Fraction(-2 * m, h),
        f"e = {euler}, -2m/h = {Fraction(-2 * m, h)}"))

    return Resolved(InvariantReport(
        spec, group.order, singularities=triple,
        conjugate_equivalence_used=conj_used, b_gamma=b.value,
        b_gamma_rational=b.rational, checks=tuple(checks),
        **_resolution_fields(rd)), b, rd)


def compactify(resolved: Resolved) -> InvariantReport:
    """``resolved``'s report with the compactification stage run: b', kappa
    and the dual star, with their three checks.  A failing stage adds a
    failing ``b_prime_unique`` and leaves the section None; a report with no
    resolution to compactify (``resolved.res`` None) comes back as it is."""
    report, rd = resolved.report, resolved.res
    if rd is None:
        return report
    checks = list(report.checks)
    try:
        comp = compactification(report.spec, rd)
    except U2SingError as exc:
        checks.append(CheckResult("b_prime_unique", False,
                                  f"resolution_geometry: {exc}"))
        return replace(report, checks=tuple(checks))
    bp = comp.b_prime
    curves = CurveConfiguration(rd.graph, comp.star).vertex_count
    checks.append(CheckResult(
        "kappa_curve_count", curves == bp.kappa + 1,
        f"kappa={bp.kappa}, curves={curves}"))
    checks.append(CheckResult(
        "b_prime_unique", True,
        f"b'={bp.value}, seifert target {bp.seifert_value}, "
        f"lattice candidates {list(bp.lattice_candidates)}"))
    checks.append(CheckResult(
        "b_prime_signature", bp.signature == (1, bp.kappa),
        f"signature {bp.signature}"))
    section = CompactificationSection(
        b_prime=bp.value, b_prime_positive=bp.positive,
        seifert_value=bp.seifert_value,
        lattice_candidates=bp.lattice_candidates, kappa=bp.kappa,
        dual_strings=comp.dual_strings,
        star=comp.star, configuration_determinant=bp.determinant,
        configuration_signature=bp.signature)
    return replace(report, compactification=section, checks=tuple(checks))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

# The JSON keys that differ from their dataclass field names.
_KEYS = {"brute_force_dim": "brute", "closed_form_dim": "closed",
         "closed_forms_applicable": "applicable", "passed": "pass"}
_SCALARS = frozenset({int, bool, float, str, type(None)})
_hints = functools.cache(get_type_hints)


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, str], ...]:
    """(field, key) pairs in declaration order, CyclicType's alpha first."""
    names = (("alpha", "beta") if cls is CyclicType
             else [f.name for f in fields(cls)])
    return tuple((name, _KEYS.get(name, name)) for name in names)


def _encode(x):
    """JSON data for a non-scalar: a tuple becomes a list, a Fraction
    {"num", "den"}, an Enum its value and a dataclass an object of its fields;
    a GroupSpec omits unset parameters, a PlumbingGraph adds its matrix."""
    t = type(x)
    if t is tuple:      # the report's tuples are homogeneous
        if not x or type(x[0]) in _SCALARS:
            return list(x)
        return [_encode(v) for v in x]
    if t is Fraction:
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, Enum):
        return x.value
    out = {}
    for name, key in _fields(t):
        v = getattr(x, name)
        out[key] = v if type(v) in _SCALARS else _encode(v)
    if t is GroupSpec:
        return {k: v for k, v in out.items() if v is not None}
    if t is PlumbingGraph:
        out["matrix"] = x.intersection_matrix()
    return out


def _decode(tp, v):
    """Rebuild a value of type ``tp`` from what ``_encode`` wrote."""
    if v is None:
        return None
    if get_origin(tp) in (Union, types.UnionType):
        tp, = (a for a in get_args(tp) if a is not type(None))
    if get_origin(tp) is tuple:
        args = get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(v)
        return tuple(_decode(a, x) for a, x in zip(args, v))
    if tp is Fraction:
        return Fraction(v["num"], v["den"])
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp(v)
    if is_dataclass(tp):    # only a GroupSpec omits keys
        return tp(**{name: _decode(_hints(tp)[name], v[key])
                     for name, key in _fields(tp)
                     if key in v or tp is not GroupSpec})
    return v


def _dumps(x, pad: str, step: str) -> str:
    """``json.dumps(x, indent=len(step))`` of ``_encode``'s output, with
    ``pad`` the indent of the line ``x`` starts on."""
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is int:
        return int.__repr__(x)
    if t is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    if t is float:
        return json.dumps(x)
    inner = pad + step
    sep = ",\n" + inner
    if t is dict:
        if not x:
            return "{}"
        if set(map(type, x)) != {str}:
            raise TypeError(f"report JSON keys must be str, got {list(x)}")
        body = sep.join([f"{encode_basestring_ascii(k)}: {_dumps(v, inner, step)}"
                         for k, v in x.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    if t is list:
        if not x:
            return "[]"
        kinds = set(map(type, x))
        # Exact type tests: a bool is an int, but json writes it "true".
        if kinds == {int}:
            body = str(x)[1:-1].replace(", ", sep)
        elif (kinds == {list} and all(x)
              and set(map(type, chain.from_iterable(x))) == {int}):
            deeper = inner + step
            rows = (str(x)[2:-2].replace("], [", f"\n{inner}]{sep}[\n{deeper}")
                    .replace(", ", ",\n" + deeper))
            body = f"[\n{deeper}{rows}\n{inner}]"
        else:
            body = sep.join([_dumps(v, inner, step) for v in x])
        return f"[\n{inner}{body}\n{pad}]"
    raise TypeError(f"{t.__name__} is not a report JSON type")


def json_text(data, indent: int | None = 2) -> str:
    """``json.dumps(data, indent=indent)`` for ``_encode``'s output."""
    if indent is None:
        return json.dumps(data)
    return _dumps(data, "", " " * indent)


def report_to_dict(r: InvariantReport) -> dict:
    return _encode(r)


def report_from_dict(d: dict) -> InvariantReport:
    return _decode(InvariantReport, d)


def report_to_json(r: InvariantReport, indent: int | None = 2) -> str:
    return json_text(report_to_dict(r), indent)


def report_from_json(text: str) -> InvariantReport:
    return report_from_dict(json.loads(text))


def export_dot(report: InvariantReport, which: str = "resolution") -> str:
    """DOT text of the resolution graph or the full compactified
    configuration (kappa + 1 curves)."""
    if which == "resolution":
        return graph_to_dot(report.resolution, "resolution")
    if which == "compactification":
        cfg = report.configuration()
        if cfg is None:
            raise U2SingError("report has no compactification section")
        return graph_to_dot(cfg, "compactification")
    raise ValueError(f"unknown graph {which!r}")
