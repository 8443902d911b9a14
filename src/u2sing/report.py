"""Invariant reports: one structure per group with every cross-check verdict.

``describe`` runs the whole pipeline for one spec -- enumeration, freeness,
singularity types by both routes, the two derivations of the central weight,
resolution and compactification graphs, the deformation dimensions, and the
topology fields -- and records a pass/fail verdict for each identity.  A
failed cross-check never disappears: it becomes a failing entry in
``report.checks`` (and downstream sections that depend on it are omitted).
So does a stage that raises: its check's detail is
``errors.failure_text`` of the exception (the class, the text and the
file, line and function that raised it), the text that ``verify`` records
for a spec whose ``describe`` raised.

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

All report text, a whole report's and the CLI's JSON sections, comes from
one writer, ``report_to_json(obj, indent)``, which takes report objects
only (an ``InvariantReport`` or one of its sections), walks them once and
writes ``json.dumps(_encode(obj), indent=indent)`` byte for byte.  A
graph's matrix is drawn from its weights and edges: no list of lists is
built.  ``report_to_dict`` comes from ``_encode``, the route that the tests
compare the writer against; ``json.dumps(report_to_dict(r))`` is the
compact text.

Every output file, a sweep's reports and the CLI's ``--out`` files, is
written by ``write_file``.
"""

from __future__ import annotations

import functools
import json
import os
import types
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Union, get_args, get_origin, get_type_hints

from . import hj
from .catalog import (CyclicType, GroupSpec, Labels, Turns, canonical_cyclic,
                      cyclic_equivalent_type, enumerate_gamma_prime,
                      enumerate_group, is_fixed_point_free)
from .errors import U2SingError, failure_text
# hj_string is no longer called here, but bench/tracer.py and
# bench/test_bench.py bind u2sing.report.hj_string.
from .hj import hj_string  # noqa: F401
from .invariants import (DeformationReport, TopologyReport, dim_h1_theta,
                         dim_sfk, moduli_dim, topology_report)
from .resolution import (PlumbingGraph, ResolutionData, b_gamma,
                         compactification, graph_to_dot, resolution_chain,
                         resolution_graph, singularity_triple)


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


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Resolved:
    """What ``resolve`` computes: the report up to the resolution graph, and
    the resolution that the later stages take, with ``report.b_gamma``.
    ``res`` is None when no later stage applies: for a cyclic group, and
    when the singularity triple or b_Gamma failed."""
    report: InvariantReport
    res: ResolutionData | None = None


def describe(spec: GroupSpec,
             eta: Fraction | None = None,
             group: Turns | Labels | None = None) -> InvariantReport:
    """Full invariant report for one spec.

    A failed cross-check is recorded in the report, not raised.  So is a
    U2SingError of the singularity triple, b_Gamma, the compactification,
    or Gamma' with the deformation dimensions: ``_stage`` turns it into
    that stage's failing check, whose detail names the exception's class
    and the function that raised it, and the sections that need the stage
    keep their defaults.  Any other exception propagates; ``verify``
    records it as the spec's one failing ``describe`` check.  No stage
    checks ``spec`` again: the ``GroupSpec`` constructor has refused bad
    parameters.  What raises, when ``group`` is None and the enumeration
    here fails: ClosureOverflow when it overflows; SnapFailure when a
    T*, O* or I* eigen-angle does not snap to a residue (``catalog._tabled``);
    and NotAGroup when a G* fails its group check (``catalog._checked``,
    ``_gstar_closure``, ``_tabled``) or a named quaternion of T*, O* or I*
    is not one of its closure's elements (``_tabled``).  For a degenerate
    (n = 1) spec, also a SnapFailure when an element's eigen-angles are not
    multiples of 1/|Gamma| turn.  A degenerate group with no lens type is a
    failing ``degenerate_cyclic_flag`` check, and the later sections keep
    their "stage did not run" defaults.

    ``group`` is the enumerated group of ``spec`` when the caller already
    holds it, as ``enumerate_group`` returns it (exact turns for a cyclic
    spec, exact labels for every other); otherwise it is enumerated here.
    Every later stage takes its inputs from the records of the stages
    before it: ``resolve``, then ``compactify``, then Gamma', the
    deformation dimensions, the moduli count and the topology.
    """
    resolved = resolve(spec, group)
    report = compactify(resolved)
    rd = resolved.res
    if rd is None:
        return report
    b = report.b_gamma
    checks = list(report.checks)

    deform = _stage(checks, "deformation_triple_agreement",
                    lambda: dim_sfk(spec, enumerate_gamma_prime(spec), b))
    if deform is not None and deform.closed_forms_applicable:
        checks.append(CheckResult(
            "deformation_triple_agreement", deform.agreement,
            f"brute {deform.brute_force_dim}, closed {deform.closed_form_dim}, "
            f"2b-2 {deform.two_b_minus_2}, residual {deform.residual:.2e}"))
    elif deform is not None:
        checks.append(CheckResult(
            "deformation_m1_gate", deform.brute_force_dim == 0,
            "m = 1: deformation space is zero, closed forms inapplicable"))

    topo = topology_report(spec, rd, eta)
    if eta is not None:
        checks.append(CheckResult(
            "eta_bound", bool(topo.bound_holds),
            f"b2- = {topo.b2_minus}, bound = {topo.sfasd_bound}, "
            f"equality = {topo.bound_is_equality}"))

    return replace(report, deformations=deform,
                   moduli_dim=moduli_dim(b, rd), topology=topo,
                   checks=tuple(checks))


def resolve(spec: GroupSpec,
            group: Turns | Labels | None = None) -> Resolved:
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


def _stage(checks: list[CheckResult], name: str, run, *args):
    """``run(*args)``, one stage of ``describe``; on a U2SingError, None,
    with a failing check ``name`` appended to ``checks`` whose detail is
    ``errors.failure_text``: the exception's class, its text and the
    function that raised it.  The caller passes the stage as it reads it
    from the module globals at call time, so a patched stage is the one
    run."""
    try:
        return run(*args)
    except U2SingError as exc:
        checks.append(CheckResult(name, False, failure_text(exc)))
        return None


def _describe_cyclic(spec: GroupSpec, group: Turns | Labels,
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
    else:                       # the chain of the spec itself
        t = canonical_cyclic(spec.q, spec.p)
    rd = resolution_chain(t)
    s, = rd.strings
    checks.append(CheckResult("hj_round_trip",
                              hj.continuant(s) == (t.beta, t.alpha),
                              f"string {list(s)} for {t}"))
    checks.append(CheckResult("resolution_negative_definite",
                              rd.negative_definite, ""))
    return InvariantReport(spec, group.order, degenerate, singularities=(t,),
                           checks=tuple(checks), **_resolution_fields(rd))


def _resolution_fields(rd: ResolutionData) -> dict:
    """The seven report fields read off a resolution, chain or star."""
    return dict(hj_strings=rd.strings, hj_lengths=tuple(map(len, rd.strings)),
                k_gamma=rd.k_gamma, signature=rd.tau, chi=1 + rd.k_gamma,
                resolution=rd.graph, h1_theta=dim_h1_theta(rd.graph))


def _resolve_noncyclic(spec: GroupSpec, group: Labels,
                       checks: list[CheckResult]) -> Resolved:
    m, h = spec.m, spec.pgl_image_order()

    # conjugate_equivalence_used stays in the schema: False after the exact
    # agreement that singularity_triple requires, None when it fails.  No
    # later stage runs without an agreed triple.
    triple = _stage(checks, "singularity_table_agreement", singularity_triple,
                    spec, group)
    if triple is None:
        return Resolved(InvariantReport(spec, group.order,
                                        checks=tuple(checks)))
    conj_used = False
    checks.append(CheckResult(
        "singularity_table_agreement", True,
        f"{tuple(map(str, triple))}, conjugate_equivalence_used={conj_used}"))

    b = _stage(checks, "b_gamma_double_derivation", b_gamma, spec, triple)
    if b is None:
        return Resolved(InvariantReport(
            spec, group.order, singularities=triple,
            conjugate_equivalence_used=conj_used, checks=tuple(checks)))
    checks.append(CheckResult(
        "b_gamma_double_derivation", True,
        f"integer {b} == rational {b}"))

    rd = resolution_graph(triple, b)
    checks.append(CheckResult(
        "hj_round_trip",
        all(hj.continuant(s) == (t.beta, t.alpha)
            for t, s in zip(rd.types, rd.strings)), ""))
    checks.append(CheckResult(
        "resolution_negative_definite", rd.negative_definite,
        f"k_gamma={rd.k_gamma}"))
    checks.append(CheckResult(
        "tau_equals_minus_k", rd.tau == -rd.k_gamma, ""))
    # The centre pivot is the Schur complement center + sum 1/[arm]: the
    # boundary's Seifert Euler number, from the elimination's continuants.
    euler = Fraction(*rd.pivots[-1])
    checks.append(CheckResult(
        "seifert_euler_calibration", euler == Fraction(-2 * m, h),
        f"e = {euler}, -2m/h = {Fraction(-2 * m, h)}"))

    return Resolved(InvariantReport(
        spec, group.order, singularities=triple,
        conjugate_equivalence_used=conj_used, b_gamma=b,
        b_gamma_rational=Fraction(b), checks=tuple(checks),
        **_resolution_fields(rd)), rd)


def compactify(resolved: Resolved) -> InvariantReport:
    """``resolved``'s report with the compactification stage run: b', kappa
    and the dual star, with their three checks.  A failing stage adds a
    failing ``b_prime_unique`` and leaves the section None; a report with no
    resolution to compactify (``resolved.res`` None) comes back as it is."""
    report, rd = resolved.report, resolved.res
    if rd is None:
        return report
    checks = list(report.checks)
    comp = _stage(checks, "b_prime_unique", compactification, report.spec, rd)
    if comp is None:
        return replace(report, checks=tuple(checks))
    bp = comp.b_prime
    curves = rd.k_gamma + comp.star.vertex_count
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
        b_prime=bp.value, b_prime_positive=bp.value > 0,
        seifert_value=bp.seifert_value, dual_strings=comp.dual_strings,
        lattice_candidates=bp.lattice_candidates, kappa=bp.kappa,
        star=comp.star, configuration_determinant=bp.determinant,
        configuration_signature=bp.signature)
    return replace(report, compactification=section, checks=tuple(checks))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

# The JSON keys that differ from their dataclass field names.
_KEYS = {"brute_force_dim": "brute", "closed_form_dim": "closed",
         "closed_forms_applicable": "applicable", "passed": "pass"}
# The text of a scalar, by exact type: a bool is an int, but json writes it
# "true".
_SCALAR_TEXT = {int: int.__repr__, str: encode_basestring_ascii,
                bool: lambda b: "true" if b else "false",
                type(None): lambda _: "null", float: json.dumps}
_SCALARS = frozenset(_SCALAR_TEXT)
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



@functools.cache
def _prefixes(cls: type) -> tuple[tuple[str, str], ...]:
    """(field, '"key": ') pairs of a dataclass, in ``_fields`` order."""
    return tuple((name, encode_basestring_ascii(key) + ": ")
                 for name, key in _fields(cls))


def _fraction(x: Fraction, pad: str, inner: str) -> str:
    """The object {"num", "den"} of ``x``, opened on a line indented
    ``pad``, its two lines indented ``inner``."""
    return (f'{{\n{inner}"num": {int.__repr__(x.numerator)},\n'
            f'{inner}"den": {int.__repr__(x.denominator)}\n{pad}}}')


def _dumps(x, pad: str, step: str) -> str:
    """``json.dumps(_encode(x), indent=len(step))`` for a report object, with
    ``pad`` the indent of the line ``x`` starts on."""
    t = type(x)
    text = _SCALAR_TEXT.get(t)
    if text is not None:
        return text(x)
    inner = pad + step
    sep = ",\n" + inner
    if t is tuple:
        if not x:
            return "[]"
        if set(map(type, x)) == {int}:
            body = sep.join(map(int.__repr__, x))
        else:
            body = sep.join([_dumps(v, inner, step) for v in x])
        return f"[\n{inner}{body}\n{pad}]"
    if t is Fraction:
        return _fraction(x, pad, inner)
    if isinstance(x, Enum):
        return _dumps(x.value, pad, step)
    if not is_dataclass(t):
        raise TypeError(f"{t.__name__} is not a report JSON type")
    # A field's scalar or Fraction is written here, without a call of
    # _dumps; a GroupSpec omits its unset parameters.  Every report
    # dataclass writes at least one field.
    body = []
    deeper = inner + step
    for name, prefix in _prefixes(t):
        v = getattr(x, name)
        text = _SCALAR_TEXT.get(type(v))
        if text is not None:
            if v is not None or t is not GroupSpec:
                body.append(prefix + text(v))
        elif type(v) is Fraction:
            body.append(prefix + _fraction(v, inner, deeper))
        else:
            body.append(prefix + _dumps(v, inner, step))
    if t is PlumbingGraph:
        body.append(f'"matrix": {_matrix(x, inner, step)}')
    return f"{{\n{inner}{sep.join(body)}\n{pad}}}"


def _matrix(g: PlumbingGraph, pad: str, step: str) -> str:
    """``_dumps(g.intersection_matrix(), pad, step)``, drawn from the graph:
    each row starts as zeros and takes its weight and its edges' ones."""
    w = g.weights()
    rows = [["0"] * len(w) for _ in w]
    for i, v in enumerate(w):
        rows[i][i] = int.__repr__(v)
    for i, j in g._edges():
        rows[i][j] = rows[j][i] = "1"
    inner = pad + step
    deeper = inner + step
    cell = ",\n" + deeper
    body = f"\n{inner}],\n{inner}[\n{deeper}".join([cell.join(r) for r in rows])
    return f"[\n{inner}[\n{deeper}{body}\n{inner}]\n{pad}]"


def report_to_dict(r: InvariantReport) -> dict:
    return _encode(r)


def report_from_dict(d: dict) -> InvariantReport:
    return _decode(InvariantReport, d)


def report_to_json(obj, indent: int = 2) -> str:
    """``json.dumps(_encode(obj), indent=indent)`` for a report object: an
    ``InvariantReport`` or one of its sections."""
    return _dumps(obj, "", " " * indent)


def report_from_json(text: str) -> InvariantReport:
    return report_from_dict(json.loads(text))


def write_file(path: str | os.PathLike, text: str) -> None:
    """Make the file at ``path`` hold exactly ``text`` (ASCII), written in
    place by raw writes from offset 0; a longer old file is then cut to the
    new length.  No ``O_TRUNC``: on ext4, truncating a file to size 0 makes
    its ``close()`` start a writeback (``auto_da_alloc``)."""
    data = memoryview(text.encode())
    size = len(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while data:                      # a short write leaves the rest
            data = data[os.write(fd, data):]
        if os.fstat(fd).st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def export_dot(report: InvariantReport, which: str = "resolution") -> str:
    """DOT text of the resolution graph or the full compactified
    configuration (kappa + 1 curves)."""
    if which == "resolution":
        return graph_to_dot(report.resolution, "resolution")
    if which == "compactification":
        if report.compactification is None:
            raise U2SingError("report has no compactification section")
        return graph_to_dot(report.resolution, "compactification",
                            report.compactification.star)
    raise ValueError(f"unknown graph {which!r}")
