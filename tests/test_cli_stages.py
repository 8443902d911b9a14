"""The `resolve`, `compactify` and `export` subcommands print what
`describe` reports, run only the stages they print, and exit by the checks
of those stages.

The reference output is built from `describe`'s report: the JSON section of
the reference encoder (`tests/report_encoder.py`), `export_dot` of the
report, and the text line made from the report's fields.
"""

import dataclasses
import json
from itertools import chain
from types import SimpleNamespace

import pytest

import u2sing.report
from u2sing.catalog import FAMILIES, Family, GroupSpec
from u2sing.cli import main
from u2sing.errors import InvalidParameters, TableDisagreement, U2SingError
from u2sing.report import (InvariantReport, compactify, describe, export_dot,
                           resolve)
from u2sing.resolution import PlumbingGraph
from u2sing.sweep import SweepConfig, specs_in_sweep

from report_encoder import encode

# Non-cyclic m <= 25, n <= 4 (97 specs, 25 of them degenerate n = 1) and
# cyclic p <= 7.
SLICE = list(specs_in_sweep(SweepConfig(m_max=25, n_max=4, p_max=7)))
FORMATS = ("json", "text", "dot")
# The stages after the resolution that `resolve` never runs, and that
# `compactify` runs only the first of.
LATER_STAGES = ("compactification", "enumerate_gamma_prime", "dim_sfk",
                "topology_report")


def param_flags(family, params):
    """The CLI flags of a family and its parameters, in label order."""
    return ["--family", family.value,
            *chain.from_iterable((f"--{x}", str(v)) for x, v in params.items())]


def spec_flags(spec):
    return param_flags(spec.family, {x: getattr(spec, x)
                                     for x in FAMILIES[spec.family].params})


def run(capsys, argv):
    """(exit status, stdout, stderr) of one CLI call."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def expected_outputs(spec, report, code, path):
    """{argv: (exit status, stdout, stderr, DOT file)} for the subcommands,
    built from ``report``, the `describe` report of ``spec``, as the CLI
    printed it when every subcommand ran `describe`."""
    flags, label = spec_flags(spec), spec.label()
    g, c = report.resolution, report.compactification
    resolved = {
        "json": json.dumps(encode(report)["resolution"], indent=2)
        + "\n",
        "dot": export_dot(report, "resolution"),
        "text": f"{label}: center {g.center}, arms "
                f"{[list(a) for a in g.arms]}, k = {report.k_gamma}, "
                f"tau = {report.signature}\n"}
    out = {("resolve", *flags, "--format", f): (code, text, "", None)
           for f, text in resolved.items()}
    written = f"wrote {path}\n"
    out["export", *flags, "--what", "resolution", "--out", path] = (
        code, written, "", resolved["dot"])
    if c is None:
        error = f"error: {label} has no compactification data\n"
        for f in FORMATS:
            out["compactify", *flags, "--format", f] = (2, "", error, None)
        out["export", *flags, "--what", "compactification", "--out", path] = (
            2, "", error, None)
        return out
    dot = export_dot(report, "compactification")
    compactified = {
        "json": json.dumps(encode(report)["compactification"],
                           indent=2) + "\n",
        "dot": dot,
        "text": f"{label}: b' = {c.b_prime}, kappa = {c.kappa}, "
                f"curves = {c.kappa + 1}, dual strings "
                f"{[list(s) for s in c.dual_strings]}\n"}
    for f, text in compactified.items():
        out["compactify", *flags, "--format", f] = (code, text, "", None)
    out["export", *flags, "--what", "compactification", "--out", path] = (
        code, written, "", dot)
    return out


def assert_outputs(capsys, expected, path):
    for argv, want in expected.items():
        path.unlink(missing_ok=True)
        code, out, err = run(capsys, list(argv))
        got = (code, out, err, path.read_text() if path.exists() else None)
        assert got == want, argv


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_subcommands_print_the_describe_sections(family, tmp_path, capsys):
    path = tmp_path / "graph.dot"
    specs = [s for s in SLICE if s.family is family]
    assert specs
    for spec in specs:
        report = describe(spec)
        assert report.all_passed(), spec
        assert_outputs(capsys, expected_outputs(spec, report, 0, str(path)),
                       path)


def test_subcommands_print_the_placeholder_of_a_failed_b_gamma(
        tmp_path, monkeypatch, capsys):
    def failing(spec, triple):
        raise U2SingError("injected")

    monkeypatch.setattr(u2sing.report, "b_gamma", failing)
    path = tmp_path / "graph.dot"
    for spec in (GroupSpec.dihedral(5, 2), GroupSpec.icosahedral(7)):
        report = describe(spec)
        assert report.compactification is None and report.b_gamma is None
        assert not report.all_passed()
        assert_outputs(capsys, expected_outputs(spec, report, 1, str(path)),
                       path)


def test_subcommands_run_no_stage_after_a_failed_agreement(
        tmp_path, monkeypatch, capsys):
    # The triple disagrees with the family table: b_Gamma and every stage
    # after it are skipped, resolve prints the placeholder and exits 1, and
    # compactify exits 2 with nothing to compactify.
    def disagreeing(spec, group):
        raise TableDisagreement("injected")

    monkeypatch.setattr(u2sing.report, "singularity_triple", disagreeing)
    raise_in(monkeypatch, ("b_gamma", "resolution_graph") + LATER_STAGES)
    path = tmp_path / "graph.dot"
    for spec in (GroupSpec.dihedral(5, 2), GroupSpec.icosahedral(7)):
        report = describe(spec)
        assert report.singularities is None and report.b_gamma is None
        last = report.checks[-1]
        assert (last.name, last.passed) == ("singularity_table_agreement",
                                            False)
        assert last.detail.startswith("TableDisagreement: injected (at ")
        assert last.detail.endswith(" in disagreeing)")
        assert_outputs(capsys, expected_outputs(spec, report, 1, str(path)),
                       path)


# No spec exists for these parameters, so no stage can be handed one: each
# subcommand refuses them with the text of the GroupSpec constructor.
@pytest.mark.parametrize("family, params", [
    (Family.DIHEDRAL, dict(m=2, n=2)),
    (Family.CYCLIC, dict(q=4, p=6)),
    (Family.CYCLIC, dict(q=0, p=1)),        # GroupSpec.cyclic(3, 1)
    (Family.CYCLIC, dict(q=1, p=0)),
    (Family.CYCLIC, dict(q=2, p=-3)),
], ids=["dihedral_m2_n2", "cyclic_q4_p6", "cyclic_q0_p1", "cyclic_q1_p0",
        "cyclic_q2_p-3"])
def test_subcommands_reject_what_describe_rejects(family, params, tmp_path,
                                                  capsys):
    with pytest.raises(InvalidParameters) as exc:
        GroupSpec(family, **params)
    error = f"error: {exc.value}\n"
    flags = param_flags(family, params)
    path = tmp_path / "graph.dot"
    argvs = [[cmd, *flags, "--format", f]
             for cmd in ("describe", "resolve", "compactify") for f in FORMATS]
    argvs += [["export", *flags, "--what", what, "--out", str(path)]
              for what in ("resolution", "compactification")]
    for argv in argvs:
        assert run(capsys, argv) == (2, "", error), argv
        assert not path.exists()


def raise_in(monkeypatch, names):
    for name in names:
        def reached(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} was run")
        monkeypatch.setattr(u2sing.report, name, reached)


@pytest.mark.parametrize("spec", [GroupSpec.dihedral(5, 2),
                                  GroupSpec.index2(4, 3),
                                  GroupSpec.icosahedral(7),
                                  GroupSpec.dihedral(5, 1),
                                  GroupSpec.cyclic(7, 16)], ids=GroupSpec.key)
def test_subcommands_skip_the_stages_they_do_not_print(
        spec, tmp_path, monkeypatch, capsys):
    path = tmp_path / "graph.dot"
    argvs = {"resolve": [["resolve", *spec_flags(spec), "--format", f]
                         for f in FORMATS]
             + [["export", *spec_flags(spec), "--out", str(path)]],
             "compactify": [["compactify", *spec_flags(spec), "--format", f]
                            for f in FORMATS]
             + [["export", *spec_flags(spec), "--what", "compactification",
                 "--out", str(path)]]}
    expected = {cmd: [run(capsys, argv) for argv in runs]
                for cmd, runs in argvs.items()}
    compactifiable = describe(spec).compactification is not None
    assert expected["resolve"][0][0] == 0
    assert (expected["compactify"][0][0] == 0) == compactifiable
    for cmd, skipped in (("resolve", LATER_STAGES),
                         ("compactify", LATER_STAGES[1:])):
        with monkeypatch.context() as patch:
            raise_in(patch, skipped)
            assert [run(capsys, argv) for argv in argvs[cmd]] == expected[cmd]
    if not compactifiable:
        return
    for name in LATER_STAGES:
        with monkeypatch.context() as patch:
            raise_in(patch, [name])
            with pytest.raises(AssertionError, match=f"{name} was run"):
                describe(spec)


def test_resolve_exits_by_the_resolution_checks(monkeypatch, capsys):
    flags = ["--family", "dihedral", "--m", "5", "--n", "2"]
    resolved = run(capsys, ["resolve", *flags, "--format", "json"])
    compactified = run(capsys, ["compactify", *flags, "--format", "json"])
    assert resolved[0] == compactified[0] == 0
    # report's own binding of the hj module is read by the hj_round_trip
    # check alone, never by the compactification, so the printed sections
    # stay the same
    monkeypatch.setattr(u2sing.report, "hj",
                        SimpleNamespace(continuant=lambda s: (0, 1)))
    report = resolve(GroupSpec.dihedral(5, 2))
    assert failing(report) == ["hj_round_trip"]
    assert run(capsys, ["resolve", *flags, "--format", "json"]) == (
        1, *resolved[1:])
    # compactify runs the resolution stages too, so their checks count
    assert run(capsys, ["compactify", *flags, "--format", "json"]) == (
        1, *compactified[1:])


def test_compactify_exits_by_the_compactification_checks(monkeypatch,
                                                          capsys, tmp_path):
    def failing(spec, res):
        raise U2SingError("injected")

    monkeypatch.setattr(u2sing.report, "compactification", failing)
    flags = ["--family", "dihedral", "--m", "5", "--n", "2"]
    failure = run(capsys, ["compactify", *flags])
    code, out, err = failure
    assert (code, out) == (1, "")
    assert err.startswith("check failure: dihedral(m=5,n=2) has no "
                          "compactification data: U2SingError: injected (at ")
    assert err.endswith(" in failing)\n")
    path = tmp_path / "graph.dot"
    assert run(capsys, ["export", *flags, "--what", "compactification",
                        "--out", str(path)]) == failure
    assert not path.exists()
    report = describe(GroupSpec.dihedral(5, 2))
    assert [c.name for c in report.checks if not c.passed] == [
        "b_prime_unique"]
    # resolve does not run the stage, so its failure does not count there
    assert run(capsys, ["resolve", *flags])[0] == 0


# -- resolve and compactify are prefixes of describe --------------------------

# For each stage that `resolve` or `compactify` stops after: the report
# fields and the checks of the stages after it.
AFTER = {
    "resolution": (("compactification", "deformations", "moduli_dim",
                    "topology"),
                   {"kappa_curve_count", "b_prime_unique", "b_prime_signature",
                    "deformation_triple_agreement", "deformation_m1_gate"}),
    "compactification": (("deformations", "moduli_dim", "topology"),
                         {"deformation_triple_agreement",
                          "deformation_m1_gate"}),
}
DEFAULTS = {f.name: f.default for f in dataclasses.fields(InvariantReport)}


def cut(report, last):
    """``report`` as it stands after the section ``last``: the later
    sections at their defaults, and the checks cut before the first check
    of a later stage."""
    later_fields, later_checks = AFTER[last]
    names = [c.name for c in report.checks]
    end = next((i for i, name in enumerate(names) if name in later_checks),
               len(names))
    return dataclasses.replace(report, checks=report.checks[:end],
                               **{f: DEFAULTS[f] for f in later_fields})


def assert_prefixes(specs):
    for spec in specs:
        report = describe(spec)
        assert resolve(spec) == cut(report, "resolution"), spec
        assert compactify(spec) == cut(report, "compactification"), spec


def test_resolve_and_compactify_are_prefixes_of_describe():
    assert_prefixes(SLICE)


@pytest.mark.parametrize("stage", ["singularity_triple", "b_gamma",
                                   "compactification",
                                   "enumerate_gamma_prime"])
def test_a_failed_stage_cuts_each_prefix_where_describe_has_it(stage,
                                                               monkeypatch):
    def raising(*args):
        raise U2SingError("injected")

    monkeypatch.setattr(u2sing.report, stage, raising)
    assert not describe(GroupSpec.dihedral(5, 2)).all_passed()
    assert_prefixes(SLICE)


def test_a_degenerate_group_with_no_lens_type_cuts_every_prefix(
        monkeypatch):
    monkeypatch.setattr(u2sing.report, "cyclic_equivalent_type",
                        lambda group: None)
    spec = GroupSpec.dihedral(3, 1)
    assert failing(describe(spec)) == ["degenerate_cyclic_flag"]
    assert resolve(spec) == compactify(spec) == describe(spec)


# -- the resolution's pivots --------------------------------------------------

ONE_PER_FAMILY = [GroupSpec.dihedral(5, 2), GroupSpec.tetrahedral(7),
                  GroupSpec.octahedral(5), GroupSpec.icosahedral(7),
                  GroupSpec.index2(4, 3), GroupSpec.index3(9)]


def failing(report):
    return [c.name for c in report.checks if not c.passed]


def move_centre_pivot(monkeypatch, move):
    """Make every elimination return its centre pivot, an integer pair
    (num, den), moved by ``move``."""
    real = PlumbingGraph.pivots

    def pivots(self):
        out = real(self)
        out[-1] = move(out[-1])
        return out

    monkeypatch.setattr(PlumbingGraph, "pivots", pivots)


@pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=GroupSpec.key)
def test_calibration_sees_a_shifted_centre_pivot(spec, monkeypatch):
    # An integer shift keeps the star definite and tau = -k; only the
    # Seifert Euler number, read from the centre pivot, moves.
    assert {s.family for s in ONE_PER_FAMILY} == set(Family) - {Family.CYCLIC}
    assert failing(resolve(spec)) == []
    move_centre_pivot(monkeypatch, lambda p: (p[0] - p[1], p[1]))   # d - 1
    assert failing(resolve(spec)) == ["seifert_euler_calibration"]


@pytest.mark.parametrize("move", [lambda p: (-p[0], p[1]),
                                  lambda p: (0, p[1])],
                         ids=["sign_flip", "zero"])
def test_tau_is_read_from_the_elimination(move, monkeypatch):
    # A zero pivot is a degenerate lattice: failing checks, not an error.
    move_centre_pivot(monkeypatch, move)
    report = resolve(GroupSpec.dihedral(5, 2))
    assert failing(report) == ["resolution_negative_definite",
                               "tau_equals_minus_k",
                               "seifert_euler_calibration"]
    assert report.signature != -report.k_gamma


def test_a_flipped_chain_pivot_fails_definiteness(monkeypatch):
    # A lens chain is a star with one arm; its centre pivot is the chain's
    # last.  The lens report has no tau check: definiteness must see it.
    assert failing(resolve(GroupSpec.cyclic(3, 7))) == []
    move_centre_pivot(monkeypatch, lambda p: (-p[0], p[1]))
    report = resolve(GroupSpec.cyclic(3, 7))
    assert failing(report) == ["resolution_negative_definite"]
    assert report.signature == 2 - report.k_gamma


def test_a_non_integer_determinant_is_a_failing_check(monkeypatch, capsys):
    # d - 1/1000
    move_centre_pivot(monkeypatch,
                      lambda p: (p[0] * 1000 - p[1], p[1] * 1000))
    flags = ["--family", "dihedral", "--m", "5", "--n", "2"]
    code, out, err = run(capsys, ["compactify", *flags])
    assert (code, out) == (1, "")
    assert err.startswith(
        "check failure: dihedral(m=5,n=2) has no compactification data: "
        "CrossCheckFailure: integer matrix with non-integer determinant "
        "(at resolution.py:")
    assert err.endswith(" in _integer_det)\n")
    assert "b_prime_unique" in failing(describe(GroupSpec.dihedral(5, 2)))
