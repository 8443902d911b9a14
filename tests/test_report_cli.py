"""Report assembly, JSON round trips, the sweep harness, and the CLI."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import u2sing.catalog as catalog
import u2sing.sweep as sweep
from u2sing.catalog import Family, GroupSpec, canonical_cyclic
from u2sing.cli import main
from u2sing.errors import InvalidParameters, U2SingError
from u2sing.invariants import DeformationReport, TopologyReport
from u2sing.report import (CheckResult, CompactificationSection,
                           InvariantReport, _dumps, describe, export_dot,
                           report_from_dict, report_from_json, report_to_dict,
                           report_to_json)
from u2sing.resolution import PlumbingGraph
from u2sing.sweep import (SweepConfig, VerifySummary, check_eigenvalue_tables,
                          check_kappa_spots, config_from_mapping,
                          parse_config_file, specs_in_sweep, verify)

from dimino_float import rows_of
from freeness_float import (RowGroup, angle_eigenvalue_one_count,
                            modulo_eigenvalue_one_count)
from lens_float import lens_rows
from report_encoder import encode
from stages import table_topology


# -- describe ---------------------------------------------------------------

def test_describe_quaternion_group():
    r = describe(GroupSpec.dihedral(1, 2))
    assert r.order == 8
    assert r.b_gamma == 2 and r.k_gamma == 4
    assert r.compactification.kappa == 7
    assert r.deformations.brute_force_dim == 0
    assert r.moduli_dim == 6
    assert r.all_passed()


def test_describe_cyclic():
    r = describe(GroupSpec.cyclic(3, 5))
    assert r.compactification is None
    assert r.deformations is None and r.topology is None
    assert r.hj_strings == ((2, 3),)
    assert r.signature == -2 and r.k_gamma == 2
    assert r.all_passed()


def test_describe_eliminates_each_lattice_sparingly(monkeypatch):
    # Non-cyclic: the resolution star once, whose record carries its pivots,
    # and the compactification star twice, at c = 0 for the b' pencil and
    # at b' for the full elimination.  Cyclic: the chain once.
    real, calls = PlumbingGraph.pivots, []
    monkeypatch.setattr(PlumbingGraph, "pivots",
                        lambda self: calls.append(self) or real(self))
    for spec in (GroupSpec.dihedral(5, 2), GroupSpec.icosahedral(7)):
        calls.clear()
        r = describe(spec)
        assert r.all_passed() and len(calls) == 3
        assert calls[0] == r.resolution
        assert calls[1:] == [PlumbingGraph(c, r.compactification.star.arms)
                             for c in (0, r.compactification.b_prime)]
    calls.clear()
    assert describe(GroupSpec.cyclic(3, 7)).all_passed()
    assert len(calls) == 1


def test_describe_validates_a_spec_where_it_enters(monkeypatch):
    # The constructor is the one catalog check: describe of a spec that
    # exists checks nothing again, and builds no spec.  A lens chain comes
    # from the lens type, the spec's own or, for n = 1, its group's.
    real, calls = GroupSpec.__post_init__, []
    monkeypatch.setattr(GroupSpec, "__post_init__",
                        lambda self: calls.append(self) or real(self))
    specs = (GroupSpec.dihedral(5, 2), GroupSpec.icosahedral(7),
             GroupSpec.cyclic(3, 7), GroupSpec.dihedral(3, 1))
    calls.clear()
    reports = [describe(spec) for spec in specs]
    assert all(r.all_passed() for r in reports)
    assert reports[-1].degenerate_cyclic
    assert calls == []


def test_a_failed_b_gamma_leaves_the_placeholders(monkeypatch):
    import u2sing.report as report
    from u2sing.errors import CrossCheckFailure

    def b_gamma(spec, triple):
        raise CrossCheckFailure("injected")

    monkeypatch.setattr(report, "b_gamma", b_gamma)
    d = report_to_dict(describe(GroupSpec.dihedral(5, 2)))
    assert d["order"] == 40 and d["degenerate_cyclic"] is False
    assert d["singularities"] == [{"alpha": 1, "beta": 2}] * 3
    assert d["conjugate_equivalence_used"] is False
    expected = {"hj_strings": [], "hj_lengths": [], "b_gamma": None,
                "b_gamma_rational": None, "k_gamma": 0, "signature": 0,
                "chi": 1,
                "resolution": {"center": 0, "arms": [], "matrix": [[0]]},
                "compactification": None, "deformations": None,
                "moduli_dim": None, "h1_theta": 0, "topology": None}
    for key, value in expected.items():
        assert d[key] == value, key
    assert [(c["name"], c["pass"]) for c in d["checks"]][-1] == (
        "b_gamma_double_derivation", False)
    detail = d["checks"][-1]["detail"]
    assert detail.startswith("CrossCheckFailure: injected (at ")
    assert detail.endswith(" in b_gamma)")


def test_a_triple_with_an_inverted_arm_fails_the_table_agreement(monkeypatch):
    # L(alpha^-1, beta) reads the arm's HJ string reversed, another
    # plumbing: an algorithmic triple that matches the table only up to
    # alpha <-> alpha^-1 fails, and no later stage runs on the table's.
    import u2sing.resolution as resolution
    real = resolution._pole_type

    def inverted(theta, phi, p, m):
        t = real(theta, phi, p, m)
        return canonical_cyclic(pow(t.alpha, -1, t.beta), t.beta)

    monkeypatch.setattr(resolution, "_pole_type", inverted)
    spec = GroupSpec.dihedral(3, 5)                     # arm L(2, 5)
    r = describe(spec)
    checks = {c.name: c for c in r.checks}
    agreement = checks["singularity_table_agreement"]
    assert not agreement.passed
    assert agreement.detail.startswith(
        f"TableDisagreement: {spec.label()}: table "
        "('L(1,2)', 'L(1,2)', 'L(2,5)') != computed "
        "('L(1,2)', 'L(1,2)', 'L(3,5)') (at resolution.py:")
    assert agreement.detail.endswith(" in singularity_triple)")
    assert "b_gamma_double_derivation" not in checks
    assert r.conjugate_equivalence_used is None
    assert r.singularities is None and r.b_gamma is None
    assert r.resolution == PlumbingGraph(0, ()) and r.compactification is None
    assert [c.name for c in r.checks] == [
        "order_matches_table", "fixed_point_free",
        "singularity_table_agreement"]


class Injected(U2SingError):
    """A failure that no stage of the library raises."""


@pytest.mark.parametrize("stage, check", [
    ("singularity_triple", "singularity_table_agreement"),
    ("b_gamma", "b_gamma_double_derivation"),
    ("compactification", "b_prime_unique"),
    ("dim_sfk", "deformation_triple_agreement"),
])
def test_a_failed_stage_names_its_exception_and_the_raiser(stage, check,
                                                           monkeypatch):
    # The detail is the text that verify records for a spec whose describe
    # raised: the class, the text, and the file, line and function.
    def raiser(*args):
        raise Injected("at the stage")

    monkeypatch.setattr(f"u2sing.report.{stage}", raiser)
    r = describe(GroupSpec.dihedral(5, 2))
    (name, detail), = [(c.name, c.detail) for c in r.checks if not c.passed]
    assert name == check
    assert detail.startswith("Injected: at the stage (at test_report_cli.py:")
    assert detail.endswith(" in raiser)")


def test_an_overflowing_gamma_prime_names_the_closure(monkeypatch):
    # Gamma' closed with a bound of a quarter of its order overflows in the
    # closure, not in the deformation stage that called it.
    spec = GroupSpec.index2(4, 3)
    monkeypatch.setattr("u2sing.report.enumerate_gamma_prime", lambda s: (
        catalog.generate_closure(catalog.generators_of(s)[1:],
                                 s.expected_order() // 4)))
    r = describe(spec)
    check, = [c for c in r.checks if not c.passed]
    assert check.name == "deformation_triple_agreement"
    assert check.detail.startswith("ClosureOverflow: closure exceeded ")
    assert check.detail.endswith(" in generate_closure)")
    assert r.deformations is None and r.topology is not None


def test_describe_invalid():
    with pytest.raises(InvalidParameters):
        describe(GroupSpec.dihedral(2, 2))
    with pytest.raises(InvalidParameters):
        describe(GroupSpec.cyclic(0, 1))


def test_describe_degenerate():
    r = describe(GroupSpec.dihedral(3, 1))
    assert r.degenerate_cyclic
    assert r.order == 12
    assert r.compactification is None
    assert r.all_passed()


def test_a_degenerate_group_with_no_lens_type_is_a_failing_check(
        monkeypatch, small_global_bounds):
    import u2sing.report as report

    monkeypatch.setattr(report, "cyclic_equivalent_type", lambda group: None)
    r = describe(GroupSpec.dihedral(3, 1))
    assert r.degenerate_cyclic and r.order == 12
    assert [c.name for c in r.checks if not c.passed] == ["degenerate_cyclic_flag"]
    assert (r.singularities, r.hj_strings, r.compactification) == (None, (), None)
    config = SweepConfig(families=(Family.DIHEDRAL,), m_max=5, n_max=1)
    specs = [spec.label() for spec in specs_in_sweep(config)]
    summary = verify(config)
    assert "describe" not in summary.check_names()
    assert summary.passed_failed("degenerate_cyclic_flag") == (0, len(specs))
    assert [(label, name) for label, name, _ in summary.failures] == [
        (label, "degenerate_cyclic_flag") for label in specs]


def test_describe_with_eta():
    spec = GroupSpec.octahedral(1)
    eq = describe(spec).topology.implied_eta
    r = describe(spec, eta=eq)
    assert r.topology.bound_is_equality
    assert any(c.name == "eta_bound" and c.passed for c in r.checks)


# -- JSON round trip --------------------------------------------------------

# One spec per family, the degenerate dihedral(5, 1), and one with eta.
REPORT_CASES = [
    (GroupSpec.dihedral(1, 2), None),
    (GroupSpec.tetrahedral(7), F(-1, 3)),
    (GroupSpec.index3(9), None),
    (GroupSpec.cyclic(7, 16), None),
    (GroupSpec.dihedral(5, 1), None),
    (GroupSpec.octahedral(5), None),
    (GroupSpec.icosahedral(7), None),
    (GroupSpec.index2(4, 3), None),
]


@pytest.mark.parametrize("spec,eta", REPORT_CASES)
def test_report_round_trip(spec, eta):
    r = describe(spec, eta=eta)
    assert report_from_dict(report_to_dict(r)) == r
    assert report_from_json(report_to_json(r)) == r


def test_round_trip_of_the_trivial_type():
    r = dataclasses.replace(describe(GroupSpec.cyclic(3, 5)),
                            singularities=(canonical_cyclic(0, 1),))
    assert report_to_dict(r)["singularities"] == [{"alpha": 0, "beta": 1}]
    assert report_from_json(report_to_json(r)) == r


def test_decoding_a_missing_key_fails():
    d = report_to_dict(describe(GroupSpec.tetrahedral(7), eta=F(-1, 3)))
    del d["topology"]["eta"]
    with pytest.raises(KeyError):
        report_from_dict(d)


def test_decoding_a_spec_the_catalog_refuses_fails():
    d = report_to_dict(describe(GroupSpec.dihedral(5, 2)))
    d["spec"].update(m=2, n=2)
    with pytest.raises(InvalidParameters, match=r"gcd\(m,2n\) must be 1"):
        report_from_json(json.dumps(d))


@pytest.mark.parametrize("value", [True, 5.0, "5"])
def test_decoding_a_spec_parameter_that_is_not_an_int_fails(value):
    d = report_to_dict(describe(GroupSpec.dihedral(5, 2)))
    d["spec"]["m"] = value
    with pytest.raises(InvalidParameters, match="m must be an int"):
        report_from_json(json.dumps(d))


def test_json_schema_keys():
    d = report_to_dict(describe(GroupSpec.dihedral(1, 2)))
    for key in ("spec", "order", "singularities", "b_gamma",
                "b_gamma_rational", "k_gamma", "signature", "resolution",
                "compactification", "deformations", "moduli_dim", "h1_theta",
                "topology", "checks"):
        assert key in d
    assert d["b_gamma_rational"] == {"num": 2, "den": 1}
    assert set(d["compactification"]) >= {"b_prime", "kappa", "dual_strings"}
    assert d["resolution"]["center"] == -2
    assert len(d["resolution"]["matrix"]) == 4
    assert all(set(c) == {"name", "pass", "detail"} for c in d["checks"])
    json.dumps(d)     # must be plain JSON types throughout


# The JSON keys that differ from their dataclass field names.
RENAMED = {"brute_force_dim": "brute", "closed_form_dim": "closed",
           "closed_forms_applicable": "applicable", "passed": "pass"}


def test_json_has_a_key_for_every_field():
    d = report_to_dict(describe(GroupSpec.tetrahedral(7), eta=F(-1, 3)))
    sections = [(InvariantReport, d),
                (CompactificationSection, d["compactification"]),
                (DeformationReport, d["deformations"]),
                (TopologyReport, d["topology"])]
    sections += [(CheckResult, c) for c in d["checks"]]
    for cls, obj in sections:
        keys = [RENAMED.get(f.name, f.name) for f in dataclasses.fields(cls)]
        assert list(obj) == keys, cls.__name__


# Written by `u2sing describe ... --format json --out tests/describe_json`.
DESCRIBE_JSON = Path(__file__).parent / "describe_json"


@pytest.mark.parametrize("spec", [
    GroupSpec.dihedral(1, 2), GroupSpec.icosahedral(1),
    GroupSpec.cyclic(7, 16), GroupSpec.dihedral(5, 1),
], ids=GroupSpec.key)
def test_describe_json_text(spec):
    expected = (DESCRIBE_JSON / f"{spec.key()}.json").read_text()
    assert report_to_json(describe(spec)) + "\n" == expected


def test_describe_out_replaces_a_longer_file(tmp_path, capsys):
    expected = (DESCRIBE_JSON / "dihedral_m1_n2.json").read_bytes()
    path = tmp_path / "dihedral_m1_n2.json"
    path.write_bytes(expected + b"junk" * 1000)
    assert main(["describe", "--family", "dihedral", "--m", "1", "--n", "2",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert path.read_bytes() == expected


# -- the JSON writer --------------------------------------------------------

# Report values are scalars and tuples of them, nested; json.dumps writes a
# tuple as a list.
_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text() | st.lists(st.integers()).map(tuple)
           | st.lists(st.lists(st.integers(), min_size=1).map(tuple),
                      min_size=1).map(tuple))
_TREES = st.recursive(_LEAVES, lambda kids: st.lists(kids).map(tuple),
                      max_leaves=20)


@given(_TREES, st.sampled_from([1, 2, 4]))
@example((True, 1), 1)
@example(((1, 2), ()), 2)
@example(((1,), (False,)), 4)
@example(("é", ("ü\n\"", float("nan"), float("inf"), float("-inf"), 1.5,
                -0.0)), 1)
@settings(max_examples=200)
def test_writer_matches_json_dumps(x, k):
    assert _dumps(x, "", " " * k) == json.dumps(x, indent=k)


# The writer takes report objects (scalars, tuples, Fractions, enums,
# dataclasses) only; what the encoder never writes is refused, plain JSON
# data too.
@pytest.mark.parametrize("x", [{1: 2}, {1, 2}, object(), [1, {2}], {"a": 1},
                               [1], 1j])
def test_writer_rejects_what_the_encoder_never_writes(x):
    with pytest.raises(TypeError):
        _dumps(x, "", " ")


@pytest.mark.parametrize("x", [
    (1, 2), ((3, 4), ()), F(1, 2), Family.CYCLIC, canonical_cyclic(3, 5),
    GroupSpec.cyclic(3, 5), GroupSpec.dihedral(5, 2),
], ids=repr)
@pytest.mark.parametrize("k", [1, 2, 4])
def test_writer_renders_report_objects_as_the_encoder(x, k):
    assert report_to_json(x, k) == json.dumps(encode(x), indent=k)


def test_graph_matrix_matches_the_list_route(monkeypatch):
    import u2sing.report as report
    from u2sing.errors import CrossCheckFailure

    # The writer draws a graph's matrix from its weights and edges; the
    # reference encoder builds intersection_matrix().  Every chain
    # L(q, 200), up to 199 x 199, the one-vertex chain of L(1, 7), and the
    # three-arm stars.
    graphs = [describe(GroupSpec.cyclic(q, 200)).resolution
              for q in range(1, 200) if math.gcd(q, 200) == 1]
    assert max(g.vertex_count for g in graphs) == 199
    one = describe(GroupSpec.cyclic(1, 7)).resolution
    assert one.vertex_count == 1
    graphs.append(one)
    for spec, eta in REPORT_CASES:
        r = describe(spec, eta=eta)
        if r.compactification is not None:
            assert len(r.resolution.arms) == len(r.compactification.star.arms) == 3
            graphs += [r.resolution, r.compactification.star]
    # A report whose b_Gamma failed keeps the default one-vertex graph.
    def b_gamma(spec, triple):
        raise CrossCheckFailure("injected")

    monkeypatch.setattr(report, "b_gamma", b_gamma)
    failed = describe(GroupSpec.dihedral(1, 2))
    assert not failed.all_passed()
    assert failed.resolution == PlumbingGraph(0, ())
    graphs.append(failed.resolution)
    for g in graphs:
        for k in (1, 2, 4):
            assert report_to_json(g, k) == json.dumps(encode(g), indent=k), \
                (g, k)


def test_report_text_matches_json_dumps():
    config = SweepConfig(families=(Family.CYCLIC,), p_max=60)
    cases = [(spec, None) for spec in specs_in_sweep(config)] + REPORT_CASES
    for spec, eta in cases:
        r = describe(spec, eta=eta)
        d = encode(r)
        for k in (1, 2):
            assert report_to_json(r, indent=k) == json.dumps(d, indent=k), \
                (spec.label(), k)
        for key in ("resolution", "compactification"):
            assert report_to_json(getattr(r, key)) == \
                json.dumps(d[key], indent=2)


# -- DOT export -------------------------------------------------------------

def test_export_dot_counts():
    r = describe(GroupSpec.dihedral(1, 2))
    res = export_dot(r, "resolution")
    assert res.count("label") == 4
    full = export_dot(r, "compactification")
    assert full.count("label") == 8           # kappa + 1 = 8 curves
    chain = export_dot(describe(GroupSpec.cyclic(3, 5)), "resolution")
    assert chain.count("label") == 2 and chain.count("--") == 1


# -- sweep configuration ----------------------------------------------------

def test_specs_in_sweep_counts():
    cfg = SweepConfig(m_max=10, n_max=4, p_max=12)
    specs = list(specs_in_sweep(cfg))
    labels = [s.label() for s in specs]
    assert len(labels) == len(set(labels))
    cyclic = [s for s in specs if s.family is Family.CYCLIC]
    # sum of euler phi over 2..12
    assert len(cyclic) == sum(1 for p in range(2, 13) for q in range(1, p)
                              if math.gcd(q, p) == 1)
    assert GroupSpec.dihedral(9, 2) in specs
    assert GroupSpec.index3(9) in specs


def _reference_specs(config):
    """The earlier generator, with each family's coprimality condition
    written into its loops: the reference for specs_in_sweep's order and
    content."""
    fams = set(config.families)
    ms, ns = range(1, config.m_max + 1), range(1, config.n_max + 1)
    if Family.DIHEDRAL in fams:
        yield from (GroupSpec.dihedral(m, n) for n in ns for m in ms[::2]
                    if math.gcd(m, 2 * n) == 1)
    if Family.INDEX2 in fams:
        yield from (GroupSpec.index2(m, n) for n in ns for m in ms[1::2]
                    if math.gcd(m, n) == 1)
    for family, modulus in ((Family.TETRAHEDRAL, 6), (Family.OCTAHEDRAL, 6),
                            (Family.ICOSAHEDRAL, 30)):
        if family in fams:
            yield from (GroupSpec(family, m=m) for m in ms
                        if math.gcd(m, modulus) == 1)
    if Family.INDEX3 in fams:
        yield from map(GroupSpec.index3, ms[2::6])
    if Family.CYCLIC in fams:
        yield from (GroupSpec.cyclic(q, p) for p in range(2, config.p_max + 1)
                    for q in range(1, p) if math.gcd(q, p) == 1)


SWEEP_CONFIGS = pytest.mark.parametrize("config", [
    SweepConfig(),
    SweepConfig(families=(Family.DIHEDRAL,), m_max=41, n_max=9),
    SweepConfig(families=(Family.INDEX3,), m_max=200),
    SweepConfig(families=(Family.CYCLIC,), p_max=57),
], ids=["default", "dihedral", "index3", "cyclic"])


@SWEEP_CONFIGS
def test_specs_in_sweep_match_the_reference(config):
    assert list(specs_in_sweep(config)) == list(_reference_specs(config))


@SWEEP_CONFIGS
def test_the_sweep_condition_refuses_what_the_constructor_refuses(config):
    # Every candidate within the bounds: one that its family's condition
    # refuses makes the constructor raise with the family's rule text, and
    # one it admits is built; the built ones are the sweep's specs.
    ranges = {"m": range(1, config.m_max + 1),
              "n": range(1, config.n_max + 1)}
    built, refused = [], 0
    for family in config.families:
        rules = catalog.FAMILIES[family]
        if family is Family.CYCLIC:
            candidates = [(q, p) for p in range(2, config.p_max + 1)
                          for q in range(1, p)]
        else:
            candidates = itertools.product(*map(ranges.get, rules.params))
        for args in candidates:
            params = dict(zip(rules.params, args))
            if rules.holds(*args):
                built.append(GroupSpec(family, **params))
                continue
            label = rules.label.format(SimpleNamespace(**params))
            with pytest.raises(InvalidParameters) as refusal:
                GroupSpec(family, **params)
            assert str(refusal.value) == f"{label}: {rules.rule}"
            refused += 1
    specs = list(specs_in_sweep(config))
    assert refused and len(specs) == len(built)
    assert set(specs) == set(built)


def test_a_candidate_refused_for_another_reason_is_skipped(monkeypatch):
    # specs_in_sweep builds each candidate that its condition admits, and
    # skips one whose constructor refuses it all the same.
    real = GroupSpec.cyclic

    def cyclic(q, p):
        if p == 5:
            raise InvalidParameters("refused for another reason")
        return real(q, p)

    monkeypatch.setattr(GroupSpec, "cyclic", staticmethod(cyclic))
    specs = list(specs_in_sweep(SweepConfig(families=(Family.CYCLIC,),
                                            p_max=7)))
    assert [s.p for s in specs] == [2, 3, 3, 4, 4, 6, 6] + [7] * 6


def test_default_sweep_keys_digest():
    # The order and population of the default sweep, pinned by the SHA-256
    # of its keys, one a line.
    keys = "\n".join(s.key() for s in specs_in_sweep(SweepConfig()))
    assert hashlib.sha256(keys.encode()).hexdigest() == (
        "0784d3de5029002cf4f423259a454ce6d6e7701bfacb5512219f2a531ac0967e")


def test_sweep_config_validation():
    with pytest.raises(InvalidParameters):
        SweepConfig(m_max=0).validate()


def test_empty_sweep_vacuous():
    cfg = SweepConfig(families=(Family.INDEX3,), m_max=2)   # no valid m
    summary = verify(cfg)
    assert summary.specs_processed == 0
    assert summary.exit_code == 0
    assert summary.warnings


def test_verify_checks_the_global_identities_to_the_fixed_bounds(
        monkeypatch):
    # HJ_P_MAX and EISENSTEIN_N_MAX are read when verify calls the checks;
    # no config sets them.
    bounds = {}
    monkeypatch.setattr(sweep, "check_hj_roundtrip",
                        lambda summary, p_max: bounds.update(hj=p_max))
    monkeypatch.setattr(sweep, "check_eisenstein",
                        lambda summary, n_max: bounds.update(eisenstein=n_max))
    verify(SweepConfig(families=(Family.INDEX3,), m_max=3))
    assert bounds == {"hj": 500, "eisenstein": 200}


def test_small_sweep_passes(small_global_bounds):
    cfg = SweepConfig(m_max=7, n_max=3, p_max=10)
    summary = verify(cfg)
    assert summary.exit_code == 0, summary.failures[:5]
    assert summary.specs_processed > 0


def test_absurd_tolerance_fails(monkeypatch, small_global_bounds):
    # double precision cannot meet 1e-15: with the threshold patched where
    # the character sum and the Eisenstein check read it, both failures
    # are recorded and the sweep runs to its end
    import u2sing.invariants as invariants
    import u2sing.sweep as sweep
    for module in (invariants, sweep):
        monkeypatch.setattr(module, "DEFAULT_TOLERANCE", 1e-15)
    monkeypatch.setattr(sweep, "EISENSTEIN_N_MAX", 50)
    cfg = SweepConfig(families=(Family.TETRAHEDRAL,), m_max=7)
    summary = verify(cfg)
    assert summary.exit_code == 1
    assert summary.specs_processed == 3
    failed = {name for _, name, _ in summary.failures}
    assert failed == {"deformation_triple_agreement", "eisenstein_identity"}


def test_a_threshold_past_the_row_margin_moves_the_reference_alone(
        monkeypatch):
    # Only the reference rows read the threshold.  Over the 12,231 lens
    # specs of the default sweep every element but the identity has its
    # eigenvalues at least 2 sin(pi/200) = 3.1e-2 from 1 on the rows, least
    # at p = 200.  In L(187, 200) four elements have an eigenvalue that
    # close: a threshold of 4e-2 makes the row count take them, and the
    # exact count on the turns, which reads no threshold, does not.
    spec = GroupSpec.cyclic(187, 200)
    monkeypatch.setattr(catalog, "DEFAULT_TOLERANCE", 4e-2)
    assert lens_rows(spec).eigenvalue_one_count() == 5
    check, = (c for c in describe(spec).checks
              if c.name == "fixed_point_free")
    assert check.passed and check.detail == "1 element(s) with eigenvalue 1"


def test_a_complex_reflection_fails_the_exact_freeness_count(monkeypatch):
    # index2(2, 3) with the diagonal generator [e^{i pi/4}, jhat], declared
    # as (1, 6), replaced by [i, jhat], (2, 6): still on the pi/4 grid and
    # in D*12, and the group it makes has the table order 24, but [i, jhat]
    # has eigenvalue 1.  The exact witness count on labels names the seven
    # elements that do, as its modulo reference, the float count on the
    # group's rows and its angle reference do.
    spec = GroupSpec.index2(2, 3)
    real = catalog._declared

    def mutant(s):
        n, gens = real(s)
        if s == spec:
            assert gens[2] == (1, 6)
            gens[2] = (2, 6)
        return n, gens

    monkeypatch.setattr(catalog, "_declared", mutant)
    assert abs(catalog.generators_of(spec)[2, 0] - 1j) < 1e-15
    group = catalog.enumerate_group(spec)
    assert isinstance(group, catalog.Labels) and group.order == 24
    assert group.eigenvalue_one_count() == modulo_eigenvalue_one_count(
        group) == 7
    rows = RowGroup(rows_of(group))
    assert rows.eigenvalue_one_count() == angle_eigenvalue_one_count(rows) == 7
    checks = {c.name: c for c in describe(spec).checks}
    assert checks["order_matches_table"].passed
    assert not checks["fixed_point_free"].passed
    assert checks["fixed_point_free"].detail == "7 element(s) with eigenvalue 1"


_NO_FLOAT_CASES = [
    *((spec, False) for spec in (
        GroupSpec.dihedral(5, 4), GroupSpec.tetrahedral(7),
        GroupSpec.octahedral(5), GroupSpec.icosahedral(7),
        GroupSpec.index2(4, 3), GroupSpec.index3(9), GroupSpec.dihedral(5, 1),
        GroupSpec.index2(4, 1))),
    *((spec, True) for spec in (
        GroupSpec.dihedral(5, 4), GroupSpec.index2(4, 3),
        GroupSpec.dihedral(5, 1), GroupSpec.index2(4, 1)))]


@pytest.mark.parametrize("spec,cold", _NO_FLOAT_CASES,
                         ids=[spec.key() + "-cold" * cold
                              for spec, cold in _NO_FLOAT_CASES])
def test_the_non_cyclic_resolution_reads_no_float(spec, cold, monkeypatch,
                                                  request):
    # A non-cyclic group is its labels: its order, freeness, lens type
    # (n = 1), pole types and eigenvalue tables are read exactly, so no
    # eigen data of a row group is read on the way to the resolution.  Its
    # generators are declared as labels, and D*_4n is a formula on them:
    # from empty caches, a dihedral or index-2 spec is resolved with no row
    # keyed, no angle snapped and no generator row evaluated.
    from u2sing.report import resolve

    def refuse(*args):
        raise AssertionError("a float was read")

    monkeypatch.setattr(catalog.FiniteGroup, "eigen_data", refuse)
    with monkeypatch.context() as patch:
        if cold:
            request.getfixturevalue("fresh_caches")
            for name in ("_row_keys", "_snap_residue", "generators_of"):
                patch.setattr(catalog, name, refuse)
        report = resolve(spec)
    assert report.checks and report.all_passed(), report.checks
    summary = VerifySummary()
    check_eigenvalue_tables(summary)
    assert summary.passed_failed("eigenvalue_tables") == (3, 0)


@pytest.mark.parametrize("spec", [
    GroupSpec.cyclic(1, 2), GroupSpec.cyclic(3, 7), GroupSpec.cyclic(7, 16),
    GroupSpec.cyclic(187, 200), GroupSpec.cyclic(5, 100002),
    GroupSpec.cyclic(5, 100003)], ids=GroupSpec.key)
def test_the_lens_resolution_reads_no_float(spec, monkeypatch):
    # A lens group is its exact turns: with the catalog's float threshold,
    # key grid and sign tolerance absurd, and no row to be built, resolve
    # passes every check, also past the sweep's p <= 200.  The enumerated
    # group has order p, is free and is the lens space of the spec.
    from u2sing.report import resolve

    def refuse(*args):
        raise AssertionError("a float row was built")

    for name, value in (("DEFAULT_TOLERANCE", 3.0), ("KEY_SCALE", 1e-9),
                        ("EQ_TOL", 2.0)):
        monkeypatch.setattr(catalog, name, value)
    monkeypatch.setattr(catalog, "_row", refuse)
    report = resolve(spec)
    assert report.checks and report.all_passed(), report.checks
    group = catalog.enumerate_group(spec)
    assert group.order == spec.p and catalog.is_fixed_point_free(group)
    assert catalog.cyclic_equivalent_type(group).conj_key() \
        == canonical_cyclic(spec.q, spec.p).conj_key()


def test_eta_table_in_sweep(small_global_bounds):
    spec = GroupSpec.icosahedral(1)
    eq = table_topology(spec).implied_eta
    cfg = SweepConfig(families=(Family.ICOSAHEDRAL,), m_max=1,
                      eta={spec.key(): eq})
    summary = verify(cfg)
    assert summary.exit_code == 0
    assert summary.counts[("eta_bound", True)] == 1


def test_eta_keys_that_no_check_reads_are_named_in_one_warning(
        small_global_bounds):
    # a misspelt key, and a cyclic key outside the sweep (a cyclic spec
    # has no eta_bound check in any case)
    eta = {"tetrahedal_m1": F(-49, 36), "cyclic_q1_p5": F(1, 5),
           "tetrahedral_m1": F(-49, 36)}
    cfg = SweepConfig(families=(Family.TETRAHEDRAL,), m_max=1, eta=eta)
    summary = verify(cfg)
    assert summary.exit_code == 0
    assert summary.counts[("eta_bound", True)] == 1
    assert summary.warnings == ["no eta_bound check read the eta value of "
                                "cyclic_q1_p5, tetrahedal_m1"]
    cfg.eta = {"tetrahedral_m1": F(-49, 36)}
    assert verify(cfg).warnings == []


def test_record_report_records_the_label_with_every_check():
    report = describe(GroupSpec.dihedral(3, 2))
    failing = dataclasses.replace(report, checks=tuple(
        dataclasses.replace(c, passed=False) for c in report.checks))
    summary = VerifySummary()
    summary.record_report(failing)
    assert summary.failures == [("dihedral(m=3,n=2)", c.name, c.detail)
                                for c in report.checks]
    assert len(summary.failures) > 10


def test_verify_isolates_a_crashing_spec(monkeypatch, small_global_bounds):
    import u2sing.sweep as sweep
    real, bad = sweep.describe, GroupSpec.dihedral(3, 2)
    seen = []

    def describe(spec, **kwargs):
        seen.append(spec.key())
        if spec == bad:
            raise AssertionError("integer matrix with non-integer determinant")
        return real(spec, **kwargs)

    monkeypatch.setattr(sweep, "describe", describe)
    cfg = SweepConfig(families=(Family.DIHEDRAL,), m_max=7, n_max=2)
    keys = [s.key() for s in specs_in_sweep(cfg)]
    assert bad.key() in keys and len(keys) > 2
    summary = verify(cfg)
    assert seen == keys and summary.specs_processed == len(keys)
    assert summary.exit_code == 1
    assert [(label, name) for label, name, _ in summary.failures] == \
        [(bad.label(), "describe")]
    detail = summary.failures[0][2]
    assert detail.startswith("AssertionError: integer matrix")
    assert detail.endswith("in describe)")
    # the crashed spec's one record is its describe check
    assert summary.counts[("order_matches_table", True)] == len(keys) - 1


def test_verify_isolates_a_failing_enumeration(monkeypatch,
                                                small_global_bounds):
    import u2sing.sweep as sweep
    from u2sing.errors import ClosureOverflow
    real, bad = sweep.enumerate_group, GroupSpec.dihedral(3, 2)
    seen = []

    def enumerate_group(spec):
        seen.append(spec.key())
        if spec == bad:
            raise ClosureOverflow("closure exceeded 48 elements (expected 24)")
        return real(spec)

    monkeypatch.setattr(sweep, "enumerate_group", enumerate_group)
    cfg = SweepConfig(families=(Family.DIHEDRAL,), m_max=7, n_max=2)
    keys = [s.key() for s in specs_in_sweep(cfg)]
    assert bad.key() in keys and len(keys) > 2
    summary = verify(cfg)
    # every spec in order, then the eigenvalue tables' T*, O*, I*
    assert seen == keys + ["tetrahedral_m1", "octahedral_m1", "icosahedral_m1"]
    assert summary.specs_processed == len(keys)
    assert summary.exit_code == 1
    assert [(label, name) for label, name, _ in summary.failures] == [
        (bad.label(), "describe")]
    detail = summary.failures[0][2]
    assert detail.startswith("ClosureOverflow: closure exceeded 48 elements")
    assert detail.endswith("in enumerate_group)")
    assert summary.passed_failed("order_matches_table") == (len(keys) - 1, 0)
    assert summary.passed_failed("fixed_point_free") == (len(keys) - 1, 0)
    assert summary.passed_failed("describe") == (0, 1)


def test_verify_goes_on_when_freeness_raises_again(monkeypatch,
                                                   small_global_bounds):
    from u2sing.catalog import Labels
    real = Labels.eigenvalue_one_count

    def eigenvalue_one_count(group):
        if group.order == 72:
            raise RuntimeError("injected")
        return real(group)

    monkeypatch.setattr(Labels, "eigenvalue_one_count", eigenvalue_one_count)
    summary = verify(SweepConfig(families=(Family.INDEX3,), m_max=9))
    assert summary.specs_processed == 2         # index3(3), of order 72, and (9)
    # freeness raises inside describe, and verify does not call it again
    bad = GroupSpec.index3(3).label()
    assert [(label, name) for label, name, _ in summary.failures] == [
        (bad, "describe")]
    assert summary.failures[0][2].startswith("RuntimeError: injected")
    assert summary.passed_failed("order_matches_table") == (1, 0)
    assert summary.passed_failed("fixed_point_free") == (1, 0)


def _another_lens_generator(monkeypatch):
    """Patch the declared lens turns (``catalog._lens_turns``) so that each
    lens spec L(q, p) gets the generator of L(q', p), q' the least unit mod
    p other than q and q^-1, where there is one (every p > 2)."""
    real = catalog._lens_turns

    def mutant(spec):
        q, p = spec.q, spec.p
        units = [u for u in range(1, p) if math.gcd(u, p) == 1
                 and u not in (q, pow(q, -1, p))]
        return real(GroupSpec.cyclic(units[0], p) if units else spec)
    monkeypatch.setattr(catalog, "_lens_turns", mutant)


LENS_30 = SweepConfig(families=(Family.CYCLIC,), p_max=30)


def test_the_other_lens_generator_builds_another_lens_space(monkeypatch):
    # the mutant of the test below reaches the enumeration: 276 of the 277
    # lens specs with p <= 30 enumerate a group of another type
    _another_lens_generator(monkeypatch)
    specs = list(specs_in_sweep(LENS_30))
    moved = [s for s in specs if catalog.cyclic_equivalent_type(
        catalog.enumerate_group(s)).conj_key()
        != canonical_cyclic(s.q, s.p).conj_key()]
    assert (len(specs), len(moved)) == (277, 276)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item D: a lens spec's resolution is built from the spec, and "
    "no check reads the type of its enumerated group"))
def test_a_lens_spec_enumerating_another_lens_space_fails(
        monkeypatch, small_global_bounds):
    _another_lens_generator(monkeypatch)
    assert verify(LENS_30).exit_code == 1


def test_verify_checks_freeness_once_per_spec(monkeypatch,
                                              small_global_bounds):
    import u2sing.report as report
    checked = []

    def counted(group, real=report.is_fixed_point_free):
        checked.append(group.order)
        return real(group)
    monkeypatch.setattr(report, "is_fixed_point_free", counted)
    cfg = SweepConfig(families=(Family.DIHEDRAL, Family.CYCLIC), m_max=5,
                      n_max=2, p_max=5)
    summary = verify(cfg)
    assert summary.exit_code == 0
    assert len(checked) == summary.specs_processed
    assert summary.passed_failed("fixed_point_free") == (len(checked), 0)


def _mask_residual(text: bytes) -> bytes:
    """The report bytes with the character sum's residual masked, in its
    field and in the check detail: its last bits depend on the NumPy build."""
    text = re.sub(rb'("residual": )[^,\n]+', rb"\1null", text)
    return re.sub(rb"residual [-+.e0-9]+", b"residual ?", text)


# The SHA-256 of the masked reports, in sweep order.  After an intended
# change to the report bytes, regenerate it from this test's hash.
SLICE_SHA256 = (Path(__file__).parent / "sweep_slice.sha256").read_text().strip()


def test_a_wrong_eigenvalue_table_entry_fails(monkeypatch):
    import u2sing.sweep as sweep

    table = {**sweep._TABLE_T, ("1/4", "3/4"): 5}           # T* has 6
    monkeypatch.setattr(sweep, "_TABLE_T", table)
    summary = VerifySummary()
    check_eigenvalue_tables(summary)
    assert summary.passed_failed("eigenvalue_tables") == (2, 1)
    assert summary.failures[0][:2] == ("tetrahedral(m=1)", "eigenvalue_tables")


def test_the_eigenvalue_table_detail_does_not_depend_on_the_listing(
        monkeypatch):
    # T* listed in reverse, identity first, fails with the detail of the
    # forward listing: the entries are written in angle order.
    from u2sing.catalog import Labels

    monkeypatch.setattr(sweep, "_TABLE_T",
                        {**sweep._TABLE_T, ("1/4", "3/4"): 5})
    details = []
    for listing in (lambda i: i, lambda i: np.r_[i[:1], i[:0:-1]]):
        def enumerate_group(spec, listing=listing):
            g = catalog.enumerate_group(spec)
            i = listing(np.arange(g.order))
            return Labels(g.k[i], g.j[i], g.gstar, g.n)
        monkeypatch.setattr(sweep, "enumerate_group", enumerate_group)
        summary = VerifySummary()
        check_eigenvalue_tables(summary)
        (label, _, detail), = summary.failures
        assert label == "tetrahedral(m=1)"
        details.append(detail)
    assert details[0] == details[1]


def test_a_wrong_expected_kappa_fails(monkeypatch):
    import u2sing.sweep as sweep

    (spec, kappa), *rest = sweep._KAPPA_SPOTS
    monkeypatch.setattr(sweep, "_KAPPA_SPOTS", ((spec, kappa + 1), *rest))
    summary = VerifySummary()
    check_kappa_spots(summary)
    assert summary.passed_failed("kappa_spot_values") == (2, 1)
    assert summary.failures == [(spec.label(), "kappa_spot_values",
                                 f"kappa = {kappa}, expected {kappa + 1}")]


def test_sweep_slice_report_bytes(tmp_path, small_global_bounds):
    config = SweepConfig(m_max=25, n_max=4, p_max=40, out_dir=str(tmp_path))
    assert verify(config).exit_code == 0
    assert len(list(tmp_path.iterdir())) == 586
    digest = hashlib.sha256()
    for spec in specs_in_sweep(config):
        digest.update(_mask_residual((tmp_path / f"{spec.key()}.json").read_bytes()))
    assert digest.hexdigest() == SLICE_SHA256


def test_verify_deterministic(small_global_bounds):
    cfg = dict(families=(Family.INDEX3, Family.TETRAHEDRAL), m_max=9)
    a = verify(SweepConfig(**cfg))
    b = verify(SweepConfig(**cfg))
    assert a.counts == b.counts and a.failures == b.failures


def test_verify_writes_reports(tmp_path, small_global_bounds):
    cfg = SweepConfig(families=(Family.INDEX3,), m_max=9,
                      out_dir=str(tmp_path))
    summary = verify(cfg)
    assert summary.exit_code == 0
    files = sorted(p.name for p in tmp_path.glob("*.json"))
    assert files == ["index3_m3.json", "index3_m9.json"]
    data = json.loads((tmp_path / "index3_m3.json").read_text())
    assert data["order"] == 72


def test_verify_replaces_a_longer_report(tmp_path, small_global_bounds):
    # Every report file already holds its report and 10 kB more: each is
    # overwritten in place and then cut to the new report.
    cfg = SweepConfig(families=(Family.INDEX3, Family.CYCLIC), m_max=9,
                      p_max=7, out_dir=str(tmp_path))
    texts = {f"{spec.key()}.json": report_to_json(describe(spec), indent=1)
             for spec in specs_in_sweep(cfg)}
    for name, text in texts.items():
        (tmp_path / name).write_text(text + " " * 10_000)
    assert verify(cfg).exit_code == 0
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == texts


def test_verify_overwrites_a_shorter_report(tmp_path,
                                            small_global_bounds):
    # Every report file already holds the first half of its report: each
    # must end up exactly the new report, with no stale or missing byte.
    cfg = SweepConfig(families=(Family.INDEX3, Family.CYCLIC), m_max=9,
                      p_max=7, out_dir=str(tmp_path))
    texts = {f"{spec.key()}.json": report_to_json(describe(spec), indent=1)
             for spec in specs_in_sweep(cfg)}
    for name, text in texts.items():
        (tmp_path / name).write_text(text[:len(text) // 2])
    assert verify(cfg).exit_code == 0
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == texts


@pytest.mark.parametrize("argv, written", [
    (["verify", "--families", "index3", "--m-max", "9", "--out", "{}"],
     ["index3_m3.json", "index3_m9.json"]),
    (["describe", "--family", "index3", "--m", "3", "--format", "json",
      "--out", "{}"], ["index3_m3.json"]),
    (["export", "--family", "index3", "--m", "3", "--out", "{}/g.dot"],
     ["g.dot"]),
], ids=["verify", "describe", "export"])
def test_no_output_file_is_opened_with_o_trunc(tmp_path, monkeypatch, argv,
                                              written):
    # On ext4 a truncate to size 0 makes close() start a writeback of the
    # file, so every output file is written in place instead.
    real, flags = os.open, []

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    assert main([a.format(tmp_path) for a in argv]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == written
    assert len(flags) == len(written)
    assert not any(f & os.O_TRUNC for f in flags)


def test_verify_removes_the_report_of_a_spec_whose_describe_raised(
        tmp_path, monkeypatch, small_global_bounds):
    # A re-run into the same folder must not leave the first run's passing
    # report for a spec that now fails; the other reports are rewritten.
    cfg = SweepConfig(families=(Family.CYCLIC,), p_max=5,
                      out_dir=str(tmp_path))
    assert verify(cfg).exit_code == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real, bad = sweep.describe, GroupSpec.cyclic(2, 5)

    def describe(spec, **kwargs):
        if spec == bad:
            raise AssertionError("injected")
        return real(spec, **kwargs)

    monkeypatch.setattr(sweep, "describe", describe)
    del before[f"{bad.key()}.json"]
    for _ in range(2):              # the second time there is no file
        assert verify(cfg).exit_code == 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_verify_writes_a_report_whole_through_short_writes(
        tmp_path, monkeypatch, small_global_bounds):
    # The largest report of the default sweep, L(199, 200), about 280 kB,
    # written 1,000 bytes at most per call.
    spec, real, sizes = GroupSpec.cyclic(199, 200), os.write, []

    def short_write(fd, data):
        sizes.append(real(fd, data[:1000]))
        return sizes[-1]

    monkeypatch.setattr(sweep, "specs_in_sweep", lambda config: iter([spec]))
    monkeypatch.setattr(os, "write", short_write)
    cfg = SweepConfig(families=(Family.CYCLIC,), out_dir=str(tmp_path))
    assert verify(cfg).exit_code == 0
    text = report_to_json(describe(spec), indent=1)
    assert len(text) > 280_000 and len(sizes) == -(-len(text) // 1000)
    assert (tmp_path / f"{spec.key()}.json").read_text() == text


def test_a_lens_describe_builds_no_fraction(monkeypatch):
    # A lens report reads its chain's pivots by sign and its HJ round trip
    # as an integer pair: no Fraction on the way.
    real, built = F.__new__, []

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    for q in (1, 3, 7, 99, 199):
        assert describe(GroupSpec.cyclic(q, 200)).all_passed()
    assert built == []


def test_config_file_parsing(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("""
# sweep bounds
families = index3, tetrahedral
m_max = 9
eta.tetrahedral_m1 = -49/36
""")
    values = parse_config_file(path)
    cfg = config_from_mapping(values)
    assert cfg.families == (Family.INDEX3, Family.TETRAHEDRAL)
    assert cfg.m_max == 9
    assert cfg.eta == {"tetrahedral_m1": F(-49, 36)}
    # flags override the file
    values["m_max"] = 3
    assert config_from_mapping(values).m_max == 3


def test_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("this is not a key value line\n")
    with pytest.raises(InvalidParameters):
        parse_config_file(path)


# Bounds that keep a verify run that ignores its config small.
TINY = ["--m-max", "1", "--n-max", "1", "--p-max", "2"]


def test_config_rejects_an_unknown_key(tmp_path, capsys):
    with pytest.raises(InvalidParameters, match="famlies"):
        config_from_mapping({"famlies": "index3"})
    path = tmp_path / "sweep.cfg"
    path.write_text("famlies = index3\n")
    assert main(["verify", "--config", str(path), *TINY]) == 2
    assert "unknown config key 'famlies'" in capsys.readouterr().err


def test_config_rejects_an_unparsable_value(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text("m_max = abc\n")
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: config key m_max: cannot parse 'abc'\n")


def test_the_global_check_bounds_are_no_config_keys(tmp_path, monkeypatch,
                                                    capsys):
    # How far the HJ round trip and the Eisenstein identity run, and the
    # float threshold, are fixed: a config line naming any of them is an
    # unknown key, refused before the first spec.
    described = []
    monkeypatch.setattr(sweep, "describe",
                        lambda *a, **k: described.append(a))
    for key in ("hj_p_max", "eisenstein_n_max", "tolerance"):
        with pytest.raises(TypeError):
            SweepConfig(**{key: 10})
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"{key} = 1000\n")
        assert main(["verify", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith(f"error: unknown config key '{key}'")
    assert described == []


def test_verify_rejects_a_missing_config_file(tmp_path, capsys):
    path = tmp_path / "missing.cfg"
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_verify_rejects_an_unparsable_eta_in_the_config(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text("eta.tetrahedral_m1 = abc\n")
    assert main(["verify", "--config", str(path), *TINY]) == 2
    assert capsys.readouterr() == (
        "", "error: eta value 'abc' is not a fraction num/den\n")


def test_verify_rejects_an_eta_line_without_a_spec_key(tmp_path, capsys):
    # An empty spec key names no spec: refused with the file and line
    # before the sweep runs, not warned about as an unread eta value.
    path = tmp_path / "sweep.cfg"
    path.write_text("m_max = 2\neta. = 1/2\n")
    assert main(["verify", "--config", str(path), *TINY]) == 2
    assert capsys.readouterr() == ("", f"error: {path}:2: eta. names no spec "
                                   "key; expected eta.<spec_key> = value\n")


def test_verify_refuses_the_removed_eta_file_flag(tmp_path, capsys):
    # eta tables come from eta.<spec_key> config lines only: --eta-file is
    # refused as argparse refuses any unknown flag, before the sweep runs.
    path = tmp_path / "x.json"
    path.write_text('{"tetrahedral_m1": "-49/36"}')
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--families", "index3", "--m-max", "20",
              "--eta-file", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--eta-file" in err and "Traceback" not in err
    assert "enumeration time" not in err


@pytest.mark.parametrize("spec, unread", [
    (["--family", "cyclic", "--q", "3", "--p", "5"], "cyclic_q3_p5"),
    (["--family", "dihedral", "--m", "3", "--n", "1"], "dihedral_m3_n1"),
    (["--family", "tetrahedral", "--m", "1"], None),
], ids=["cyclic", "n=1", "tetrahedral"])
def test_describe_warns_of_an_eta_that_no_check_reads(spec, unread, capsys):
    # A cyclic or n = 1 spec has no eta_bound check: the value is named on
    # stderr, as verify names it, and the exit status stays 0.
    assert main(["describe", *spec, "--eta", "1/3"]) == 0
    out, err = capsys.readouterr()
    assert ("eta_bound" in out) == (unread is None)
    assert err == ("" if unread is None else
                   f"warning: no eta_bound check read the eta value of "
                   f"{unread}\n")


def test_describe_rejects_an_unparsable_eta(capsys):
    assert main(["describe", "--family", "tetrahedral", "--m", "1",
                 "--eta", "abc"]) == 2
    assert capsys.readouterr() == (
        "", "error: eta value 'abc' is not a fraction num/den\n")


@pytest.mark.parametrize("argv, err", [
    (["verify", "--families", "", *TINY],
     "error: config key families: cannot parse ''\n"),
    (["verify", "--config", "", *TINY], "error: cannot read : "),
    (["describe", "--family", "tetrahedral", "--m", "1", "--eta", ""],
     "error: eta value '' is not a fraction num/den\n"),
    (["describe", "--family", "tetrahedral", "--m", "1", "--out", ""],
     "error: cannot write : No such file or directory\n"),
    (["export", "--family", "tetrahedral", "--m", "1", "--out", ""],
     "error: cannot write : No such file or directory\n"),
    (["verify", "--out", "", *TINY],
     "error: config key out: cannot parse ''\n"),
], ids=["families", "config", "eta", "describe_out", "export_out",
        "verify_out"])
def test_an_empty_flag_value_is_refused(argv, err, capsys):
    # An empty value is a value, refused as it is in a config file: it is
    # not read as a flag left out, and an empty --out is no path to write
    # (not the current directory, not stdout).
    assert main(argv) == 2
    out, got = capsys.readouterr()
    assert out == "" and got.startswith(err)


# -- CLI --------------------------------------------------------------------

def test_cli_describe_text(capsys):
    assert main(["describe", "--family", "dihedral", "--m", "1", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "order 8" in out and "kappa = 7" in out


def test_cli_describe_json(capsys):
    assert main(["describe", "--family", "cyclic", "--q", "3", "--p", "5",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 5


def test_cli_hj(capsys):
    for argv, out in (
            (["3", "5"], "L(3,5) -> L(3,5): entries [2, 3] length 2\n"),
            (["5", "7"], "L(5,7) -> L(5,7): entries [2, 2, 3] length 3\n"),
            (["8", "5"], "L(8,5) -> L(3,5): entries [2, 3] length 2\n"),  # q mod p
            (["0", "1"], "L(0,1) -> L(0,1): entries [] length 0\n")):
        assert main(["hj", *argv]) == 0
        assert capsys.readouterr().out == out


def test_cli_resolve_dot(capsys):
    assert main(["resolve", "--family", "index3", "--m", "3",
                 "--format", "dot"]) == 0
    assert capsys.readouterr().out.count("label") == 5


def test_cli_compactify(capsys):
    assert main(["compactify", "--family", "dihedral", "--m", "1",
                 "--n", "3"]) == 0
    assert "kappa = 8" in capsys.readouterr().out


def test_cli_export(tmp_path, capsys):
    out = tmp_path / "d4.dot"
    assert main(["export", "--family", "dihedral", "--m", "1", "--n", "2",
                 "--what", "compactification", "--out", str(out)]) == 0
    assert out.read_text().count("label") == 8


def test_cli_export_fails_with_a_failing_check(tmp_path, monkeypatch, capsys):
    import dataclasses

    import u2sing.cli as cli
    from u2sing.report import CheckResult, resolve

    def failing(spec):
        report = resolve(spec)
        return dataclasses.replace(report, checks=report.checks + (
            CheckResult("injected", False, "made to fail"),))

    monkeypatch.setattr(cli, "resolve", failing)
    out = tmp_path / "d4.dot"
    assert main(["export", "--family", "dihedral", "--m", "1", "--n", "2",
                 "--out", str(out)]) == 1
    assert out.read_text().count("label") == 4      # the file is still written


def test_cli_verify_small(capsys):
    assert main(["verify", "--families", "index3", "--m-max", "9"]) == 0
    out = capsys.readouterr().out
    assert "exit status: 0" in out


@pytest.mark.parametrize("argv, text", [
    (["describe", "--family", "tetrahedral", "--m", "1", "--n", "5"],
     "tetrahedral takes no --n"),
    (["describe", "--family", "tetrahedral", "--m", "1", "--n", "5",
      "--q", "3"], "tetrahedral takes no --n, --q"),
    (["resolve", "--family", "cyclic", "--q", "3", "--p", "5", "--m", "1"],
     "cyclic takes no --m"),
    (["compactify", "--family", "dihedral", "--m", "1", "--n", "3",
      "--p", "2"], "dihedral takes no --p"),
    (["describe", "--family", "cyclic", "--q", "3"], "cyclic needs --p"),
    (["describe", "--family", "cyclic"], "cyclic needs --q and --p"),
    (["describe", "--family", "index2", "--m", "2"], "index2 needs --n"),
    (["describe", "--family", "dihedral", "--n", "2"], "dihedral needs --m"),
])
def test_cli_names_the_flags_the_family_lacks_or_does_not_take(argv, text,
                                                               capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {text}\n")


def _unwritable_out(tmp_path):
    existing = tmp_path / "file"
    existing.write_text("")
    missing = tmp_path / "no-dir" / "x.dot"
    return [
        (["verify", "--families", "index3", "--m-max", "3"], existing,
         "File exists"),
        (["describe", "--family", "index3", "--m", "3", "--format", "json"],
         existing, "File exists"),
        (["export", "--family", "index3", "--m", "3"], missing,
         "No such file or directory"),
    ]


def test_an_unwritable_out_is_a_usage_error(tmp_path, monkeypatch, capsys):
    import u2sing.sweep as sweep
    described = []
    monkeypatch.setattr(sweep, "describe",
                        lambda *a, **k: described.append(a))
    for argv, path, reason in _unwritable_out(tmp_path):
        assert main([*argv, "--out", str(path)]) == 2, argv
        assert capsys.readouterr() == (
            "", f"error: cannot write {path}: {reason}\n"), argv
    assert described == []          # verify refused before its first spec


def test_verify_prints_its_wall_times_on_stderr(capsys):
    argv = ["verify", "--families", "index3", "--m-max", "9"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        outs.append(out)
        assert re.fullmatch(r"enumeration time: \S+s, total: \S+s\n", err)
    assert outs[0] == outs[1] and "time" not in outs[0]


def test_cli_usage_errors(capsys):
    assert main(["describe", "--family", "dihedral", "--m", "2", "--n", "2"]) == 2
    assert main(["describe", "--family", "cyclic"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["describe"])          # missing --family
    assert exc.value.code == 2


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("families = index3\nm_max = 9\n")
    assert main(["verify", "--config", str(cfg)]) == 0
