"""Report assembly, JSON round trips, the sweep harness, and the CLI."""

import dataclasses
import hashlib
import json
import math
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import u2sing.catalog as catalog
from u2sing.catalog import Family, GroupSpec, canonical_cyclic
from u2sing.cli import main
from u2sing.errors import InvalidParameters
from u2sing.invariants import DeformationReport, TopologyReport
from u2sing.report import (CheckResult, CompactificationSection,
                           InvariantReport, _dumps, describe, export_dot,
                           json_text, report_from_dict, report_from_json,
                           report_to_dict, report_to_json)
from u2sing.resolution import PlumbingGraph
from u2sing.sweep import (SweepConfig, VerifySummary, check_eigenvalue_tables,
                          check_kappa_spots, config_from_mapping,
                          parse_config_file, specs_in_sweep, verify)

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
    # exists checks nothing again.  A cyclic describe builds one spec, the
    # chain of its lens type.
    real, calls = GroupSpec.__post_init__, []
    monkeypatch.setattr(GroupSpec, "__post_init__",
                        lambda self: calls.append(self) or real(self))
    for spec in (GroupSpec.dihedral(5, 2), GroupSpec.icosahedral(7)):
        calls.clear()
        assert describe(spec).all_passed()
        assert calls == []
    spec = GroupSpec.cyclic(3, 7)
    calls.clear()
    assert describe(spec).all_passed()
    assert calls == [spec]      # a second, equal spec: the chain's


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
    assert d["checks"][-1]["detail"] == "resolution_geometry: injected"


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


def test_a_degenerate_group_with_no_lens_type_is_a_failing_check(monkeypatch):
    import u2sing.report as report

    monkeypatch.setattr(report, "cyclic_equivalent_type", lambda group: None)
    r = describe(GroupSpec.dihedral(3, 1))
    assert r.degenerate_cyclic and r.order == 12
    assert [c.name for c in r.checks if not c.passed] == ["degenerate_cyclic_flag"]
    assert (r.singularities, r.hj_strings, r.compactification) == (None, (), None)
    config = SweepConfig(families=(Family.DIHEDRAL,), m_max=5, n_max=1,
                         hj_p_max=10, eisenstein_n_max=10)
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


# -- the JSON writer --------------------------------------------------------

_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text() | st.lists(st.integers())
           | st.lists(st.lists(st.integers(), min_size=1), min_size=1))
_TREES = st.recursive(
    _LEAVES, lambda kids: st.lists(kids) | st.dictionaries(st.text(), kids),
    max_leaves=20)


@given(_TREES, st.sampled_from([1, 2, 4]))
@example([True, 1], 1)
@example([[1, 2], []], 2)
@example([[1], [False]], 4)
@example({"é": ["ü\n\"", float("nan"), float("-inf"), 1.5, -0.0]}, 1)
@settings(max_examples=200)
def test_writer_matches_json_dumps(x, k):
    assert _dumps(x, "", " " * k) == json.dumps(x, indent=k)


@pytest.mark.parametrize("x", [(1, 2), {1: 2}, F(1, 2), [1, (2,)]])
def test_writer_rejects_what_the_encoder_never_writes(x):
    with pytest.raises(TypeError):
        _dumps(x, "", " ")


def test_report_text_matches_json_dumps():
    config = SweepConfig(families=(Family.CYCLIC,), p_max=60)
    cases = [(spec, None) for spec in specs_in_sweep(config)] + REPORT_CASES
    for spec, eta in cases:
        r = describe(spec, eta=eta)
        d = report_to_dict(r)
        assert report_to_json(r, indent=None) == json.dumps(d), spec.label()
        for k in (1, 2):
            assert report_to_json(r, indent=k) == json.dumps(d, indent=k), \
                (spec.label(), k)
        for key in ("resolution", "compactification"):
            assert json_text(d[key]) == json.dumps(d[key], indent=2)


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


@pytest.mark.parametrize("config", [
    SweepConfig(),
    SweepConfig(families=(Family.DIHEDRAL,), m_max=41, n_max=9),
    SweepConfig(families=(Family.INDEX3,), m_max=200),
    SweepConfig(families=(Family.CYCLIC,), p_max=57),
], ids=["default", "dihedral", "index3", "cyclic"])
def test_specs_in_sweep_match_the_reference(config):
    assert list(specs_in_sweep(config)) == list(_reference_specs(config))


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


def test_small_sweep_passes():
    cfg = SweepConfig(m_max=7, n_max=3, p_max=10, hj_p_max=40,
                      eisenstein_n_max=30)
    summary = verify(cfg)
    assert summary.exit_code == 0, summary.failures[:5]
    assert summary.specs_processed > 0


def test_absurd_tolerance_fails(monkeypatch):
    # double precision cannot meet 1e-15: with the threshold patched where
    # the character sum and the Eisenstein check read it, both failures
    # are recorded and the sweep runs to its end
    import u2sing.invariants as invariants
    import u2sing.sweep as sweep
    for module in (invariants, sweep):
        monkeypatch.setattr(module, "DEFAULT_TOLERANCE", 1e-15)
    cfg = SweepConfig(families=(Family.TETRAHEDRAL,), m_max=7, hj_p_max=10,
                      eisenstein_n_max=50)
    summary = verify(cfg)
    assert summary.exit_code == 1
    assert summary.specs_processed == 3
    failed = {name for _, name, _ in summary.failures}
    assert failed == {"deformation_triple_agreement", "eisenstein_identity"}


def test_a_freeness_threshold_past_the_margin_fails(monkeypatch):
    # dihedral(119, 24) has four non-identity elements with an eigenvalue
    # 1.1e-3 from 1: a threshold of 2e-3, patched where freeness reads it,
    # counts them as eigenvalue 1, and the failing check is recorded
    import u2sing.catalog as catalog
    spec = GroupSpec.dihedral(119, 24)
    assert describe(spec).all_passed()
    monkeypatch.setattr(catalog, "DEFAULT_TOLERANCE", 2e-3)
    check, = (c for c in describe(spec).checks
              if c.name == "fixed_point_free")
    assert not check.passed
    assert check.detail == "5 element(s) with eigenvalue 1"


def test_eta_table_in_sweep():
    spec = GroupSpec.icosahedral(1)
    eq = table_topology(spec).implied_eta
    cfg = SweepConfig(families=(Family.ICOSAHEDRAL,), m_max=1, hj_p_max=10,
                      eisenstein_n_max=10, eta={spec.key(): eq})
    summary = verify(cfg)
    assert summary.exit_code == 0
    assert summary.counts[("eta_bound", True)] == 1


def test_eta_keys_that_no_check_reads_are_named_in_one_warning():
    # a misspelt key, and a cyclic key outside the sweep (a cyclic spec
    # has no eta_bound check in any case)
    eta = {"tetrahedal_m1": F(-49, 36), "cyclic_q1_p5": F(1, 5),
           "tetrahedral_m1": F(-49, 36)}
    cfg = SweepConfig(families=(Family.TETRAHEDRAL,), m_max=1, hj_p_max=10,
                      eisenstein_n_max=10, eta=eta)
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


def test_verify_isolates_a_crashing_spec(monkeypatch):
    import u2sing.sweep as sweep
    real, bad = sweep.describe, GroupSpec.dihedral(3, 2)
    seen = []

    def describe(spec, **kwargs):
        seen.append(spec.key())
        if spec == bad:
            raise AssertionError("integer matrix with non-integer determinant")
        return real(spec, **kwargs)

    monkeypatch.setattr(sweep, "describe", describe)
    cfg = SweepConfig(families=(Family.DIHEDRAL,), m_max=7, n_max=2,
                      hj_p_max=10, eisenstein_n_max=10)
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
    assert summary.counts[("order_matches_table", True)] == len(keys)


def test_verify_isolates_a_failing_enumeration(monkeypatch):
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
    cfg = SweepConfig(families=(Family.DIHEDRAL,), m_max=7, n_max=2,
                      hj_p_max=10, eisenstein_n_max=10)
    keys = [s.key() for s in specs_in_sweep(cfg)]
    assert bad.key() in keys and len(keys) > 2
    summary = verify(cfg)
    # every spec in order, then the eigenvalue tables' T*, O*, I*
    assert seen == keys + ["tetrahedral_m1", "octahedral_m1", "icosahedral_m1"]
    assert summary.specs_processed == len(keys)
    assert summary.exit_code == 1
    assert [(label, name) for label, name, _ in summary.failures] == [
        (bad.label(), "describe"), (bad.label(), "order_matches_table"),
        (bad.label(), "fixed_point_free")]
    detail = summary.failures[0][2]
    assert detail.startswith("ClosureOverflow: closure exceeded 48 elements")
    assert detail.endswith("in enumerate_group)")
    assert [d for _, _, d in summary.failures[1:]] == ["group not enumerated"] * 2
    assert summary.passed_failed("order_matches_table") == (len(keys) - 1, 1)
    assert summary.passed_failed("fixed_point_free") == (len(keys) - 1, 1)
    assert summary.passed_failed("describe") == (0, 1)


def test_verify_goes_on_when_freeness_raises_again(monkeypatch):
    from u2sing.catalog import FiniteGroup
    real = FiniteGroup.eigenvalue_one_count

    def eigenvalue_one_count(group):
        if group.order == 72:
            raise RuntimeError("injected")
        return real(group)

    monkeypatch.setattr(FiniteGroup, "eigenvalue_one_count",
                        eigenvalue_one_count)
    summary = verify(SweepConfig(families=(Family.INDEX3,), m_max=9,
                                 hj_p_max=10, eisenstein_n_max=10))
    assert summary.specs_processed == 2         # index3(3), of order 72, and (9)
    bad = GroupSpec.index3(3).label()
    assert [(label, name) for label, name, _ in summary.failures] == [
        (bad, "describe"), (bad, "fixed_point_free")]
    assert all(d.startswith("RuntimeError: injected")
               for _, _, d in summary.failures)
    assert summary.passed_failed("order_matches_table") == (2, 0)
    assert summary.passed_failed("fixed_point_free") == (1, 1)


def _another_lens_generator(monkeypatch):
    """Patch ``generators_of`` so that each lens spec L(q, p) gets the
    generator of L(q', p), q' the least unit mod p other than q and q^-1,
    where there is one (every p > 2)."""
    real = catalog.generators_of

    def mutant(spec):
        if spec.is_cyclic:
            q, p = spec.q, spec.p
            units = [u for u in range(1, p) if math.gcd(u, p) == 1
                     and u not in (q, pow(q, -1, p))]
            if units:
                return real(GroupSpec.cyclic(units[0], p))
        return real(spec)
    monkeypatch.setattr(catalog, "generators_of", mutant)


LENS_30 = SweepConfig(families=(Family.CYCLIC,), p_max=30, hj_p_max=10,
                      eisenstein_n_max=10)


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
    "ROADMAP item 2: a lens spec's resolution is built from the spec, and "
    "no check reads the type of its enumerated group"))
def test_a_lens_spec_enumerating_another_lens_space_fails(monkeypatch):
    _another_lens_generator(monkeypatch)
    assert verify(LENS_30).exit_code == 1


def test_verify_checks_freeness_once_per_spec(monkeypatch):
    import u2sing.report as report
    import u2sing.sweep as sweep
    checked = []
    for module in (report, sweep):
        def counted(group, real=module.is_fixed_point_free):
            checked.append(group.order)
            return real(group)
        monkeypatch.setattr(module, "is_fixed_point_free", counted)
    cfg = SweepConfig(families=(Family.DIHEDRAL, Family.CYCLIC), m_max=5,
                      n_max=2, p_max=5, hj_p_max=10, eisenstein_n_max=10)
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


def test_a_wrong_expected_kappa_fails(monkeypatch):
    import u2sing.sweep as sweep

    (spec, kappa), *rest = sweep._KAPPA_SPOTS
    monkeypatch.setattr(sweep, "_KAPPA_SPOTS", ((spec, kappa + 1), *rest))
    summary = VerifySummary()
    check_kappa_spots(summary)
    assert summary.passed_failed("kappa_spot_values") == (2, 1)
    assert summary.failures == [(spec.label(), "kappa_spot_values",
                                 f"kappa = {kappa}, expected {kappa + 1}")]


def test_sweep_slice_report_bytes(tmp_path):
    config = SweepConfig(m_max=25, n_max=4, p_max=40, hj_p_max=10,
                         eisenstein_n_max=10, out_dir=str(tmp_path))
    assert verify(config).exit_code == 0
    assert len(list(tmp_path.iterdir())) == 586
    digest = hashlib.sha256()
    for spec in specs_in_sweep(config):
        digest.update(_mask_residual((tmp_path / f"{spec.key()}.json").read_bytes()))
    assert digest.hexdigest() == SLICE_SHA256


def test_verify_deterministic():
    cfg = dict(families=(Family.INDEX3, Family.TETRAHEDRAL), m_max=9,
               hj_p_max=20, eisenstein_n_max=10)
    a = verify(SweepConfig(**cfg))
    b = verify(SweepConfig(**cfg))
    assert a.counts == b.counts and a.failures == b.failures


def test_verify_writes_reports(tmp_path):
    cfg = SweepConfig(families=(Family.INDEX3,), m_max=9, hj_p_max=10,
                      eisenstein_n_max=10, out_dir=str(tmp_path))
    summary = verify(cfg)
    assert summary.exit_code == 0
    files = sorted(p.name for p in tmp_path.glob("*.json"))
    assert files == ["index3_m3.json", "index3_m9.json"]
    data = json.loads((tmp_path / "index3_m3.json").read_text())
    assert data["order"] == 72


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


def test_sweep_config_rejects_global_bounds_that_check_nothing(tmp_path,
                                                               capsys):
    # The HJ round trip starts at p = 2 and the Eisenstein identity at
    # n = 2; below that either would record a pass that checked nothing.
    for bounds in ({"hj_p_max": 1}, {"eisenstein_n_max": 1},
                   {"hj_p_max": 0, "eisenstein_n_max": 1}):
        with pytest.raises(InvalidParameters):
            SweepConfig(**bounds).validate()
    path = tmp_path / "sweep.cfg"
    path.write_text("hj_p_max = 0\neisenstein_n_max = 1\n")
    assert main(["verify", "--config", str(path), *TINY]) == 2
    assert capsys.readouterr().err == (
        "error: hj_p_max and eisenstein_n_max must be >= 2\n")


def test_verify_rejects_a_missing_config_file(tmp_path, capsys):
    path = tmp_path / "missing.cfg"
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_verify_rejects_an_unparsable_eta_file(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text('{"tetrahedral_m1": "abc"}')
    assert main(["verify", "--eta-file", str(path), *TINY]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a JSON object of fractions")
    assert "'abc'" in err


def test_describe_rejects_an_unparsable_eta(capsys):
    assert main(["describe", "--family", "tetrahedral", "--m", "1",
                 "--eta", "abc"]) == 2
    assert capsys.readouterr() == (
        "", "error: eta value 'abc' is not a fraction num/den\n")


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
        resolved = resolve(spec)
        report = dataclasses.replace(resolved.report, checks=(
            resolved.report.checks + (
                CheckResult("injected", False, "made to fail"),)))
        return dataclasses.replace(resolved, report=report)

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
