"""Report assembly, JSON round trips, the sweep harness, and the CLI."""

import dataclasses
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from u2sing.catalog import Family, GroupSpec, canonical_cyclic
from u2sing.cli import main
from u2sing.errors import InvalidParameters
from u2sing.invariants import DeformationReport, TopologyReport
from u2sing.report import (CheckResult, CompactificationSection,
                           InvariantReport, _dumps, describe, export_dot,
                           json_text, report_from_dict, report_from_json,
                           report_to_dict, report_to_json)
from u2sing.resolution import PlumbingGraph
from u2sing.sweep import (SweepConfig, config_from_mapping, parse_config_file,
                          specs_in_sweep, verify)


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
    # Non-cyclic: the resolution's definiteness, the b' pencil (two stars)
    # and one full elimination of the chosen configuration (two stars).
    real, calls = PlumbingGraph.pivots, []
    monkeypatch.setattr(PlumbingGraph, "pivots",
                        lambda self: calls.append(self) or real(self))
    for spec in (GroupSpec.dihedral(5, 2), GroupSpec.icosahedral(7)):
        calls.clear()
        r = describe(spec)
        assert r.all_passed() and len(calls) <= 5
    calls.clear()
    assert describe(GroupSpec.cyclic(3, 7)).all_passed()
    assert len(calls) == 1


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
                              if __import__("math").gcd(q, p) == 1)
    assert GroupSpec.dihedral(9, 2) in specs
    assert GroupSpec.index3(9) in specs


def test_sweep_config_validation():
    with pytest.raises(InvalidParameters):
        SweepConfig(m_max=0).validate()
    with pytest.raises(InvalidParameters):
        SweepConfig(tolerance=0.1).validate()


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


def test_absurd_tolerance_fails():
    # double precision cannot meet 1e-15: snap failures must surface
    cfg = SweepConfig(families=(Family.TETRAHEDRAL,), m_max=7, hj_p_max=10,
                      eisenstein_n_max=50, tolerance=1e-15)
    summary = verify(cfg)
    assert summary.exit_code == 1
    assert any("deformation" in name or "eisenstein" in name
               for _, name, _ in summary.failures)


def test_eta_table_in_sweep():
    from u2sing.invariants import topology_report
    spec = GroupSpec.icosahedral(1)
    eq = topology_report(spec).implied_eta
    cfg = SweepConfig(families=(Family.ICOSAHEDRAL,), m_max=1, hj_p_max=10,
                      eisenstein_n_max=10, eta={spec.key(): eq})
    summary = verify(cfg)
    assert summary.exit_code == 0
    assert summary.counts[("eta_bound", True)] == 1


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


def test_verify_checks_freeness_once_per_spec(monkeypatch):
    import u2sing.report as report
    import u2sing.sweep as sweep
    checked = []
    for module in (report, sweep):
        def counted(group, tol=1e-6, real=module.is_fixed_point_free):
            checked.append(group.order)
            return real(group, tol)
        monkeypatch.setattr(module, "is_fixed_point_free", counted)
    cfg = SweepConfig(families=(Family.DIHEDRAL, Family.CYCLIC), m_max=5,
                      n_max=2, p_max=5, hj_p_max=10, eisenstein_n_max=10)
    summary = verify(cfg)
    assert summary.exit_code == 0
    assert len(checked) == summary.specs_processed
    assert summary.passed_failed("fixed_point_free") == (len(checked), 0)


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
tolerance = 1e-6
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
    assert main(["hj", "3", "5"]) == 0
    assert "[2, 3]" in capsys.readouterr().out


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
    from u2sing.report import CheckResult

    def failing(spec, **kwargs):
        report = describe(spec, **kwargs)
        return dataclasses.replace(report, checks=report.checks + (
            CheckResult("injected", False, "made to fail"),))

    monkeypatch.setattr(cli, "describe", failing)
    out = tmp_path / "d4.dot"
    assert main(["export", "--family", "dihedral", "--m", "1", "--n", "2",
                 "--out", str(out)]) == 1
    assert out.read_text().count("label") == 4      # the file is still written


def test_cli_verify_small(capsys):
    assert main(["verify", "--families", "index3", "--m-max", "9"]) == 0
    out = capsys.readouterr().out
    assert "exit status: 0" in out


def test_cli_usage_errors(capsys):
    assert main(["describe", "--family", "dihedral", "--m", "2", "--n", "2"]) == 2
    assert main(["describe", "--family", "cyclic"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["describe"])          # missing --family
    assert exc.value.code == 2


def test_cli_tolerance_reaches_verify(tmp_path, capsys):
    # the slice of test_absurd_tolerance_fails, with the tolerance set by
    # the config file, the global flag and the verify flag in turn
    cfg = tmp_path / "c.cfg"
    bounds = ("families = tetrahedral\nm_max = 7\nhj_p_max = 10\n"
              "eisenstein_n_max = 50\n")
    cfg.write_text(bounds + "tolerance = 1e-6\n")
    assert main(["--tolerance", "1e-15", "verify", "--config", str(cfg)]) == 1
    assert main(["--tolerance", "1e-15", "verify", "--config", str(cfg),
                 "--tolerance", "1e-6"]) == 0
    cfg.write_text(bounds + "tolerance = 1e-15\n")
    assert main(["verify", "--config", str(cfg)]) == 1
    assert main(["--tolerance", "1e-6", "verify", "--config", str(cfg)]) == 0


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("families = index3\nm_max = 9\n")
    assert main(["verify", "--config", str(cfg)]) == 0
