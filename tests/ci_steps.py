"""The checks CI makes beyond tier-1: specs past the sweep bounds, the
singularity triple at n <= 200, the image memo and the Dimino tables over
the default sweep, the integer routes against their references and
``report_to_dict`` against the reference encoder over the default sweep,
the declared generator labels against the float snap over
the default sweep and D*_4n's exact fields against the float route to
n = 400, each cached G* closure against the closure of its specs'
generators and the gap around the Dirichlet-kernel cutoff over the default
sweep, the masked digest of the default sweep's reports, the label closure
against the float Dimino at |D*| = 796, the global identities past their
default bounds, the README config, written report text, verify's stdout
across hash seeds, ``report_diff`` on two runs of one sweep, and the reach
audit of ``tests/reach_audit.py``, on the package and on a copy with one
unreached function planted.

The file name does not match ``test_*.py``, so tier-1 does not collect it.
Run it on its own, from the repository root:

    PYTHONPATH=src python -m pytest tests/ci_steps.py

Each test is one check that no tier-1 test makes on the same input or a
larger one. A test calls ``cli.main`` in-process unless it needs a fresh
interpreter.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import u2sing.resolution as resolution
import u2sing.sweep as sweep
from u2sing.catalog import (Family, GroupSpec, _gstar, _gstar_kind,
                            _row_keys, enumerate_gamma_prime, enumerate_group,
                            generators_of)
from u2sing.cli import main
from u2sing.report import describe, report_to_dict, write_file
from u2sing.resolution import (_image_stabilizers, _mobius_table,
                               _stabilizers, singularity_triple,
                               table_singularities)
from u2sing.sweep import (SweepConfig, VerifySummary, check_eisenstein,
                          check_hj_roundtrip, specs_in_sweep, verify)

import sweep_digest
from dimino_float import (check_declared_labels, check_gstar_closures,
                          dimino_closure, rows_of)
from fraction_routes import check_exact_routes
from report_diff import diff_folders
from report_encoder import encode

SRC = Path(__file__).resolve().parents[1] / "src"
AUDIT = Path(__file__).resolve().parent / "reach_audit.py"

# Every dihedral and index-2 group with m <= 3 and n <= 200 (h <= 400).
N200 = SweepConfig(families=(Family.DIHEDRAL, Family.INDEX2), m_max=3,
                   n_max=200)


def counted_stabilizers(patch) -> list:
    """Count each build of Mobius-image stabilizers under ``patch``, a
    MonkeyPatch: one entry, the image's order h, per ``_stabilizers`` run."""
    builds = []
    real = resolution._stabilizers

    def counted(table):
        builds.append(len(table))
        return real(table)

    patch.setattr(resolution, "_stabilizers", counted)
    return builds


@pytest.fixture(scope="module")
def n200():
    """The N200 sweep, run once from empty G* caches, and the number of
    Mobius-image stabilizer builds it made."""
    _gstar.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        builds = counted_stabilizers(patch)
        summary = verify(N200)
    return summary, len(builds)


@pytest.mark.parametrize("argv, line", [
    ("--family dihedral --m 1999 --n 24", None),
    ("--family icosahedral --m 1201", None),
    ("--family icosahedral --m 1207", None),
    ("--family index2 --m 1004 --n 7", None),
    ("--family cyclic --q 12345 --p 1000003", None),
    ("--family dihedral --m 5 --n 397", None),
    ("--family index3 --m 999", None),
    ("--family dihedral --m 1999 --n 1", "singularities: L(3999,7996)"),
    ("--family index2 --m 1000 --n 1", "singularities: L(2001,4000)"),
])
def test_describe_passes_every_check_past_the_sweep_bounds(argv, line,
                                                          capsys):
    assert main(["describe", *argv.split()]) == 0
    out = capsys.readouterr().out
    assert line is None or line in out


def test_the_singularity_triple_agrees_at_n_up_to_200(n200):
    summary, _ = n200
    assert summary.exit_code == 0, summary.failures[:5]
    for name, passed in (("singularity_table_agreement", 431),
                         ("deformation_triple_agreement", 232),
                         ("deformation_m1_gate", 199)):
        assert summary.passed_failed(name) == (passed, 0), name


def test_the_image_memo_carries_no_state_from_one_spec_to_the_next(
        n200, monkeypatch, fresh_caches):
    # Warm, one build per G* (D*8 ... D*800), far fewer than the 431 specs
    # with n > 1; cold, with every G* rebuilt before each spec, one build a
    # spec, and the same summary.
    warm, builds = n200
    gstars = {_gstar_kind(s) for s in specs_in_sweep(N200)
              if not s.is_degenerate_cyclic}
    assert builds == len(gstars) == 199

    def cold(spec, **kwargs):
        _gstar.cache_clear()
        return describe(spec, **kwargs)

    monkeypatch.setattr(sweep, "describe", cold)
    cold_builds = counted_stabilizers(monkeypatch)
    assert verify(N200).format_text() == warm.format_text()
    assert len(cold_builds) == 431


def test_the_dimino_tables_carry_no_state_from_one_spec_to_the_next(
        fresh_caches):
    # The 1,908 non-cyclic specs of the default sweep enumerated with the
    # G* tables warm, then again with every G* rebuilt for each spec: the
    # same labels (k, j) in the same order.
    specs = [s for s in specs_in_sweep(SweepConfig()) if not s.is_cyclic]
    warm = [enumerate_group(spec) for spec in specs]
    assert len(warm) == 1908
    for spec, lab in zip(specs, warm):
        _gstar.cache_clear()
        cold = enumerate_group(spec)
        assert np.array_equal(cold.k, lab.k) and np.array_equal(cold.j, lab.j)


def test_the_default_sweep_meets_26_images(monkeypatch, fresh_caches):
    # The 1,788 non-cyclic specs with n > 1 of the default sweep, from
    # empty G* caches: 26 builds, one per G* (D*8 ... D*96, T*, O*, I*),
    # and every other spec reads the one held on its G*.  Each held value
    # equals a cold computation.
    builds = counted_stabilizers(monkeypatch)
    keys = set()
    for spec in specs_in_sweep(SweepConfig()):
        if not (spec.is_cyclic or spec.is_degenerate_cyclic):
            lab = enumerate_group(spec)
            assert singularity_triple(spec, lab) == table_singularities(spec)
            keys.add(lab.gstar)
    assert len(builds) == len(keys) == 26
    for gstar in keys:
        cold = tuple(_stabilizers(_mobius_table(gstar)))
        assert _image_stabilizers(gstar) == cold


def test_the_integer_routes_equal_their_references_on_the_default_sweep(
        monkeypatch):
    # The exact turns against the reference rows on all 12,231 lens
    # groups, the witness freeness count against the modulo count on all
    # 1,908 label groups, and the integer pole types, b_Gamma rational
    # route and Seifert solution against their Fraction forms on the 1,788
    # with n > 1 (tests/fraction_routes.py).
    specs = list(specs_in_sweep(SweepConfig()))
    assert check_exact_routes(specs, monkeypatch) == {
        "lens": 12231, "freeness": 1908, "pole_type": 3 * 1788,
        "rational_b": 1788, "seifert": 1788}


def test_report_to_dict_is_the_reference_encoder_on_the_default_sweep():
    # report_to_dict parses the writer's text; the reference encoder
    # (tests/report_encoder.py) builds the data from the report objects.
    count = 0
    for spec in specs_in_sweep(SweepConfig()):
        r = describe(spec)
        assert report_to_dict(r) == encode(r), spec.label()
        count += 1
    assert count == 14139


def test_the_declared_labels_are_the_reference_snap_on_the_default_sweep():
    # The declared generator labels against the float snap of the rows
    # generators_of evaluates, on all 1,908 non-cyclic specs, and D*_4n's
    # exact negation, orders and residues against the float route's for
    # n <= 400 (tests/dimino_float.py).
    specs = list(specs_in_sweep(SweepConfig()))
    assert check_declared_labels(specs, 400) == 1908


def test_each_gstar_closure_is_its_specs_closure_on_the_default_sweep():
    # The cached G* closure, from the G* generators declared once, against
    # the closure of generators_of(spec)[1:], bit for bit, on all 1,299
    # product specs (tests/dimino_float.py).
    specs = list(specs_in_sweep(SweepConfig()))
    assert check_gstar_closures(specs) == 1299


def test_no_gamma_prime_element_is_near_the_dirichlet_kernel_cutoff():
    # invariants._chi_real_sum sends an element with sin(phi) <= 1e-7 to
    # the kernel's limit 2m - 1.  On each Gamma' that dim_sfk sums over in
    # the default sweep (the 1,762 non-cyclic specs with n > 1 and m > 1),
    # every sin(phi) is at most 1e-7 or at least 0.1, so no element sits
    # near the cutoff.
    near, far, count = (0.0, ""), (1.0, ""), 0
    for spec in specs_in_sweep(SweepConfig()):
        if spec.is_cyclic or spec.is_degenerate_cyclic or spec.m == 1:
            continue
        sin_phi = np.sin(enumerate_gamma_prime(spec).eigen_data()[1])
        below = sin_phi[sin_phi <= 1e-7].max()
        above = sin_phi[sin_phi > 1e-7].min()
        if below > near[0]:
            near = (float(below), spec.label())
        if above < far[0]:
            far = (float(above), spec.label())
        count += 1
    print(f"largest sin(phi) sent to the limit: {near[0]:.3e} at {near[1]}; "
          f"smallest kept: {far[0]:.4f} at {far[1]}")
    assert count == 1762
    assert far[0] >= 0.1


def test_the_full_default_sweep_digest_is_pinned():
    # The masked SHA-256 of every default-sweep report, in sweep order,
    # equals tests/sweep_full.sha256 (tests/sweep_digest.py).
    count, _, masked = sweep_digest.digests()
    pinned = (Path(__file__).parent / "sweep_full.sha256").read_text().strip()
    assert (count, masked) == (14139, pinned)


@pytest.mark.parametrize("spec", [GroupSpec.dihedral(3, 199),
                                  GroupSpec.index2(2, 199)],
                         ids=GroupSpec.key)
def test_the_label_closure_is_the_float_dimino_at_the_largest_seed(spec):
    # |D*| = 796, against n <= 40 in the tier-1 comparisons; the seed's
    # cycles (597 and 796 elements) are walked one float composition at a
    # time, and both closures must pick the same seed.
    group = enumerate_group(spec)
    assert group.order == spec.expected_order()
    ref = dimino_closure(generators_of(spec), spec.expected_order())
    assert _row_keys(rows_of(group)) == _row_keys(ref.rows)


def test_the_hj_round_trip_at_twice_its_default_bound():
    summary = VerifySummary()
    check_hj_roundtrip(summary, 1000)
    assert summary.passed_failed("hj_round_trip_sweep") == (1, 0)


def test_the_eisenstein_identity_at_five_times_its_default_bound():
    summary = VerifySummary()
    check_eisenstein(summary, 1000)
    assert summary.passed_failed("eisenstein_identity") == (1, 0)


def test_the_readme_verify_config_example(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("families = tetrahedral,index3\nm_max = 20\n"
                   "eta.tetrahedral_m1 = -49/36\n")
    assert main(["verify", "--config", str(cfg)]) == 0


def test_report_text_equals_json_dumps(tmp_path):
    lens, noncyclic = tmp_path / "lens", tmp_path / "noncyclic"
    argv = ["verify", "--families", "cyclic", "--p-max", "40",
            "--out", str(lens)]
    assert main(argv) == 0
    # a re-run into the same folder replaces each longer file, then
    # overwrites each file cut to half its length
    for cut in (lambda text: text + "junk" * 100,
                lambda text: text[:len(text) // 2]):
        for path in lens.glob("*.json"):
            write_file(path, cut(path.read_text()))
        assert main(argv) == 0
    # describe --out over a padded file equals a fresh write
    index3 = ["describe", "--family", "index3", "--m", "3", "--format", "json"]
    for folder in ("once", "twice"):
        assert main([*index3, "--out", str(tmp_path / folder)]) == 0
    padded = tmp_path / "twice" / "index3_m3.json"
    write_file(padded, padded.read_text() + "junk" * 100)
    assert main([*index3, "--out", str(tmp_path / "twice")]) == 0
    once = tmp_path / "once" / "index3_m3.json"
    assert padded.read_bytes() == once.read_bytes()
    # fractions, null sections, bools, and the m = 1 and n = 1 reports
    assert main(["verify", "--families",
                 "dihedral,index2,tetrahedral,octahedral,icosahedral,index3",
                 "--m-max", "7", "--n-max", "3", "--out", str(noncyclic)]) == 0
    for folder in (lens, noncyclic):
        files = sorted(folder.glob("*.json"))
        assert files, folder
        for path in files:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=1), path


def test_report_diff_names_the_one_edited_path(tmp_path):
    # Two runs of one sweep write the same reports; after one value is
    # edited in one copy, report_diff shows that path changed in one report.
    folders = [tmp_path / "old", tmp_path / "new"]
    for folder in folders:
        assert main(["verify", "--families", "tetrahedral,index3",
                     "--m-max", "20", "--out", str(folder)]) == 0
    count = len(list(folders[0].glob("*.json")))
    assert count > 1
    assert diff_folders(*folders) == (count, {}, [], [])
    edited = folders[1] / "index3_m3.json"
    report = json.loads(edited.read_text())
    report["compactification"]["kappa"] += 1
    edited.write_text(json.dumps(report, indent=1))
    assert diff_folders(*folders) == (count - 1, {
        "compactification.kappa": {"gained": [], "lost": [],
                                   "changed": ["index3_m3"]}}, [], [])


def test_the_largest_matrix_in_the_sweep_equals_json_dumps(capsys):
    flags = ["--family", "cyclic", "--q", "199", "--p", "200",
             "--format", "json"]
    assert main(["describe", *flags]) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert len(report["resolution"]["matrix"]) == 199
    assert text == json.dumps(report, indent=2) + "\n"
    assert main(["resolve", *flags]) == 0
    assert capsys.readouterr().out == json.dumps(report["resolution"],
                                                 indent=2) + "\n"


def test_verify_prints_the_same_stdout_under_two_hash_seeds():
    # Two interpreters, so that no set or dict order can come from the
    # seed; the in-process tier-1 tests share one seed.
    argv = [sys.executable, "-m", "u2sing.cli",
            "verify", "--families", "index3", "--m-max", "20"]
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run(argv, check=True, capture_output=True,
                           env={**os.environ, "PYTHONPATH": path,
                                "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")]
    assert outs[0] == outs[1] and b"exit status: 0" in outs[0]


def test_every_function_production_does_not_reach_is_declared():
    # A fresh interpreter, so that the audit's hook sees the import and
    # every cache start empty (tests/reach_audit.py).
    run = subprocess.run([sys.executable, str(AUDIT)], capture_output=True,
                         text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")


def test_the_reach_audit_names_a_planted_unreached_function(tmp_path):
    # A copy of the package with one function appended to hj.py that
    # nothing calls: the audit fails and names that function, only it.
    shutil.copytree(SRC / "u2sing", tmp_path / "u2sing",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "u2sing" / "hj.py"
    line = len(module.read_text().splitlines()) + 3
    with module.open("a") as f:
        f.write("\n\ndef planted(x):\n    return x\n")
    run = subprocess.run([sys.executable, str(AUDIT), str(tmp_path)],
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (
        1, f"unreached and not declared: hj.planted (hj.py:{line})\n")
