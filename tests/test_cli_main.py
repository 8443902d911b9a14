"""`main` on the one parser of the process: it keeps no state between
calls, so a sequence of calls, the README's CLI examples among them, prints
and exits as the same calls on freshly built parsers; and the usage errors
it reports with exit 2."""

import re

import pytest

import u2sing.cli as cli
from u2sing.cli import build_parser, main
from u2sing.errors import InvalidParameters, NotCoprime

# The stderr line of verify that carries its wall times.
TIMES = re.compile(r"enumeration time: \S+s, total: \S+s\n")


def run(capsys, argv):
    """(exit status, stdout, stderr) of one ``main`` call, an argparse
    ``SystemExit`` included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def sequence(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("families = tetrahedral\nm_max = 7\nhj_p_max = 10\n"
                   "eisenstein_n_max = 50\n")
    dot = str(tmp_path / "d.dot")
    spec = ["--family", "dihedral", "--m", "5", "--n", "2"]
    return [
        ["describe", *spec, "--format", "json"],
        ["resolve", "--family", "icosahedral", "--m", "7", "--format", "json"],
        ["compactify", "--family", "dihedral", "--m", "1", "--n", "3",
         "--format", "json"],
        ["describe", "--m", "1"],                       # no --family: exit 2
        ["describe", "--family", "tetrahedral", "--m", "1"],
        ["--tolerance", "1e-15", "verify", "--config", str(cfg)],  # exit 2
        ["verify", "--config", str(cfg), "--tolerance", "1e-15"],  # exit 2
        ["verify", "--config", str(cfg)],
        ["--tolerance", "0", "describe", *spec],        # exit 2
        ["describe", *spec],
        ["export", *spec],                              # no --out: exit 2
        ["export", *spec, "--out", dot],
        ["export", *spec, "--what", "compactification", "--out", dot],
        ["hj", "2", "4"],                               # exit 2
        ["hj", "3", "5"],
        ["resolve", *spec],
        ["resolve", *spec, "--format", "dot"],
        *readme_examples(tmp_path),
    ]


def readme_examples(tmp_path):
    """The CLI examples of the README, in its order."""
    return [example.split() for example in [
        "describe --family dihedral --m 1 --n 2",
        "describe --family cyclic --q 3 --p 5 --format json",
        "hj 3 5",
        "resolve --family index3 --m 3 --format dot",
        "compactify --family dihedral --m 1 --n 3",
        "export --family dihedral --m 1 --n 2 --what compactification "
        f"--out {tmp_path / 'd4.dot'}",
        f"verify --families tetrahedral,index3 --m-max 20 "
        f"--out {tmp_path / 'reports'}",
    ]]


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_main_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    argvs = sequence(tmp_path)
    shared = [run(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(capsys, argv) for argv in argvs]
    for argv, a, b in zip(argvs, shared, fresh):
        # stdout byte for byte; stderr but for verify's wall times
        assert a[:2] == b[:2], argv
        assert TIMES.sub("", a[2]) == TIMES.sub("", b[2]), argv
    codes = [code for code, _, _ in shared]
    assert codes == [0, 0, 0, 2, 0, 2, 2, 0, 2, 0, 2, 0, 0, 2, 0, 0, 0,
                     0, 0, 0, 0, 0, 0, 0]


def test_help_reads_the_terminal_width_when_printed(monkeypatch, capsys):
    build_parser()
    helps = {}
    for width in (50, 200):
        monkeypatch.setenv("COLUMNS", str(width))
        code, helps[width], _ = run(capsys, ["describe", "--help"])
        assert code == 0
    assert len(helps[50].splitlines()) > len(helps[200].splitlines())


@pytest.mark.parametrize("command", [
    ["describe", "--family", "tetrahedral", "--m", "1"],
    ["resolve", "--family", "tetrahedral", "--m", "1"],
    ["compactify", "--family", "dihedral", "--m", "1", "--n", "3"],
    ["export", "--family", "dihedral", "--m", "1", "--n", "3", "--out", "-"],
])
@pytest.mark.parametrize("tol", ["0", "-1e-6", "0.5", "nan", "1e-6"])
def test_every_subcommand_refuses_a_tolerance_out_of_range(command, tol,
                                                           tmp_path, capsys):
    # The float checks have one fixed threshold: --tolerance is no flag of
    # u2sing, so any value, the old default too, is refused as argparse
    # refuses an unknown flag, before the subcommand and after it.
    cfg = tmp_path / "c.cfg"
    cfg.write_text("families = index3\nm_max = 3\n")
    flag = f"--tolerance={tol}"
    for argv in ([flag, "verify", "--config", str(cfg)],
                 [flag, *command], [*command, flag]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.endswith(f"error: unrecognized arguments: {flag}\n"), argv
    assert not (tmp_path / "-").exists()


def test_the_old_tolerance_knob_is_a_usage_error(tmp_path, capsys):
    # The flag before and after verify, and the config key, each exit 2
    # with one error line and no traceback; the sweep does not run.
    cfg = tmp_path / "c.cfg"
    cfg.write_text("families = index3\nm_max = 20\ntolerance = 1e-7\n")
    verify = ["verify", "--families", "index3", "--m-max", "20"]
    for argv in (["--tolerance", "1e-7", *verify],
                 [*verify, "--tolerance", "1e-7"],
                 ["verify", "--config", str(cfg)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "Traceback" not in err and "error: " in err, argv
        assert "enumeration time" not in err, argv
    assert err.startswith("error: unknown config key 'tolerance'")


@pytest.mark.parametrize("q, p", [(2, 4), (6, 4), (3, 0), (3, -5)])
def test_hj_refuses_a_pair_that_names_no_lens_space(q, p, capsys):
    code, out, err = run(capsys, ["hj", str(q), str(p)])
    resolved = run(capsys, ["resolve", "--family", "cyclic",
                            "--q", str(q), "--p", str(p)])
    assert (code, out, err) == resolved
    assert code == 2 and err.startswith("error: cyclic")


def test_hj_of_the_trivial_type_is_empty(capsys):
    assert run(capsys, ["hj", "1", "1"]) == (
        0, "L(1,1) -> L(0,1): entries [] length 0\n", "")


def test_a_computed_non_coprime_type_stays_a_check_failure():
    assert not issubclass(NotCoprime, InvalidParameters)
