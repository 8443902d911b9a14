"""The reach audit: the functions of ``src/u2sing`` that production runs
reach, and a declared reason for each one that stays though they do not.

Run as ``python tests/reach_audit.py [SRC]`` (``SRC``, the directory that
holds the ``u2sing`` package, defaults to this checkout's ``src``).  The
script installs a ``sys.setprofile`` hook before it imports ``u2sing``
from ``SRC``, so import-time calls count and every cache starts empty.  It
then calls ``cli.main`` for each argument list of ``runs``: a ``verify
--config FILE --out DIR`` sweep of every family, and each other subcommand
with each of its output formats.  Each call must exit 0.

A function is a ``def`` in a module of ``SRC/u2sing``, a method or a
nested function too; lambdas and comprehensions are not counted.  It is
reached when the hook saw a call of its code.  An unreached function is
declared when it is a public name of ``PUBLIC`` or a key of
``UNREACHED``, each with a one-line reason.  The script prints one line
for each unreached function that is not declared, each ``UNREACHED`` key
that names no function or names one that production reaches, and each run
that did not exit 0.  It exits 0 exactly when it prints nothing.

``PUBLIC`` is the package's public API: ``u2sing.__all__`` holds exactly
its names (``tests/test_catalog.py``), and README lists them with their
reasons.

pytest does not collect this file (its name does not start with
``test_``); ``tests/ci_steps.py`` runs it.
"""

import contextlib
import inspect
import io
import sys
import tempfile
import types
from pathlib import Path

# The public API, each name with why a library caller needs it.
PUBLIC = {
    "Family": "the families of the classification",
    "GroupSpec": "one group by family and parameters; its constructors "
                 "check them",
    "CyclicType": "a lens type L(alpha, beta), the label of every "
                  "singularity",
    "canonical_cyclic": "the normalized lens type of a pair (a, beta)",
    "enumerate_group": "the elements of a spec's group, exact",
    "hj_string": "the Hirzebruch-Jung string of a lens type",
    "cf_value": "q/p of a Hirzebruch-Jung string, the inverse of hj_string",
    "dual_type": "the compactification partner of a lens type",
    "describe": "the report of one spec, with every check's verdict",
    "InvariantReport": "the report that describe returns",
    "export_dot": "a report's resolution or compactification graph as DOT",
    "report_to_json": "a report, or one of its sections, as JSON text",
    "report_to_dict": "that text parsed; bench/tracer.py binds the name",
    "report_from_dict": "the report of report_to_dict's data",
    "report_from_json": "the report of report_to_json's text: the public "
                        "round trip",
    "verify": "the sweep of identities over a SweepConfig",
    "SweepConfig": "the families and bounds of a sweep",
    "VerifySummary": "a sweep's verdict counts, failures and warnings",
    "specs_in_sweep": "the specs of a SweepConfig, in sweep order",
}

# Functions that no production run reaches and that stay, each with why.
UNREACHED = {
    "report._decode": "report_from_dict rebuilds a report with it: the "
                      "public round trip",
    "catalog.CyclicType.conj_key": "ROADMAP item D's lens check compares "
                                   "types up to alpha <-> alpha^-1 with it",
    "catalog.CyclicType.is_trivial": "conj_key reads it",
    "catalog.Turns.eigen_residues": "ROADMAP items D and T read a lens "
                                    "group's residues from it",
    "invariants.sawtooth": "ROADMAP item E's Dedekind-sum route to eta "
                           "reads it",
    "errors.failure_text": "the error path: the text of a recorded "
                           "failure, and a passing run records none",
    "catalog._checked.fail": "the error path: NotAGroup for a G* product "
                             "that fails a group check",
}

# Every family, as no families line is given; the eta line is read by the
# tetrahedral m = 1 spec's eta_bound check.
CONFIG = "m_max = 7\nn_max = 3\np_max = 12\neta.tetrahedral_m1 = -49/36\n"


def runs(tmp: Path) -> list[list[str]]:
    """The CLI calls of the audit, writing under ``tmp``."""
    config = tmp / "sweep.cfg"
    config.write_text(CONFIG)
    out = []
    for sub, flags in (("resolve", "--family index3 --m 3"),
                       ("compactify", "--family dihedral --m 5 --n 2")):
        for fmt in ("text", "json", "dot"):
            out.append([sub, *flags.split(), "--format", fmt])
    for what in ("resolution", "compactification"):
        out.append(["export", *"--family index2 --m 2 --n 3".split(),
                    "--what", what, "--out", str(tmp / f"{what}.dot")])
    return out + [
        ["verify", "--config", str(config), "--out", str(tmp / "reports")],
        ["describe", *"--family dihedral --m 1 --n 2".split()],
        ["describe", *"--family cyclic --q 3 --p 5 --format json".split(),
         "--out", str(tmp / "describe")],
        ["describe", *"--family tetrahedral --m 7 --eta=-1/3".split(),
         "--format", "dot"],
        ["hj", "3", "5"],
    ]


def functions(package: Path) -> dict[tuple[str, int, str], str]:
    """{(file, first line, name) of each function's code: its qualified
    name ``module.Class.function``}, for the modules of ``package``."""
    found = {}
    for path in sorted(package.glob("*.py")):
        todo = [(compile(path.read_text(), str(path), "exec"),
                 path.stem + ".")]
        while todo:
            code, prefix = todo.pop()
            for const in code.co_consts:
                if (not isinstance(const, types.CodeType)
                        or const.co_name.startswith("<")):
                    continue
                name = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:     # not a class
                    found[str(path), const.co_firstlineno,
                          const.co_name] = name
                todo.append((const, name + "."))
    return found


def key(code: types.CodeType) -> tuple[str, int, str]:
    return code.co_filename, code.co_firstlineno, code.co_name


def audit(src: Path) -> list[str]:
    """The lines the audit prints for the package in ``src``."""
    package = src / "u2sing"
    seen: set[types.CodeType] = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.path.insert(0, str(src))
    sys.setprofile(hook)
    import u2sing
    from u2sing import cli
    problems = []
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in runs(Path(tmp)):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse refused the call
                code = exc.code
            if code != 0:
                problems.append(f"exit {code}: u2sing {' '.join(argv)}")
    sys.setprofile(None)
    if Path(u2sing.__file__).parent != package:
        return [f"imported u2sing from {u2sing.__file__}, not {package}"]

    names = functions(package)
    reached = {names[k] for k in map(key, seen) if k in names}
    public = {names.get(key(obj.__code__))
              for obj in map(vars(u2sing).get, PUBLIC)
              if inspect.isfunction(obj)}
    for k, name in sorted(names.items()):
        if name not in reached and name not in public \
                and name not in UNREACHED:
            problems.append(f"unreached and not declared: {name} "
                            f"({Path(k[0]).name}:{k[1]})")
    for name in UNREACHED:
        if name not in names.values():
            problems.append(f"declared unreached, but no such function: "
                            f"{name}")
        elif name in reached:
            problems.append(f"declared unreached, but reached: {name}")
    return problems


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    src = Path(argv[1]).resolve() if len(argv) > 1 else root / "src"
    problems = audit(src)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
