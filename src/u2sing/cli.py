"""Command-line interface.

Subcommands, one per construct:

    describe    full invariant report for one group
    hj          Hirzebruch-Jung string of L(q, p)
    resolve     minimal-resolution plumbing graph
    compactify  compactification star, b', kappa
    verify      run the sweep of identities; exit 0 iff all pass
    export      write a DOT graph to a file

Exit codes: 0 all checks pass, 1 an identity failed, 2 usage/config error
(including an unknown flag or config key, an unreadable config file, a value
that does not parse, a spec flag the family does not take, and an output
that cannot be written).  ``verify`` prints its wall times on stderr, so
its stdout repeats byte for byte.  Each subcommand runs only the stages it
prints, and its exit status covers the checks of those stages: ``resolve``
and ``export --what resolution`` the order, freeness, singularity, b_Gamma
and resolution checks; ``compactify`` and ``export --what
compactification`` those and the compactification's three checks.
``describe`` and ``verify`` run every stage and every check.  ``resolve``,
``compactify`` and ``export`` share one stage path, so ``export --what X``
writes what ``resolve``/``compactify --format dot`` prints and exits as it
does: ``compactify`` and ``export --what compactification`` exit 2 for a
group with nothing to compactify (cyclic, n = 1, a failed
``singularity_table_agreement``, or b_Gamma failed) and 1 when the
compactification stage fails.  ``hj`` exits 2 for a pair that
names no lens space (p < 1, or q and p not coprime), with ``resolve``'s
wording; p = 1 gives the empty string of the trivial type.

The float checks compare against one fixed threshold,
``catalog.DEFAULT_TOLERANCE``; no flag or config key sets it, and a
``--tolerance`` flag is refused with exit 2 like any unknown flag.  The
global identities run to the fixed bounds ``sweep.HJ_P_MAX`` and
``sweep.EISENSTEIN_N_MAX``, which no flag or config key sets either.  An
eta table comes only from ``eta.<spec_key> = num/den`` lines of ``verify
--config``, and one spec's eta from ``describe --eta``; ``--eta-file`` is
no flag either.  An eta value that no ``eta_bound`` check reads (a cyclic
or n = 1 spec has none) is named in a ``warning:`` line, by ``verify`` in
its summary and by ``describe`` on stderr; the exit status does not change.

JSON output, a whole report or one section, is ``report.report_to_json``.

The parser is built once per process (``build_parser`` is cached).  That
saves a build only in a process that calls ``main`` more than once, such
as a Python loop over ``main`` or the test suite; a one-shot ``u2sing``
run builds it once, as before.  ``main`` keeps no state between calls:
argparse makes a fresh namespace per call, every ``set_defaults`` value is
immutable, and the help formatter, which reads the terminal width, is made
when help is printed.  The cached parser holds the ``cmd_*`` function
objects of ``set_defaults``, so patching ``cli.cmd_*`` after the first
build does not reach ``main``; the module globals that those functions
look up (``describe``, ``resolve``, ...) are still read at call time.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .catalog import FAMILIES, Family, GroupSpec, canonical_cyclic
from .errors import InvalidParameters, U2SingError
from .hj import hj_string
from .report import (compactify, describe, export_dot, report_to_json,
                     resolve, write_file)
from .sweep import (config_from_mapping, parse_config_file, parse_fraction,
                    verify)

_FAMILY_CHOICES = [f.value for f in Family]


def _spec_from_args(args: argparse.Namespace) -> GroupSpec:
    """The spec of the flags, built by the family's constructor (named as
    the family) from the parameters that ``FAMILIES`` says it takes."""
    fam = Family(args.family)
    params = FAMILIES[fam].params
    missing = [f"--{x}" for x in params if getattr(args, x) is None]
    if missing:
        raise InvalidParameters(f"{fam.value} needs {' and '.join(missing)}")
    stray = [f"--{x}" for x in ("m", "n", "q", "p")
             if x not in params and getattr(args, x) is not None]
    if stray:
        raise InvalidParameters(f"{fam.value} takes no {', '.join(stray)}")
    build = getattr(GroupSpec, fam.value)
    return build(*(getattr(args, x) for x in params))


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=_FAMILY_CHOICES)
    parser.add_argument("--m", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--q", type=int)
    parser.add_argument("--p", type=int)


def _report_text(report) -> str:
    lines = [f"group {report.spec.label()}  order {report.order}"]
    if report.degenerate_cyclic:
        lines.append("  degenerate: cyclic-equivalent (n = 1)")
    if report.singularities:
        lines.append("  singularities: " +
                     ", ".join(str(t) for t in report.singularities))
    lines.append(f"  hj strings: {[list(s) for s in report.hj_strings]} "
                 f"lengths {list(report.hj_lengths)}")
    if report.b_gamma is not None:
        lines.append(f"  b_gamma = {report.b_gamma}   k_gamma = {report.k_gamma}"
                     f"   tau = {report.signature}   chi = {report.chi}")
    else:
        lines.append(f"  k = {report.k_gamma}   tau = {report.signature}")
    if report.compactification is not None:
        c = report.compactification
        lines.append(f"  compactification: b' = {c.b_prime}  kappa = {c.kappa}"
                     f"  dual strings {[list(s) for s in c.dual_strings]}")
    if report.deformations is not None:
        d = report.deformations
        lines.append(f"  deformations: brute {d.brute_force_dim}  "
                     f"closed {d.closed_form_dim}  2b-2 {d.two_b_minus_2}")
    if report.moduli_dim is not None:
        lines.append(f"  moduli dim >= {report.moduli_dim}   "
                     f"h1(Theta) = {report.h1_theta}")
    if report.topology is not None:
        t = report.topology
        lines.append(f"  topology: chi_orb = {t.chi_orb}  "
                     f"implied eta = {t.implied_eta}")
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        lines.append(f"  [{mark}] {c.name}" + (f": {c.detail}" if c.detail else ""))
    return "\n".join(lines)


def cmd_describe(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    eta = parse_fraction(args.eta) if args.eta is not None else None
    report = describe(spec, eta=eta)
    if eta is not None and report.topology is None:
        print(f"warning: no eta_bound check read the eta value of {spec.key()}",
              file=sys.stderr)
    if args.format == "json":
        text = report_to_json(report)
    elif args.format == "dot":
        text = export_dot(report, "resolution")
    else:
        text = _report_text(report)
    if args.out is not None:
        # os.makedirs refuses an empty path, which Path reads as "."
        os.makedirs(args.out, exist_ok=True)
        suffix = {"json": ".json", "dot": ".dot", "text": ".txt"}[args.format]
        write_file(os.path.join(args.out, spec.key() + suffix), text + "\n")
    else:
        print(text)
    return 0 if report.all_passed() else 1


def cmd_hj(args: argparse.Namespace) -> int:
    # A usage error, refused as resolve refuses the same pair: building the
    # spec is the check.  Only an internal canonical_cyclic call on a
    # computed type is a check failure.  p = 1 is the trivial type, whose
    # string is empty.
    if args.p != 1:
        GroupSpec.cyclic(args.q, args.p)
    t = canonical_cyclic(args.q, args.p)
    s = hj_string(t)
    print(f"L({args.q},{args.p}) -> {t}: entries {list(s)} length {len(s)}")
    return 0


def _stage_report(args: argparse.Namespace):
    """The report of the stages that ``args.what`` names: ``resolve``, and
    for the compactification ``compactify`` after it."""
    spec = _spec_from_args(args)
    resolved = resolve(spec)
    if args.what == "resolution":
        return resolved.report
    if resolved.res is None:
        raise InvalidParameters(f"{spec.label()} has no compactification data")
    report = compactify(resolved)
    if report.compactification is None:
        raise U2SingError(f"{spec.label()} has no compactification data: "
                          f"{report.checks[-1].detail}")
    return report


def cmd_stage(args: argparse.Namespace) -> int:
    """``resolve``, ``compactify`` and ``export``: print the section of the
    stage, or write its DOT graph to ``--out``."""
    report = _stage_report(args)
    label = report.spec.label()
    g, c = report.resolution, report.compactification
    if args.format == "dot":
        text = export_dot(report, args.what)
    elif args.format == "json":
        text = report_to_json(getattr(report, args.what)) + "\n"
    elif args.what == "resolution":
        text = (f"{label}: center {g.center}, arms "
                f"{[list(a) for a in g.arms]}, k = {report.k_gamma}, "
                f"tau = {report.signature}\n")
    else:
        text = (f"{label}: b' = {c.b_prime}, kappa = {c.kappa}, "
                f"curves = {c.kappa + 1}, dual strings "
                f"{[list(s) for s in c.dual_strings]}\n")
    if args.out is not None:
        write_file(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0 if report.all_passed() else 1


def cmd_verify(args: argparse.Namespace) -> int:
    values: dict = {}
    if args.config is not None:
        values.update(parse_config_file(args.config))
    if args.families is not None:
        values["families"] = args.families
    for key, flag in (("m_max", args.m_max), ("n_max", args.n_max),
                      ("p_max", args.p_max), ("out", args.out)):
        if flag is not None:
            values[key] = flag
    config = config_from_mapping(values)
    summary = verify(config)
    print(summary.format_text())
    print(f"enumeration time: {summary.enumeration_seconds:.2f}s, "
          f"total: {summary.total_seconds:.2f}s", file=sys.stderr)
    return summary.exit_code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="u2sing",
        description="Invariants of finite U(2) subgroups acting freely on S^3")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="full invariant report for one group")
    _add_spec_flags(p)
    p.add_argument("--eta", help="eta invariant of the space form, as num/den")
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.add_argument("--out", help="directory to write the report into")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("hj", help="Hirzebruch-Jung string of L(q,p)")
    p.add_argument("q", type=int)
    p.add_argument("p", type=int)
    p.set_defaults(func=cmd_hj)

    p = sub.add_parser("resolve", help="minimal resolution graph")
    _add_spec_flags(p)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(func=cmd_stage, what="resolution", out=None)

    p = sub.add_parser("compactify", help="compactification star and kappa")
    _add_spec_flags(p)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(func=cmd_stage, what="compactification", out=None)

    p = sub.add_parser("verify", help="run the identity sweep")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--families", help="comma-separated family filter")
    p.add_argument("--m-max", dest="m_max", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--p-max", dest="p_max", type=int)
    p.add_argument("--out", help="directory for per-spec JSON reports")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="write a DOT graph")
    _add_spec_flags(p)
    p.add_argument("--what", choices=["resolution", "compactification"],
                   default="resolution")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stage, format="dot")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # u2sing has no global flag but --help: argparse would take the word
    # after an unknown one for the subcommand and refuse that word instead.
    for arg in argv:
        if not arg.startswith("-"):
            break
        if arg not in ("-h", "--help"):
            parser.error(f"unrecognized arguments: {arg}")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except U2SingError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:      # a write: each read is refused where it runs
        where = "stdout" if exc.filename is None else exc.filename
        print(f"error: cannot write {where}: {exc.strerror}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
