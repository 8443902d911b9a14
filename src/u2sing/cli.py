"""Command-line interface.

Subcommands, one per construct:

    describe    full invariant report for one group
    hj          Hirzebruch-Jung string of L(q, p)
    resolve     minimal-resolution plumbing graph
    compactify  compactification star, b', kappa
    verify      run the sweep of identities; exit 0 iff all pass
    export      write a DOT graph to a file

Exit codes: 0 all checks pass, 1 an identity failed, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import Family, GroupSpec, canonical_cyclic
from .errors import InvalidParameters, U2SingError
from .hj import hj_string
from .report import (describe, export_dot, json_text, report_to_dict,
                     report_to_json)
from .sweep import (config_from_mapping, parse_config_file, parse_fraction,
                    verify)

_FAMILY_CHOICES = [f.value for f in Family]
_DEFAULT_TOLERANCE = 1e-6


def _spec_from_args(args: argparse.Namespace) -> GroupSpec:
    fam = Family(args.family)
    if fam is Family.CYCLIC:
        if args.q is None or args.p is None:
            raise InvalidParameters("cyclic needs --q and --p")
        return GroupSpec.cyclic(args.q, args.p).validate()
    if args.m is None:
        raise InvalidParameters(f"{fam.value} needs --m")
    if fam in (Family.DIHEDRAL, Family.INDEX2):
        if args.n is None:
            raise InvalidParameters(f"{fam.value} needs --n")
        return GroupSpec(fam, m=args.m, n=args.n).validate()
    return GroupSpec(fam, m=args.m).validate()


def _tolerance(args: argparse.Namespace) -> float:
    return _DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance


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
    eta = parse_fraction(args.eta) if args.eta else None
    report = describe(spec, eta=eta, tolerance=_tolerance(args))
    if args.format == "json":
        text = report_to_json(report)
    elif args.format == "dot":
        text = export_dot(report, "resolution")
    else:
        text = _report_text(report)
    if args.out:
        path = Path(args.out)
        path.mkdir(parents=True, exist_ok=True)
        suffix = {"json": ".json", "dot": ".dot", "text": ".txt"}[args.format]
        (path / (spec.key() + suffix)).write_text(text + "\n")
    else:
        print(text)
    return 0 if report.all_passed() else 1


def cmd_hj(args: argparse.Namespace) -> int:
    t = canonical_cyclic(args.q, args.p)
    s = hj_string(t)
    print(f"L({args.q},{args.p}) -> {t}: entries {list(s.entries)} "
          f"length {s.length}")
    return 0


def cmd_resolve(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    report = describe(spec, tolerance=_tolerance(args))
    if args.format == "dot":
        print(export_dot(report, "resolution"), end="")
    elif args.format == "json":
        print(json_text(report_to_dict(report)["resolution"]))
    else:
        print(f"{spec.label()}: center {report.resolution.center}, arms "
              f"{[list(a) for a in report.resolution.arms]}, "
              f"k = {report.k_gamma}, tau = {report.signature}")
    return 0 if report.all_passed() else 1


def cmd_compactify(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    report = describe(spec, tolerance=_tolerance(args))
    if report.compactification is None:
        raise InvalidParameters(f"{spec.label()} has no compactification data")
    c = report.compactification
    if args.format == "dot":
        print(export_dot(report, "compactification"), end="")
    elif args.format == "json":
        print(json_text(report_to_dict(report)["compactification"]))
    else:
        print(f"{spec.label()}: b' = {c.b_prime}, kappa = {c.kappa}, "
              f"curves = {c.kappa + 1}, dual strings "
              f"{[list(s) for s in c.dual_strings]}")
    return 0 if report.all_passed() else 1


def cmd_verify(args: argparse.Namespace) -> int:
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    if args.families:
        values["families"] = args.families
    for key, flag in (("m_max", args.m_max), ("n_max", args.n_max),
                      ("p_max", args.p_max), ("tolerance", args.tolerance),
                      ("out", args.out)):
        if flag is not None:
            values[key] = flag
    if args.eta_file:
        table = json.loads(Path(args.eta_file).read_text())
        values["eta"] = {k: parse_fraction(v) for k, v in table.items()}
    config = config_from_mapping(values)
    summary = verify(config)
    print(summary.format_text())
    return summary.exit_code


def cmd_export(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    report = describe(spec, tolerance=_tolerance(args))
    text = export_dot(report, args.what)
    Path(args.out).write_text(text)
    print(f"wrote {args.out}")
    return 0 if report.all_passed() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="u2sing",
        description="Invariants of finite U(2) subgroups acting freely on S^3")
    # No default here: verify lets a config file set the tolerance unless
    # a flag does, so an unset flag must stay distinguishable.
    parser.add_argument("--tolerance", type=float,
                        help="snap tolerance for float-to-integer checks "
                        f"(default {_DEFAULT_TOLERANCE:g})")
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
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("compactify", help="compactification star and kappa")
    _add_spec_flags(p)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(func=cmd_compactify)

    p = sub.add_parser("verify", help="run the identity sweep")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--families", help="comma-separated family filter")
    p.add_argument("--m-max", dest="m_max", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--p-max", dest="p_max", type=int)
    # SUPPRESS keeps the global --tolerance when this one is not given.
    p.add_argument("--tolerance", type=float, default=argparse.SUPPRESS)
    p.add_argument("--out", help="directory for per-spec JSON reports")
    p.add_argument("--eta-file", help="JSON file {spec_key: 'num/den'}")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="write a DOT graph")
    _add_spec_flags(p)
    p.add_argument("--what", choices=["resolution", "compactification"],
                   default="resolution")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except U2SingError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
