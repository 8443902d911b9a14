"""Sweep configuration and the verification harness.

``verify`` walks every catalog spec inside the configured bounds, runs the
full describe pipeline, and aggregates each named cross-check into a
pass/fail count.  Global identities that are not per-spec (the Eisenstein
cotangent identity, the Hirzebruch-Jung round trip over every string
generated from its continuant, the three eigenvalue tables, the
blow-up-count spot values) are checked once per sweep.  The
summary's exit code is 0 exactly when no check failed; partial results are
still written when an output directory is set.  An exception raised while
enumerating or describing one spec is recorded as a failing ``describe``
check whose detail starts with the exception's class name, and the sweep
goes on.
"""

from __future__ import annotations

import json
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .catalog import (DEFAULT_TOLERANCE, Family, GroupSpec,
                      eigenvalue_histogram, enumerate_group,
                      is_fixed_point_free)
from .errors import InvalidParameters
from .hj import hj_entries
from .invariants import eisenstein_residuals
from .report import InvariantReport, describe, report_to_json
from .resolution import (b_gamma, compactification, resolution_graph,
                         table_singularities)

ALL_FAMILIES = tuple(Family)


@dataclass
class SweepConfig:
    families: tuple[Family, ...] = ALL_FAMILIES
    m_max: int = 120
    n_max: int = 24
    p_max: int = 200
    hj_p_max: int = 500
    eisenstein_n_max: int = 200
    eta: dict[str, Fraction] = field(default_factory=dict)
    out_dir: str | None = None

    def validate(self) -> "SweepConfig":
        if min(self.m_max, self.n_max, self.p_max) < 1:
            raise InvalidParameters("sweep bounds must be positive")
        # The two global identities start at p = 2 and n = 2; a lower bound
        # would record a pass that checked nothing.
        if min(self.hj_p_max, self.eisenstein_n_max) < 2:
            raise InvalidParameters("hj_p_max and eisenstein_n_max must be >= 2")
        return self


def specs_in_sweep(config: SweepConfig) -> Iterator[GroupSpec]:
    """Every spec within the bounds that the ``GroupSpec`` constructor
    accepts, one family after another in a fixed order, cyclic groups last:
    each candidate's parameters are built into a spec, and a refused one is
    skipped."""
    ms, ns = range(1, config.m_max + 1), range(1, config.n_max + 1)
    candidates = {
        Family.DIHEDRAL: ((m, n) for n in ns for m in ms),
        Family.INDEX2: ((m, n) for n in ns for m in ms),
        Family.TETRAHEDRAL: zip(ms),
        Family.OCTAHEDRAL: zip(ms),
        Family.ICOSAHEDRAL: zip(ms),
        Family.INDEX3: zip(ms),
        Family.CYCLIC: ((q, p) for p in range(2, config.p_max + 1)
                        for q in range(1, p)),
    }
    for family, params in candidates.items():
        if family in config.families:
            build = getattr(GroupSpec, family.value)
            for args in params:
                try:
                    spec = build(*args)
                except InvalidParameters:
                    continue
                yield spec


@dataclass
class VerifySummary:
    counts: Counter = field(default_factory=Counter)        # (check, passed) -> n
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    specs_processed: int = 0
    enumeration_seconds: float = 0.0      # enumerate_group calls alone
    # The slowest non-cyclic spec, from the end of its enumeration to the
    # end of its describe: every stage after enumeration.
    max_deformation_seconds: float = 0.0
    total_seconds: float = 0.0

    def record(self, spec_label: str, name: str, passed: bool, detail: str) -> None:
        self.counts[(name, passed)] += 1
        if not passed:
            self.failures.append((spec_label, name, detail))

    def record_report(self, report: InvariantReport) -> None:
        label = report.spec.label()
        for c in report.checks:
            self.record(label, c.name, c.passed, c.detail)

    @property
    def exit_code(self) -> int:
        return 0 if not self.failures else 1

    def check_names(self) -> list[str]:
        return sorted({name for name, _ in self.counts})

    def passed_failed(self, name: str) -> tuple[int, int]:
        return self.counts[(name, True)], self.counts[(name, False)]

    def format_text(self) -> str:
        """The counts, warnings and exit status; no wall time, so that two
        runs of one sweep print the same text."""
        lines = [f"specs processed: {self.specs_processed}"]
        for name in self.check_names():
            ok, bad = self.passed_failed(name)
            status = "ok" if bad == 0 else "FAIL"
            lines.append(f"  {name:34s} {ok:6d} passed {bad:4d} failed   [{status}]")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        lines.append(f"exit status: {self.exit_code}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Global (sweep-level) identities
# ---------------------------------------------------------------------------

_TABLE_T = {("0", "0"): 1, ("1/2", "1/2"): 1, ("1/4", "3/4"): 6,
            ("1/6", "5/6"): 8, ("1/3", "2/3"): 8}
_TABLE_O = {("0", "0"): 1, ("1/2", "1/2"): 1, ("1/4", "3/4"): 18,
            ("1/6", "5/6"): 8, ("1/3", "2/3"): 8,
            ("1/8", "7/8"): 6, ("3/8", "5/8"): 6}
_TABLE_I = {("0", "0"): 1, ("1/2", "1/2"): 1, ("1/4", "3/4"): 30,
            ("1/6", "5/6"): 20, ("1/3", "2/3"): 20,
            ("1/10", "9/10"): 12, ("1/5", "4/5"): 12,
            ("3/10", "7/10"): 12, ("2/5", "3/5"): 12}


def check_eigenvalue_tables(summary: VerifySummary) -> None:
    """Tables of eigenvalue multiplicities for the three exceptional binary
    polyhedral groups, entry for entry."""
    for spec, table in ((GroupSpec.tetrahedral(1), _TABLE_T),
                        (GroupSpec.octahedral(1), _TABLE_O),
                        (GroupSpec.icosahedral(1), _TABLE_I)):
        hist = eigenvalue_histogram(enumerate_group(spec))
        got = {(str(a), str(b)): c for (a, b), c in hist.items()}
        summary.record(spec.label(), "eigenvalue_tables", got == table,
                       f"got {got}")


def check_eisenstein(summary: VerifySummary, n_max: int) -> None:
    worst, at = 0.0, (0, 0)
    for n in range(2, n_max + 1):
        r = eisenstein_residuals(n)
        k = int(r.argmax())         # first maximum, as a k-ordered scan
        if r[k] > worst:
            worst, at = float(r[k]), (n, k)
    summary.record("global", "eisenstein_identity", worst < DEFAULT_TOLERANCE,
                   f"worst residual {worst:.3e} at (n,k)={at}")


def _totient_sum(n: int) -> int:
    """The number of coprime pairs 1 <= q < p <= n: phi(2) + ... + phi(n),
    by a totient sieve."""
    phi = list(range(n + 1))
    for i in range(2, n + 1):
        if phi[i] == i:                  # i is prime
            for j in range(i, n + 1, i):
                phi[j] -= phi[j] // i
    return sum(phi[2:])


def check_hj_roundtrip(summary: VerifySummary, p_max: int) -> None:
    """Every string with entries >= 2 whose continuant numerator is at most
    p_max is generated from its continuant, and ``hj_entries`` must give it
    back from its pair.

    The walk is depth-first from the empty tail (1, 0): prepending an entry
    e >= 2 to a string with continuant (p, q) gives continuant (e p - q, p),
    so a string is the L(q, p) of its pair by construction.  Distinct
    strings meet distinct pairs once ``hj_entries`` gives each its own
    string back, so meeting phi(2) + ... + phi(p_max) of them covers every
    coprime pair q < p <= p_max once: the HJ expansion is the unique string
    with entries >= 2 of its pair.  Reversal duality follows from that
    uniqueness, since a reversed string has entries >= 2 and continuant
    (p, q^-1 mod p); ``tests/test_hj.py`` tests it directly."""
    seen, detail = 0, ""
    stack = [((), 1, 0)]
    while stack and not detail:
        s, p, q = stack.pop()
        for e in range(2, (p_max + q) // p + 1):
            child, num = (e,) + s, e * p - q
            if hj_entries(p, num) != child:
                detail = f"round trip failed at L({p},{num})"
                break
            seen += 1
            stack.append((child, num, p))
    pairs = _totient_sum(p_max)
    if not detail and seen != pairs:
        detail = (f"the walk met {seen} pairs, not the {pairs} coprime "
                  f"pairs with p <= {p_max}")
    summary.record("global", "hj_round_trip_sweep", not detail, detail)


_KAPPA_SPOTS = ((GroupSpec.dihedral(1, 2), 7), (GroupSpec.dihedral(1, 3), 8),
                (GroupSpec.index2(2, 3), 8))


def check_kappa_spots(summary: VerifySummary) -> None:
    """Blow-up counts of the three smallest cases, by the table route:
    table triple, b_Gamma, resolution, compactification.  A stage that
    raises fails the spot, as it fails a spec's describe."""
    for spec, expected in _KAPPA_SPOTS:
        try:
            triple = table_singularities(spec)
            b = b_gamma(spec, triple)
            res = resolution_graph(spec, triple, b)
            kappa = compactification(spec, res).b_prime.kappa
        except Exception as exc:
            summary.record(spec.label(), "kappa_spot_values", False,
                           _failure(exc))
            continue
        summary.record(spec.label(), "kappa_spot_values", kappa == expected,
                       f"kappa = {kappa}, expected {expected}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _failure(exc: Exception) -> str:
    """The exception's class name and text, and where it was raised."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} (at {Path(where.filename).name}:"
            f"{where.lineno} in {where.name})")


def verify(config: SweepConfig) -> VerifySummary:
    config.validate()
    summary = VerifySummary()
    t_start = time.monotonic()
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    unread_eta = set(config.eta)

    for spec in specs_in_sweep(config):
        summary.specs_processed += 1
        eta = config.eta.get(spec.key())
        group = report = None
        try:                             # one bad spec must not end the sweep
            t0 = time.monotonic()
            group = enumerate_group(spec)
            t1 = time.monotonic()
            summary.enumeration_seconds += t1 - t0
            report = describe(spec, eta=eta, group=group)
            summary.record_report(report)
            if report.topology is not None:      # with eta: an eta_bound check
                unread_eta.discard(spec.key())
        except Exception as exc:
            summary.record(spec.label(), "describe", False, _failure(exc))
            # describe records order and freeness itself; when it raised
            # they are recorded here, so that every spec still carries both.
            if group is None:
                for name in ("order_matches_table", "fixed_point_free"):
                    summary.record(spec.label(), name, False,
                                   "group not enumerated")
            elif report is None:
                summary.record(spec.label(), "order_matches_table",
                               group.order == spec.expected_order(), "")
                try:            # freeness may raise as describe did
                    free, detail = is_fixed_point_free(group), ""
                except Exception as again:
                    free, detail = False, _failure(again)
                summary.record(spec.label(), "fixed_point_free", free, detail)
        if group is not None and not spec.is_cyclic \
                and not spec.is_degenerate_cyclic:
            summary.max_deformation_seconds = max(
                summary.max_deformation_seconds, time.monotonic() - t1)
        if out_dir is not None and report is not None:
            path = out_dir / f"{spec.key()}.json"
            path.write_text(report_to_json(report, indent=1))

    if unread_eta:
        summary.warnings.append("no eta_bound check read the eta value of "
                                + ", ".join(sorted(unread_eta)))
    if summary.specs_processed == 0:
        summary.warnings.append("no spec matched the sweep filters; "
                                "all checks pass vacuously")
    else:
        check_eigenvalue_tables(summary)
        check_eisenstein(summary, config.eisenstein_n_max)
        check_hj_roundtrip(summary, config.hj_p_max)
        check_kappa_spots(summary)

    summary.total_seconds = time.monotonic() - t_start
    return summary


# ---------------------------------------------------------------------------
# Flat key=value config files
# ---------------------------------------------------------------------------

def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (AttributeError, ValueError, ZeroDivisionError):
        raise InvalidParameters(
            f"eta value {text!r} is not a fraction num/den") from None


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InvalidParameters(f"cannot read {path}: {exc.strerror}") from None


def parse_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment.  The keys are those
    of ``config_from_mapping``; ``eta.<spec_key>`` entries build the eta
    table."""
    values: dict = {}
    eta: dict[str, Fraction] = {}
    for lineno, raw in enumerate(_read(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameters(f"{path}:{lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key.startswith("eta."):
            eta[key[4:]] = parse_fraction(value)
        else:
            values[key] = value
    if eta:
        values["eta"] = eta
    return values


def parse_eta_file(path: str | Path) -> dict[str, Fraction]:
    """The JSON object {spec_key: "num/den"} of an eta file."""
    text = _read(path)
    try:
        return {k: parse_fraction(v) for k, v in json.loads(text).items()}
    except (AttributeError, ValueError, InvalidParameters) as exc:
        raise InvalidParameters(
            f"{path}: not a JSON object of fractions ({exc})") from None


_INT_KEYS = ("m_max", "n_max", "p_max", "hj_p_max", "eisenstein_n_max")


def config_from_mapping(values: dict) -> SweepConfig:
    """The validated SweepConfig of ``values``; an unknown key or a value
    that does not parse raises InvalidParameters naming the key."""
    config = SweepConfig()
    for key, value in values.items():
        try:
            if key == "families":
                names = value.split(",") if isinstance(value, str) else value
                config.families = tuple(Family(x.strip()) for x in names)
            elif key in _INT_KEYS:
                setattr(config, key, int(value))
            elif key == "out":
                config.out_dir = str(value) if value else None
            elif key == "eta":
                config.eta = dict(value)
            else:
                raise InvalidParameters(
                    f"unknown config key {key!r}; the keys are families, "
                    f"{', '.join(_INT_KEYS)}, out and eta.<spec_key>")
        except (TypeError, ValueError):
            raise InvalidParameters(
                f"config key {key}: cannot parse {value!r}") from None
    return config.validate()
