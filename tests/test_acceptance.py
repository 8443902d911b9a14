"""Acceptance suite: the twelve sweep-scale identities at stated tolerances.

The default sweep (m <= 120, n <= 24, p <= 200) runs once as a session
fixture; each criterion then asserts zero failures in its category and
prints one pass/fail line.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines.
"""

import time
from fractions import Fraction as F

import pytest

import u2sing.sweep
from u2sing.catalog import Family, GroupSpec
from u2sing.invariants import eisenstein_check
from u2sing.sweep import (HJ_P_MAX, SweepConfig, VerifySummary,
                          check_hj_roundtrip, specs_in_sweep, verify)

from stages import table_topology

# expected spec counts in the default sweep
N_CYCLIC = 12231          # sum of euler phi(p), 2 <= p <= 200
N_DEGENERATE = 120        # n = 1 members of the dihedral-shaped families
N_NONCYCLIC = 1788        # non-cyclic, non-degenerate
N_TOTAL = N_CYCLIC + N_DEGENERATE + N_NONCYCLIC
N_M1 = 26                 # m = 1 products (23 dihedral + T + O + I)


@pytest.fixture(scope="session")
def hj_runs() -> list[tuple[int, float]]:
    """(p_max, wall seconds) of each HJ round trip the session's sweep ran."""
    return []


@pytest.fixture(scope="session")
def sweep(hj_runs) -> VerifySummary:
    # criterion 08 times the sweep's own HJ round trip, not a second run
    def timed(summary: VerifySummary, p_max: int) -> None:
        t0 = time.monotonic()
        check_hj_roundtrip(summary, p_max)
        hj_runs.append((p_max, time.monotonic() - t0))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(u2sing.sweep, "check_hj_roundtrip", timed)
        return verify(SweepConfig())


def _criterion(num: int, title: str, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {title}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def _category(summary: VerifySummary, name: str,
              expected_passes: int | None = None) -> tuple[bool, str]:
    ok, bad = summary.passed_failed(name)
    good = bad == 0 and (expected_passes is None or ok == expected_passes)
    return good, f"{ok} passed, {bad} failed" + (
        f", expected {expected_passes}" if expected_passes else "")


def test_sweep_population(sweep):
    assert sweep.specs_processed == N_TOTAL


def test_criterion_01_order_freeness(sweep):
    ok1, d1 = _category(sweep, "order_matches_table", N_TOTAL)
    ok2, d2 = _category(sweep, "fixed_point_free", N_TOTAL)
    in_time = sweep.enumeration_seconds < 60.0
    _criterion(1, "order/freeness sweep", ok1 and ok2 and in_time,
               f"{d1}; {d2}; {sweep.enumeration_seconds:.1f}s < 60s")


def test_criterion_02_eigenvalue_tables(sweep):
    ok, detail = _category(sweep, "eigenvalue_tables", 3)
    _criterion(2, "eigenvalue tables T*/O*/I*", ok, detail)


def test_criterion_03_singularity_tables(sweep):
    ok, detail = _category(sweep, "singularity_table_agreement", N_NONCYCLIC)
    _criterion(3, "orbifold-type table vs algorithm", ok, detail)


def test_criterion_04_b_gamma(sweep):
    ok, detail = _category(sweep, "b_gamma_double_derivation", N_NONCYCLIC)
    _criterion(4, "central weight double derivation", ok, detail)


def test_criterion_05_deformation_dimensions(sweep):
    ok1, d1 = _category(sweep, "deformation_triple_agreement",
                        N_NONCYCLIC - N_M1)
    ok2, d2 = _category(sweep, "deformation_m1_gate", N_M1)
    in_time = sweep.max_deformation_seconds < 0.5
    _criterion(5, "deformation dimension three ways", ok1 and ok2 and in_time,
               f"{d1}; m=1 gates {d2}; slowest spec "
               f"{sweep.max_deformation_seconds * 1000:.0f}ms < 500ms")


def test_criterion_06_kappa_spot_values(sweep):
    ok, detail = _category(sweep, "kappa_spot_values", 3)
    _criterion(6, "blow-up counts 7/8/8", ok, detail)


def test_criterion_07_eisenstein(sweep):
    ok, detail = _category(sweep, "eisenstein_identity", 1)
    spot = eisenstein_check(3, 1) < 1e-6 and eisenstein_check(200, 399) < 1e-6
    _criterion(7, "Eisenstein cotangent identity (n <= 200)", ok and spot, detail)


def test_criterion_08_hj_round_trip(sweep, hj_runs):
    [(p_max, elapsed)] = hj_runs
    ok, detail = _category(sweep, "hj_round_trip_sweep", 1)
    _criterion(8, f"HJ round trip (p <= {HJ_P_MAX})",
               ok and p_max == HJ_P_MAX and elapsed < 5.0,
               f"{detail}; {elapsed:.2f}s < 5s")


def test_criterion_09_negative_definiteness(sweep):
    ok1, d1 = _category(sweep, "resolution_negative_definite", N_TOTAL)
    ok2, d2 = _category(sweep, "tau_equals_minus_k", N_NONCYCLIC)
    _criterion(9, "negative definite, tau = -k", ok1 and ok2, f"{d1}; {d2}")


def test_criterion_10_seifert_calibration(sweep):
    ok, detail = _category(sweep, "seifert_euler_calibration", N_NONCYCLIC)
    _criterion(10, "Seifert Euler number = -2m/h", ok, detail)


def test_criterion_11_b_prime_coherence(sweep):
    ok1, d1 = _category(sweep, "b_prime_unique", N_NONCYCLIC)
    ok2, d2 = _category(sweep, "b_prime_signature", N_NONCYCLIC)
    ok3, d3 = _category(sweep, "kappa_curve_count", N_NONCYCLIC)
    _criterion(11, "b' oracle unique, signature (1,kappa), b2 = kappa+1",
               ok1 and ok2 and ok3, f"{d1}; {d2}; {d3}")


def test_criterion_12_eta_bound(sweep, small_global_bounds):
    # equality exactly for the m = 1 families (groups inside SU(2)) when the
    # supplied eta is the equality value; strict above it for m > 1
    m1_specs = [GroupSpec.dihedral(1, n) for n in range(2, 25)] + [
        GroupSpec.tetrahedral(1), GroupSpec.octahedral(1),
        GroupSpec.icosahedral(1)]
    assert len(m1_specs) == N_M1
    eq_ok = True
    for spec in m1_specs:
        eta = table_topology(spec).implied_eta
        t = table_topology(spec, eta=eta)
        eq_ok &= bool(t.bound_holds and t.bound_is_equality)
    strict_ok = True
    sample = [s for s in specs_in_sweep(SweepConfig(families=(
        Family.DIHEDRAL, Family.TETRAHEDRAL, Family.ICOSAHEDRAL, Family.INDEX3)))
        if not s.is_degenerate_cyclic and s.m > 1][:40]
    for spec in sample:
        eta = table_topology(spec).implied_eta + F(1, 6)
        t = table_topology(spec, eta=eta)
        strict_ok &= bool(t.bound_holds and not t.bound_is_equality)
    # plumbing path: the eta table supplied through the sweep config
    table = {}
    for spec in m1_specs:
        table[spec.key()] = table_topology(spec).implied_eta
    cfg = SweepConfig(families=(Family.DIHEDRAL, Family.TETRAHEDRAL,
                                Family.OCTAHEDRAL, Family.ICOSAHEDRAL),
                      m_max=1, n_max=24, eta=table)
    table_summary = verify(cfg)
    ok_table = table_summary.counts[("eta_bound", True)] == N_M1 and \
        table_summary.counts[("eta_bound", False)] == 0
    _criterion(12, "eta bound: equality iff m = 1", eq_ok and strict_ok and ok_table,
               f"{len(m1_specs)} equality specs, {len(sample)} strict specs, "
               f"table path {table_summary.counts[('eta_bound', True)]} checks")


def test_default_sweep_exit_status(sweep):
    # the acceptance suite is the default config: exit status must be 0
    assert sweep.exit_code == 0, sweep.failures[:10]
