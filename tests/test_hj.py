"""Modified Euclidean algorithm and continued fractions, all exact."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import u2sing.hj
import u2sing.sweep
from u2sing.catalog import CyclicType, canonical_cyclic
from u2sing.hj import cf_value, continuant, dual_type, hj_entries, hj_string
from u2sing.sweep import (VerifySummary, check_hj_roundtrip,
                          config_from_mapping, verify)


def test_hj_string_examples():
    # hand runs of the recursion p = e1 q - a1, ...
    for p in (2, 3, 7, 11):
        assert hj_string(canonical_cyclic(1, p)) == (p,)
    assert hj_string(canonical_cyclic(2, 3)) == (2, 2)   # 3=2*2-1, 2=2*1
    assert hj_string(canonical_cyclic(3, 5)) == (2, 3)   # 5=2*3-1, 3=3*1
    assert hj_string(canonical_cyclic(4, 7)) == (2, 4)
    assert hj_string(canonical_cyclic(5, 7)) == (2, 2, 3)


def test_trivial_type_empty():
    s = hj_string(canonical_cyclic(0, 1))
    assert s == () and len(s) == 0


def test_cf_value_examples():
    assert cf_value([5]) == F(1, 5)
    assert cf_value([2, 2]) == F(2, 3)                 # 1/(2 - 1/2)
    assert cf_value([2, 3]) == F(3, 5)
    assert cf_value(hj_string(canonical_cyclic(5, 7))) == F(5, 7)


def test_continuant_examples():
    assert continuant([5]) == (5, 1)
    assert continuant([2, 2]) == (3, 2)
    assert continuant((2, 2, 3)) == (7, 5)
    assert continuant(hj_string(canonical_cyclic(3, 5))) == (5, 3)
    assert continuant([3, 1, 3]) == (3, 2)      # not an HJ string: a 1
    with pytest.raises(ValueError):
        continuant(())


def _one_step_entries(alpha, beta):
    """Reference copy of the modified Euclidean loop, one entry per step."""
    prev, cur = beta, alpha
    entries = []
    while cur > 0:
        e = -(-prev // cur)
        entries.append(e)
        prev, cur = cur, e * cur - prev
    return tuple(entries)


def test_hj_entries_equal_the_one_step_loop_to_p_500():
    for p in range(2, 501):
        for q in range(1, p):
            if math.gcd(q, p) == 1:
                assert hj_entries(q, p) == _one_step_entries(q, p), (q, p)
    assert hj_entries(0, 1) == hj_string(canonical_cyclic(0, 1)) == ()


@given(st.integers(2, 10**6), st.data())
@settings(max_examples=200, deadline=None)   # q = p - 1 gives p - 1 entries
def test_hj_entries_equal_the_one_step_loop(p, data):
    q = data.draw(st.integers(1, p - 1).filter(lambda q: math.gcd(q, p) == 1))
    assert hj_entries(q, p) == _one_step_entries(q, p)


def _sweep_with(monkeypatch, strings):
    """check_hj_roundtrip to p = 7 with some strings replaced."""
    def patched(alpha, beta):
        return strings.get((alpha, beta), hj_entries(alpha, beta))
    monkeypatch.setattr(u2sing.sweep, "hj_entries", patched)
    summary = VerifySummary()
    check_hj_roundtrip(summary, 7)
    assert summary.check_names() == ["hj_round_trip_sweep"]
    return summary.exit_code, [detail for *_, detail in summary.failures]


@pytest.mark.parametrize("strings,detail", [
    ({}, ""),
    ({(2, 5): (3, 3)}, "round trip failed at L(2,5)"),
    ({(2, 3): (3, 1, 3)}, "round trip failed at L(2,3)"),   # right value
    ({(3, 5): (2, 4)}, "round trip failed at L(3,5)"),
])
def test_hj_round_trip_sweep_fails_on_a_wrong_string(monkeypatch, strings,
                                                     detail):
    assert _sweep_with(monkeypatch, strings) == (
        (1, [detail]) if detail else (0, []))


def test_hj_round_trip_sweep_meets_every_coprime_pair_once(monkeypatch):
    met = []

    def recording(alpha, beta):
        met.append((alpha, beta))
        return hj_entries(alpha, beta)
    monkeypatch.setattr(u2sing.sweep, "hj_entries", recording)
    summary = VerifySummary()
    check_hj_roundtrip(summary, 60)
    assert summary.exit_code == 0
    coprime = [(q, p) for p in range(2, 61) for q in range(1, p)
               if math.gcd(q, p) == 1]
    assert sorted(met) == sorted(coprime)
    assert u2sing.sweep._totient_sum(60) == len(coprime)


def test_hj_round_trip_sweep_counts_the_pairs(monkeypatch):
    # phi(2) + ... + phi(30) is 277; a walk that meets another count missed
    # or repeated a pair
    monkeypatch.setattr(u2sing.sweep, "_totient_sum", lambda n: 278)
    summary = VerifySummary()
    check_hj_roundtrip(summary, 30)
    assert summary.failures == [
        ("global", "hj_round_trip_sweep",
         "the walk met 277 pairs, not the 278 coprime pairs with p <= 30")]


def test_verify_still_checks_continuant(monkeypatch):
    # the global round trip generates continuants inline; each spec's
    # hj_round_trip check calls hj.continuant directly
    real = u2sing.hj.continuant
    monkeypatch.setattr(u2sing.hj, "continuant",
                        lambda s: (real(s)[0], real(s)[1] + 1))
    summary = verify(config_from_mapping({"families": "cyclic", "p_max": "30"}))
    ok, bad = summary.passed_failed("hj_round_trip")
    assert bad > 0 and summary.exit_code == 1
    assert summary.passed_failed("hj_round_trip_sweep") == (1, 0)
    # only the b' oracle of the kappa spots reaches it, reading the Seifert
    # solution through hj.continuant: its refusal is recorded, and the
    # sweep still ends with a summary
    assert summary.passed_failed("kappa_spot_values") == (0, 3)


def test_dual_type_examples():
    assert dual_type(canonical_cyclic(1, 2)) == canonical_cyclic(1, 2)
    assert dual_type(canonical_cyclic(2, 5)) == canonical_cyclic(3, 5)
    assert dual_type(canonical_cyclic(2, 3)) == canonical_cyclic(1, 3)
    # CyclicType(beta, alpha) is L(alpha, beta).
    assert dual_type(canonical_cyclic(2, 5)) == CyclicType(5, 3)
    assert dual_type(canonical_cyclic(1, 2)) == CyclicType(2, 1)
    assert dual_type(canonical_cyclic(2, 3)) == CyclicType(3, 1)


def test_round_trip_and_duality_sweep():
    for p in range(2, 151):
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            s = hj_string(canonical_cyclic(q, p))
            assert all(e >= 2 for e in s)
            assert cf_value(s) == F(q, p)
            q_star = pow(q, -1, p)
            assert s[::-1] == hj_string(canonical_cyclic(q_star, p))


@given(st.integers(2, 2000), st.data())
@settings(max_examples=200)
def test_round_trip_random(p, data):
    units = [q for q in range(1, min(p, 60)) if math.gcd(q, p) == 1]
    q = data.draw(st.sampled_from(units))
    s = hj_string(canonical_cyclic(q, p))
    assert cf_value(s) == F(q, p)
    assert all(e >= 2 for e in s)
