"""Modified Euclidean algorithm and continued fractions, all exact."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import u2sing.sweep
from u2sing.catalog import CyclicType, canonical_cyclic
from u2sing.hj import HJString, cf_value, continuant, dual_type, hj_string
from u2sing.sweep import VerifySummary, check_hj_roundtrip


def test_hj_string_examples():
    # hand runs of the recursion p = e1 q - a1, ...
    for p in (2, 3, 7, 11):
        assert hj_string(canonical_cyclic(1, p)).entries == (p,)
    assert hj_string(canonical_cyclic(2, 3)).entries == (2, 2)   # 3=2*2-1, 2=2*1
    assert hj_string(canonical_cyclic(3, 5)).entries == (2, 3)   # 5=2*3-1, 3=3*1
    assert hj_string(canonical_cyclic(4, 7)).entries == (2, 4)
    assert hj_string(canonical_cyclic(5, 7)).entries == (2, 2, 3)


def test_trivial_type_empty():
    s = hj_string(canonical_cyclic(0, 1))
    assert s.entries == () and s.length == 0


def test_cf_value_examples():
    assert cf_value([5]) == F(1, 5)
    assert cf_value([2, 2]) == F(2, 3)                 # 1/(2 - 1/2)
    assert cf_value([2, 3]) == F(3, 5)
    assert cf_value(HJString((2, 2, 3), canonical_cyclic(5, 7))) == F(5, 7)


def test_continuant_examples():
    assert continuant([5]) == (5, 1)
    assert continuant([2, 2]) == (3, 2)
    assert continuant((2, 2, 3)) == (7, 5)
    assert continuant(HJString((2, 3), canonical_cyclic(3, 5))) == (5, 3)
    assert continuant([3, 1, 3]) == (3, 2)      # not an HJ string: a 1
    with pytest.raises(ValueError):
        continuant(())


def _sweep_with(monkeypatch, strings):
    """check_hj_roundtrip to p = 7 with some strings replaced."""
    def patched(t):
        s = hj_string(t)
        return HJString(strings.get((t.alpha, t.beta), s.entries), t)
    monkeypatch.setattr(u2sing.sweep, "hj_string", patched)
    summary = VerifySummary()
    check_hj_roundtrip(summary, 7)
    assert summary.check_names() == ["hj_round_trip_sweep"]
    return summary.exit_code, [detail for *_, detail in summary.failures]


@pytest.mark.parametrize("strings,detail", [
    ({}, ""),
    ({(2, 5): (3, 3)}, "round trip failed at L(2,5)"),
    ({(2, 3): (3, 1, 3)}, "round trip failed at L(2,3)"),   # right value
    ({(3, 5): (2, 4)}, "reversal duality failed at L(2,5)"),
])
def test_hj_round_trip_sweep_fails_on_a_wrong_string(monkeypatch, strings,
                                                     detail):
    assert _sweep_with(monkeypatch, strings) == (
        (1, [detail]) if detail else (0, []))


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
            assert all(e >= 2 for e in s.entries)
            assert cf_value(s) == F(q, p)
            q_star = pow(q, -1, p)
            assert s.reversed() == hj_string(canonical_cyclic(q_star, p)).entries


@given(st.integers(2, 2000), st.data())
@settings(max_examples=200)
def test_round_trip_random(p, data):
    units = [q for q in range(1, min(p, 60)) if math.gcd(q, p) == 1]
    q = data.draw(st.sampled_from(units))
    s = hj_string(canonical_cyclic(q, p))
    assert cf_value(s) == F(q, p)
    assert all(e >= 2 for e in s.entries)
