"""Hirzebruch-Jung strings via the modified Euclidean algorithm.

For coprime 1 <= q < p the algorithm writes

    p = e1*q - a1,   q = e2*a1 - a2,   ...,   a_{k-2} = e_k * a_{k-1},

with every e_i >= 2 and the remainders strictly decreasing to zero.  The
string [e1, ..., ek] is the continued fraction expansion

    q/p = 1 / (e1 - 1/(e2 - ... - 1/ek))

and is the chain of self-intersection numbers -e1, ..., -ek resolving the
cyclic singularity L(q, p).  Everything in this module is exact integer and
rational arithmetic; there is no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .catalog import CyclicType, canonical_cyclic
from .errors import CrossCheckFailure


@dataclass(frozen=True)
class HJString:
    """Entries e_1..e_k (each >= 2) together with the source type."""

    entries: tuple[int, ...]
    source: CyclicType

    @property
    def length(self) -> int:
        return len(self.entries)

    def reversed(self) -> tuple[int, ...]:
        return tuple(reversed(self.entries))

    def __iter__(self):
        return iter(self.entries)


def hj_string(t: CyclicType) -> HJString:
    """Run the modified Euclidean algorithm on L(alpha, beta).

    The trivial type (beta = 1) yields the empty string of length zero.
    """
    if t.is_trivial:
        return HJString((), t)
    prev, cur = t.beta, t.alpha
    entries: list[int] = []
    while cur > 0:
        e = -(-prev // cur)          # ceil(prev / cur)
        entries.append(e)
        prev, cur = cur, e * cur - prev
        if not (0 <= cur < prev):
            raise CrossCheckFailure("remainder sequence failed to decrease")
    return HJString(tuple(entries), t)


def cf_value(entries: "HJString | Sequence[int]") -> Fraction:
    """Exact value q/p of the reversed continued fraction
    1 / (e1 - 1/(e2 - ...)); inverse to hj_string.

    Evaluated by the integer continuant recurrence (the tails
    [e_j, ..., e_k] = num/den satisfy num_j = e_j num_{j+1} - den_{j+1}).
    """
    seq = tuple(entries.entries if isinstance(entries, HJString) else entries)
    if not seq:
        raise ValueError("continued fraction of the empty string")
    num, den = seq[-1], 1
    for e in reversed(seq[:-1]):
        num, den = e * num - den, num
    return Fraction(den, num)


def dual_type(t: CyclicType) -> CyclicType:
    """The compactification partner L(beta - alpha, beta)."""
    return canonical_cyclic(t.beta - t.alpha, t.beta)
