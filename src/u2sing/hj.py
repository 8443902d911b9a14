"""Hirzebruch-Jung strings via the modified Euclidean algorithm.

For coprime 1 <= q < p the algorithm writes

    p = e1*q - a1,   q = e2*a1 - a2,   ...,   a_{k-2} = e_k * a_{k-1},

with every e_i >= 2 and the remainders strictly decreasing to zero.  The
string [e1, ..., ek] is the continued fraction expansion

    q/p = 1 / (e1 - 1/(e2 - ... - 1/ek))

and is the chain of self-intersection numbers -e1, ..., -ek resolving the
cyclic singularity L(q, p).  A string is its entries tuple: ``hj_entries``
is the one implementation of the algorithm, ``hj_string`` gives the entries
of a ``CyclicType``, and the stages that need the type keep it beside the
string.  Everything in this module is exact integer and rational
arithmetic; there is no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .catalog import CyclicType, canonical_cyclic


def hj_entries(alpha: int, beta: int) -> tuple[int, ...]:
    """The entries of L(alpha, beta), for coprime 0 <= alpha < beta, by the
    modified Euclidean loop; the trivial type L(0, 1) gives ().

    A step with entry 2 maps (prev, cur) to (cur, cur - d) and keeps the gap
    d = prev - cur, so the entry stays 2 while cur >= d: a run of
    cur // d entries 2 is taken in one step, leaving cur mod d."""
    prev, cur = beta, alpha
    entries: list[int] = []
    while cur > 0:
        e = -(-prev // cur)          # ceil(prev / cur)
        if e == 2:
            d = prev - cur
            k = cur // d
            entries += (2,) * k
            cur -= k * d
            prev = cur + d
        else:
            entries.append(e)
            prev, cur = cur, e * cur - prev
    return tuple(entries)


def hj_string(t: CyclicType) -> tuple[int, ...]:
    """The entries of the string of L(alpha, beta); the trivial type yields
    the empty string."""
    return hj_entries(t.alpha, t.beta)


def continuant(entries: Sequence[int]) -> tuple[int, int]:
    """The integer pair (num, den) with e1 - 1/(e2 - ... - 1/ek) = num/den.

    Evaluated by the continuant recurrence: the tails [e_j, ..., e_k] =
    num/den satisfy num_j = e_j num_{j+1} - den_{j+1}, den_j = num_{j+1}.
    For the string of L(q, p) it is (p, q), already in lowest terms.
    """
    if not entries:
        raise ValueError("continued fraction of the empty string")
    num, den = 1, 0      # the empty tail: the first step gives (e_k, 1)
    for e in reversed(entries):
        num, den = e * num - den, num
    return num, den


def cf_value(entries: Sequence[int]) -> Fraction:
    """Exact value q/p of the reversed continued fraction
    1 / (e1 - 1/(e2 - ...)); inverse to hj_string.

    Public API and the tests' reference for the Seifert solution: the
    pipeline itself reads the pair (p, q) from ``continuant`` and builds no
    ``Fraction`` (``resolution._seifert_solution``)."""
    num, den = continuant(entries)
    return Fraction(den, num)


def dual_type(t: CyclicType) -> CyclicType:
    """The compactification partner L(beta - alpha, beta)."""
    return canonical_cyclic(t.beta - t.alpha, t.beta)
