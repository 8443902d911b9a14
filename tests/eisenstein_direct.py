"""The Eisenstein cotangent identity summed directly, one (n, k) at a time:
the reference for ``invariants.eisenstein_residuals``, which evaluates every
k of one n from a single DFT."""

import math
from fractions import Fraction

import numpy as np

from u2sing.errors import InvalidParameters
from u2sing.invariants import sawtooth


def _sine_table(n: int) -> np.ndarray:
    """sin(2 pi r/n) for r = 0, ..., n-1."""
    return np.sin(2 * math.pi * np.arange(n) / n)


def eisenstein_check(n: int, k: int) -> float:
    """|LHS - RHS| of sum_{j=1}^{n-1} sin(2 pi k j/n) cot(pi j/n)
    = -2n ((k/n)).  Each sine is read from the table of sin(2 pi r/n) at
    the exact residue r = k j mod n."""
    if n < 2:
        raise InvalidParameters("Eisenstein identity needs n >= 2")
    j = np.arange(1, n)
    lhs = float(np.sum(_sine_table(n)[k * j % n] / np.tan(math.pi * j / n)))
    rhs = float(-2 * n * sawtooth(Fraction(k, n)))
    return abs(lhs - rhs)
