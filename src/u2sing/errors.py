"""Exception hierarchy for u2sing.

Every failure mode that callers are expected to handle gets its own class;
``U2SingError`` is the common base so the CLI can map any library failure to
a nonzero exit status without enumerating subclasses.

``failure_text`` is the one text of a recorded failure: a failed stage
check's detail in a report, and a failing ``describe`` or kappa-spot
record of a sweep.
"""

import traceback
from pathlib import Path


class U2SingError(Exception):
    """Base class for all u2sing errors."""


class InvalidParameters(U2SingError):
    """Group family parameters violate the catalog coprimality conditions."""


class ClosureOverflow(U2SingError):
    """Closure enumeration exceeded twice the expected group order."""


class NotCoprime(U2SingError):
    """Cyclic type (a, beta) with gcd(a, beta) != 1."""


class OrbitCountMismatch(U2SingError):
    """The singular orbits could not be read from the Mobius image: it is
    not all of G*/+-1 (its element count is not h = |G*|/2), a pole
    stabilizer's normalizer has an order other than one or two times its
    own, or there are not exactly three orbits."""


class TableDisagreement(U2SingError):
    """The algorithmic singularity triple is not exactly the family table's;
    a triple that matches only up to alpha <-> alpha^-1 disagrees too."""


class CrossCheckFailure(U2SingError):
    """Two independent derivations of the same invariant disagree."""


class SnapFailure(U2SingError):
    """A float that must be an integer (or exact rational) is not, within
    the snap tolerance."""


class MalformedGraph(U2SingError):
    """Plumbing graph does not have the shape an operation requires."""


class NoCandidate(U2SingError):
    """No central self-intersection value satisfies all compactification
    criteria inside the scan window."""


class AmbiguousCandidate(U2SingError):
    """The compactification criteria disagree; both candidates reported in
    the exception message."""


class NotAGroup(U2SingError):
    """A G* product fails a group check: identity, Latin square, Light's
    associativity test, generation, negation or element orders; or a named
    quaternion of T*, O* or I* is not one of its elements."""


def failure_text(exc: BaseException) -> str:
    """The exception's class name and text, and where it was raised."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} (at {Path(where.filename).name}:"
            f"{where.lineno} in {where.name})")
