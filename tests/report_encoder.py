"""The report encoder on Python data: the reference for the JSON writer.

``report.report_to_json`` writes a report object's text in one walk, and
``report.report_to_dict`` parses that text.  This is the encoder that the
writer replaced, kept so that the tests compare the writer with a route that
builds the data first: ``json.dumps(encode(obj), indent=k)`` must be the
writer's text at indent ``k``, byte for byte.  A graph's matrix is built
here as a list of lists (``intersection_matrix``); the writer draws it row
by row from the weights and edges.
"""

from enum import Enum
from fractions import Fraction

from u2sing.catalog import GroupSpec
from u2sing.report import _SCALAR_TEXT, _fields
from u2sing.resolution import PlumbingGraph

_SCALARS = frozenset(_SCALAR_TEXT)


def intersection_matrix(g: PlumbingGraph) -> list[list[int]]:
    """The weights of ``g`` on the diagonal and a 1 for each edge."""
    w = g.weights()
    n = len(w)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = w[i]
    for i, j in g._edges():
        mat[i][j] = mat[j][i] = 1
    return mat


def encode(x):
    """JSON data for a non-scalar: a tuple becomes a list, a Fraction
    {"num", "den"}, an Enum its value and a dataclass an object of its fields;
    a GroupSpec omits unset parameters, a PlumbingGraph adds its matrix."""
    t = type(x)
    if t is tuple:      # the report's tuples are homogeneous
        if not x or type(x[0]) in _SCALARS:
            return list(x)
        return [encode(v) for v in x]
    if t is Fraction:
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, Enum):
        return x.value
    out = {}
    for name, key in _fields(t):
        v = getattr(x, name)
        out[key] = v if type(v) in _SCALARS else encode(v)
    if t is GroupSpec:
        return {k: v for k, v in out.items() if v is not None}
    if t is PlumbingGraph:
        out["matrix"] = intersection_matrix(x)
    return out
