"""Invariants of finite U(2) subgroups acting freely on S^3.

Groups are given by explicit quaternion-pair generators [e^{i*theta}, beta].
A cyclic group is its exact ``Turns``, the powers of its generator's
eigen-turns (plus, minus) on the 1/(2p) grid, one pair per element, and
reads no float; a non-cyclic group is its exact ``Labels``, a phase step
and an element of a binary polyhedral group each, closed from generators
declared as labels, and no float is read from it.
Only Gamma' is held as rows: a ``FiniteGroup``, an (N, 3) array of rows
(a, b1, b2) of complex numbers with a = e^{i*theta} and
beta = b1 + b2*jhat.  The library enumerates the groups, locates the
cyclic orbifold points of the model quotients, builds Hirzebruch-Jung
resolution and compactification plumbing graphs, and evaluates the
deformation-dimension identities -- each quantity by at least two
independent routes, cross-checked.
"""

from .catalog import (CyclicType, Family, GroupSpec, canonical_cyclic,
                      enumerate_group)
from .hj import cf_value, dual_type, hj_string
from .report import (InvariantReport, describe, export_dot, report_from_dict,
                     report_from_json, report_to_dict, report_to_json)
from .sweep import SweepConfig, VerifySummary, specs_in_sweep, verify

__version__ = "0.1.0"

# The public API; tests/reach_audit.py gives each name's reason.
__all__ = [
    "CyclicType", "Family", "GroupSpec", "InvariantReport", "SweepConfig",
    "VerifySummary",
    "canonical_cyclic", "cf_value", "describe", "dual_type",
    "enumerate_group", "export_dot", "hj_string", "report_from_dict",
    "report_from_json", "report_to_dict", "report_to_json",
    "specs_in_sweep", "verify",
]
