"""Invariants of finite U(2) subgroups acting freely on S^3.

Groups are given by explicit quaternion-pair generators [e^{i*theta}, beta].
A cyclic group is its exact ``Turns``, the powers of its generator's turns
on the 1/(2p) grid, and reads no float; a non-cyclic group is its exact
``Labels``, a phase step and an element of a binary polyhedral group each,
closed from generators declared as labels, and no float is read from it.
Only Gamma' is held as rows: a ``FiniteGroup``, an (N, 3) array of rows
(a, b1, b2) of complex numbers with a = e^{i*theta} and
beta = b1 + b2*jhat.  The library enumerates the groups, locates the
cyclic orbifold points of the model quotients, builds Hirzebruch-Jung
resolution and compactification plumbing graphs, and evaluates the
deformation-dimension identities -- each quantity by at least two
independent routes, cross-checked.
"""

from .catalog import (CyclicType, Family, FiniteGroup, GroupSpec, Labels,
                      Turns, canonical_cyclic, cyclic_equivalent_type,
                      eigenvalue_histogram, enumerate_gamma_prime,
                      enumerate_group, generators_of, is_fixed_point_free)
from .hj import cf_value, dual_type, hj_string
from .invariants import (DeformationReport, TopologyReport, closed_form_dim,
                         dim_h1_theta, dim_sfk, eisenstein_check, moduli_dim,
                         sawtooth, topology_report)
from .report import (InvariantReport, describe, export_dot, report_from_dict,
                     report_from_json, report_to_dict, report_to_json)
from .resolution import (CompactificationData, PlumbingGraph, ResolutionData,
                         b_gamma, compactification, graph_to_dot,
                         resolution_chain, resolution_graph,
                         singularity_triple, solve_b_prime)
from .sweep import SweepConfig, VerifySummary, specs_in_sweep, verify

__version__ = "0.1.0"

__all__ = [
    "CompactificationData", "CyclicType", "DeformationReport", "Family",
    "FiniteGroup", "GroupSpec", "InvariantReport", "Labels", "PlumbingGraph",
    "ResolutionData", "SweepConfig", "TopologyReport", "Turns",
    "VerifySummary",
    "b_gamma", "canonical_cyclic", "cf_value", "closed_form_dim",
    "compactification", "cyclic_equivalent_type", "describe", "dim_h1_theta",
    "dim_sfk", "dual_type", "eigenvalue_histogram", "eisenstein_check",
    "enumerate_gamma_prime", "enumerate_group", "export_dot", "generators_of",
    "graph_to_dot", "hj_string", "is_fixed_point_free", "moduli_dim",
    "report_from_dict", "report_from_json", "report_to_dict", "report_to_json",
    "resolution_chain", "resolution_graph", "sawtooth", "singularity_triple",
    "solve_b_prime", "specs_in_sweep", "topology_report", "verify",
]
