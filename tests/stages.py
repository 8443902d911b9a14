"""The family-table route through the pipeline stages.

Every stage takes the records of the stages before it.  Tests that start
from a spec alone build those records here, from the table triple, in the
order ``sweep.check_kappa_spots`` uses: triple, b_Gamma, resolution,
compactification.
"""

from u2sing.catalog import enumerate_gamma_prime
from u2sing.hj import dual_type, hj_string
from u2sing.invariants import dim_sfk, topology_report
from u2sing.resolution import (b_gamma, compactification, resolution_graph,
                               solve_b_prime, table_singularities)


def table_b(spec):
    return b_gamma(spec, table_singularities(spec))


def table_resolution(spec):
    triple = table_singularities(spec)
    return resolution_graph(triple, b_gamma(spec, triple))


def dual_strings(res):
    """The HJ strings of the dual types of the resolution's arms."""
    return tuple(hj_string(dual_type(t)) for t in res.types)


def table_b_prime(spec):
    res = table_resolution(spec)
    return solve_b_prime(spec, res, dual_strings(res))


def table_compactification(spec):
    return compactification(spec, table_resolution(spec))


def table_topology(spec, eta=None):
    return topology_report(spec, table_resolution(spec), eta)


def table_dim_sfk(spec):
    return dim_sfk(spec, enumerate_gamma_prime(spec), table_b(spec))
