"""What the benchmark under ``bench/`` reads from ``u2sing``, pinned in
tier-1, so that a renamed function or a changed record shape fails here
and not only in a traced benchmark run.

Nothing is imported from ``bench/``.  The names and values below are
copied from it: the bindings of ``bench/tracer.py`` that resolve, the
fields its counters and ``bench/worker.py`` read, and the flag values of
``bench/workloads.py``'s sweeps.  A change to either side has to change
both.
"""

import importlib

import pytest

import u2sing.report as report
import u2sing.sweep as sweep
from u2sing.catalog import (Family, GroupSpec, enumerate_gamma_prime,
                            enumerate_group)
from u2sing.errors import CrossCheckFailure
from u2sing.resolution import compactification

from stages import table_resolution

# (caller, name, home): the tracer wraps ``name`` in the caller's module,
# where the caller looks it up; it must be the home module's function.
TRACED = (
    ("u2sing.sweep", "enumerate_group", "u2sing.catalog"),
    ("u2sing.report", "enumerate_group", "u2sing.catalog"),
    ("u2sing.report", "enumerate_gamma_prime", "u2sing.catalog"),
    ("u2sing.report", "is_fixed_point_free", "u2sing.catalog"),
    ("u2sing.report", "singularity_triple", "u2sing.resolution"),
    ("u2sing.report", "b_gamma", "u2sing.resolution"),
    ("u2sing.report", "resolution_graph", "u2sing.resolution"),
    ("u2sing.report", "compactification", "u2sing.resolution"),
    ("u2sing.sweep", "compactification", "u2sing.resolution"),
    ("u2sing.report", "dim_sfk", "u2sing.invariants"),
    ("u2sing.report", "topology_report", "u2sing.invariants"),
    ("u2sing.report", "hj_string", "u2sing.hj"),
    ("u2sing.sweep", "describe", "u2sing.report"),
    ("u2sing.cli", "describe", "u2sing.report"),
    ("u2sing.report", "report_to_dict", "u2sing.report"),
    ("u2sing.sweep", "check_eigenvalue_tables", "u2sing.sweep"),
    ("u2sing.sweep", "check_eisenstein", "u2sing.sweep"),
    ("u2sing.sweep", "check_hj_roundtrip", "u2sing.sweep"),
    ("u2sing.sweep", "check_kappa_spots", "u2sing.sweep"),
)

# The sweep workloads' flags, as ``u2sing verify`` takes them, with the
# number of specs each names.
SWEEPS = {
    "lens": ({"families": "cyclic", "p_max": "200"}, 12231),
    "dihedral_long": ({"families": "dihedral,index2", "n_max": "4",
                       "m_max": "120"}, 320),
    "polyhedral": ({"families": "tetrahedral,octahedral,icosahedral,index3",
                    "m_max": "120"}, 132),
}

SPECS = (GroupSpec.cyclic(3, 5), GroupSpec.dihedral(5, 2),
         GroupSpec.dihedral(3, 1), GroupSpec.index2(2, 3),
         GroupSpec.tetrahedral(7), GroupSpec.octahedral(5),
         GroupSpec.icosahedral(7), GroupSpec.index3(3))


def test_every_traced_name_resolves_where_its_caller_looks_it_up():
    for caller, name, home in TRACED:
        fn = getattr(importlib.import_module(caller), name, None)
        assert callable(fn), (caller, name)
        assert fn is getattr(importlib.import_module(home), name), \
            (caller, name)


def test_the_entry_points_the_benchmark_calls_resolve():
    from u2sing import cli
    for fn in (cli.main, cli.build_parser, sweep.verify,
               sweep.specs_in_sweep, sweep.config_from_mapping):
        assert callable(fn)
    cli.build_parser()


def test_each_enumeration_has_an_int_order():
    for spec in SPECS:
        group = enumerate_group(spec)
        assert type(group.order) is int
        assert group.order == spec.expected_order(), spec
        if not spec.is_cyclic:
            assert type(enumerate_gamma_prime(spec).order) is int, spec


def test_the_b_prime_window_is_an_int_pair():
    for spec in SPECS:
        if spec.is_cyclic or spec.is_degenerate_cyclic:
            continue
        res = table_resolution(spec)
        lo, hi = compactification(spec, res).b_prime.window
        assert type(lo) is int and type(hi) is int and lo <= hi, spec


def test_the_summary_fields_of_a_sweep_that_fails(monkeypatch,
                                                  small_global_bounds):
    # b_Gamma fails on every non-cyclic spec, so failures is not empty.
    def b_gamma(spec, triple):
        raise CrossCheckFailure("injected")

    monkeypatch.setattr(report, "b_gamma", b_gamma)
    # The benchmark times each spec by wrapping sweep.specs_in_sweep, so
    # verify must look it up when it runs.
    seen = []
    untimed = sweep.specs_in_sweep

    def counted(config):
        for spec in untimed(config):
            seen.append(spec)
            yield spec

    monkeypatch.setattr(sweep, "specs_in_sweep", counted)
    summary = sweep.verify(
        sweep.config_from_mapping({"families": "index3", "m_max": "9"}))
    assert len(seen) == summary.specs_processed == 2
    assert summary.failures
    for failure in summary.failures:
        label, check, detail = failure
        assert isinstance(failure, tuple)
        assert all(type(x) is str for x in (label, check, detail))
    assert summary.exit_code == 1
    for seconds in (summary.enumeration_seconds,
                    summary.max_deformation_seconds):
        assert type(seconds) is float and seconds >= 0


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_a_workloads_flags_make_its_sweep(name, tmp_path):
    flags, count = SWEEPS[name]
    config = sweep.config_from_mapping({**flags, "out": str(tmp_path)})
    assert config.families == tuple(
        Family(x) for x in flags["families"].split(","))
    assert config.out_dir == str(tmp_path)
    specs = list(sweep.specs_in_sweep(config))
    assert len(specs) == count
    assert len({s.key() for s in specs}) == count
