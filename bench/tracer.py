"""Spans around the calls into each u2sing layer, for the traced run.

Each module binds what it calls with ``from .x import y``, so a layer's
function is wrapped at every name its callers look it up by (for example
both ``u2sing.sweep.enumerate_group`` and ``u2sing.report.enumerate_group``);
patching ``u2sing.catalog.enumerate_group`` alone would reach no caller.
A span records its name, its parent span, start and end.  Spans stay in
memory and are written when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
from collections import defaultdict
from pathlib import Path
from typing import Callable

# (module, attribute looked up by the callers in that module, span name)
BINDINGS = (
    ("u2sing.sweep", "enumerate_group", "catalog.enumerate_group"),
    ("u2sing.report", "enumerate_group", "catalog.enumerate_group"),
    ("u2sing.report", "enumerate_gamma_prime", "catalog.enumerate_gamma_prime"),
    ("u2sing.sweep", "is_fixed_point_free", "catalog.is_fixed_point_free"),
    ("u2sing.report", "is_fixed_point_free", "catalog.is_fixed_point_free"),
    ("u2sing.report", "singularity_triple", "resolution.singularity_triple"),
    ("u2sing.report", "b_gamma", "resolution.b_gamma"),
    ("u2sing.report", "resolution_graph", "resolution.resolution_graph"),
    ("u2sing.report", "compactification", "resolution.compactification"),
    ("u2sing.sweep", "compactification", "resolution.compactification"),
    ("u2sing.report", "dim_sfk", "invariants.dim_sfk"),
    ("u2sing.report", "topology_report", "invariants.topology_report"),
    ("u2sing.report", "hj_string", "hj.hj_string"),
    ("u2sing.sweep", "hj_string", "hj.hj_string"),
    ("u2sing.sweep", "describe", "report.describe"),
    ("u2sing.cli", "describe", "report.describe"),
    ("u2sing.sweep", "report_to_dict", "report.report_to_dict"),
    ("u2sing.cli", "report_to_dict", "report.report_to_dict"),
    # report_to_json reaches report_to_dict through its own module.
    ("u2sing.report", "report_to_dict", "report.report_to_dict"),
    ("u2sing.sweep", "check_eigenvalue_tables", "sweep.global_checks"),
    ("u2sing.sweep", "check_eisenstein", "sweep.global_checks"),
    ("u2sing.sweep", "check_hj_roundtrip", "sweep.global_checks"),
    ("u2sing.sweep", "check_kappa_spots", "sweep.global_checks"),
)


class Tracer:
    """Records spans and per-name totals.

    For each span name it keeps the call count, the busy time (the time
    covered by its outermost active calls), the self time (duration minus
    the time covered by direct child spans) and every duration.
    """

    def __init__(self, now: Callable[[], float]) -> None:
        self.now = now
        self.spans: list[tuple[str, int, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []      # [name, span index, child time]
        self._active: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self.unbound: list[str] = []

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def enter(self, name: str) -> None:
        parent = self._stack[-1][1] if self._stack else -1
        self.spans.append((name, parent, self.now(), 0.0))
        self._stack.append([name, len(self.spans) - 1, 0.0])
        self._active[name] += 1

    def exit(self) -> None:
        name, index, child = self._stack.pop()
        _, parent, start, _ = self.spans[index]
        end = self.now()
        self.spans[index] = (name, parent, start, end)
        dur = end - start
        self._active[name] -= 1
        self.calls[name] += 1
        if not self._active[name]:
            self.busy[name] += dur
        self.self_time[name] += dur - child
        self.durations[name].append(dur)
        if self._stack:
            self._stack[-1][2] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            self.observe(name, result)
            return result
        return traced

    def observe(self, name: str, result) -> None:
        """Counts taken from a layer's result where the work happens."""
        if name in ("catalog.enumerate_group", "catalog.enumerate_gamma_prime"):
            self.counts["elements_enumerated"] += result.order
            if not self.active("sweep.global_checks"):
                self.counts["spec_enumerations"] += 1
        elif name == "catalog.is_fixed_point_free":
            if not self.active("sweep.global_checks"):
                self.counts["spec_freeness_checks"] += 1
        elif name == "resolution.compactification":
            lo, hi = result.b_prime.window
            self.counts["b_prime_candidates"] += hi - lo + 1
            self.counts["b_prime_solved"] += 1
        elif name == "report.describe" and self.active("cli.main"):
            self.counts["cli_describes"] += 1

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.unbound.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: index, parent index, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index\tparent\tname\tstart\tend\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
