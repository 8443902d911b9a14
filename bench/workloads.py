"""What each workload runs, and how its output is checked.

The sweep workloads are exhaustive slices of the default sweep, so they
ignore the seed.  ``cli_mix`` draws a seeded sample of single-spec CLI
calls.  Every output is checked against golden digests kept in
``bench/golden``; ``golden.py`` regenerates them.

This module imports ``u2sing`` lazily, so that the parent process of a
run never loads the package it measures.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
RESULTS_DIR = BENCH_DIR / "results"

# Flag values as ``u2sing verify`` takes them, through config_from_mapping.
SWEEPS = {
    "lens": {"families": "cyclic", "p_max": "200"},
    "dihedral_long": {"families": "dihedral,index2", "n_max": "4",
                      "m_max": "120"},
    "polyhedral": {"families": "tetrahedral,octahedral,icosahedral,index3",
                   "m_max": "120"},
}
CLI_MIX = "cli_mix"
WORKLOADS = (*SWEEPS, CLI_MIX)

CLI_COMMANDS = ("describe", "resolve", "compactify")
# 300 calls leave 15 samples above the 95th percentile; fewer let the
# sample's own spread from seed to seed approach the metrics' bounds.
CLI_CALLS_PER_PASS = 300
# Per-call digests are truncated to this many hex digits in the golden table.
CLI_DIGEST_HEX = 16


def sweep_config(name: str, out_dir: Path):
    from u2sing.sweep import config_from_mapping
    return config_from_mapping({**SWEEPS[name], "out": str(out_dir)})


def cli_population() -> list:
    """The non-cyclic specs of the default sweep, in sweep order.  The n = 1
    dihedral and index-2 specs are cyclic groups, which ``compactify``
    rejects, so they are left out (1,788 specs remain)."""
    from u2sing.sweep import SweepConfig, specs_in_sweep
    return [s for s in specs_in_sweep(SweepConfig())
            if not s.is_cyclic and not s.is_degenerate_cyclic]


def cli_argv(command: str, spec) -> list[str]:
    argv = [command, "--family", spec.family.value, "--m", str(spec.m)]
    if spec.n is not None:
        argv += ["--n", str(spec.n)]
    return argv + ["--format", "json"]


def cli_sample(population: list, seed: int, pass_index: int) -> list:
    """(command, spec) pairs for one pass, in call order.

    One spec is drawn from each of CLI_CALLS_PER_PASS equal strata of the
    population in sweep order, so that every sample holds about the same mix
    of cheap and expensive families; the calls are then shuffled, which
    denies a cross-spec cache the locality of sweep order.
    """
    rng = random.Random(f"{seed}:{pass_index}")
    n, k = len(population), CLI_CALLS_PER_PASS
    calls = []
    for i in range(k):
        spec = population[rng.randrange(i * n // k, (i + 1) * n // k)]
        calls.append((rng.choice(CLI_COMMANDS), spec))
    rng.shuffle(calls)
    return calls


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``u2sing.cli.main(argv)`` in this process; return its exit code
    and what it printed to stdout.  Its stderr is captured and dropped."""
    import contextlib
    import io
    from u2sing import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:CLI_DIGEST_HEX]


def sweep_digest(out_dir: Path, specs: list) -> tuple[str, list[str]]:
    """SHA-256 over the report files in sweep order, and the problems found
    with the set of files (missing or unexpected reports)."""
    h = hashlib.sha256()
    problems = []
    expected = set()
    for spec in specs:
        name = f"{spec.key()}.json"
        expected.add(name)
        path = out_dir / name
        if path.is_file():
            h.update(path.read_bytes())
        else:
            problems.append(f"missing report {name}")
    extra = sorted(p.name for p in out_dir.iterdir() if p.name not in expected)
    problems += [f"unexpected file {name}" for name in extra]
    return h.hexdigest(), problems


def load_sweep_golden() -> dict:
    import json
    return json.loads((GOLDEN_DIR / "sweeps.json").read_text())


def load_cli_golden() -> dict[tuple[str, str], str]:
    """{(command, spec key): truncated digest of the call's stdout}."""
    table = {}
    lines = (GOLDEN_DIR / "cli_calls.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    for line in lines[1:]:
        key, *digests = line.split("\t")
        for command, digest in zip(header[1:], digests):
            table[(command, key)] = digest
    return table
