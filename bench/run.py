"""The u2sing benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the checkout it sits in, importing
u2sing from that checkout's ``src``.  Workloads (``BENCHMARK.json`` says
why each exists):

    lens           verify over cyclic L(q,p), p <= 200, reports written
    dihedral_long  verify --families dihedral,index2 --n-max 4 --m-max 120
    polyhedral     verify --families tetrahedral,octahedral,icosahedral,index3
                   --m-max 120
    cli_mix        300 seeded single-spec calls of cli.main: describe, resolve
                   or compactify --format json on non-cyclic specs

All are closed loops with one caller; each pass runs in one process with
no threads (the benchmark also keeps NumPy's BLAS to one thread).  Sweep reports go to a
fresh directory in which each expected report file already exists, empty,
so that verify's writes overwrite them; see ``worker.py``.
``--seed`` drives the cli_mix sample; the sweeps are exhaustive slices and
ignore it.  The full default sweep (about 170 s a pass) is deliberately not
a workload; its dihedral and index-2 specs with n > 4 are the only part of
it that no workload covers.

A run first starts ``SETUP_PROBES`` fresh interpreters that import u2sing
and build the CLI parser; ``setup_s`` is the median time until they are
ready.  It then runs whole passes of the workload, each in a fresh worker
process (``worker.py``), until ``--seconds`` have passed (at least one
pass).  With ``--trace 1`` it runs one untraced pass and then the same pass
traced, and reports the per-layer metrics; end-to-end metrics come only
from untraced passes.

End-to-end metrics (``--trace 0``):

    setup_s       fresh interpreter to u2sing imported and first call ready
    sweep_s       one pass: a verify(config) call, or all cli_mix calls;
                  median over the run's passes
    call_p50_ms   latency of one call into the public entry point: each of
    call_p95_ms   the 300 cli.main calls of a cli_mix pass (nearest-rank
                  p95, 15 samples beyond it), or the one verify call of a
                  sweep pass, where both equal sweep_s
    peak_rss_mb   largest peak resident set of a worker

Times are wall times corrected to a reference host speed (see
``clock.py``); the plain wall time is printed beside them.  Every output
is checked against the golden digests in ``bench/golden``; a mismatch makes
the run incorrect (``"correct": false``, exit status 1).  A failed
operation is a spec with a failing check, a spec or call that raised, or a
CLI exit status other than 0; ``failed_ratio`` is printed with the
metrics, but it is not in ``BENCHMARK.json``: it is 0 on a healthy run,
and the bounds there are shares of a median.  Each run also writes a record with the machine's Python, NumPy,
CPU count and load averages to ``bench/results``, and a traced run writes
its spans there.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads as wl
from clock import SpeedClock

SETUP_PROBES = 11
# Every process the benchmark starts runs single-threaded: otherwise NumPy's
# OpenBLAS starts a thread per core at import, which competes with the
# measured process on a small machine and makes set-up time erratic.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
# Every worker must end this many seconds after the run starts.
RUN_LIMIT_S = 170.0
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import u2sing, "
         "u2sing.cli; u2sing.cli.build_parser(); print('ready', flush=True)")


class BenchError(Exception):
    pass


def setup_seconds() -> float:
    """One fresh interpreter, from start until u2sing is ready."""
    clock = SpeedClock()
    clock.start()
    proc = subprocess.Popen([sys.executable, "-c", PROBE, str(wl.SRC_DIR)],
                            stdout=subprocess.PIPE, cwd=wl.ROOT)
    line = proc.stdout.readline()
    clock.stop()
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
        raise BenchError(f"setup probe failed with status {proc.returncode}")
    return clock.seconds


def run_pass(workload: str, seed: int, index: int, traced: bool,
             deadline: float) -> dict:
    path = (wl.RESULTS_DIR
            / f"{workload}-seed{seed}-pass{index}-trace{int(traced)}.json")
    path.unlink(missing_ok=True)
    cmd = [sys.executable, str(wl.BENCH_DIR / "worker.py"), workload,
           str(seed), str(index), "1" if traced else "0", str(path)]
    try:
        proc = subprocess.run(cmd, cwd=wl.ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not end within the run's limit")
    if proc.returncode != 0 or not path.is_file():
        raise BenchError(f"worker for pass {index} exited with {proc.returncode}")
    record = json.loads(path.read_text())
    path.unlink()
    return record


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setup: list[float], passes: list[dict]) -> dict:
    """The end-to-end metrics; a pass that crashed before its clock started
    contributes none, and a metric with no data is left out."""
    metrics = {"setup_s": statistics.median(setup),
               "peak_rss_mb": max(p["peak_rss_mb"] for p in passes)}
    timed = [p for p in passes if "seconds" in p]
    if timed:
        metrics["sweep_s"] = statistics.median(p["seconds"] for p in timed)
    latencies = [x for p in timed for x in p["latencies_s"]]
    if latencies:
        metrics["call_p50_ms"] = statistics.median(latencies) * 1000
        metrics["call_p95_ms"] = nearest_rank(latencies, 0.95) * 1000
    return metrics


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = dict(traced.get("layers", {}))
    metrics["sweep.gate_enumeration_s"] = untraced.get("gate_enumeration_s", 0.0)
    metrics["sweep.gate_max_spec_ms"] = untraced.get("gate_max_spec_ms", 0.0)
    if "seconds" in traced and untraced.get("seconds"):
        metrics["trace.overhead_ratio"] = traced["seconds"] / untraced["seconds"]
    return metrics


def machine_info() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    definition = wl.ROOT / "BENCHMARK.json"
    if not (wl.SRC_DIR / "u2sing" / "__init__.py").is_file():
        print(f"error: no u2sing package under {wl.SRC_DIR}", file=sys.stderr)
        return 2
    if not definition.is_file():
        print(f"error: {definition} is missing", file=sys.stderr)
        return 2
    bench = json.loads(definition.read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    os.environ.update(SINGLE_THREADED)
    deadline = time.monotonic() + RUN_LIMIT_S
    machine = machine_info()
    wl.RESULTS_DIR.mkdir(exist_ok=True)
    try:
        setup = []
        if args.trace:
            passes = [run_pass(args.workload, args.seed, 0, traced, deadline)
                      for traced in (False, True)]
            metrics = per_layer(*passes)
        else:
            setup = [setup_seconds() for _ in range(SETUP_PROBES)]
            passes = []
            measure_end = time.monotonic() + args.seconds
            while True:
                t0 = time.monotonic()
                passes.append(run_pass(args.workload, args.seed, len(passes),
                                       False, deadline))
                now = time.monotonic()
                if now >= measure_end or now + (now - t0) > deadline:
                    break
            metrics = end_to_end(setup, passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    machine["loadavg_end"] = list(os.getloadavg())

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = all(p["digest_ok"] for p in passes) and not missing
    values = {m["name"]: metrics.get(m["name"], 0.0) for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  python {machine['python']}  "
          f"numpy {machine['numpy']}  nproc {machine['nproc']}  "
          f"load {machine['loadavg_start'][0]:.2f} -> "
          f"{machine['loadavg_end'][0]:.2f}")
    lines = [(m["name"], values[m["name"]], m["unit"]) for m in wanted]
    lines += [("failed_ratio", failed / max(attempted, 1), "ratio"),
              ("attempted", attempted, "count"), ("failed", failed, "count")]
    walls = [p["wall_s"] for p in passes if "wall_s" in p]
    if walls and not args.trace:
        lines += [("sweep_wall_s", statistics.median(walls), "s"),
                  ("call_samples",
                   sum(len(p.get("latencies_s", ())) for p in passes), "count")]
    for name, value, unit in lines:
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:40s} {shown} {unit}")
    for p in passes:
        state = "ok" if p["digest_ok"] else "MISMATCH"
        print(f"  digest pass {p['pass']} {'traced' if p['traced'] else 'untraced'}"
              f" {p.get('digest', '-')} {state}")
        for problem in p.get("problems", ()):
            print(f"    {problem}")
    for f in failures:
        print(f"  failure: {f['workload']} stage {f['stage']} {f['exception']}: "
              f"{f['detail']}")
    for name in missing:
        print(f"  missing metric: {name}")

    for p in passes:
        p.pop("latencies_s", None)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "machine": machine, "setup_s_samples": setup, "passes": passes,
              "metrics": values, "attempted": attempted, "failed": failed,
              "correct": correct}
    (wl.RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
