"""One pass of one workload, in a fresh process.

    python3 bench/worker.py WORKLOAD SEED PASS_INDEX TRACE RESULT_JSON

``run.py`` starts one worker per pass, so no state the program keeps in a
process (a cache, say) carries from one pass to the next.  The worker
imports u2sing from ``src`` of the checkout it sits in, runs the pass,
checks the outputs against the golden digests, and writes one JSON record.

A sweep pass is one ``u2sing.sweep.verify(config)`` call.  The clock
calibrates between specs, at the moments ``verify`` asks ``specs_in_sweep``
for the next one; the benchmark wraps that generator to find them.  A
``cli_mix`` pass is a seeded sample of ``u2sing.cli.main(argv)`` calls, each
timed alone.

With TRACE = 1 the pass runs under the tracer; the record then carries the
per-layer metrics and the spans are written next to the record.

Any exception is caught here and recorded with the stage that raised it
(the innermost u2sing function on the traceback).  A sweep that raises
counts all its specs as failed; a cli_mix call that raises counts as one
failed call, and the pass goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path

import workloads as wl
from clock import SpeedClock
from tracer import Tracer


def failure(workload: str, exc: BaseException) -> dict:
    stage = "bench"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent.name == "u2sing":
            stage = f"{path.stem}.{frame.name}"
    return {"workload": workload, "stage": stage,
            "exception": type(exc).__name__, "detail": str(exc)[:200]}


def span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def run_sweep(name: str, clock: SpeedClock, tracer: Tracer | None,
              record: dict) -> None:
    import u2sing.sweep as sweep

    wl.RESULTS_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=wl.RESULTS_DIR))
    try:
        config = wl.sweep_config(name, out_dir)
        specs = list(sweep.specs_in_sweep(config))
        record["attempted"] = len(specs)
        # verify writes each report over an empty file, as when it is run
        # again into the same directory.  On the ext4 disk of a 2-vCPU
        # virtual machine, creating 12k new files took anywhere from 0.5 to
        # 4 s, which drowned the program's own serialization and write
        # costs.  An empty file that verify fails to overwrite still fails
        # the digest.
        for spec in specs:
            (out_dir / f"{spec.key()}.json").touch()
        untimed = sweep.specs_in_sweep

        def calibrated_specs(cfg):
            for spec in untimed(cfg):
                clock.boundary()
                yield spec

        sweep.specs_in_sweep = calibrated_specs
        clock.start()
        try:
            with tracer or contextlib.nullcontext(), span(tracer, "sweep.verify"):
                summary = sweep.verify(config)
        finally:
            clock.stop()
            sweep.specs_in_sweep = untimed
        record["seconds"], record["wall_s"] = clock.seconds, clock.wall_s
        record["latencies_s"] = [clock.seconds]
        record["failed"] = min(len(specs),
                               len({label for label, _, _ in summary.failures}))
        record["failed_checks"] = [list(f) for f in summary.failures[:20]]
        record["gate_enumeration_s"] = summary.enumeration_seconds
        record["gate_max_spec_ms"] = summary.max_deformation_seconds * 1000

        golden = wl.load_sweep_golden()[name]
        digest, problems = wl.sweep_digest(out_dir, specs)
        record["digest"] = digest
        record["problems"] = problems[:20]
        record["digest_ok"] = (digest == golden["sha256"] and not problems
                               and len(specs) == golden["specs"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_cli_mix(seed: int, pass_index: int, clock: SpeedClock,
                tracer: Tracer | None, record: dict) -> None:
    calls = wl.cli_sample(wl.cli_population(), seed, pass_index)
    record["attempted"] = len(calls)
    results = []
    clock.start()
    try:
        with tracer or contextlib.nullcontext():
            for command, spec in calls:
                argv = wl.cli_argv(command, spec)
                clock.boundary()
                clock.restart_lap()
                try:
                    with span(tracer, "cli.main"):
                        code, text = wl.call_cli(argv)
                except Exception as exc:  # isolate the call, keep the pass going
                    code, text = None, ""
                    record["failures"].append(failure(wl.CLI_MIX, exc))
                clock.lap()
                results.append((command, spec, code, text))
    finally:
        clock.stop()
    record["seconds"], record["wall_s"] = clock.seconds, clock.wall_s
    record["latencies_s"] = clock.lap_seconds()

    golden = wl.load_cli_golden()
    combined = hashlib.sha256()
    mismatches = []
    failed = 0
    for command, spec, code, text in results:
        combined.update(text.encode())
        if code != 0:
            failed += 1
        if golden.get((command, spec.key())) != wl.output_digest(text):
            mismatches.append(f"{command} {spec.key()}")
    record["failed"] = failed
    record["digest"] = combined.hexdigest()
    record["problems"] = [f"output differs from golden: {m}"
                          for m in mismatches[:20]]
    record["digest_ok"] = not mismatches


def layer_metrics(tracer: Tracer, specs: int, speed: float) -> dict:
    """Per-layer metrics of a traced pass.  Times are scaled by the pass's
    speed factor to the reference speed of the end-to-end metrics."""
    busy = defaultdict(float, {k: v * speed for k, v in tracer.busy.items()})
    self_time = defaultdict(
        float, {k: v * speed for k, v in tracer.self_time.items()})
    counts, calls = tracer.counts, tracer.calls
    describe_ms = sorted(d * speed * 1000
                         for d in tracer.durations["report.describe"])
    candidates = counts["b_prime_candidates"]
    cli_calls = calls["cli.main"]
    return {
        "catalog.enumerate_group.busy_s": busy["catalog.enumerate_group"],
        "catalog.enumerate_group.calls": calls["catalog.enumerate_group"],
        "catalog.elements_enumerated": counts["elements_enumerated"],
        "catalog.enumerate_gamma_prime.busy_s":
            busy["catalog.enumerate_gamma_prime"],
        "catalog.enumerate_gamma_prime.calls":
            calls["catalog.enumerate_gamma_prime"],
        "catalog.enumerations_per_spec": counts["spec_enumerations"] / specs,
        "catalog.is_fixed_point_free.calls":
            counts["spec_freeness_checks"] / specs,
        "resolution.singularity_triple.busy_s":
            busy["resolution.singularity_triple"],
        "resolution.compactification.busy_s":
            busy["resolution.compactification"],
        "resolution.b_prime.candidates_scanned": candidates,
        "resolution.b_prime.useful_ratio":
            counts["b_prime_solved"] / candidates if candidates else 0.0,
        "resolution.b_gamma.busy_s": busy["resolution.b_gamma"],
        "resolution.resolution_graph.busy_s":
            busy["resolution.resolution_graph"],
        "invariants.dim_sfk.busy_s": busy["invariants.dim_sfk"],
        "invariants.topology_report.busy_s":
            busy["invariants.topology_report"],
        "hj.hj_string.busy_s": busy["hj.hj_string"],
        "report.describe.self_s": self_time["report.describe"],
        "report.describe.p50_ms":
            statistics.median(describe_ms) if describe_ms else 0.0,
        "report.describe.max_ms": describe_ms[-1] if describe_ms else 0.0,
        "report.report_to_dict.busy_s": busy["report.report_to_dict"],
        "sweep.verify.self_s": self_time["sweep.verify"],
        "sweep.global_checks.busy_s": busy["sweep.global_checks"],
        "cli.describes_per_call":
            counts["cli_describes"] / cli_calls if cli_calls else 0.0,
    }


def run(workload: str, seed: int, pass_index: int, traced: bool,
        spans_path: Path | None = None) -> dict:
    """One pass; the record of what it measured and checked."""
    record: dict = {"workload": workload, "pass": pass_index,
                    "traced": traced, "attempted": 0, "failed": 0,
                    "failures": [], "digest_ok": False}
    clock = SpeedClock()
    tracer = Tracer(clock.now) if traced else None
    try:
        if workload == wl.CLI_MIX:
            run_cli_mix(seed, pass_index, clock, tracer, record)
        else:
            run_sweep(workload, clock, tracer, record)
    except Exception as exc:  # boundary: record the crash, report the rest
        record["failures"].append(failure(workload, exc))
        record["failed"] = record["attempted"]
    if clock.wall_s:
        record.setdefault("seconds", clock.seconds)
        record.setdefault("wall_s", clock.wall_s)
        record.setdefault("latencies_s", clock.lap_seconds())
        record["speed"] = clock.speed
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer and "seconds" in record:
        record["layers"] = layer_metrics(tracer, max(record["attempted"], 1),
                                         clock.speed)
        record["unbound"] = tracer.unbound
        if spans_path is not None:
            tracer.write(spans_path)
    return record


def main(argv: list[str]) -> int:
    workload, seed, pass_index, traced, result_path = argv
    sys.path.insert(0, str(wl.SRC_DIR))
    import u2sing
    if Path(u2sing.__file__).resolve().parent != wl.SRC_DIR / "u2sing":
        print(f"error: imported u2sing from {u2sing.__file__}, not from "
              f"{wl.SRC_DIR}", file=sys.stderr)
        return 2
    result = Path(result_path)
    record = run(workload, int(seed), int(pass_index), traced == "1",
                 result.with_suffix(".spans.tsv.gz"))
    result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
