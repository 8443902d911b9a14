"""The benchmark's own checks.  They run real passes and take a few minutes:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import workloads as wl
import worker

sys.path.insert(0, str(wl.SRC_DIR))

RUN = [sys.executable, str(wl.BENCH_DIR / "run.py")]
DEFINITION = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("catalog.enumerations_per_spec",
                "catalog.is_fixed_point_free.calls",
                "resolution.b_prime.candidates_scanned",
                "cli.describes_per_call")


def bench(*args: str) -> tuple[int, str]:
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True,
                          timeout=180)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_every_end_to_end_metric_is_printed():
    code, out = bench("--workload", "polyhedral", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    result = result_of(out)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {line.split()[0]: line.split()[2]
               for line in out.splitlines()[1:-1] if len(line.split()) == 3}
    assert set(result["metrics"]) == {m["name"] for m in DEFINITION["end_to_end"]}
    for m in DEFINITION["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert printed[m["name"]] == m["unit"]
    assert "failed_ratio" in printed


def test_traced_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        code, out = bench("--workload", "cli_mix", "--seed", "7",
                          "--seconds", "1", "--trace", "1")
        assert code == 0
        runs.append(result_of(out))
    assert set(runs[0]["metrics"]) == {m["name"] for m in DEFINITION["per_layer"]}
    for name in EXACT_COUNTS:
        values = [r["metrics"][name]["value"] for r in runs]
        assert values[0] > 0 and values[0] == values[1], name


def test_tampered_sweep_report_fails_digest(tmp_path):
    from u2sing.sweep import specs_in_sweep, verify
    config = wl.sweep_config("lens", tmp_path)
    config.p_max = 9
    verify(config)
    specs = list(specs_in_sweep(config))
    digest, problems = wl.sweep_digest(tmp_path, specs)
    assert not problems
    report = tmp_path / f"{specs[3].key()}.json"
    report.write_bytes(report.read_bytes().replace(b"1", b"2", 1))
    assert wl.sweep_digest(tmp_path, specs)[0] != digest
    report.unlink()
    (tmp_path / "stray.json").write_text("{}")
    assert len(wl.sweep_digest(tmp_path, specs)[1]) == 2


def test_tampered_cli_output_fails_golden():
    golden = wl.load_cli_golden()
    spec = wl.cli_population()[0]
    code, text = wl.call_cli(wl.cli_argv("compactify", spec))
    assert code == 0
    assert golden[("compactify", spec.key())] == wl.output_digest(text)
    tampered = text.replace("1", "2", 1)
    assert golden[("compactify", spec.key())] != wl.output_digest(tampered)


def test_sweep_crash_is_recorded(monkeypatch):
    import u2sing.report

    def broken(t):
        raise AssertionError("injected")

    monkeypatch.setitem(wl.SWEEPS, "tiny", {"families": "cyclic", "p_max": "7"})
    monkeypatch.setattr(u2sing.report, "hj_string", broken)
    record = worker.run("tiny", 0, 0, traced=False)
    assert record["failures"] == [{"workload": "tiny",
                                   "stage": "report._describe_cyclic",
                                   "exception": "AssertionError",
                                   "detail": "injected"}]
    assert record["failed"] == record["attempted"] == 17
    assert not record["digest_ok"] and record["seconds"] > 0


def test_cli_calls_are_isolated(monkeypatch):
    import u2sing.report

    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(wl, "CLI_CALLS_PER_PASS", 4)
    monkeypatch.setattr(u2sing.report, "singularity_triple", broken)
    record = worker.run(wl.CLI_MIX, 3, 0, traced=False)
    assert record["attempted"] == 4 and record["failed"] == 4
    assert len(record["latencies_s"]) == 4
    assert {f["exception"] for f in record["failures"]} == {"ValueError"}
    assert not record["digest_ok"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(wl.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lens", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("seed", [1, 2])
def test_cli_sample_is_seeded(seed):
    population = wl.cli_population()
    assert len(population) == 1788
    a = wl.cli_sample(population, seed, 0)
    assert a == wl.cli_sample(population, seed, 0)
    assert a != wl.cli_sample(population, seed, 1)
    assert len(a) == wl.CLI_CALLS_PER_PASS
