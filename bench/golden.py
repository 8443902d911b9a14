"""Regenerate the golden digests in bench/golden from the current code.

    python3 bench/golden.py

Run it only when a change is meant to alter the reports, and say so with
the change.  It runs every sweep workload once and every CLI call that
``cli_mix`` can draw (3 commands x 1,788 specs); this takes several
minutes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl


def main() -> int:
    sys.path.insert(0, str(wl.SRC_DIR))
    from u2sing.sweep import specs_in_sweep, verify

    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    wl.RESULTS_DIR.mkdir(exist_ok=True)
    sweeps = {}
    for name in wl.SWEEPS:
        out_dir = Path(tempfile.mkdtemp(prefix="golden-", dir=wl.RESULTS_DIR))
        try:
            config = wl.sweep_config(name, out_dir)
            summary = verify(config)
            if summary.exit_code != 0:
                print(f"{name}: verify failed, no golden written",
                      file=sys.stderr)
                return 1
            specs = list(specs_in_sweep(config))
            digest, problems = wl.sweep_digest(out_dir, specs)
            if problems:
                print(f"{name}: {problems[:3]}", file=sys.stderr)
                return 1
            sweeps[name] = {"specs": len(specs), "sha256": digest}
            print(f"{name}: {len(specs)} specs {digest}", flush=True)
        finally:
            shutil.rmtree(out_dir)

    rows = ["\t".join(("spec", *wl.CLI_COMMANDS))]
    for i, spec in enumerate(wl.cli_population()):
        digests = []
        for command in wl.CLI_COMMANDS:
            code, text = wl.call_cli(wl.cli_argv(command, spec))
            if code != 0:
                print(f"{command} {spec.label()}: exit {code}", file=sys.stderr)
                return 1
            digests.append(wl.output_digest(text))
        rows.append("\t".join((spec.key(), *digests)))
        if i % 200 == 0:
            print(f"cli: {i} specs", flush=True)

    (wl.GOLDEN_DIR / "sweeps.json").write_text(
        json.dumps(sweeps, indent=1, sort_keys=True) + "\n")
    (wl.GOLDEN_DIR / "cli_calls.tsv").write_text("\n".join(rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
