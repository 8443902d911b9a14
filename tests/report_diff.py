"""Compare two folders of report JSON, key path by key path.

Run as ``python tests/report_diff.py OLD NEW``, on two folders that
``u2sing verify --out`` wrote.  A report is a file ``<spec key>.json``; the
two folders' reports are paired by name.  Each report is flattened to its
key paths: an object's keys are joined with dots (``deformations.residual``),
and a list, a scalar or null is one value (``resolution.matrix``,
``checks``).  For each path that differs in some pair it prints how many
reports gained the path, lost it, or hold another value there, with the
first spec key of each kind in name order; then how many reports did not
change, and how many are in one folder only.  The exit code is 0 exactly
when every report is in both folders and none changed.

pytest does not collect this file (its name does not start with
``test_``).
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

KINDS = ("gained", "lost", "changed")


def flatten(x, prefix: str = "") -> dict:
    """The key paths of a JSON value and the value at each."""
    if not isinstance(x, dict) or not x:
        return {prefix: x}
    out = {}
    for key, value in x.items():
        out.update(flatten(value, f"{prefix}.{key}" if prefix else key))
    return out


def diff_folders(old: Path, new: Path):
    """(unchanged count, {path: {kind: [spec keys]}}, keys only in old,
    keys only in new), the spec keys in name order."""
    a = {p.stem: p for p in Path(old).glob("*.json")}
    b = {p.stem: p for p in Path(new).glob("*.json")}
    paths: dict = defaultdict(lambda: {kind: [] for kind in KINDS})
    unchanged = 0
    for key in sorted(a.keys() & b.keys()):
        x, y = (flatten(json.loads(f[key].read_text())) for f in (a, b))
        if x == y:
            unchanged += 1
            continue
        for path in x.keys() | y.keys():
            if path not in x:
                paths[path]["gained"].append(key)
            elif path not in y:
                paths[path]["lost"].append(key)
            elif x[path] != y[path]:
                paths[path]["changed"].append(key)
    return (unchanged, dict(paths), sorted(a.keys() - b.keys()),
            sorted(b.keys() - a.keys()))


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: report_diff.py OLD NEW", file=sys.stderr)
        return 2
    unchanged, paths, only_old, only_new = diff_folders(argv[1], argv[2])
    for path in sorted(paths):
        for kind in KINDS:
            keys = paths[path][kind]
            if keys:
                print(f"{path}: {kind} in {len(keys)} (e.g. {keys[0]})")
    print(f"{unchanged} reports unchanged")
    for side, keys in (("old", only_old), ("new", only_new)):
        if keys:
            print(f"{len(keys)} reports only in {side} (e.g. {keys[0]})")
    return 0 if not (paths or only_old or only_new) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
