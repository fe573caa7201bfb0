"""Rewrite ``tests/golden/`` from the reports the command table's rows write, each outside
its ``header``:

    PYTHONPATH=src python tests/regen_golden.py

A change that moves a number shows the move in the diff of the golden files, and the
script names each golden file it added, removed or rewrote with other content, or prints
``none changed``.  Beside a rewritten file it prints the key paths added and removed and
the count of values that moved, as in

    bound.json: added records[0].details.allowance, tables.bound[0].allowance; 0 moved

so a change that only adds keys reads "0 moved".  It refuses to write when a row gives
another exit code or other files than its row says.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from commands import GOLDEN, ROWS, canonical, run_rows, write_fixtures


def json_diff(old, new, path=""):
    """(added, removed, moved) from ``old`` to ``new``, two parsed JSON values: the key paths,
    such as ``tables.bound[0].allowance``, that only ``new`` or only ``old`` holds, and the
    count of values that differ at a path both hold, a whole value where their types do."""
    if isinstance(old, dict) and isinstance(new, dict):
        at = {key: f"{path}.{key}" if path else key for key in {**old, **new}}
        pairs = [(old[key], new[key], at[key]) for key in old if key in new]
        added = [at[key] for key in new if key not in old]
        removed = [at[key] for key in old if key not in new]
    elif isinstance(old, list) and isinstance(new, list):
        pairs = [(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
        added = [f"{path}[{i}]" for i in range(len(old), len(new))]
        removed = [f"{path}[{i}]" for i in range(len(new), len(old))]
    else:
        return [], [], int(type(old) is not type(new) or old != new)
    moved = 0
    for a, b, where in pairs:
        more, fewer, count = json_diff(a, b, where)
        added, removed, moved = added + more, removed + fewer, moved + count
    return added, removed, moved


def change(name, before, after) -> str:
    """One line on how the golden ``name`` changed from the text ``before`` to ``after``,
    either None for a file that is not there."""
    if before is None or after is None:
        return f"{name}: {'new file' if before is None else 'removed'}"
    added, removed, moved = json_diff(json.loads(before), json.loads(after))
    parts = [f"{verb} {', '.join(paths)}" for verb, paths in (("added", added),
                                                                ("removed", removed)) if paths]
    return f"{name}: {'; '.join([*parts, f'{moved} moved'])}"


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_fixtures(".")
            results = run_rows()
            wrong = [f"mcert {row.line}: exit {code}, wrote {added}"
                     for row, (code, _, added) in zip(ROWS, results)
                     if (code, added) != (row.code, sorted(row.writes))]
            if wrong:
                print("\n".join(wrong), file=sys.stderr)
                return 1
            reports = {name: canonical(json.loads(Path(name).read_text(encoding="utf-8"))) + "\n"
                       for row in ROWS for name in row.reports}
        finally:
            os.chdir(home)
    GOLDEN.mkdir(exist_ok=True)
    before = {path.name: path.read_text(encoding="utf-8") for path in GOLDEN.glob("*.json")}
    for stale in before:
        (GOLDEN / stale).unlink()
    for name, text in reports.items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(reports)} golden reports to {GOLDEN}")
    changed = sorted(name for name in before.keys() | reports.keys()
                     if before.get(name) != reports.get(name))
    print("\n".join(change(name, before.get(name), reports.get(name)) for name in changed)
          if changed else "none changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
