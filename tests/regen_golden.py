"""Rewrite ``tests/golden/`` from the reports the command table's rows write, each outside
its ``header``:

    PYTHONPATH=src python tests/regen_golden.py

A change that moves a number shows the move in the diff of the golden files, and the
script names each golden file it added, removed or rewrote with other content, or prints
``none changed``.  It refuses to write when a row gives another exit code or other files
than its row says.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from commands import GOLDEN, ROWS, canonical, run_rows, write_fixtures


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
    print(f"changed: {', '.join(changed)}" if changed else "none changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
