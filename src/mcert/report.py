"""Structured certification reports.

A report is a list of check records plus reproducibility metadata.  The
JSON serialization is deterministic (sorted keys, repr floats) except
for the ``header`` block, which isolates timestamps and runtimes so two
runs with identical seeds agree byte for byte outside it.  It is strict
JSON (RFC 8259): a NaN or infinite number is written as null.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field

from . import __version__

__all__ = ["PASS", "FAIL", "INCONCLUSIVE", "CheckRecord", "CertificationReport"]

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

SCHEMA = "mcert/1"

# what a record's measured value is tested for: a necessary condition of the theory, a
# sufficient one, an agreement of two computations of one number, or a value reported alone
NECESSARY, SUFFICIENT, CROSS_CHECK, VALUE = "necessary", "sufficient", "cross-check", "value"


def decide_verdict(kind: str, measured, bound=None, tolerance=None) -> str:
    """The one verdict rule: INCONCLUSIVE for a missing or non-finite ``measured``, else
    PASS for a VALUE, else INCONCLUSIVE for a missing or non-finite ``bound``, else PASS
    when measured <= bound * (1 + tolerance), and past that FAIL, except INCONCLUSIVE for
    a SUFFICIENT condition, whose shortfall refutes nothing."""
    if measured is None or not math.isfinite(measured):
        return INCONCLUSIVE
    if kind == VALUE:
        return PASS
    if bound is None or not math.isfinite(bound):
        return INCONCLUSIVE
    if measured <= bound * (1.0 + (tolerance or 0.0)):
        return PASS
    return INCONCLUSIVE if kind == SUFFICIENT else FAIL


def worst_verdict(records) -> str:
    """FAIL when any record fails, else INCONCLUSIVE when any is, else PASS."""
    verdicts = {r.verdict for r in records}
    return FAIL if FAIL in verdicts else INCONCLUSIVE if INCONCLUSIVE in verdicts else PASS


def _jsonable(value):
    """``value`` as plain JSON data: numpy scalars unwrapped, NaN and inf as None."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            value = value.item()
        except Exception:
            pass
    return None if isinstance(value, float) and not math.isfinite(value) else value


@dataclass
class CheckRecord:
    """One check: a measured quantity of a ``kind`` against its bound, its verdict derived
    from those fields by :func:`decide_verdict`."""

    name: str
    check_id: str
    kind: str
    measured: float | None = None
    bound: float | None = None
    tolerance: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return decide_verdict(self.kind, self.measured, self.bound, self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "check_id": self.check_id,
            "kind": self.kind,
            "verdict": self.verdict,
            "measured": _jsonable(self.measured),
            "bound": _jsonable(self.bound),
            "tolerance": _jsonable(self.tolerance),
            "details": _jsonable(self.details),
        }


def input_digest(payload) -> str:
    """SHA-256 of the parsed arguments (an infinite --p hashes as Infinity)."""
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CertificationReport:
    command: str
    digest: str = ""
    seeds: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    started: float = field(default_factory=time.time)

    def add(self, record: CheckRecord) -> CheckRecord:
        self.records.append(record)
        return record

    def add_table(self, name: str, rows: list) -> None:
        self.tables[name] = [_jsonable(r) for r in rows]

    @property
    def verdict(self) -> str:
        return worst_verdict(self.records)

    def exit_code(self) -> int:
        return 0 if self.verdict == PASS else 1

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "tool_version": __version__,
            "command": self.command,
            "input_digest": self.digest,
            "seeds": _jsonable(self.seeds),
            "verdict": self.verdict,
            "records": [r.to_dict() for r in self.records],
            "tables": self.tables,
            "header": {
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "runtime_seconds": round(time.time() - self.started, 3),
            },
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1, allow_nan=False)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())
            fh.write("\n")

    def save_tables_csv(self, stem) -> list:
        """Write each table as <stem>_<name>.csv; returns the paths."""
        paths = []
        for name, rows in self.tables.items():
            if not rows:
                continue
            path = f"{stem}_{name}.csv"
            cols = list(rows[0].keys())
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=cols)
                writer.writeheader()
                writer.writerows(rows)
            paths.append(path)
        return paths

    def print_summary(self) -> None:
        for r in self.records:
            measured = "" if r.measured is None else f"  measured={r.measured:.6g}"
            bound = "" if r.bound is None else f"  bound={r.bound:.6g}"
            print(f"[{r.verdict:>12}] {r.name}{measured}{bound}")
        print(f"overall: {self.verdict}")
