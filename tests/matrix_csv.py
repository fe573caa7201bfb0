"""Test helpers: a matrix written as the long-format CSV that `schur-bound --points` reads,
and the reference reader that `symbols.read_matrix_csv` is checked against."""

import csv

import numpy as np

from mcert.errors import InputError
from mcert.symbols import _MAX_SIDE


def write_matrix_csv(m, path) -> None:
    """Header i,j,re,im, then one row per entry in row-major order, floats as repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "re", "im"])
        for (i, j), v in np.ndenumerate(np.asarray(m, dtype=complex)):
            writer.writerow([i, j, repr(float(v.real)), repr(float(v.imag))])


def reference_read_matrix_csv(path) -> np.ndarray:
    """The CSV rules read row by row into a dict of Python numbers: columns i, j, re and an
    optional im in any order, an empty im 0, blank lines skipped, the last row for a
    repeated (i, j) kept, and negative or oversized indices an InputError."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        missing = [c for c in ("i", "j", "re") if c not in header]
        if missing:
            raise InputError(f"CSV header {header} has no column {', '.join(missing)}")
        ci, cj, cr = (header.index(c) for c in ("i", "j", "re"))
        cm = header.index("im") if "im" in header else None
        try:
            entries = {(int(r[ci]), int(r[cj])):
                       complex(float(r[cr]), 0.0 if cm is None else float(r[cm] or 0.0))
                       for r in rows if r}
        except IndexError:
            raise InputError(f"line {rows.line_num} of {path} has too few fields") from None
        except ValueError as exc:
            raise InputError(f"line {rows.line_num} of {path}: {exc}") from exc
    if not entries:
        raise InputError(f"no data rows in {path}")
    ij = np.array(list(entries), dtype=np.int64)
    if ij.min() < 0:
        raise InputError(f"negative index in CSV row {ij[ij.min(axis=1).argmin()].tolist()}")
    n = int(ij.max()) + 1
    if n > _MAX_SIDE:
        raise InputError(f"CSV index {n - 1} gives side {n}; the side may not exceed {_MAX_SIDE}")
    m = np.zeros((n, n), dtype=complex)
    m[ij[:, 0], ij[:, 1]] = np.fromiter(entries.values(), dtype=complex, count=len(entries))
    return m
