"""The command table: every ``mcert`` invocation that the README shows or CI runs, with the
exit code it must give, the files it writes, and why it is there.

Three readers use the one table.  ``test_imports.py`` runs the README rows in a fresh
interpreter and checks what they import.  ``test_commands.py`` runs every row in process
and compares each report outside ``header`` with its copy in ``tests/golden/``, which
``regen_golden.py`` rewrites.  Run as a script, with numpy alone installed,

    PYTHONPATH=src python tests/commands.py

runs each row as its own ``python -m mcert.cli`` process in a scratch directory, under a
30 s timeout, and exits 1 if a row gives another exit code, prints a traceback or a
warning on stderr, or writes a report that :func:`layout_faults` faults.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mcert
from mcert.cli import main as mcert_main
from matrix_csv import write_matrix_csv

GOLDEN = Path(__file__).resolve().parent / "golden"
TIMEOUT_S = 30
NOISY = re.compile("Traceback|Warning")  # no row may print either on stderr


@dataclass(frozen=True)
class Command:
    code: int  # 0 every record passes, 1 one fails or is inconclusive, 2 input error,
    # 3 a numeric error
    line: str  # the arguments after `mcert`
    writes: tuple  # the files it writes
    why: str
    readme: bool = False  # one of the README's CLI block

    @property
    def argv(self) -> list:
        return self.line.split()

    @property
    def reports(self) -> list:
        return [name for name in self.writes if name.endswith(".json")]


ROWS = (
    Command(0, "certify-hm --symbol radial-power:exponent=5 --n 3 --out report.json",
            ("report.json",), "(1 + x)^-5 meets every growth record at n = 3", readme=True),
    Command(1, "certify-hm --symbol radial-power:exponent=5 --n 4 --out hm4.json",
            ("hm4.json",), "the order-9 jets leave decay-propagation INCONCLUSIVE: ray fits "
            "3.43 vs 2.57"),
    Command(1, "certify-hm --symbol radial-power:exponent=5 --n 5 --per-order 24 "
            "--out hm5all.json", ("hm5all.json",), "all 24 basis directions of sl(5): the "
            "order-13 jets leave decay-propagation INCONCLUSIVE: ray fits -0.20 vs -1.17"),
    Command(2, "certify-hm --symbol radial-power:exponent=2.5,shift=0 --n 3 --out bad.json", (),
            "the group lift rejects a shift that puts a pole at the identity"),
    Command(0, "certify-hm --symbol hm-bump:center=1e300,width=1e-300 --n 2 --out bump.json",
            ("bump.json",), "a bump whose argument overflows is 0"),
    Command(0, "rigidity --profile radial-power:exponent=5 --n 3 --p 10 --out r3.json",
            ("r3.json",), "the rank gap: (1 + x)^-5 meets every rank-3 record", readme=True),
    Command(0, "rigidity --profile radial-power:exponent=5 --n 3 --p 10 --seed 5 --out r3s5.json",
            ("r3s5.json",), "rigidity without --sections draws nothing from --seed"),
    Command(1, "rigidity --profile radial-power:exponent=5 --n 16 --p 100 --out r16.json",
            ("r16.json",), "the rank gap: rank 16 at p = 100 needs decay 16/3 > 5", readme=True),
    Command(1, "rigidity --profile radial-power:exponent=-200 --n 5 --p 6 --sections 2 "
            "--out grow.json", ("grow.json",),
            "the overflowing (1 + x)^200 leaves its records INCONCLUSIVE, written as null"),
    Command(0, "rigidity --profile hm-bump:center=1.5,width=0.4 --n 16 --p 100 --out bump16.json",
            ("bump16.json",), "the rank-16 bump passes every exact-derivative record to "
            "[alpha] = 6"),
    Command(0, "rigidity --profile hm-bump --n 8 --p 10 --sections 8 --out bump8.json",
            ("bump8.json",), "the 1,024-point bump sections take well under a second on the "
            "Fourier side"),
    Command(0, "rigidity --profile hm-bump:center=1e300 --n 8 --p 10 --out farbump.json",
            ("farbump.json",), "a bump the grid never samples leaves every envelope 0, where "
            "its weights pass the float range"),
    Command(2, "rigidity --profile hm-bump:center=1e308 --n 3 --p 10 --out far.json", (),
            "a profile scale whose grid end passes the float range is an input error"),
    Command(1, "sphere-spectrum --n 3 --p 4 --x 0.5 --kmax 50 --out spec.json --format csv",
            ("spec.json", "spec_spectrum.csv"),
            "at n = 3 the p = 4 Schatten sum diverges: INCONCLUSIVE", readme=True),
    Command(2, "sphere-spectrum --n 102 --p 4 --x 0.5 --kmax 5 --out spec102.json", (),
            "a spectrum tail bound past the float range is an input error"),
    Command(2, "sphere-spectrum --n 345 --p 4 --x 0.5 --kmax 5 --out spec345.json", (),
            "so is one at n = 345, where the tail constant's Gamma ratio alone overflows"),
    Command(2, "sphere-spectrum --n 101 --p 3 --x 0.5 --kmax 5", (),
            "so is a sum whose float multiplicities overflow, with no numpy warning"),
    Command(3, "sphere-spectrum --n 3 --p 6 --x 0.5 --kmax 5", (),
            "the p = 6 sum converges, but even its certified upper end needs more than "
            "2^18 degrees: tail tolerance unreachable, decided at k = 64"),
    Command(1, "sphere-spectrum --n 200 --p 1 --x 0.5 --kmax 5 --out spec200.json",
            ("spec200.json",), "the cross-check's rule grows with n and holds at n = 200, "
            "while the p = 1 sum diverges"),
    Command(1, "sphere-spectrum --n 3 --p 4 --x 0.5 --kmax 0 --out spec0.json", ("spec0.json",),
            "the cross-check holds at kmax = 0, while the p = 4 sum diverges"),
    Command(0, "sphere-spectrum --n 8 --p 5 --r 1 --x -0.3 0.65 --kmax 50 --out spec8r1.json",
            ("spec8r1.json",), "the r = 1 sums converge, their tails stopped at k = 11,692 "
            "and 10,405 over several recurrence calls"),
    Command(0, "sphere-spectrum --n 12 --p 6 --r 2 --x -0.6 0.1 0.8 --kmax 1 --out spec12r2.json",
            ("spec12r2.json",), "the r = 2 sums stop at k = 714, 1,480 and 854, on both "
            "sides of the end of the first recurrence call, and the table stops below r"),
    Command(0, "schur-bound --points matrix.csv --p 4 --out bound.json", ("bound.json",),
            "the 4 x 4 bracket at finite p: the sup-entry floor below the interpolated bound",
            readme=True),
    Command(0, "schur-bound --points matrix.csv --p 2 --out bound2.json", ("bound2.json",),
            "at p = 2 the sup entry is the exact norm, and the bracket closes on it", readme=True),
    Command(0, "schur-bound --points matrix.csv --p inf --out bound-inf.json",
            ("bound-inf.json",), "at p = inf the bracket closes on the sup entry too, to 1.1e-11",
            readme=True),
    Command(0, "schur-bound --points matrix-bom.csv --p 4 --out bound-bom.json",
            ("bound-bom.json",), "a CSV with a byte-order mark reads like one without"),
    Command(0, "schur-bound --points gauss24.csv --p inf --out bound24.json", ("bound24.json",),
            "the certificate closes the 24 x 24 Gaussian bracket at p = inf"),
    Command(0, "schur-bound --points gauss24.csv --p 4 --out bound24p4.json",
            ("bound24p4.json",), "the dense finite-p search on unstructured input"),
    Command(2, "schur-bound --points matrix.csv --p 4 --seed -1 --out bound-seed.json", (),
            "a negative seed is an input error"),
    Command(2, "certify-hm --symbol radial-power:exponent=5 --n 3 --seed -1 --out seed.json", (),
            "a negative seed is an input error"),
    Command(2, "certify-hm --symbol radial-power:exponent=5 --n 3 --grid-levels 1000000 "
            "--out grid.json", (), "sweep jets past the memory cap are an input error, found "
            "before anything is allocated"),
    Command(2, "certify-hm --symbol radial-power:exponent=5 --n 150 --order 1 --out hm150.json",
            (), "so is --n 150, whose Lie basis alone holds 4 GB"),
    Command(0, "geometry --n 2 --R 2 3 4 5 6 7 8 9 10 --out geo.json", ("geo.json",),
            "the chamber volumes grow at the rate [n^2/2]", readme=True),
    Command(0, "geometry --n 4 --R 2 3 4 5 6 7 8 9 10 --out geo4.json", ("geo4.json",),
            "the n = 4 chamber volumes on the hyperplane schedule"),
    Command(0, "geometry --n 5 --R 2 3 4 5 6 7 8 9 10 20 40 --out geo5.json", ("geo5.json",),
            "the n = 5 chamber volume at R = 40, about e^480, is a finite float"),
    Command(1, "geometry --n 2 --R 5 --out geo5r.json", ("geo5r.json",),
            "one radius fits no growth rate"),
    Command(1, "geometry --n 2 --R 5 5 5 --out geo555.json", ("geo555.json",),
            "one distinct radius fits no growth rate"),
    Command(2, "geometry --n 2 --R 2 3 4 --out missing/geo.json", (),
            "an --out that cannot be written is an input error"),
    Command(2, "geometry --n 2 --R 2 3 4 --format csv", (),
            "--format csv without --out has nowhere to write its tables"),
    Command(2, "sphere-spectrum --n 5 --p 6 --x 0.1234567 0.1234568", (),
            "two --x values that share one 6-digit label are an input error"),
    Command(2, "schur-bound --points big.csv --p 2 --out big.json", (),
            "a symbol matrix whose every Schur bound passes the float range is an input error"),
    Command(2, "schur-bound --points matrix.csv --iterations -1", (),
            "a negative iteration cap is an input error, which the optimizer itself raises"),
    Command(2, "sphere-spectrum --n 2 --x 0.5", (),
            "--n takes 3 or more, checked by the report builder before any table"),
    Command(2, "geometry --n 6 --R 2 3 4", (), "the exact chamber series is tabulated to n = 5"),
    Command(1, "rigidity --profile radial-power:exponent=-232 --n 5 --p 6 --sections 6 "
            "--mode opnorm --out over.json", ("over.json",), "a section whose Frobenius bound "
            "overflows keeps its finite circulant bound: INCONCLUSIVE"),
)
README_ROWS = tuple(row for row in ROWS if row.readme)


def write_fixtures(directory) -> None:
    """The CSV matrices the rows read, written into ``directory``: ``matrix.csv``, the
    4 x 4 matrix with entries (4i + j) / 16; ``matrix-bom.csv``, the same behind a UTF-8
    byte-order mark, as Excel's "CSV UTF-8" writes it; ``gauss24.csv``, a seeded 24 x 24
    complex Gaussian; and ``big.csv``, diag(1e308 + 1e308i, 1e308)."""
    d = Path(directory)
    write_matrix_csv(np.arange(16.0).reshape(4, 4) / 16.0, d / "matrix.csv")
    (d / "matrix-bom.csv").write_bytes(b"\xef\xbb\xbf" + (d / "matrix.csv").read_bytes())
    write_matrix_csv(np.random.default_rng(24).standard_normal((24, 48)).view(complex),
                     d / "gauss24.csv")
    write_matrix_csv(np.diag([1e308 + 1e308j, 1e308]), d / "big.csv")


def canonical(report: dict) -> str:
    """The report outside its header, as perfbench's ``jobs.canonical`` writes it."""
    return json.dumps({k: v for k, v in report.items() if k != "header"}, sort_keys=True,
                      indent=1)


def _reject(token):
    raise ValueError(f"bare {token}")


def layout_faults(text: str) -> list:
    """Where the report ``text`` leaves the layout that ``CertificationReport.dumps`` writes:
    strict JSON (no NaN or Infinity), keys sorted in every object, a final newline, and
    each record and each table row alone on one line."""
    faults = []

    def sorted_object(pairs):
        keys = [k for k, _ in pairs]
        if keys != sorted(keys):
            faults.append(f"keys out of order: {keys}")
        return dict(pairs)

    try:
        report = json.loads(text, object_pairs_hook=sorted_object, parse_constant=_reject)
    except ValueError as exc:
        return [f"not strict JSON: {exc}"]
    if not text.endswith("\n"):
        faults.append("no final newline")
    lines = {line.rstrip(",") for line in text.splitlines()}
    alone = [*report["records"], *(row for rows in report["tables"].values() for row in rows)]
    faults += [f"not one line: {value}" for value in alone
               if json.dumps(value, sort_keys=True) not in lines]
    return faults


def run_rows() -> list:
    """Run every row with ``mcert.cli.main`` in the current directory, which holds the
    fixtures, with warnings raised as errors.  Per row: its exit code, its stderr, and the
    files it added, sorted."""
    results = []
    for row in ROWS:
        before = set(Path(".").rglob("*"))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = mcert_main(row.argv)
        added = sorted(p.as_posix() for p in set(Path(".").rglob("*")) - before if p.is_file())
        results.append((code, err.getvalue(), added))
    return results


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(mcert.__file__).resolve().parents[1]))
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(tmp)
        for row in ROWS:
            try:
                proc = subprocess.run([sys.executable, "-m", "mcert.cli", *row.argv], cwd=tmp,
                                      env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
                code, err = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, err = f"none within {TIMEOUT_S} s", ""
            noisy = bool(NOISY.search(err))
            reports = [Path(tmp) / name for name in row.reports]
            faults = [f"{path.name}: {fault}" for path in reports
                      for fault in (layout_faults(path.read_text(encoding="utf-8"))
                                    if path.is_file() else ["not written"])]
            print(f"{err}mcert {row.line}: exit {code}, documented {row.code}"
                  + (", with a traceback or warning on stderr" if noisy else "")
                  + "".join(f"\n  {fault}" for fault in faults))
            wrong += code != row.code or noisy or bool(faults)
    print(f"{len(ROWS) - wrong} of {len(ROWS)} commands as documented")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
