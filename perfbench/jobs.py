"""Seeded job lists for the four workloads, and the oracles that check them.

A job is one ``mcert`` CLI invocation. Its oracle reads the JSON report
the job wrote and returns a list of problems (empty when the report is
right). The oracles use numpy, scipy and closed forms only; none of them
calls into ``mcert``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("hm-sweep", "rigidity-sections", "schur-csv", "desk-reports")
SCHEMA = "mcert/1"
REPORT_KEYS = {"schema", "tool_version", "command", "input_digest", "seeds", "verdict",
               "records", "tables", "header"}
VERDICTS = {"PASS", "FAIL", "INCONCLUSIVE"}
VERDICT_EXITS = (0, 1)  # 2 and 3 are input and accuracy errors
SECTION_RADII = (0.75, 1.5)  # the r values rigidity_witness samples frames at
SPECTRUM3_X = [round(0.05 * i, 2) for i in range(-14, 15)]
SPECTRUM8_X = [x for x in SPECTRUM3_X if 0.25 <= abs(x) and abs(x) != 0.5]


@dataclass
class Job:
    name: str
    argv: list
    expect_exit: tuple = VERDICT_EXITS
    checks: list = field(default_factory=list)  # callables (report, out_path) -> problems

    def check(self, rc: int, report: dict, out: Path) -> list:
        if rc not in self.expect_exit:
            return [f"exit code {rc}, expected one of {self.expect_exit}"]
        problems = check_schema(report, self.argv[0], rc)
        if not problems:
            for chk in self.checks:
                problems += chk(report, out)
        return problems


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def _rng(workload: str, seed: int):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _seed(rng) -> str:
    return str(int(rng.integers(0, 10_000)))


# ---------------------------------------------------------------------------
# oracles


def check_schema(report: dict, command: str, rc: int) -> list:
    problems = []
    if set(report) != REPORT_KEYS:
        problems.append(f"report keys {sorted(report)}")
    elif report["schema"] != SCHEMA or report["command"] != command:
        problems.append(f"schema {report['schema']!r}, command {report['command']!r}")
    elif any(r.get("verdict") not in VERDICTS or not r.get("name") for r in report["records"]):
        problems.append("record without a name or with an unknown verdict")
    elif (report["verdict"] == "PASS") != (rc == 0):
        problems.append(f"overall verdict {report['verdict']} with exit code {rc}")
    return problems


def _records(report: dict) -> dict:
    return {r["name"]: r for r in report["records"]}


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * abs(b), abs_)


def hm_structure(n: int, order: int):
    dim = n * n - 1

    def check(report, out):
        recs = _records(report)
        orders = [row["order"] for row in report["tables"].get("hm_constants", [])]
        if orders != list(range(order + 1)):
            return [f"hm_constants orders {orders}, expected 0..{order}"]
        for k in range(1, order + 1):
            idx = recs.get(f"hm-order-{k}", {}).get("details", {}).get("indices")
            if not idx or any(len(g) != k or not all(0 <= j < dim for j in g) for g in idx):
                return [f"hm-order-{k} indices {idx} are not order-{k} indices below {dim}"]
        return []
    return check


def hm_order0_fails(report, out):
    verdict = _records(report).get("hm-order-0", {}).get("verdict")
    return [] if verdict == "FAIL" else [f"growing symbol: hm-order-0 is {verdict}, not FAIL"]


def hm_constant_symbol(report, out):
    # a constant symbol: every finite difference is exactly zero
    consts = [row["constant"] for row in report["tables"]["hm_constants"]]
    if consts[0] != 1.0 or any(c != 0.0 for c in consts[1:]):
        return [f"constant symbol has per-order constants {consts}"]
    return []


def rank_gap_c0(report, out):
    c0 = report["tables"]["exponents"][0]["c0"]
    failed = {r["name"] for r in report["records"] if r["verdict"] == "FAIL"}
    problems = [] if _close(c0, 16.0 / 3.0, 1e-12) else [f"rank-16 c0 = {c0}, expected 16/3"]
    return problems + ([] if "decay-c0" in failed else ["rank-16 decay-c0 did not fail"])


def _profile(kind: str, a: float, b: float = 1.0):
    if kind == "radial-power":
        return lambda x: (1.0 + x) ** (-a)
    return lambda x: (1.0 + x) ** (-a) * np.log(math.e + x) ** (-b)


def _section_symbol(phi, n: int, size: int, r: float, mode: str) -> np.ndarray:
    """phi(x(cos(theta_i - theta_j))) on the frame diag(e^r, e^s, ..., e^s), s = -r/(n-1)."""
    s = -r / (n - 1)
    theta = 2.0 * math.pi * np.arange(size) / size
    delta = np.cos(theta[:, None] - theta[None, :])
    if mode == "hs":
        a2 = (2.0 * math.exp(2.0 * (r + s)) + (n - 2) * math.exp(4.0 * s)) / n
        b2 = (math.exp(4.0 * r) + (n - 1) * math.exp(4.0 * s)) / n
        x = np.sqrt(a2 + delta * delta * (b2 - a2))
    else:
        z = np.abs(delta) * math.sinh(r - s)
        x = math.exp(r + s) * (z + np.sqrt(1.0 + z * z))  # ||[[1, 2z], [0, 1]]||
    return phi(x)


def section_bounds(kind: str, a: float, n: int, sections: int, mode: str, b: float = 1.0):
    """Each size's lower bound lies between the largest entry and the trace
    norm of its section matrices (the trace norm bounds every S_p multiplier norm)."""
    phi = _profile(kind, a, b)
    sizes = [8 * 2 ** i for i in range(max(2, sections))]

    def check(report, out):
        rows = report["tables"].get("section_lower_bounds", [])
        if [row["points"] for row in rows] != sizes:
            return [f"section sizes {[row['points'] for row in rows]}, expected {sizes}"]
        problems = []
        for row in rows:
            mats = [_section_symbol(phi, n, row["points"], r, mode) for r in SECTION_RADII]
            lo = max(float(np.abs(m).max()) for m in mats)
            hi = max(float(np.linalg.norm(m, "nuc")) for m in mats)
            lb = row["lower_bound"]
            if not lo * (1 - 1e-9) <= lb <= hi * (1 + 1e-9):
                problems.append(f"size {row['points']}: bound {lb} outside [{lo}, {hi}]")
        return problems
    return check


def schur_bracket(matrix: np.ndarray, p: float):
    sup = float(np.abs(matrix).max())
    nuc = float(np.linalg.norm(matrix, "nuc"))

    def check(report, out):
        rec = _records(report).get("lower-bound")
        if rec is None:
            return ["no lower-bound record"]
        value, table_sup = rec["measured"], report["tables"]["bound"][0]["sup_entry"]
        problems = []
        if not _close(table_sup, sup, 1e-12):
            problems.append(f"sup entry {table_sup}, expected {sup}")
        if not sup * (1 - 1e-12) <= value <= nuc * (1 + 1e-12):
            problems.append(f"bound {value} outside [sup entry {sup}, trace norm {nuc}]")
        if p == 2.0 and not _close(value, sup, 0.0, 1e-6):
            problems.append(f"S_2 bound {value} differs from the sup entry {sup}")
        return problems
    return check


def _multiplicity(n: int, k: int) -> int:
    return math.comb(n + k - 1, k) - (math.comb(n + k - 3, k - 2) if k >= 2 else 0)


def sphere_table(n: int, xs, kmax: int, min_k_used: int):
    """Eigenvalue table against Legendre (n = 3) or normalized Gegenbauer
    polynomials, dimension counts, the CSV copy, and the tail-doubling depth."""
    def reference(k, x):
        from numpy.polynomial import legendre  # imported here to keep set-up lean
        from scipy import special

        if n == 3:
            return float(legendre.legval(x, [0.0] * k + [1.0]))
        lam = (n - 2) / 2.0
        return float(special.eval_gegenbauer(k, lam, x) / special.eval_gegenbauer(k, lam, 1.0))

    def check(report, out):
        rows = report["tables"]["spectrum"]
        if [row["k"] for row in rows] != list(range(kmax + 1)):
            return [f"spectrum rows {len(rows)}, expected {kmax + 1}"]
        problems = []
        for row in rows:
            k = row["k"]
            if row["m_k"] != _multiplicity(n, k):
                problems.append(f"m_{k} = {row['m_k']}, expected {_multiplicity(n, k)}")
            for x in xs:
                got, want = row[f"phi(x={x:g})"], reference(k, x)
                if not _close(got, want, 0.0, 1e-10):
                    problems.append(f"phi_{k}({x}) = {got}, reference {want}")
        with open(str(out)[:-5] + "_spectrum.csv", newline="", encoding="utf-8") as fh:
            csv_rows = list(csv.DictReader(fh))
        if len(csv_rows) != kmax + 1:
            problems.append(f"spectrum CSV has {len(csv_rows)} rows")
        used = [r["details"]["k_used"] for r in report["records"] if r["check_id"] == "sphere/schatten-sum"]
        if len(used) != len(xs) or min(used) < min_k_used:
            problems.append(f"Schatten sums used k = {used}, expected >= {min_k_used} each")
        return problems[:5]
    return check


def chamber_volumes_n2(report, out):
    problems = []
    for row in report["tables"]["volumes"]:
        want = (math.cosh(2.0 * row["R"]) - 1.0) / 2.0
        if not _close(row["volume"], want, 1e-10):
            problems.append(f"n = 2 volume at R = {row['R']}: {row['volume']}, exact {want}")
    return problems


def chamber_volumes_increase(report, out):
    vols = [row["volume"] for row in report["tables"]["volumes"]]
    ok = all(v > 0 and math.isfinite(v) for v in vols) and all(np.diff(vols) > 0)
    return [] if ok else [f"volumes {vols} are not positive and increasing in R"]


# ---------------------------------------------------------------------------
# workloads


def hm_sweep(rng, inputs: Path) -> list:
    """certify-hm over four families at n = 3, plus n = 2 and n = 4 at a lower order.

    The n = 3 jobs keep the default order 5 but sweep one local shell and
    one multi-index per order, so the job list fits three times in one run;
    the later passes repeat every job."""
    a_log, b_log = rng.uniform(2.0, 6.0), rng.uniform(0.5, 2.0)
    center, width = rng.uniform(1.0, 2.0), rng.uniform(0.4, 0.8)
    a2, a4 = rng.uniform(1.0, 5.0), rng.uniform(2.0, 6.0)
    n3 = ["--n", "3", "--grid-levels", "1", "--per-order", "1"]
    hm = "certify-hm"
    n2 = [hm, "--symbol", f"radial-power:exponent={_fmt(a2)}", "--n", "2", "--order", "2",
          "--seed", _seed(rng)]
    return [
        Job("hm3-growing", [hm, "--symbol", "radial-power:exponent=-1", *n3, "--seed", _seed(rng)],
            (1,), [hm_order0_fails, hm_structure(3, 5)]),
        Job("hm3-constant", [hm, "--symbol", "radial-power:exponent=0", *n3, "--seed", _seed(rng)],
            (0,), [hm_constant_symbol, hm_structure(3, 5)]),
        Job("hm3-log", [hm, "--symbol", f"radial-log-power:exponent={_fmt(a_log)},"
                        f"log_exponent={_fmt(b_log)}", *n3, "--seed", _seed(rng)],
            checks=[hm_structure(3, 5)]),
        Job("hm3-bump", [hm, "--symbol", f"hm-bump:center={_fmt(center)},width={_fmt(width)}",
                         *n3, "--seed", _seed(rng)], checks=[hm_structure(3, 5)]),
        Job("hm2", n2, checks=[hm_structure(2, 2)]),
        Job("hm4", [hm, "--symbol", f"radial-log-power:exponent={_fmt(a4)}", "--n", "4",
                    "--order", "2", "--seed", _seed(rng)], checks=[hm_structure(4, 2)]),
    ]


def rigidity_sections(rng, inputs: Path) -> list:
    """rigidity --sections at n = 5 and 8, both modes, both decaying families.

    One job reaches 128 points; the others stop at 32 or 64 so that two
    passes fit one run. Profiles and p are fixed, because the optimizer's
    work moves with them; the seed picks the optimizer seeds and the job
    order. The job times are well apart, so the run's median job time
    falls on the same jobs whatever the seed."""
    plan = [("sec5-opnorm", 5, 5, "opnorm", "radial-power", 5.0, 6.0),
            ("sec8-opnorm", 8, 4, "opnorm", "radial-power", 4.0, 6.0),
            ("sec8-hs", 8, 3, "hs", "radial-log-power", 2.5, 4.0),
            ("sec5-hs", 5, 3, "hs", "radial-log-power", 3.0, 5.0),
            ("sec5-constant", 5, 2, "hs", "radial-power", 0.0, 10.0)]
    jobs = []
    for i in rng.permutation(len(plan)):
        name, n, sections, mode, kind, a, p = plan[i]
        argv = ["rigidity", "--profile", f"{kind}:exponent={_fmt(a)}", "--n", str(n),
                "--p", _fmt(p), "--sections", str(sections), "--mode", mode, "--seed", _seed(rng)]
        expect = (0,) if a == 0.0 else VERDICT_EXITS
        jobs.append(Job(name, argv, expect, [section_bounds(kind, a, n, sections, mode)]))
    return jobs


def schur_csv(rng, inputs: Path) -> list:
    """schur-bound on dense unstructured complex matrices written to CSV.

    Ten optimizer iterations: every start runs to the cap, so the work per
    job depends on the size alone and not on how fast a matrix converges."""
    plan = [(128, 4.0), (128, math.inf), (96, 2.0), (64, 4.0), (64, math.inf), (48, 2.0),
            (32, 4.0), (32, 4.0)]
    jobs = []
    for i, (size, p) in enumerate(plan):
        path = inputs / f"matrix{i}-{size}.csv"
        if i and plan[i - 1] == (size, p):  # a repeat of the previous job
            jobs.append(Job(f"schur{size}-again", list(jobs[-1].argv), (0,), jobs[-1].checks))
            continue
        mat = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        _write_matrix(mat, path)
        ptxt = "inf" if math.isinf(p) else _fmt(p)
        argv = ["schur-bound", "--points", str(path), "--p", ptxt, "--iterations", "10",
                "--seed", _seed(rng)]
        jobs.append(Job(f"schur{size}-p{ptxt}", argv, (0,), [schur_bracket(mat, p)]))
    return jobs


def _write_matrix(mat: np.ndarray, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["i", "j", "re", "im"])
        for (i, j), v in np.ndenumerate(mat):
            out.writerow([i, j, repr(float(v.real)), repr(float(v.imag))])


def desk_reports(rng, inputs: Path) -> list:
    """The sub-second README pipelines: rank-gap pair, spectra, chamber volumes.

    The x values come from sets on which the certified tails stop at the
    same degree (8192 for n = 3, 16384 for n = 8), so the work is level."""
    x3 = sorted(rng.choice(SPECTRUM3_X, 3, replace=False).tolist())
    x8 = sorted(rng.choice(SPECTRUM8_X, 2, replace=False).tolist())
    r2 = float(_fmt(rng.uniform(1.5, 2.5)))
    r4 = float(_fmt(rng.uniform(2.0, 3.0)))
    rank = ["rigidity", "--profile", "radial-power:exponent=5", "--seed", _seed(rng)]
    spec = ["sphere-spectrum", "--kmax", "50", "--format", "csv"]
    return [
        Job("rank3", rank + ["--n", "3", "--p", "10"], (0,)),
        Job("rank16", rank + ["--n", "16", "--p", "100"], (1,), [rank_gap_c0]),
        # p close above the critical index so the certified tail doubles
        Job("spectrum3", spec + ["--n", "3", "--p", "8", "--r", "0", "--x", *map(str, x3)],
            (0,), [sphere_table(3, x3, 50, 128)]),
        Job("spectrum8-r1", spec + ["--n", "8", "--p", "5", "--r", "1", "--x", *map(str, x8)],
            checks=[sphere_table(8, x8, 50, 128)]),
        Job("spectrum8-r0", spec + ["--n", "8", "--p", "4", "--r", "0", "--x", *map(str, x8)],
            checks=[sphere_table(8, x8, 50, 64)]),
        Job("chamber2", ["geometry", "--n", "2", "--R", *[_fmt(r2 + i) for i in range(9)],
                         "--seed", _seed(rng)], (0,), [chamber_volumes_n2]),
        Job("chamber4", ["geometry", "--n", "4", "--R", *[_fmt(r4 + i) for i in range(4)],
                         "--seed", _seed(rng)], checks=[chamber_volumes_increase]),
    ]


_JOB_LISTS = {"hm-sweep": hm_sweep, "rigidity-sections": rigidity_sections,
             "schur-csv": schur_csv, "desk-reports": desk_reports}
# seconds one pass of each job list takes on a quiet 2-vCPU VM; a run of S
# seconds makes S // PASS_SECONDS passes (at least one), so the job count of a
# run does not depend on how fast the machine happens to be
PASS_SECONDS = {"hm-sweep": 6.5, "rigidity-sections": 10.0, "schur-csv": 5.0,
                "desk-reports": 0.9}


def build(workload: str, seed: int, inputs: Path) -> list:
    """The workload's job list for ``seed``; writes its input files to ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    return _JOB_LISTS[workload](_rng(workload, seed), inputs)


def load_report(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def canonical(report: dict) -> str:
    """The report outside its header, as the CLI serializes it."""
    rest = {k: v for k, v in report.items() if k != "header"}
    return json.dumps(rest, sort_keys=True, indent=1)
