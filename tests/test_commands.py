"""Every row of the command table in ``commands.py``, run in process: its exit code, the
files it writes, each report outside ``header`` against its golden copy, and the
properties its reports must have.  The README's CLI block is the table's README rows."""

import glob
import json
import math
from pathlib import Path

import pytest

from commands import (GOLDEN, NOISY, README_ROWS, ROWS, canonical, layout_faults, run_rows,
                      write_fixtures)
from mcert.report import CertificationReport, decide_verdict

# above the 3.7e-10 drift of hm_constants across numpy's SIMD paths, below a 1e-6 change
REL_TOL = 1e-8


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """The directory the rows ran in, with relative paths, since the input digest hashes
    --points as given, their results, and each saved report's object as the standard
    encoder writes it, by file name."""
    tmp_path = tmp_path_factory.mktemp("commands")
    save, encoded = CertificationReport.save, {}

    def encode_and_save(report, path):
        save(report, path)
        encoded[path] = json.loads(json.dumps(report.to_dict(), allow_nan=False))

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(CertificationReport, "save", encode_and_save)
        write_fixtures(".")
        return tmp_path, run_rows(), encoded


def load(ran, name):
    return json.loads((ran[0] / name).read_text(encoding="utf-8"))


def mismatches(got, want, path="") -> list:
    """Where got differs from want: keys, lengths, types, strings, integers and nulls
    exactly, floats to REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} is not a list of {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if type(got) is not type(want):
        return [f"{path}: {got!r} against {want!r}"]
    if isinstance(want, float):
        close = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    else:
        close = got == want
    return [] if close else [f"{path}: {got!r} against {want!r}"]


def test_rows_give_their_exit_codes_and_write_their_files(ran):
    for row, (code, err, added) in zip(ROWS, ran[1]):
        assert (code, added) == (row.code, sorted(row.writes)), row.line
        assert not NOISY.search(err), (row.line, err)


def test_reports_match_their_goldens(ran):
    names = [name for row in ROWS for name in row.reports]
    assert len(set(names)) == len(names)
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(names)
    for name in names:
        want = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
        got = json.loads(canonical(load(ran, name)))
        assert not mismatches(got, want), (name, mismatches(got, want)[:5])


def brackets(node):
    """Every dict in a report that holds both ends of a bracket."""
    if isinstance(node, dict):
        if "lower_bound" in node and "upper_bound" in node:
            yield node
        for value in node.values():
            yield from brackets(value)
    elif isinstance(node, list):
        for value in node:
            yield from brackets(value)


def test_every_golden_bracket_is_ordered_and_its_gap_is_its_own():
    # the lower end may pass the upper by the optimizer's rounding (tests/test_schur.py);
    # a gap is written as computed from the two ends written beside it, null where inf
    found = [(path.name, b) for path in sorted(GOLDEN.glob("*.json"))
             for b in brackets(json.loads(path.read_text(encoding="utf-8")))]
    assert len(found) == 28
    for name, b in found:
        assert b["lower_bound"] <= b["upper_bound"] * (1.0 + 1e-12), name
    gaps = [(name, b) for name, b in found if "relative_gap" in b]
    assert len(gaps) == 12
    for name, b in gaps:
        gap = b["upper_bound"] / b["lower_bound"] - 1.0
        assert b["relative_gap"] == (None if math.isinf(gap) else gap), name


def test_mismatches_sees_a_1e6_change_and_ignores_rounding():
    want = {"measured": 0.25, "records": [{"verdict": "PASS", "k": 3, "bound": None}]}
    assert not mismatches({**want, "measured": 0.25 * (1 + 1e-10)}, want)
    assert mismatches({**want, "measured": 0.25 * (1 + 1e-6)}, want)
    assert mismatches({**want, "records": [{"verdict": "PASS", "k": 3.0, "bound": None}]}, want)
    assert mismatches({**want, "records": [{"verdict": "FAIL", "k": 3, "bound": None}]}, want)
    assert mismatches({**want, "records": [{"verdict": "PASS", "k": 3, "bound": 0.0}]}, want)
    assert mismatches({**want, "records": []}, want)
    assert mismatches({"measured": 0.25}, want)


def test_readme_block_is_the_readme_rows():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert [line.split() for line in block.strip().splitlines()] == \
        [["mcert", *row.argv] for row in README_ROWS]


def test_every_points_file_is_a_fixture(ran):
    # else a row that expects an input error would pass on the missing file
    for row in ROWS:
        if "--points" in row.argv:
            assert (ran[0] / row.argv[row.argv.index("--points") + 1]).is_file(), row.line


def test_rigidity_without_sections_records_no_seed(ran):
    a, b = load(ran, "r3.json"), load(ran, "r3s5.json")
    assert b["seeds"] == {}
    assert a["input_digest"] == b["input_digest"]


def test_certificate_closes_the_gaussian_bracket_at_p_inf(ran):
    row = load(ran, "bound24.json")["tables"]["bound"][0]
    assert row["relative_gap"] <= 1e-9
    assert row["certificate_steps"] <= 10


def test_dense_p4_search_stays_below_its_upper_bound(ran):
    row = load(ran, "bound24p4.json")["tables"]["bound"][0]
    assert row["lower_bound"] <= row["upper_bound"]


def test_chamber_volumes_rise_and_their_tails_are_dropped_within_1e16(ran):
    for name in ("geo.json", "geo4.json", "geo5.json"):
        t = load(ran, name)["tables"]["volumes"]
        assert all(a["R"] < b["R"] and a["volume"] < b["volume"] for a, b in zip(t, t[1:]))
        assert all(0.0 <= v["truncation_bound"] <= 1e-16 * v["volume"] for v in t)


def test_cross_check_passes_at_n200_where_the_sum_diverges(ran):
    cross, total = load(ran, "spec200.json")["records"]
    assert cross["name"] == "recurrence-vs-quadrature" and cross["verdict"] == "PASS"
    assert total["verdict"] == "INCONCLUSIVE" and total["measured"] is None


def test_every_verdict_is_the_rule_applied_to_its_record(ran):
    records = [r for name in sorted(glob.glob(str(ran[0] / "*.json")))
               for r in json.loads(Path(name).read_text(encoding="utf-8"))["records"]]
    assert records
    for r in records:
        assert r["verdict"] == decide_verdict(r["kind"], r["measured"], r["bound"],
                                              r["tolerance"]), r


def test_every_report_is_strict_json(ran):
    # int("NaN") and int("Infinity") raise ValueError
    names = sorted(glob.glob(str(ran[0] / "*.json")))
    assert len(names) == sum(len(row.reports) for row in ROWS)
    for name in names:
        json.loads(Path(name).read_text(encoding="utf-8"), parse_constant=int)


def test_every_report_has_one_line_per_record_and_table_row(ran):
    names = [name for row in ROWS for name in row.reports]
    assert sorted(ran[2]) == sorted(names)
    for name in names:
        text = (ran[0] / name).read_text(encoding="utf-8")
        assert not layout_faults(text), (name, layout_faults(text)[:3])
        got, want = json.loads(text), ran[2][name]
        # the header is the report's clock, read once per encoding
        assert got.pop("header").keys() == want.pop("header").keys()
        assert got == want, name


@pytest.mark.parametrize("text, fault", [
    ('{"a": NaN}\n', "not strict JSON"),
    ('{"b": 1, "a": 2, "records": [], "tables": {}}\n', "keys out of order"),
    ('{"records": [], "tables": {}}', "no final newline"),
    ('{"records": [\n{"a": 1,\n"b": 2}\n], "tables": {}}\n', "not one line"),
    ('{"records": [], "tables": {"t": [{"a": 1}, {"a": 2}]}}\n', "not one line"),
])
def test_layout_faults_sees_each_fault(text, fault):
    assert [f for f in layout_faults(text) if f.startswith(fault)]
