"""The one verdict rule, and how a report writes numpy scalars and empty tables."""

import json
import math

import numpy as np
import pytest

from mcert.report import (CROSS_CHECK, FAIL, INCONCLUSIVE, NECESSARY, PASS, SUFFICIENT, VALUE,
                          CertificationReport, CheckRecord, decide_verdict)

LIMIT = 2.0 * (1.0 + 0.05)  # the largest measured value that meets bound 2 at tolerance 0.05
PAST = math.nextafter(LIMIT, math.inf)

# (kind, measured, bound, tolerance, verdict)
VERDICTS = [
    (NECESSARY, None, 1.0, 0.05, INCONCLUSIVE),
    (NECESSARY, math.nan, 1.0, 0.05, INCONCLUSIVE),
    (NECESSARY, math.inf, 1.0, 0.05, INCONCLUSIVE),
    (VALUE, math.nan, None, None, INCONCLUSIVE),
    (VALUE, -3.5, None, None, PASS),
    (NECESSARY, 1.0, None, None, INCONCLUSIVE),
    (NECESSARY, 1.0, math.nan, 0.05, INCONCLUSIVE),
    (SUFFICIENT, 1.0, math.inf, 0.05, INCONCLUSIVE),
    (NECESSARY, 1.0, 1.0, None, PASS),
    (NECESSARY, math.nextafter(1.0, 2.0), 1.0, None, FAIL),
    (NECESSARY, LIMIT, 2.0, 0.05, PASS),
    (NECESSARY, PAST, 2.0, 0.05, FAIL),
    (CROSS_CHECK, LIMIT, 2.0, 0.05, PASS),
    (CROSS_CHECK, PAST, 2.0, 0.05, FAIL),
    (SUFFICIENT, LIMIT, 2.0, 0.05, PASS),
    (SUFFICIENT, PAST, 2.0, 0.05, INCONCLUSIVE),  # a shortfall refutes nothing
]


@pytest.mark.parametrize("kind, measured, bound, tolerance, verdict", VERDICTS,
                         ids=[f"{kind}-{measured!r}-{bound!r}-{tolerance!r}"
                              for kind, measured, bound, tolerance, _ in VERDICTS])
def test_the_verdict_rule(kind, measured, bound, tolerance, verdict):
    assert decide_verdict(kind, measured, bound, tolerance) == verdict


def test_numpy_scalars_are_written_as_plain_json():
    rep = CertificationReport(command="test")
    rep.add(CheckRecord(name="r", check_id="r", kind=VALUE, measured=np.float64("nan"),
                        details={"k": np.int64(3), "ok": np.bool_(True)}))
    (record,) = json.loads(rep.dumps())["records"]
    assert record["measured"] is None
    assert record["details"] == {"k": 3, "ok": True}
    assert type(record["details"]["k"]) is int  # 3, not 3.0


def test_an_empty_table_writes_no_csv(tmp_path):
    rep = CertificationReport(command="test")
    rep.add_table("empty", [])
    rep.add_table("rows", [{"k": 0, "m_k": 1}])
    stem = str(tmp_path / "r")
    assert rep.save_tables_csv(stem) == [f"{stem}_rows.csv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["r_rows.csv"]
