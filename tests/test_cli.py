import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcert
from mcert.cli import main
from mcert.errors import InputError
from mcert.geometry import _median, certify_hm_report
from mcert.report import decide_verdict, input_digest
from mcert.rigidity import rigidity_report, rigidity_witness
from mcert.schur import circulant_lower_bound, schur_norm_lower_bound
from mcert.sphere import multiplicity
from mcert.symbols import SymbolFamily

from matrix_csv import write_matrix_csv


def load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main_strict(argv):
    """main(argv) with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


def strict_json(path):
    """The report at path, parsed with NaN and Infinity rejected."""
    def reject(token):
        raise ValueError(f"bare {token} in the report")

    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=reject)


def run_cli(argv):
    """The CLI in a subprocess with a timeout, so a hang fails instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(mcert.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "mcert.cli"] + argv,
                          env=env, capture_output=True, text=True, timeout=60)


class TestCertifyHm:
    def test_constant_symbol_passes(self, tmp_path):
        out = tmp_path / "hm1.json"
        rc = main(["certify-hm", "--symbol", "radial-power:exponent=0", "--n", "3",
                   "--order", "2", "--out", str(out)])
        assert rc == 0
        rep = load_report(out)
        rec = {r["name"]: r for r in rep["records"]}
        assert rec["hm-constant"]["measured"] == pytest.approx(1.0, abs=1e-9)
        assert rec["hm-constant"]["verdict"] == "PASS"

    def test_growing_symbol_fails_order_zero(self):
        rc = main(["certify-hm", "--symbol", "radial-power:exponent=-1", "--n", "3",
                   "--order", "1"])
        assert rc == 1

    def test_decaying_profile_fit(self, tmp_path):
        out = tmp_path / "hm5.json"
        rc = main(["certify-hm", "--symbol", "radial-power:exponent=5", "--n", "3",
                   "--order", "1", "--out", str(out)])
        assert rc == 0
        rep = load_report(out)
        rec = {r["name"]: r for r in rep["records"]}
        fitted = rec["hm-order-0"]["details"]["fitted_decay_exponent"]
        assert abs(fitted - 5.0) <= 0.5  # sigma_3 + 1 = 5 within 10%

    def test_per_order_above_basis_size_is_input_error(self):
        proc = run_cli(["certify-hm", "--symbol", "radial-power:exponent=5", "--n", "2",
                        "--order", "1", "--per-order", "10"])
        assert proc.returncode == 2, proc.stderr
        assert "per-order" in proc.stderr

    def test_n4_default_order_runs(self, tmp_path):
        # order [16/2] + 1 = 9 at the default --per-order 3; the ray fits of orders 8
        # and 9 differ (3.43 vs 2.57), which does not refute a sufficient condition
        out = tmp_path / "hm4.json"
        proc = run_cli(["certify-hm", "--symbol", "radial-power:exponent=5", "--n", "4",
                        "--out", str(out)])
        assert proc.returncode in (0, 1), proc.stderr
        rep = load_report(out)
        rows = rep["tables"]["hm_constants"]
        assert [r["order"] for r in rows] == list(range(10))
        assert all(math.isfinite(r["constant"]) for r in rows)
        assert [r["name"] for r in rep["records"] if r["verdict"] == "FAIL"] == []

    def test_order_150_is_an_accuracy_error(self):
        # next to the identity the derivatives of order 150 overflow: exit 3 at once
        start = time.monotonic()
        proc = run_cli(["certify-hm", "--symbol", "radial-power:exponent=5", "--n", "3",
                        "--order", "150"])
        assert time.monotonic() - start < 10.0
        assert proc.returncode == 3, proc.stderr
        assert "not finite" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    @pytest.mark.parametrize("bad", [["--grid-levels", "-1"], ["--grid-levels", "0"],
                                     ["--order", "-1"], ["--order", "171"],
                                     ["--grid-levels", "1000000", "--n", "3"],
                                     ["--n", "150", "--order", "1"], ["--n", "65", "--order", "1"]])
    def test_count_flag_out_of_range_is_input_error(self, bad, capsys):
        rc = main(["certify-hm", "--symbol", "radial-power:exponent=5", "--n", "2", *bad])
        assert rc == 2
        assert bad[0] in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        (["--n", "3", "--grid-levels", "1000000"], "--grid-levels must be <= 103559"),
        (["--n", "3", "--grid-levels", "103560"], "--grid-levels must be <= 103559"),
        (["--n", "64", "--order", "170", "--grid-levels", "5"], "--grid-levels must be <= 4"),
        (["--n", "150", "--order", "1"], "--n must be <= 64")])
    def test_sweep_past_its_memory_cap_exits_2_before_allocating(self, bad, message, capsys):
        # the caps bound the basis, 8 n^4 bytes, and the sweep's jet coefficients,
        # (order + 1) (3 shells + 10) n^2 floats per direction, before either is built
        import tracemalloc

        tracemalloc.start()
        try:
            rc = main(["certify-hm", "--symbol", "radial-power:exponent=5", *bad])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert message in capsys.readouterr().err
        assert peak < 1 << 20

    @pytest.mark.parametrize("n, order, per_order", [(2, 3, 3), (3, 5, 3), (3, 2, 1), (4, 9, 15)])
    def test_one_symbol_call_per_multi_index(self, n, order, per_order, monkeypatch):
        # one stacked symbol call gives order 0, then one profile jet over every sampled
        # direction and sweep point gives orders 0..order; the sweep is inverted three
        # times, for the distances, the symbol and the jets, whatever per_order is
        from mcert.symbols import RadialProfile, SymbolFamily, SymbolHandle

        profile = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        jets, inverses = [], []

        def counted(u):
            jets.append((len(u), np.shape(u[0])))
            return profile.of(u)

        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: inverses.append(np.shape(m)) or inv(m))
        certify_hm_report(SymbolHandle(RadialProfile(counted)), n=n, order=order,
                          per_order=per_order)
        jets.sort()
        points = jets[0][1]
        assert len(points) == 1 and points[0] > 1  # stacks only, never one matrix
        assert jets == [(1, points), (order + 1, (per_order,) + points)]
        assert inverses == [points + (n, n)] * 3

    def test_sweep_is_validated_once(self, monkeypatch):
        # the sweep's GroupElement is checked when it is built; the symbol and the Lie
        # derivatives read its entries and check nothing again
        from mcert import geometry
        from mcert.geometry import certify_hm_report
        from mcert.symbols import SymbolFamily

        calls = []
        check = geometry.check_special_linear
        monkeypatch.setattr(geometry, "check_special_linear",
                            lambda m: calls.append(np.shape(m)) or check(m))
        certify_hm_report(SymbolFamily.parse("radial-power:exponent=5").build_group_symbol(), n=3)
        assert calls == [(25, 3, 3)]

    def test_per_order_zero_is_input_error(self, capsys):
        rc = main(["certify-hm", "--symbol", "radial-power:exponent=5", "--n", "2",
                   "--order", "1", "--per-order", "0"])
        assert rc == 2
        assert "per-order" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_n_below_two_is_input_error(self, n, capsys):
        # checked before the basis is sized, so the message names --n, not --per-order
        rc = main(["certify-hm", "--symbol", "radial-power:exponent=5", "--n", n])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--n must be >= 2" in err and "per-order" not in err

    @pytest.mark.parametrize("width", ["0", "-0.5"])
    def test_non_positive_bump_width_is_input_error(self, width, tmp_path, capsys):
        out = tmp_path / "hm.json"
        rc = main(["certify-hm", "--symbol", f"hm-bump:width={width}", "--n", "3",
                   "--out", str(out)])
        assert rc == 2
        assert f"width must lie in (0.0, inf], got {float(width)!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_far_narrow_bump_is_silent_zero(self, tmp_path, capsys):
        # (x - 1e300) / 1e-300 overflows to -inf: the bump is 0 with no warning
        out = tmp_path / "hm.json"
        rc = main_strict(["certify-hm", "--symbol", "hm-bump:center=1e300,width=1e-300",
                          "--n", "2", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        rep = strict_json(out)
        assert [r["verdict"] for r in rep["records"]] == ["PASS"] * 6
        assert [row["constant"] for row in rep["tables"]["hm_constants"]] == [0.0] * 4

    # the lift evaluates the profile at dist(g, e), which starts at 0: a shift of 0 is
    # a pole at the identity, and -0.5 a pole at dist 0.5 and a NaN below it
    @pytest.mark.parametrize("spec", ["radial-power:shift=-0.5,exponent=2.5",
                                      "radial-power:shift=0,exponent=2.5",
                                      "radial-power:shift=-0.5,exponent=2"])
    def test_non_positive_shift_is_input_error(self, spec, tmp_path, capsys):
        out = tmp_path / "hm.json"
        rc = main(["certify-hm", "--symbol", spec, "--n", "3", "--out", str(out)])
        assert rc == 2
        assert "shift must lie in (0.0, inf], got " in capsys.readouterr().err
        assert not out.exists()


class TestRigidity:
    def test_constant_profile_passes(self, tmp_path):
        out = tmp_path / "rc.json"
        rc = main(["rigidity", "--profile", "radial-power:exponent=0", "--n", "5",
                   "--p", "10", "--out", str(out)])
        assert rc == 0

    def test_rank_gap_exit_codes(self, tmp_path):
        rc3 = main(["rigidity", "--profile", "radial-power:exponent=5", "--n", "3",
                    "--p", "10", "--out", str(tmp_path / "r3.json")])
        rc16 = main(["rigidity", "--profile", "radial-power:exponent=5", "--n", "16",
                     "--p", "100", "--out", str(tmp_path / "r16.json")])
        assert (rc3, rc16) == (0, 1)
        rep16 = load_report(tmp_path / "r16.json")
        failed = {r["name"] for r in rep16["records"] if r["verdict"] == "FAIL"}
        assert "decay-c0" in failed
        exps = rep16["tables"]["exponents"][0]
        assert exps["c0"] == pytest.approx(16.0 / 3.0)
        # derivative records run to [alpha] = 6 at n = 16, p = 100
        names = [r["name"] for r in rep16["records"]]
        assert [k for k in range(1, 9) if f"derivative-c{k}" in names] == list(range(1, 7))

    def test_short_sufficient_decay_is_inconclusive(self, tmp_path):
        # (1 + x)^-5 meets every necessary record at n = 5, but its decay falls short of
        # the sufficient exponent 13: evidence for neither side
        out = tmp_path / "r5.json"
        rc = main(["rigidity", "--profile", "radial-power:exponent=5", "--n", "5",
                   "--p", "10", "--out", str(out)])
        assert rc == 1
        verdicts = {r["name"]: r["verdict"] for r in load_report(out)["records"]}
        assert verdicts.pop("hm-sufficient-decay") == "INCONCLUSIVE"
        assert set(verdicts.values()) == {"PASS"}

    @pytest.mark.parametrize("spec, sections, code", [
        ("radial-power:exponent=-200", [], 1), ("radial-power:exponent=-200", ["2"], 1),
        ("radial-log-power:exponent=-300,log_exponent=-300", [], 1),
        ("radial-log-power:exponent=-300,log_exponent=-300", ["2"], 3)])
    def test_overflowing_profile_warns_nothing(self, spec, sections, code, tmp_path, capsys):
        # the records of an overflowing profile are INCONCLUSIVE or null; a section that
        # overflows is an accuracy error that names its size, not a bad symbol matrix
        out = tmp_path / "grow.json"
        argv = ["rigidity", "--profile", spec, "--n", "5", "--p", "6", "--out", str(out)]
        rc = main_strict(argv + (["--sections", *sections] if sections else []))
        err = capsys.readouterr().err
        assert rc == code, err
        if code == 3:
            assert err == "accuracy error: the profile overflows on the 8-point section\n"
            assert not out.exists()
        else:
            assert err == ""
            assert strict_json(out)["verdict"] == "INCONCLUSIVE"

    def test_section_frobenius_term_past_the_float_range_keeps_a_finite_bracket(self, tmp_path):
        # from 16 points on, a section's Frobenius term N |c|_2 lies past the largest float;
        # its circulant term, at most |c|_2 (1 + O(u)), fits and sets the upper bound
        out = tmp_path / "grow.json"
        proc = run_cli(["rigidity", "--profile", "radial-power:exponent=-232", "--n", "5",
                        "--p", "6", "--sections", "6", "--mode", "opnorm", "--out", str(out)])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        rows = strict_json(out)["tables"]["section_lower_bounds"]
        assert [row["points"] for row in rows] == [8, 16, 32, 64, 128, 256]
        assert all(0.0 < row["lower_bound"] <= row["upper_bound"] < math.inf for row in rows)

    @pytest.mark.parametrize("spec, n", [("hm-bump:center=5000,width=1000", "3"),
                                         ("hm-bump:center=9000,width=2000", "8")])
    def test_bump_far_out_passes(self, spec, n, tmp_path):
        # the grid ends a decade past the bump, so phi_inf is 0, not a sample inside it
        out = tmp_path / "far.json"
        assert main(["rigidity", "--profile", spec, "--n", n, "--p", "10",
                     "--out", str(out)]) == 0
        assert {r["verdict"] for r in load_report(out)["records"]} == {"PASS"}

    def test_shift_above_minus_one_accepted(self, tmp_path):
        # the rigidity records evaluate the profile on [1.05, 1e4] only
        rc = main(["rigidity", "--profile", "radial-power:exponent=2.5,shift=-0.5", "--n", "3",
                   "--p", "10", "--out", str(tmp_path / "r.json")])
        assert rc in (0, 1)

    def test_rank_above_64_is_input_error(self, tmp_path, capsys):
        # from n = 79 the order-[alpha] envelope weights overflow floats at p = inf
        assert main(["rigidity", "--profile", "hm-bump:center=1.5,width=0.4", "--n", "64",
                     "--p", "inf", "--out", str(tmp_path / "r64.json")]) == 0
        rc = main(["rigidity", "--profile", "hm-bump:center=1.5,width=0.4", "--n", "65",
                   "--p", "inf", "--out", str(tmp_path / "r65.json")])
        assert rc == 2
        assert "--n must be <= 64" in capsys.readouterr().err

    def test_oscillating_profile_fails_limit(self, tmp_path):
        # sin(x) has no limit at infinity: the built-in families cannot
        # express it, so drive the records directly
        from mcert.rigidity import profile_rigidity_records
        from mcert.symbols import RadialProfile

        # the k-th Taylor coefficient of sin at x is sin(x + k pi / 2) / k!; the records
        # take jets of the variable itself, u = [x, 1, 0, ...]
        prof = RadialProfile(lambda u: [np.sin(u[0] + k * np.pi / 2) / math.factorial(k)
                                        for k in range(len(u))])
        records, _ = profile_rigidity_records(prof, 5, 10.0)
        limit = [r for r in records if r.name == "limit-existence"][0]
        assert limit.verdict == "FAIL"

    def test_p_out_of_range_is_input_error(self):
        rc = main(["rigidity", "--profile", "radial-power:exponent=2", "--n", "3",
                   "--p", "3"])
        assert rc == 2

    def test_nan_p_is_input_error(self, capsys):
        rc = main(["rigidity", "--profile", "radial-power:exponent=5", "--n", "3",
                   "--p", "nan"])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    def test_sections_mode(self, tmp_path):
        out = tmp_path / "sec.json"
        rc = main(["rigidity", "--profile", "radial-power:exponent=0", "--n", "5",
                   "--p", "10", "--sections", "2", "--out", str(out)])
        assert rc == 0
        rep = load_report(out)
        assert "section_lower_bounds" in rep["tables"]
        assert rep["tables"]["classification"][0]["classification"] == "CONSISTENT"
        assert [(r["lower_bound"], r["upper_bound"] <= 1.0 + 1e-12)
                for r in rep["tables"]["section_lower_bounds"]] == [(1.0, True)] * 2

    def test_sections_up_to_256_points_are_bracketed(self, tmp_path):
        out = tmp_path / "s6.json"
        proc = run_cli(["rigidity", "--profile", "radial-power:exponent=5", "--n", "8",
                        "--p", "10", "--sections", "6", "--out", str(out)])
        assert proc.returncode in (0, 1), proc.stderr
        rows = load_report(out)["tables"]["section_lower_bounds"]
        assert [r["points"] for r in rows] == [8, 16, 32, 64, 128, 256]
        for r in rows:
            assert r["lower_bound"] <= r["upper_bound"] <= r["lower_bound"] * (1.0 + 1e-12)

    @pytest.mark.parametrize("sections", ["9", "32"])
    def test_sections_above_eight_exit_2_before_allocating(self, sections, capsys):
        import tracemalloc

        tracemalloc.start()
        try:
            rc = main(["rigidity", "--profile", "radial-power:exponent=5", "--n", "5",
                       "--p", "4", "--sections", sections])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "--sections must be <= 8" in capsys.readouterr().err
        assert peak < 1 << 20  # no section array: the smallest dense 8 x 8 one is not built

    def test_one_section_is_input_error(self, tmp_path, capsys):
        # the growth record compares sizes: one section has nothing to compare
        out = tmp_path / "s1.json"
        rc = main(["rigidity", "--profile", "radial-power:exponent=5", "--n", "5",
                   "--p", "10", "--sections", "1", "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "--sections must be 0 or 2 to 8, got 1" in capsys.readouterr().err

    def test_negative_sections_is_input_error(self, capsys):
        rc = main(["rigidity", "--profile", "radial-power:exponent=5", "--n", "3",
                   "--p", "10", "--sections", "-1"])
        assert rc == 2
        assert "--sections" in capsys.readouterr().err

    # a zero width divides by zero, and the records would PASS on 0.0 and null;
    # a shift of -2 makes the profile NaN at x < 2, and a bare NaN is not JSON
    @pytest.mark.parametrize("spec", ["radial-power:exponnet=5", "radial-power:exponent=abc",
                                      "hm-bump:width=0", "hm-bump:width=-0.5",
                                      "radial-power:exponent=2.5,shift=-2"])
    def test_bad_family_spec_is_input_error(self, spec, capsys):
        rc = main(["rigidity", "--profile", spec, "--n", "3", "--p", "10"])
        assert rc == 2
        assert "input error" in capsys.readouterr().err


# every certify-hm and rigidity count the CLI rejects, with its message; the report
# builders check them themselves, so a direct call fails alike, before it allocates
_BUILDER_KEYWORDS = {"--n": "n", "--order": "order", "--grid-levels": "shells",
                     "--per-order": "per_order", "--p": "p", "--sections": "sections"}
_REJECTED = [
    ("certify-hm", {"--n": 1}, "--n must be >= 2, got 1"),
    ("certify-hm", {"--n": -3}, "--n must be >= 2, got -3"),
    ("certify-hm", {"--n": 65, "--order": 1}, "--n must be <= 64, got 65"),
    ("certify-hm", {"--n": 150, "--order": 1}, "--n must be <= 64, got 150"),
    ("certify-hm", {"--n": 2, "--order": -1}, "--order must be >= 0, got -1"),
    ("certify-hm", {"--n": 2, "--order": 171}, "--order must be <= 170, got 171"),
    ("certify-hm", {"--n": 19}, "--order must be <= 170, got 181"),  # the default [n^2/2] + 1
    ("certify-hm", {"--grid-levels": 0}, "--grid-levels must be >= 1, got 0"),
    ("certify-hm", {"--grid-levels": -1}, "--grid-levels must be >= 1, got -1"),
    ("certify-hm", {"--grid-levels": 103560}, "--grid-levels must be <= 103559, got 103560"),
    ("certify-hm", {"--n": 64, "--order": 170, "--grid-levels": 5},
     "--grid-levels must be <= 4, got 5"),
    ("certify-hm", {"--per-order": 0}, "--per-order must be >= 1, got 0"),
    ("certify-hm", {"--per-order": 9}, "--per-order must be <= 8, got 9"),  # n = 3
    ("certify-hm", {"--n": 2, "--order": 1, "--per-order": 10}, "--per-order must be <= 3, got 10"),
    ("rigidity", {"--n": 2}, "--n must be >= 3, got 2"),
    ("rigidity", {"--n": 65}, "--n must be <= 64, got 65"),
    ("rigidity", {"--sections": 9}, "--sections must be <= 8, got 9"),
    ("rigidity", {"--sections": 32}, "--sections must be <= 8, got 32"),
    ("rigidity", {"--sections": 1}, "--sections must be 0 or 2 to 8, got 1"),
    ("rigidity", {"--sections": -1}, "--sections must be >= 0, got -1"),
]


@pytest.mark.parametrize("command, flags, message", _REJECTED)
def test_report_builders_reject_what_the_cli_rejects(command, flags, message, capsys):
    import tracemalloc

    from mcert.errors import InputError
    from mcert.geometry import certify_hm_report
    from mcert.rigidity import rigidity_report
    from mcert.symbols import SymbolFamily

    family = SymbolFamily.parse("radial-power:exponent=5")
    flags = {"--n": 3, "--p": 10.0, **flags} if command == "rigidity" else {"--n": 3, **flags}
    spec = "--symbol" if command == "certify-hm" else "--profile"
    argv = [command, spec, "radial-power:exponent=5", *(str(a) for f in flags.items() for a in f)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"

    kwargs = {_BUILDER_KEYWORDS[f]: v for f, v in flags.items()}
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as exc:
            if command == "certify-hm":
                certify_hm_report(family.build_group_symbol(), **kwargs)
            else:
                rigidity_report(family.build_profile(), **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 1 << 20


@pytest.mark.parametrize("argv, message", [
    (["sphere-spectrum", "--n", "3", "--x", "2"], "--x must lie in [-0.95, 0.95], got 2.0"),
    (["sphere-spectrum", "--n", "3", "--x", "0.99"], "--x must lie in [-0.95, 0.95], got 0.99"),
    (["sphere-spectrum", "--n", "3", "--p", "0.5"], "--p must lie in [1.0, inf), got 0.5"),
    (["schur-bound", "--p", "0.5"], "--p must lie in [1.0, inf], got 0.5"),
    # the lower end 2 + 2 / (n - 2) comes from --n: the interval is the exponent p's
    (["rigidity", "--profile", "radial-power:exponent=5", "--n", "3", "--p", "2"],
     "p must lie in (4.0, inf], got 2.0")])
def test_an_interval_the_cli_checks_names_its_flag(argv, message, tmp_path, capsys,
                                                   monkeypatch):
    from mcert import sphere

    def no_table(*args):
        raise AssertionError("a table was built before the flags were checked")

    monkeypatch.setattr(sphere, "eigenvalue_table", no_table)
    if argv[0] == "schur-bound":
        write_matrix_csv(np.ones((3, 3)), tmp_path / "m.csv")
        argv = [*argv, "--points", str(tmp_path / "m.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


class TestSphereSpectrum:
    def test_table_matches_recurrence(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = main(["sphere-spectrum", "--n", "3", "--p", "4", "--x", "0.5",
                   "--kmax", "10", "--out", str(out), "--format", "csv"])
        assert rc == 1  # alpha0 = 1/2 - 2/p = 0 at n = 3, p = 4: the Schatten sum diverges
        rep = load_report(out)
        assert [r["verdict"] for r in rep["records"]] == ["PASS", "INCONCLUSIVE"]
        rows = rep["tables"]["spectrum"]
        assert rows[1]["phi(x=0.5)"] == pytest.approx(0.5)
        assert rows[2]["phi(x=0.5)"] == pytest.approx(-0.125)
        assert [r["m_k"] for r in rows] == [2 * k + 1 for k in range(11)]
        csv_path = tmp_path / "spec_spectrum.csv"
        assert csv_path.exists()
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("k,m_k")

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_table_matches_scipy_gegenbauer(self, n, tmp_path):
        from scipy.special import eval_gegenbauer

        xs = [-0.9, -0.35, 0.0, 0.5, 0.9]
        out = tmp_path / "spec.json"
        rc = main(["sphere-spectrum", "--n", str(n), "--kmax", "50",
                   "--x", *map(str, xs), "--out", str(out)])
        assert rc == (1 if n == 3 else 0)  # at n = 3 the default p = 4 gives a diverged sum
        rows = load_report(out)["tables"]["spectrum"]
        assert [r["k"] for r in rows] == list(range(51))
        lam = (n - 2) / 2.0
        for r in rows:
            for x in xs:
                want = eval_gegenbauer(r["k"], lam, x) / eval_gegenbauer(r["k"], lam, 1.0)
                assert r[f"phi(x={x:g})"] == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("bad", [["--kmax", "-1"], ["--x", "nan"], ["--p", "nan"],
                                     ["--p", "8", "--r", "-1"], ["--kmax", "200001"]])
    def test_out_of_range_input_is_input_error(self, bad, capsys):
        rc = main(["sphere-spectrum", "--n", "3", *bad])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("n, p", [("102", "4"), ("3", "1e4"), ("200", "4"), ("345", "4"),
                                      ("400", "4"), ("2000", "4")])
    def test_tail_bound_past_float_range_is_input_error(self, n, p, tmp_path, capsys):
        # the tail constant A cdec^p of the certified Schatten sum overflows a float
        out = tmp_path / "spec.json"
        rc = main_strict(["sphere-spectrum", "--n", n, "--p", p, "--x", "0.5", "--kmax", "5",
                          "--out", str(out)])
        assert rc == 2
        assert f"n = {n}, p = {float(p):g} exceeds the float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["150", "200", "300", "344"])
    def test_quadrature_check_holds_at_large_n(self, n, tmp_path):
        # the cross-check's rule grows with n: one sized by the degree alone failed the
        # check at n = 150 (residual 2e-10); at p = 1 the Schatten sums diverge, which
        # leaves their records INCONCLUSIVE with a null value
        out = tmp_path / "spec.json"
        rc = main_strict(["sphere-spectrum", "--n", n, "--p", "1", "--x", "0.5", "--kmax", "5",
                          "--out", str(out)])
        assert rc == 1
        rec, schatten = load_report(out)["records"]
        assert rec["name"] == "recurrence-vs-quadrature"
        assert rec["verdict"] == "PASS" and rec["measured"] <= 1e-13
        assert schatten["verdict"] == "INCONCLUSIVE" and schatten["measured"] is None

    def test_quadrature_rule_past_its_cap_is_input_error(self, tmp_path, capsys):
        # where the sums diverge, n = 2000 reaches the cross-check, whose rule would
        # need 2018 nodes
        out = tmp_path / "spec.json"
        rc = main_strict(["sphere-spectrum", "--n", "2000", "--p", "1", "--x", "0.5",
                          "--kmax", "5", "--out", str(out)])
        assert rc == 2
        assert "needs 2018 > 1024 nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_tail_bound_product_past_float_range_is_input_error(self, tmp_path, capsys):
        # A and cdec^p are finite floats here, but their product is inf
        out = tmp_path / "spec.json"
        rc = main_strict(["sphere-spectrum", "--n", "82", "--p", "4", "--r", "1", "--x", "0.95",
                          "--kmax", "5", "--out", str(out)])
        assert rc == 2
        assert "n = 82, p = 4 exceeds the float range" in capsys.readouterr().err

    def test_large_kmax_finishes(self, tmp_path):
        out = tmp_path / "spec.json"
        proc = run_cli(["sphere-spectrum", "--n", "8", "--p", "8", "--x", "0.5",
                        "--kmax", "20000", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        rows = load_report(out)["tables"]["spectrum"]
        assert len(rows) == 20001
        assert rows[-1]["m_k"] == multiplicity(8, 20000)

    @pytest.mark.parametrize("xs", [["0.1234567", "0.1234568"], ["0.5", "0.3", "0.5"]])
    def test_x_values_sharing_a_label_are_input_error(self, xs, tmp_path, capsys):
        # columns and record names read x in :g format, which keeps 6 significant digits
        out = tmp_path / "spec.json"
        rc = main(["sphere-spectrum", "--n", "5", "--p", "6", "--x", *xs, "--out", str(out)])
        assert rc == 2
        label = f"{float(xs[0]):g}"
        assert (capsys.readouterr().err
                == f"input error: --x {xs[0]} and {xs[-1]} share the label x={label}\n")
        assert not out.exists()


class TestSchurBound:
    def test_all_ones_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(np.ones((6, 6)), path)
        out = tmp_path / "sb.json"
        rc = main(["schur-bound", "--points", str(path), "--p", "2", "--out", str(out)])
        assert rc == 0
        rep = load_report(out)
        assert rep["tables"]["bound"][0]["lower_bound"] == pytest.approx(1.0, abs=1e-8)
        details = {r["name"]: r for r in rep["records"]}["lower-bound"]["details"]
        assert (details["best_start"] == -1) == (details["best_iteration"] == 0)
        # at p = 2 the interpolated upper bound is the exact S_2 law, the sup entry 1,
        # with its rounding allowance
        assert details["upper_bound"] == pytest.approx(1.0, rel=1e-14)
        assert details["upper_bound"] >= rep["tables"]["bound"][0]["lower_bound"]
        assert rep["tables"]["bound"][0]["upper_bound"] == details["upper_bound"]
        assert [r["name"] for r in rep["records"]] == ["lower-bound"]
        # the record and the table carry both ends, the gap and the certificate steps
        row = rep["tables"]["bound"][0]
        for key in ("lower_bound", "upper_bound", "relative_gap", "certificate_steps"):
            assert details[key] == row[key]
        assert row["certificate_steps"] == 0  # p = 2 takes none

    @pytest.mark.parametrize("p", ["2", "3", "4", "inf"])
    def test_power_of_two_scaling_scales_every_number_exactly(self, p, tmp_path):
        rng = np.random.default_rng(40)
        m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))

        def numbers(scale):
            path, out = tmp_path / "m.csv", tmp_path / "sb.json"
            write_matrix_csv(m * scale, path)
            assert main(["schur-bound", "--points", str(path), "--p", p, "--iterations", "12",
                         "--out", str(out)]) == 0
            rep = load_report(out)
            row, rec = rep["tables"]["bound"][0], rep["records"][0]
            return [row["lower_bound"], row["sup_entry"], row["upper_bound"], rec["measured"],
                    rec["bound"], rec["details"]["upper_bound"]]

        base = numbers(1.0)
        if p == "inf":  # the Haagerup certificate closes the bracket
            assert base[0] <= base[2] <= base[0] * (1.0 + 1e-11)
        for e in (600, -600):  # |m|^4 overflows at 2^600 and underflows at 2^-600
            scaled = numbers(2.0 ** e)
            assert all(math.isfinite(v) and v == b * 2.0 ** e for v, b in zip(scaled, base))

    def test_bound_past_the_float_range_is_input_error(self, tmp_path):
        # diag(1e308 + 1e308i, 1e308) has the Frobenius bound sqrt(6) 1e308 and the
        # circulant bound 2 sqrt(2) 1e308, both past the largest float
        path, out = tmp_path / "big.csv", tmp_path / "sb.json"
        path.write_text("i,j,re,im\n0,0,1e308,1e308\n1,1,1e308,0\n", encoding="utf-8")
        proc = run_cli(["schur-bound", "--points", str(path), "--p", "2", "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert "float range" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not out.exists()

    def test_zero_rows_and_columns_close_at_p_inf(self, tmp_path, capsys):
        # the certificate divides by the dual pair's entries, which vanish on zero rows and
        # columns: it factors the nonzero block, whose norm is the norm
        rng = np.random.default_rng(41)
        m = rng.standard_normal((9, 7)) + 1j * rng.standard_normal((9, 7))
        m[[0, 4, 8]] = 0.0
        m[:, [2, 6]] = 0.0
        path, out = tmp_path / "m.csv", tmp_path / "sb.json"
        write_matrix_csv(m, path)
        assert main_strict(["schur-bound", "--points", str(path), "--p", "inf",
                            "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        row = strict_json(out)["tables"]["bound"][0]
        assert row["relative_gap"] <= 1e-11
        assert row["lower_bound"] <= row["upper_bound"] <= row["lower_bound"] * (1.0 + 1e-11)

    @pytest.mark.parametrize("index", ["4096", "200000"])
    def test_oversized_index_exit_2_before_allocating(self, index, tmp_path, capsys):
        import tracemalloc

        path = tmp_path / "big.csv"
        path.write_text(f"i,j,re,im\n0,0,1,0\n{index},0,1,0\n", encoding="utf-8")
        tracemalloc.start()
        try:
            rc = main(["schur-bound", "--points", str(path), "--p", "4"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "may not exceed 4096" in capsys.readouterr().err
        assert peak < 1 << 20  # the 4097 x 4097 matrix alone would take 256 MiB

    def test_inflated_lower_bound_fails(self, tmp_path, monkeypatch):
        import dataclasses

        from mcert import cli

        real = cli.schur_norm_lower_bound

        def inflated(*args, **kwargs):
            res = real(*args, **kwargs)
            return dataclasses.replace(res, bracket=dataclasses.replace(res.bracket, lower=1e3))

        monkeypatch.setattr(cli, "schur_norm_lower_bound", inflated)
        path = tmp_path / "m.csv"
        write_matrix_csv(np.ones((6, 6)), path)
        out = tmp_path / "sb.json"
        assert main(["schur-bound", "--points", str(path), "--out", str(out)]) == 1
        rec = {r["name"]: r for r in load_report(out)["records"]}["lower-bound"]
        assert rec["verdict"] == "FAIL" and rec["measured"] == 1e3

    @pytest.mark.parametrize("p", ["nan", "0.5"])
    def test_p_outside_range_is_input_error(self, p, tmp_path, capsys):
        path = tmp_path / "m.csv"
        write_matrix_csv(np.ones((3, 3)), path)
        assert main(["schur-bound", "--points", str(path), "--p", p]) == 2
        assert "input error" in capsys.readouterr().err

    def test_zero_iterations_give_sup_entry(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(np.array([[1.0, -3.0], [2.0, 0.5]]), path)
        out = tmp_path / "sb.json"
        assert main(["schur-bound", "--points", str(path), "--iterations", "0",
                     "--out", str(out)]) == 0
        row = load_report(out)["tables"]["bound"][0]
        assert row["lower_bound"] == 3.0 and row["certificate_steps"] == 0
        assert row["relative_gap"] == row["upper_bound"] / 3.0 - 1.0 > 0.0

    @pytest.mark.parametrize("iterations", ["-1", "-3"])
    def test_negative_iterations_is_input_error(self, iterations, tmp_path, capsys):
        path = tmp_path / "m.csv"
        write_matrix_csv(np.ones((3, 3)), path)
        assert main(["schur-bound", "--points", str(path), "--iterations", iterations]) == 2
        assert "--iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("i,j,re\n0,0,1\n0,0,1,5\n", "line 3 of .*: 4 fields where the header has 3"),
        ("i,j,re,im\n0,0,1,0\n1,1,2\n", "line 3 of .*: 3 fields where the header has 4"),
        ("i,j,re,re\n0,0,1,5\n", "names column 're' twice")])
    def test_row_or_header_of_another_length_exit_2(self, text, message, tmp_path, capsys):
        # 0,0,1,5 under i,j,re is not 1 + 5i, and a second re is not a choice
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["schur-bound", "--points", str(path), "--p", "2"]) == 2
        assert re.search(message, capsys.readouterr().err)

    def test_noise_header_is_one_short_line(self, tmp_path, monkeypatch, capsys):
        # a header of 300 random bytes: the message names the file and quotes at most 60
        # characters of the decoded header, so it stays one short line
        monkeypatch.chdir(tmp_path)
        Path("noise.csv").write_bytes(np.random.default_rng(4).bytes(300))
        assert main(["schur-bound", "--points", "noise.csv", "--p", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith("input error: CSV header ") and "of noise.csv has no column" in err

    def test_negative_index_exit_code(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("i,j,re,im\n0,0,1,0\n1,-1,2,0\n", encoding="utf-8")
        assert main(["schur-bound", "--points", str(path), "--p", "2"]) == 2

    def test_missing_file_exit_code(self):
        rc = main(["schur-bound", "--points", "/nonexistent/m.csv", "--p", "2"])
        assert rc == 2

    def test_byte_order_mark_gives_the_same_report(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_matrix_csv(np.arange(9.0).reshape(3, 3) / 9.0, plain)
        marked.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
        bodies = []
        for path in (plain, marked):
            out = tmp_path / f"{path.stem}.json"
            assert main(["schur-bound", "--points", str(path), "--p", "4", "--out", str(out)]) == 0
            rep = load_report(out)
            rep.pop("header")
            rep.pop("input_digest")  # it hashes the --points path
            bodies.append(rep)
        assert bodies[0] == bodies[1]

    def test_reports_are_the_same_on_any_blas_thread_and_core_count(self, tmp_path):
        # import mcert puts BLAS on one thread before numpy loads, unless the environment
        # names a count; the search's two lanes then fold to the same bits on one CPU
        rng = np.random.default_rng(128)
        write_matrix_csv(rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)),
                         tmp_path / "g.csv")
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["PYTHONPATH"] = str(Path(mcert.__file__).resolve().parents[1])
        runs = [(env, []), ({**env, "OPENBLAS_NUM_THREADS": "1"}, [])]
        if shutil.which("taskset"):
            runs.append((env, ["taskset", "-c", "0"]))
        for flags in (["--p", "4", "--iterations", "10"], ["--p", "inf"]):
            bodies = []
            for run_env, prefix in runs:
                proc = subprocess.run([*prefix, sys.executable, "-m", "mcert.cli", "schur-bound",
                                       "--points", "g.csv", *flags, "--out", "r.json"],
                                      cwd=tmp_path, env=run_env, capture_output=True, text=True,
                                      timeout=120)
                assert proc.returncode == 0, proc.stderr
                rep = load_report(tmp_path / "r.json")
                rep.pop("header")
                bodies.append(rep)
            assert all(body == bodies[0] for body in bodies[1:]), flags
        proc = subprocess.run(
            [sys.executable, "-c", "import os, mcert; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env={**env, "OPENBLAS_NUM_THREADS": "2"}, capture_output=True, text=True, timeout=60)
        assert proc.stdout == "2\n", proc.stderr


class TestGeometryCommand:
    def test_slope_record(self, tmp_path):
        out = tmp_path / "geo.json"
        rc = main(["geometry", "--n", "2", "--R"] + [str(v) for v in range(2, 11)]
                  + ["--out", str(out)])
        assert rc == 0
        rep = load_report(out)
        rec = [r for r in rep["records"] if r["name"] == "volume-growth-rate"][0]
        assert rec["details"]["slope"] == pytest.approx(2.0, rel=0.05)
        assert rec["measured"] == abs(rec["details"]["slope"] - 2.0)
        for row in rep["tables"]["volumes"]:  # each volume carries its series' tail bound
            assert 0.0 < row["truncation_bound"] <= 1e-16 * row["volume"]

    @pytest.mark.parametrize("n", [3, 4])
    def test_readme_radii_at_higher_rank(self, n, tmp_path):
        out = tmp_path / "geo.json"
        assert main(["geometry", "--n", str(n), "--R"] + [str(v) for v in range(2, 11)]
                    + ["--out", str(out)]) == 0
        rep = load_report(out)
        rec = [r for r in rep["records"] if r["name"] == "volume-growth-rate"][0]
        assert rec["verdict"] == "PASS"
        assert rec["details"]["slope"] == pytest.approx(n * n // 2, rel=0.05)

    @pytest.mark.parametrize("argv", [
        ["geometry", "--n", "4", "--R", "6", "8", "10"],
        ["rigidity", "--profile", "radial-power:exponent=5", "--n", "3", "--p", "10"]],
        ids=["geometry", "rigidity"])
    def test_report_does_not_depend_on_seed(self, argv, tmp_path):
        # rigidity draws from its seed only for --sections
        reports = []
        for seed in ("0", "7"):
            out = tmp_path / f"rep{seed}.json"
            assert main([*argv, "--seed", seed, "--out", str(out)]) == 0
            rep = load_report(out)
            rep.pop("header")
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["seeds"] == {}

    @pytest.mark.parametrize("n, radii", [("3", ["1e-300", "1e-200", "1e-100"]),
                                          ("2", ["5", "5", "5"]), ("2", ["5"]), ("2", ["5", "6"]),
                                          ("2", ["1e-300", "1e-300", "2", "3"])])
    def test_unfittable_radii_are_inconclusive(self, n, radii, tmp_path):
        # a growth rate needs positive volumes at three distinct radii; an underflowed
        # volume is written as 0.0
        out = tmp_path / "geo.json"
        assert main_strict(["geometry", "--n", n, "--R", *radii, "--out", str(out)]) == 1
        rep = strict_json(out)
        (record,) = rep["records"]
        assert record["verdict"] == "INCONCLUSIVE" and record["measured"] is None
        vols = [row["volume"] for row in rep["tables"]["volumes"]]
        assert all(v > 0 or math.copysign(1.0, v) == 1.0 for v in vols)

    def test_n5_radius_40_has_oracle_volume(self, tmp_path):
        # n = 5 at R = 40: a finite volume of about e^480, one series like any other radius
        from test_geometry import exact_ball_volume

        out = tmp_path / "geo.json"
        radii = [2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 40]
        assert main_strict(["geometry", "--n", "5", "--R", *map(str, radii),
                            "--out", str(out)]) == 0
        last = strict_json(out)["tables"]["volumes"][-1]
        assert last["R"] == 40.0
        assert last["volume"] == pytest.approx(exact_ball_volume(5, 40.0, 120), rel=1e-13)

    def test_bad_radius_is_input_error(self):
        rc = main(["geometry", "--n", "2", "--R", "-1"])
        assert rc == 2

    def test_infinite_radius_is_input_error(self, tmp_path, capsys):
        # the volume would be NaN, listed under a PASS verdict
        out = tmp_path / "geo.json"
        rc = main(["geometry", "--n", "3", "--R", "inf", "--out", str(out)])
        assert rc == 2
        assert "--R must lie in (0.0, inf), got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_volume_beyond_float_range_is_input_error(self, tmp_path, capsys):
        # sinh(800) overflows: the volume would be inf, listed under a PASS verdict
        out = tmp_path / "geo.json"
        rc = main(["geometry", "--n", "2", "--R", "400", "--out", str(out)])
        assert rc == 2
        assert "float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, radius", [("2", "1e9"), ("2", "1e12"), ("4", "500"),
                                           ("5", "100")])
    def test_huge_radius_exits_two_at_once(self, n, radius, tmp_path, capsys):
        # the series is sized from the radius only below the float range: its length
        # grows with the radius
        out = tmp_path / "geo.json"
        start = time.monotonic()
        rc = main(["geometry", "--n", n, "--R", "2", radius, "--out", str(out)])
        assert time.monotonic() - start < 1.0
        assert rc == 2
        assert "float range" in capsys.readouterr().err
        assert not out.exists()


class TestReportDeterminism:
    def strip_header(self, path):
        rep = load_report(path)
        rep.pop("header")
        return json.dumps(rep, sort_keys=True)

    def test_identical_seeds_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["rigidity", "--profile", "radial-power:exponent=5", "--n", "5",
                "--p", "10", "--sections", "2", "--seed", "42"]
        rc_a = main(args + ["--out", str(a)])
        rc_b = main(args + ["--out", str(b)])
        assert rc_a == rc_b
        assert self.strip_header(a) == self.strip_header(b)
        # byte for byte outside the header, which is one line
        texts = [[line for line in path.read_text(encoding="utf-8").splitlines()
                  if not line.startswith('"header": ')] for path in (a, b)]
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_shorter_report_over_a_longer_file_leaves_only_its_bytes(self, fmt, tmp_path):
        argv = ["geometry", "--n", "2", "--R", "2", "3", "4", "--format", fmt]
        fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
        stale = tmp_path / "old_volumes.csv"
        for path in (old, stale):
            path.write_bytes(b"\0" * 100_000)
        assert main(argv + ["--out", str(fresh)]) == main(argv + ["--out", str(old)]) == 0
        assert b"\0" not in old.read_bytes()
        assert self.strip_header(old) == self.strip_header(fresh)
        if fmt == "csv":
            assert stale.read_bytes() == (tmp_path / "fresh_volumes.csv").read_bytes()
        else:
            assert stale.read_bytes() == b"\0" * 100_000

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_out_to_a_device_or_a_pipe_is_written_and_not_cut(self):
        argv = ["geometry", "--n", "2", "--R", "2", "3", "4", "--out"]
        assert main(argv + [os.devnull]) == 0
        proc = run_cli(argv + ["/dev/stdout"])  # a pipe to the test
        assert proc.returncode == 0, proc.stderr
        report = proc.stdout[:proc.stdout.index("\n}\n") + 3]
        assert json.loads(report)["command"] == "geometry"

    def test_symlinked_out_rewrites_its_target_and_keeps_the_link(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"\0" * 100_000)
        link.symlink_to(target)
        assert main(["geometry", "--n", "2", "--R", "2", "3", "4", "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert strict_json(target)["command"] == "geometry"

    def test_non_finite_numbers_are_written_as_null(self, tmp_path):
        def reject(token):
            raise ValueError(f"bare {token} in the report")

        out = tmp_path / "grow.json"
        with np.errstate(all="ignore"):
            rc = main(["rigidity", "--profile", "radial-power:exponent=-200", "--n", "5",
                       "--p", "6", "--sections", "2", "--out", str(out)])
        assert rc == 1
        rep = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)
        records = {r["name"]: r for r in rep["records"]}
        assert records["limit-existence"]["verdict"] == "INCONCLUSIVE"
        assert records["limit-existence"]["measured"] is None
        assert all(math.isfinite(row["upper_bound"])
                   for row in rep["tables"]["section_lower_bounds"])

    def test_infinite_p_keeps_its_digest(self):
        # the digest hashes the arguments themselves: p = inf stays the token Infinity
        want = hashlib.sha256(b'{"n": 3, "p": Infinity}').hexdigest()
        assert input_digest({"p": math.inf, "n": 3}) == want

    def test_schema_marker(self, tmp_path):
        out = tmp_path / "r.json"
        main(["geometry", "--n", "2", "--R", "2", "3", "4", "--out", str(out)])
        rep = load_report(out)
        assert rep["schema"] == "mcert/1"
        assert "timestamp" in rep["header"]


class TestCommonFlags:
    @pytest.mark.parametrize("command", ["certify-hm", "rigidity", "sphere-spectrum",
                                         "schur-bound", "geometry"])
    def test_negative_seed_is_input_error(self, command, tmp_path, capsys):
        points = tmp_path / "m.csv"
        write_matrix_csv(np.ones((3, 3)), points)
        argv = {"certify-hm": ["--symbol", "radial-power:exponent=5", "--n", "2"],
                "rigidity": ["--profile", "hm-bump", "--n", "5", "--p", "10", "--sections", "2"],
                "sphere-spectrum": ["--n", "3"],
                "schur-bound": ["--points", str(points)],
                "geometry": ["--n", "2", "--R", "2", "3", "4"]}[command]
        out = tmp_path / "r.json"
        assert main([command, *argv, "--seed", "-1", "--out", str(out)]) == 2
        assert "input error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("call", [
        lambda seed: certify_hm_report(
            SymbolFamily.parse("radial-power:exponent=5").build_group_symbol(), 2, seed=seed),
        lambda seed: rigidity_witness(SymbolFamily.parse("hm-bump").build_profile(), 5, 10.0,
                                      seed=seed),
        lambda seed: rigidity_report(SymbolFamily.parse("hm-bump").build_profile(), 5, 10.0,
                                     sections=2, seed=seed),
        lambda seed: schur_norm_lower_bound(np.arange(16.0).reshape(4, 4), 4.0, seed=seed),
        lambda seed: circulant_lower_bound(np.arange(16.0), 4.0, seed=seed),
    ], ids=["certify_hm_report", "rigidity_witness", "rigidity_report", "schur_norm_lower_bound",
            "circulant_lower_bound"])
    def test_library_entry_points_reject_a_negative_seed_before_drawing(self, call,
                                                                         monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(InputError, match="^--seed must be >= 0, got -1$"):
            call(-1)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_out_is_input_error(self, fmt, tmp_path, capsys):
        for out in (tmp_path / "missing" / "geo.json", tmp_path):
            assert main(["geometry", "--n", "2", "--R", "2", "3", "4", "--out", str(out),
                         "--format", fmt]) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error: ") and str(out) in err

    @pytest.mark.parametrize("command", ["geometry", "sphere-spectrum"])
    def test_csv_without_out_is_input_error(self, command, capsys):
        # the CSV tables are written next to the report, so there is nowhere to put them
        argv = {"geometry": ["--n", "2", "--R", "2", "3", "4"],
                "sphere-spectrum": ["--n", "3", "--p", "6"]}[command]
        assert main([command, *argv, "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ") and captured.out == ""
        assert "--format csv" in captured.err and "--out" in captured.err


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 1.0, -1.0])),
                min_size=1, max_size=5))
def test_median_has_the_bits_of_numpy_median(values):
    want = float(np.median(values))
    assert math.copysign(1.0, _median(values)) == math.copysign(1.0, want)
    assert _median(values) == want


def _matrix_csv(side):
    """A strategy for the long-format CSV text of a complex side x side matrix."""
    entry = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    rows = st.lists(st.tuples(entry, entry), min_size=side * side, max_size=side * side)
    return rows.map(lambda vals: "i,j,re,im\n" + "".join(
        f"{k // side},{k % side},{re!r},{im!r}\n" for k, (re, im) in enumerate(vals)))


def _argv(*parts):
    """A strategy for the concatenation of argv pieces, each a list, a string or a
    strategy for one of those."""
    wrap = lambda part: part if isinstance(part, st.SearchStrategy) else st.just(part)
    listed = lambda piece: piece if isinstance(piece, list) else [piece]
    return st.tuples(*map(wrap, parts)).map(lambda ps: [a for p in ps for a in listed(p)])


def _flag(name, values):
    return values.map(lambda v: [name, str(v)])


_SPECS = st.sampled_from(["radial-power:exponent=5", "radial-power:exponent=0",
                          "radial-power:exponent=-1", "radial-power:exponent=2.5,shift=0.5",
                          "radial-log-power:exponent=3,log_exponent=1", "hm-bump",
                          "hm-bump:center=1.5,width=0.4", "hm-bump:center=5000,width=1000",
                          "radial-power:exponent=-200", "radial-power:exponent=-1e6",
                          "hm-bump:width=0", "radial-power:exponnet=5"])


def _reals(lo, hi, bad):
    """One to three reals in [lo, hi], now and then followed by one of ``bad``."""
    return st.tuples(st.lists(st.floats(lo, hi).map(repr), min_size=1, max_size=3),
                     st.sampled_from([[]] * 4 + [[b] for b in bad])).map(lambda t: t[0] + t[1])


# small argvs only: --n <= 5, --kmax <= 60, --sections <= 3, --grid-levels <= 3, CSV side <= 8;
# each flag draws valid values first and then an invalid one
_ARGVS = st.one_of(
    _argv("certify-hm", "--symbol", _SPECS, _flag("--n", st.sampled_from([2, 3, 4, 5, 1])),
          _flag("--grid-levels", st.sampled_from([1, 2, 3, 0])),
          _flag("--per-order", st.sampled_from([1, 2, 3, 0])),
          st.just([]) | _flag("--order", st.sampled_from([0, 1, 2, 3, 4, 5, 6, -1]))),
    _argv("rigidity", "--profile", _SPECS, _flag("--n", st.sampled_from([3, 4, 5, 2])),
          _flag("--p", st.sampled_from(["10", "4.5", "6", "100", "inf", "3.5", "2", "nan"])),
          _flag("--sections", st.sampled_from([0, 2, 3, 1, -1])),
          _flag("--mode", st.sampled_from(["hs", "opnorm"]))),
    _argv("sphere-spectrum", _flag("--n", st.sampled_from([3, 4, 5, 2])),
          _flag("--p", st.sampled_from(["4", "1", "2", "6", "8", "0.5", "inf", "nan"])),
          _flag("--r", st.sampled_from([0, 1, 2, -1])),
          _flag("--kmax", st.integers(-1, 60)),
          "--x", _reals(-0.99, 0.99, ["1.5", "nan"])),
    _argv("geometry", _flag("--n", st.sampled_from([2, 3, 4, 5, 1])),
          "--R", _reals(0.1, 12.0, ["0", "nan", "1e-300", "400"])),
    st.integers(1, 8).flatmap(lambda side: _argv(
        "schur-bound", "--points", _matrix_csv(side),
        _flag("--p", st.sampled_from(["1", "2", "3", "4", "inf", "0.5"])),
        _flag("--iterations", st.sampled_from([0, 1, 2, 5, -1])))),
)


@settings(max_examples=300, deadline=None)
@given(argv=_ARGVS, seed=st.integers(-1, 3))
def test_every_argv_ends_in_an_exit_code_and_derived_verdicts(argv, seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "r.json"
        if argv[0] == "schur-bound":  # the CSV text goes to a file
            (Path(tmp) / "m.csv").write_text(argv[2], encoding="utf-8")
            argv = [*argv[:2], str(Path(tmp) / "m.csv"), *argv[3:]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main([*argv, "--seed", str(seed), "--out", str(out)])
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
        assert rc in (0, 1, 2, 3) and "Traceback" not in err.getvalue(), (rc, err.getvalue())
        if rc in (2, 3):
            return
        rep = strict_json(out)
        assert (rep["verdict"] == "PASS") == (rc == 0)
        for rec in rep["records"]:
            want = decide_verdict(rec["kind"], rec["measured"], rec["bound"], rec["tolerance"])
            assert rec["verdict"] == want, rec
