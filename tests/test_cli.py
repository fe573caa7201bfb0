import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import mcert
from mcert.cli import main
from mcert.report import input_digest
from mcert.sphere import multiplicity

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
                                     ["--order", "-1"], ["--order", "171"]])
    def test_count_flag_out_of_range_is_input_error(self, bad, capsys):
        rc = main(["certify-hm", "--symbol", "radial-power:exponent=5", "--n", "2", *bad])
        assert rc == 2
        assert bad[0] in capsys.readouterr().err

    @pytest.mark.parametrize("n, order, per_order", [(2, 3, 3), (3, 5, 3), (3, 2, 1)])
    def test_one_symbol_call_per_multi_index(self, n, order, per_order):
        # one stacked symbol call gives order 0, then one profile jet per direction
        # gives orders 0..order at every sweep point
        from mcert.cli import cmd_certify_hm
        from mcert.symbols import RadialProfile, SymbolFamily, SymbolHandle

        profile = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        jets = []

        def counted(u):
            jets.append((len(u), np.shape(u[0])))
            return profile.of(u)

        cmd_certify_hm(SymbolHandle(RadialProfile(counted)), n=n, order=order,
                       per_order=per_order)
        points = jets[0][1]
        assert sorted(jets) == [(1, points)] + [(order + 1, points)] * per_order
        assert len(points) == 1 and points[0] > 1  # stacks only, never one matrix

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
        assert "'width' must be > 0" in capsys.readouterr().err
        assert not out.exists()

    # the lift evaluates the profile at dist(g, e), which starts at 0: a shift of 0 is
    # a pole at the identity, and -0.5 a pole at dist 0.5 and a NaN below it
    @pytest.mark.parametrize("spec", ["radial-power:shift=-0.5,exponent=2.5",
                                      "radial-power:shift=0,exponent=2.5",
                                      "radial-power:shift=-0.5,exponent=2"])
    def test_non_positive_shift_is_input_error(self, spec, tmp_path, capsys):
        out = tmp_path / "hm.json"
        rc = main(["certify-hm", "--symbol", spec, "--n", "3", "--out", str(out)])
        assert rc == 2
        assert "'shift' must be > 0" in capsys.readouterr().err
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
        from mcert.schur import profile_rigidity_records
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


class TestSphereSpectrum:
    def test_table_matches_recurrence(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = main(["sphere-spectrum", "--n", "3", "--p", "4", "--x", "0.5",
                   "--kmax", "10", "--out", str(out), "--format", "csv"])
        assert rc == 0
        rep = load_report(out)
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
        assert rc == 0
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

    @pytest.mark.parametrize("n, p", [("102", "4"), ("3", "1e4"), ("200", "4")])
    def test_tail_bound_past_float_range_is_input_error(self, n, p, tmp_path, capsys):
        # the tail constant A cdec^p of the certified Schatten sum overflows a float
        out = tmp_path / "spec.json"
        rc = main_strict(["sphere-spectrum", "--n", n, "--p", p, "--x", "0.5", "--kmax", "5",
                          "--out", str(out)])
        assert rc == 2
        assert f"n = {n}, p = {float(p):g} exceeds the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_large_kmax_finishes(self, tmp_path):
        out = tmp_path / "spec.json"
        proc = run_cli(["sphere-spectrum", "--n", "8", "--p", "8", "--x", "0.5",
                        "--kmax", "20000", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        rows = load_report(out)["tables"]["spectrum"]
        assert len(rows) == 20001
        assert rows[-1]["m_k"] == multiplicity(8, 20000)


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
        for e in (600, -600):  # |m|^4 overflows at 2^600 and underflows at 2^-600
            scaled = numbers(2.0 ** e)
            assert all(math.isfinite(v) and v == b * 2.0 ** e for v, b in zip(scaled, base))

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
        monkeypatch.setattr(cli, "schur_norm_lower_bound",
                            lambda *a, **k: dataclasses.replace(real(*a, **k), value=1e3))
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
        assert load_report(out)["tables"]["bound"][0]["lower_bound"] == 3.0

    @pytest.mark.parametrize("iterations", ["-1", "-3"])
    def test_negative_iterations_is_input_error(self, iterations, tmp_path, capsys):
        path = tmp_path / "m.csv"
        write_matrix_csv(np.ones((3, 3)), path)
        assert main(["schur-bound", "--points", str(path), "--iterations", iterations]) == 2
        assert "--iterations" in capsys.readouterr().err

    def test_negative_index_exit_code(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("i,j,re,im\n0,0,1,0\n1,-1,2,0\n", encoding="utf-8")
        assert main(["schur-bound", "--points", str(path), "--p", "2"]) == 2

    def test_missing_file_exit_code(self):
        rc = main(["schur-bound", "--points", "/nonexistent/m.csv", "--p", "2"])
        assert rc == 2


class TestGeometryCommand:
    def test_slope_record(self, tmp_path):
        out = tmp_path / "geo.json"
        rc = main(["geometry", "--n", "2", "--R"] + [str(v) for v in range(2, 11)]
                  + ["--out", str(out)])
        assert rc == 0
        rep = load_report(out)
        rec = [r for r in rep["records"] if r["name"] == "volume-growth-rate"][0]
        assert rec["measured"] == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("n", [3, 4])
    def test_readme_radii_at_higher_rank(self, n, tmp_path):
        out = tmp_path / "geo.json"
        assert main(["geometry", "--n", str(n), "--R"] + [str(v) for v in range(2, 11)]
                    + ["--out", str(out)]) == 0
        rep = load_report(out)
        rec = [r for r in rep["records"] if r["name"] == "volume-growth-rate"][0]
        assert rec["verdict"] == "PASS"
        assert rec["measured"] == pytest.approx(n * n // 2, rel=0.05)

    def test_report_does_not_depend_on_seed(self, tmp_path):
        reports = []
        for seed in ("0", "7"):
            out = tmp_path / f"geo{seed}.json"
            assert main(["geometry", "--n", "4", "--R", "6", "8", "10", "--seed", seed,
                         "--out", str(out)]) == 0
            rep = load_report(out)
            rep.pop("header")
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["seeds"] == {}

    @pytest.mark.parametrize("n, radii", [("3", ["1e-300", "1e-200", "1e-100"]),
                                          ("2", ["5", "5", "5"]),
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

    def test_bad_radius_is_input_error(self):
        rc = main(["geometry", "--n", "2", "--R", "-1"])
        assert rc == 2

    def test_infinite_radius_is_input_error(self, tmp_path, capsys):
        # the volume would be NaN, listed under a PASS verdict
        out = tmp_path / "geo.json"
        rc = main(["geometry", "--n", "3", "--R", "inf", "--out", str(out)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
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
        # the rule is sized from the radius only below the float range: no q x q
        # Gauss-Legendre matrix at q ~ 5 sqrt(r), and no node-cap exit 3 at n = 5
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


class TestAccuracyExitCode:
    def test_radius_beyond_node_cap_exits_three(self, tmp_path, capsys):
        # a finite volume (about e^480) whose rule would need 65^4 nodes per simplex
        out = tmp_path / "geo.json"
        start = time.monotonic()
        rc = main(["geometry", "--n", "5", "--R", "40", "--out", str(out)])
        assert time.monotonic() - start < 1.0
        assert rc == 3
        assert "nodes per simplex" in capsys.readouterr().err
        assert not out.exists()
