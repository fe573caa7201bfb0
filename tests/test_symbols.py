import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcert
from mcert.errors import DomainError, InputError
from mcert.geometry import GroupElement, haar_so
from mcert.symbols import SymbolFamily, read_matrix_csv

from matrix_csv import reference_read_matrix_csv, write_matrix_csv


class TestFamilies:
    def test_parse_roundtrip(self):
        fam = SymbolFamily.parse("radial-power:exponent=5,shift=1")
        assert fam.kind == "radial-power"
        assert fam.parameters["exponent"] == 5.0

    def test_an_empty_item_is_skipped(self):
        fam = SymbolFamily.parse("radial-power:exponent=5,,shift=2")
        assert fam.parameters == {"exponent": 5.0, "shift": 2.0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            SymbolFamily.parse("wavelet:scale=2")

    def test_malformed_parameter(self):
        with pytest.raises(InputError):
            SymbolFamily.parse("radial-power:exponent")

    @pytest.mark.parametrize("spec", ["radial-power:exponnet=5", "hm-bump:exponent=1",
                                      "radial-log-power:center=1", "radial-power:cutoff=2"])
    def test_unknown_key_rejected(self, spec):
        with pytest.raises(InputError, match="unknown"):
            SymbolFamily.parse(spec)

    @pytest.mark.parametrize("spec", ["radial-power:exponent=abc", "hm-bump:width=nan",
                                      "radial-log-power:log_exponent=inf"])
    def test_non_numeric_value_rejected(self, spec):
        with pytest.raises(InputError, match="finite number"):
            SymbolFamily.parse(spec)

    def test_radial_power_profile_and_derivatives(self):
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        xs = np.array([1.0, 2.0, 9.0])
        assert np.allclose(prof(xs), (1.0 + xs) ** -5)
        jet = prof.jet(xs, 3)  # phi^(k) / k!
        assert np.allclose(jet[1], -5.0 * (1.0 + xs) ** -6)
        assert np.allclose(6.0 * jet[3], -5.0 * 6.0 * 7.0 * (1.0 + xs) ** -8)

    def test_log_power_profile(self):
        prof = SymbolFamily.parse("radial-log-power:exponent=2,log_exponent=1").build_profile()
        assert prof(np.array([3.0])) > 0

    def test_bump_support(self):
        bump = SymbolFamily.parse("hm-bump:center=1.5,width=0.5").build_profile()
        assert bump(np.array([1.5])) == pytest.approx(1.0)
        assert bump(np.array([2.1])) == 0.0

    @pytest.mark.parametrize("spec", ["hm-bump:width=0", "hm-bump:width=-0.5",
                                      "hm-bump:center=2,width=-1e-300"])
    def test_non_positive_bump_width_rejected(self, spec):
        with pytest.raises(DomainError, match=r"^width must lie in \(0.0, inf\], got "):
            SymbolFamily.parse(spec)

    @pytest.mark.parametrize("shift", ["-1", "-2"])
    def test_radial_power_shift_at_most_minus_one_rejected(self, shift):
        # shift + x vanishes or is negative at some x in [1, oo)
        with pytest.raises(DomainError,
                           match=rf"^shift must lie in \(-1.0, inf\], got {float(shift)}$"):
            SymbolFamily.parse(f"radial-power:exponent=2.5,shift={shift}")

    def test_radial_power_shift_above_minus_one_accepted(self):
        prof = SymbolFamily.parse("radial-power:exponent=2.5,shift=-0.5").build_profile()
        assert prof(np.array([3.0]))[0] == pytest.approx(2.5 ** -2.5)

    def test_group_lift_modes(self):
        rng = np.random.default_rng(0)
        stack = haar_so(3, 4, rng)
        dist_sym = SymbolFamily.parse("radial-power:exponent=2").build_group_symbol()
        assert dist_sym(GroupElement(stack)).shape == (4,)
        # one matrix takes numpy's scalar pow, a stack its SIMD pow: equal to rounding
        np.testing.assert_allclose(dist_sym(GroupElement(stack)),
                                   [dist_sym(GroupElement(k)) for k in stack], rtol=1e-14)
        assert dist_sym(GroupElement(np.eye(3))) == 1.0  # dist(e, e) = 0
        with pytest.raises(DomainError):
            dist_sym(GroupElement(2.0 * np.eye(3)))  # det 8: not in SL(3, R)

    @pytest.mark.parametrize("shift", ["0", "-0.5"])
    def test_group_lift_needs_positive_shift(self, shift):
        # dist(g, e) takes every value in [0, oo), so shift + x must be > 0 from x = 0
        family = SymbolFamily.parse(f"radial-power:exponent=2.5,shift={shift}")
        assert np.isfinite(family.build_profile()(np.array([1.0])))  # fine on [1, oo)
        with pytest.raises(DomainError,
                           match=rf"^shift must lie in \(0.0, inf\], got {float(shift)}$"):
            family.build_group_symbol()


_RIGIDITY_GRID = np.geomspace(1.05, 1e4, 80)  # the grid of rigidity.profile_rigidity_records


def _mp_profile(family):
    """The family's profile in mpmath, written from its formula."""
    p = {key: mp.mpf(value) for key, value in family.parameters.items()}
    if family.kind == "radial-power":
        return lambda x: (p.get("shift", 1) + x) ** -p.get("exponent", 1)
    if family.kind == "radial-log-power":
        return lambda x: ((1 + x) ** -p.get("exponent", 1)
                          * mp.log(mp.e + x) ** -p.get("log_exponent", 1))
    c, w = p.get("center", 1), p.get("width", mp.mpf(0.5))
    return lambda x: mp.exp(1 - 1 / (1 - ((x - c) / w) ** 2)) if abs(x - c) < w else mp.mpf(0)


class TestProfileJets:
    # A 50-digit log at order 20 takes about 60 ms, so radial-log-power is checked
    # on every 4th point.  The bump's coefficients change sign inside its support,
    # and next to a sign change their relative error grows.
    @pytest.mark.parametrize("spec, stride, rtol", [
        ("radial-power:exponent=5", 1, 1e-13),
        ("radial-power:exponent=2.5,shift=-0.5", 1, 1e-13),
        ("radial-log-power:exponent=2.5", 4, 1e-13),
        ("radial-log-power:exponent=3,log_exponent=-1.5", 4, 1e-13),
        ("hm-bump:center=1.5,width=0.4", 1, 1e-11),
        ("hm-bump:center=3,width=2", 1, 1e-11),
    ])
    def test_jet_matches_mpmath_taylor(self, spec, stride, rtol):
        # orders 0..20 on the rigidity grid and on its Hoelder offsets x + 1e-3 x
        family = SymbolFamily.parse(spec)
        xs = np.concatenate([_RIGIDITY_GRID, 1.001 * _RIGIDITY_GRID])[::stride]
        jet = np.array(family.build_profile().jet(xs, 20))
        f = _mp_profile(family)
        with mp.workdps(50):
            # coefficients of h -> f(x (1 + h)), so that the difference step scales with x
            ref = [[float(c / mp.mpf(x) ** k)
                    for k, c in enumerate(mp.taylor(lambda h: f(x * (1 + h)), 0, 20))]
                   for x in xs]
        np.testing.assert_allclose(jet, np.transpose(ref), rtol=rtol, atol=0)

    @pytest.mark.parametrize("spec", ["radial-power:exponent=2.5,shift=0.5",
                                      "radial-log-power:exponent=3,log_exponent=2",
                                      "hm-bump:center=1.5,width=0.4"])
    def test_order_zero_is_the_plain_formula(self, spec):
        # the same float operations as the closed form, at every jet order
        family = SymbolFamily.parse(spec)
        prof, (a, b) = family.build_profile(), family.parameters.values()
        x = np.geomspace(1.0, 1e4, 200)
        plain = {"radial-power": lambda: (b + x) ** -a,
                 "radial-log-power": lambda: (1.0 + x) ** -a * np.log(np.e + x) ** -b,
                 "hm-bump": lambda: np.where(np.abs((x - a) / b) < 1.0,
                                             np.exp(1.0 - 1.0 / (1.0 - ((x - a) / b) ** 2)), 0.0)}
        for order in (0, 1, 7):
            assert np.array_equal(prof.jet(x, order)[0], plain[family.kind]())


class TestCsvInterfaces:
    def test_matrix_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        back = read_matrix_csv(path)
        assert np.allclose(back, m, atol=0)

    def test_bad_matrix_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,re,im\n0,0,abc,0\n", encoding="utf-8")
        with pytest.raises(InputError):
            read_matrix_csv(path)

    def test_negative_matrix_index(self, tmp_path):
        for row in ("-1,0,1,0", "0,-2,1,0"):
            path = tmp_path / "neg.csv"
            path.write_text(f"i,j,re,im\n1,1,1,0\n{row}\n", encoding="utf-8")
            with pytest.raises(InputError):
                read_matrix_csv(path)

    @pytest.mark.parametrize("text", [
        "i,j,re,im\n0,0,1,0\n1,1\n",  # a short row
        "i,j,re,im\n0,0,1,0\n1,1,2\n",  # a row without its im field
        "i,re,im\n0,1,0\n",  # no j column
        "i,j,re,re\n0,0,1,5\n",  # a column named twice
        "i,j,re,note,note\n0,0,1,x,y\n",
        "j,i,im\n0,0,1\n",  # no re column
        "",  # no header
        "i,j,re,im\n\n",  # no data rows
    ])
    def test_malformed_matrix_csv_is_input_error(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError):
            read_matrix_csv(path)

    def test_matrix_csv_duplicates_blank_lines_and_column_order(self, tmp_path):
        path = tmp_path / "m.csv"
        # columns in any order, im optional or empty, blank lines skipped, the last
        # row for a repeated (i, j) wins
        path.write_text("re,j,i,im\n1,0,0,\n\n2,1,1,3\n5,0,1,0\n\n4,0,0,-1\n7,1,1,0\n",
                        encoding="utf-8")
        assert np.array_equal(read_matrix_csv(path), np.array([[4 - 1j, 0], [5, 7]]))
        path.write_text("i,j,re\n1,0,2.5\n0,1,-1\n1,0,3\n", encoding="utf-8")
        assert np.array_equal(read_matrix_csv(path), np.array([[0, -1], [3, 0]]))

    def test_empty_quoted_empty_and_numeric_im_fields(self, tmp_path):
        # numpy's C reader refuses an empty im, so the file is read a second time from the
        # line after its header (after a byte order mark, before a blank line), and a bad
        # row past them is still named by its line
        text = 'i,j,re,im\n\n0,0,1,\n0,1,2,""\n1,0,3,-4.5\n1,1,5,"6"\n'
        plain, path = tmp_path / "plain.csv", tmp_path / "m.csv"
        plain.write_text(text, encoding="utf-8")
        path.write_text(text, encoding="utf-8-sig")
        expected = np.array([[1, 2], [3 - 4.5j, 5 + 6j]])
        assert np.array_equal(read_matrix_csv(path), expected)
        assert np.array_equal(reference_read_matrix_csv(plain), expected)
        path.write_text(text + "1,x,5,\n", encoding="utf-8-sig")
        with pytest.raises(InputError, match=f"^line 7 of {re.escape(str(path))}: "):
            read_matrix_csv(path)

    @pytest.mark.parametrize("row, line, field", [
        ("0,1,2,abc", 4, "abc"),  # a bad im
        ("0,x,2,1", 4, "x"),  # a bad index
    ])
    def test_a_bad_field_after_an_empty_im_keeps_its_line_and_message(self, tmp_path, row,
                                                                       line, field):
        # the second read, im through Python, names the row and the field as the first would
        path = tmp_path / "m.csv"
        path.write_text(f"i,j,re,im\n0,0,1,\n\n{row}\n", encoding="utf-8")
        kind = "int64" if field == "x" else "float64"
        with pytest.raises(InputError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == (f"line {line} of {path}: could not convert string "
                                  f"{field!r} to {kind}")

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_a_pipe_with_an_empty_im_is_read_once(self):
        script = ("from mcert.symbols import read_matrix_csv\n"
                  "print(read_matrix_csv('/dev/stdin').tolist())\n")
        env = dict(os.environ, PYTHONPATH=str(Path(mcert.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], input="i,j,re,im\n0,0,1,\n1,1,2,3\n",
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[[(1+0j), 0j], [0j, (2+3j)]]\n"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM, which would otherwise join the
        # first column name
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_matrix_csv(np.array([[1.0, 2.5j], [-3.0, 0.25]]), plain)
        marked.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfi,j,re,im")
        assert read_matrix_csv(marked).tobytes() == read_matrix_csv(plain).tobytes()

    def test_path_that_is_not_a_path_is_input_error_before_any_open(self):
        # an int is a file descriptor to open(): at 1 it would read stdout and close it, so
        # the call runs in its own process, which prints after it
        script = ("from mcert.errors import InputError\n"
                  "from mcert.symbols import read_matrix_csv\n"
                  "for path in (1, None, 2.5, True):\n"
                  "    try:\n"
                  "        read_matrix_csv(path)\n"
                  "    except InputError as exc:\n"
                  "        print(exc)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(mcert.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"a CSV path must be a str, bytes or os.PathLike, got {path!r}"
            for path in (1, None, 2.5, True)]

    def test_file_that_cannot_be_opened_is_input_error_with_its_os_error(self, tmp_path):
        for path in (tmp_path / "missing.csv", tmp_path):
            with pytest.raises(OSError) as os_error:
                open(path, encoding="utf-8")
            with pytest.raises(InputError) as exc:
                read_matrix_csv(path)
            assert str(exc.value) == str(os_error.value)

    @pytest.mark.parametrize("data, message", [
        (b"i,j,re\n0,0,\xff\n", "^line 2 of "),  # a number
        (b"\xff\xfe\x00i\x00,\x00j\x00\n", "has no column"),  # UTF-16
    ])
    def test_bytes_that_are_not_utf8_are_input_error(self, data, message, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(InputError, match=message):
            read_matrix_csv(path)

    def test_bytes_path_reads_like_str(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(np.array([[1.0, 2.5j]]), path)
        assert np.array_equal(read_matrix_csv(bytes(path)), read_matrix_csv(str(path)))

    @pytest.mark.parametrize("text, line", [
        ("i,j,re,im\n0,0,1,0\n\n\n1,abc,2,0\n0,0,1,0\n", 5),
        ("i,j,re,im\n0,0,1,0\n1,1,2,x\n", 3),
        ("re,j,i\n1,0,0\n1,0\n", 3),
        ("i,j,re\n0,0,1,5\n", 2),  # not 1 + 5i
        ("i,j,re,note\n0,0,1,x\n1,1,2\n", 3),
    ])
    def test_malformed_row_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match=f"^line {line} of {re.escape(str(path))}: "):
            read_matrix_csv(path)


_INDEX_TOKENS = st.one_of(st.integers(0, 4).map(str), st.sampled_from(["+2", "007", "-0"]))
_VALUE_TOKENS = st.one_of(
    st.floats(allow_nan=False).map(repr), st.floats(-1e3, 1e3).map(lambda v: f"{v:.4g}"),
    st.sampled_from(["inf", "-inf", "1e400", "-0.0", ".5", "5."]))
_BAD_TOKENS = st.sampled_from(["abc", "1.5", "1e3", "", "1.5e", "-1"])  # -1: a negative index


@st.composite
def _matrix_csv_text(draw):
    """A long-format matrix CSV with the reader's edge cases: shuffled header columns, an
    optional im column, an extra text column, duplicate (i, j), blank lines, quoted
    fields, empty im fields and, now and then, a bad token, a short row or a long one."""
    columns = draw(st.permutations(["i", "j", "re"] + draw(st.sampled_from(
        [[], ["im"], ["im", "note"], ["note"]]))))
    tokens = {"i": _INDEX_TOKENS, "j": _INDEX_TOKENS, "re": _VALUE_TOKENS,
              "im": st.one_of(_VALUE_TOKENS, st.just("")), "note": st.sampled_from(["x", "a,b"])}
    lines = [",".join(f'"{c}"' if draw(st.booleans()) else c for c in columns)]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        row = [draw(tokens[c]) for c in columns]
        fault = draw(st.integers(0, 19))
        if fault == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_TOKENS)
        elif fault == 1:
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif fault == 2:
            row.append(draw(tokens["note"]))
        buf = io.StringIO()
        csv.writer(buf, quoting=csv.QUOTE_ALL if draw(st.booleans()) else csv.QUOTE_MINIMAL,
                   lineterminator="").writerow(row)
        lines.append(buf.getvalue())
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=200, deadline=None)
@given(_matrix_csv_text())
def test_matrix_csv_reader_agrees_with_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "agree.csv"
    path.write_text(text, encoding="utf-8", newline="")
    outcomes = []
    for reader in (read_matrix_csv, reference_read_matrix_csv):
        try:
            m = reader(path)
            outcomes.append((m.shape, m.tobytes()))
        except InputError:
            outcomes.append("input error")
    assert outcomes[0] == outcomes[1]
