import numpy as np
import pytest

from mcert.errors import DomainError, InputError
from mcert.geometry import haar_so
from mcert.symbols import RadialProfile, SymbolFamily, group_symbol_from_profile, read_matrix_csv

from matrix_csv import write_matrix_csv


class TestFamilies:
    def test_parse_roundtrip(self):
        fam = SymbolFamily.parse("radial-power:exponent=5,shift=1")
        assert fam.kind == "radial-power"
        assert fam.parameters["exponent"] == 5.0

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
        assert np.allclose(prof.derivative(1, xs), -5.0 * (1.0 + xs) ** -6)
        assert np.allclose(prof.derivative(3, xs), -5.0 * 6.0 * 7.0 * (1.0 + xs) ** -8)

    def test_finite_difference_fallback(self):
        prof = RadialProfile(lambda x: np.sin(x))
        xs = np.array([2.0, 3.0])
        assert np.allclose(prof.derivative(1, xs), np.cos(xs), atol=1e-6)
        assert np.allclose(prof.derivative(2, xs), -np.sin(xs), atol=1e-4)

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
        with pytest.raises(InputError, match="width"):
            SymbolFamily.parse(spec)

    @pytest.mark.parametrize("shift", ["-1", "-2"])
    def test_radial_power_shift_at_most_minus_one_rejected(self, shift):
        # shift + x vanishes or is negative at some x in [1, oo)
        with pytest.raises(InputError, match="shift"):
            SymbolFamily.parse(f"radial-power:exponent=2.5,shift={shift}")

    def test_radial_power_shift_above_minus_one_accepted(self):
        prof = SymbolFamily.parse("radial-power:exponent=2.5,shift=-0.5").build_profile()
        assert prof(np.array([3.0]))[0] == pytest.approx(2.5 ** -2.5)

    def test_group_lift_modes(self):
        prof = SymbolFamily.parse("radial-power:exponent=2").build_profile()
        rng = np.random.default_rng(0)
        stack = haar_so(3, 4, rng)
        dist_sym = group_symbol_from_profile(prof)
        assert dist_sym(stack).shape == (4,)
        # one matrix takes numpy's scalar pow, a stack its SIMD pow: equal to rounding
        np.testing.assert_allclose(dist_sym(stack), [dist_sym(k) for k in stack], rtol=1e-14)
        assert dist_sym(np.eye(3)) == 1.0  # dist(e, e) = 0
        with pytest.raises(DomainError):
            dist_sym(2.0 * np.eye(3))  # det 8: not in SL(3, R)


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

