import math
import warnings

import numpy as np
import pytest

from mcert.errors import DomainError, InputError, RangeError
from mcert.sphere import (RigidityExponents, SchattenSumResult, SphericalEigenSystem,
                          averaging_operator, gegenbauer_derivative, gegenbauer_integral,
                          gegenbauer_normalized, holder_schatten_difference, multiplicity,
                          schatten_derivative_sum, schatten_sum_truncated, sphere_grid)


class TestEigenvalues:
    def test_degree_zero_is_one(self):
        xs = np.linspace(-1, 1, 11)
        for n in (3, 5, 8):
            assert np.allclose(gegenbauer_normalized(n, 0, xs), 1.0)
            assert np.allclose(gegenbauer_integral(n, 0, xs), 1.0, atol=1e-13)

    def test_legendre_values_frozen(self):
        # n = 3 reduces to Legendre: P1(1/2) = 1/2, P2(1/2) = (3/4 - 1)/2
        assert float(gegenbauer_normalized(3, 1, np.array(0.5))) == pytest.approx(0.5, abs=1e-15)
        assert float(gegenbauer_normalized(3, 2, np.array(0.5))) == pytest.approx(-0.125, abs=1e-15)

    def test_normalized_at_one(self):
        for n in (3, 4, 6):
            for k in (1, 5, 20):
                assert float(gegenbauer_normalized(n, k, np.array(1.0))) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_one(self):
        xs = np.linspace(-1, 1, 201)
        for n in (3, 4, 7):
            for k in (1, 3, 10, 40):
                assert np.abs(gegenbauer_normalized(n, k, xs)).max() <= 1.0 + 1e-12

    def test_recurrence_matches_quadrature(self):
        xs = np.linspace(-0.95, 0.95, 21)
        worst = 0.0
        for n in range(3, 9):
            for k in range(0, 51):
                a = gegenbauer_normalized(n, k, xs)
                b = gegenbauer_integral(n, k, xs)
                worst = max(worst, float(np.abs(a - b).max()))
        assert worst <= 1e-10

    def test_domain_check(self):
        with pytest.raises(DomainError):
            gegenbauer_normalized(3, 2, np.array(1.5))
        with pytest.raises(DomainError):
            gegenbauer_normalized(3, 2, np.array([0.5, np.nan]))
        with pytest.raises(InputError):
            gegenbauer_normalized(2, 2, np.array(0.5))


class TestDerivatives:
    def test_order_zero_passthrough(self):
        xs = np.linspace(-0.9, 0.9, 7)
        assert np.allclose(gegenbauer_derivative(4, 6, 0, xs),
                           gegenbauer_normalized(4, 6, xs))

    def test_legendre_derivative_frozen(self):
        # P2'(x) = 3x
        assert float(gegenbauer_derivative(3, 2, 1, np.array(0.5))) == pytest.approx(1.5, rel=1e-12)

    def test_high_order_kills_low_degree(self):
        assert np.allclose(gegenbauer_derivative(3, 2, 3, np.array(0.3)), 0.0)

    def test_finite_difference_cross_check(self):
        xs = np.array(0.37)
        h = 1e-5
        for n, k, r in [(3, 7, 1), (5, 9, 2), (4, 12, 1)]:
            got = float(gegenbauer_derivative(n, k, r, xs))
            fplus = float(gegenbauer_derivative(n, k, r - 1, np.array(0.37 + h)))
            fminus = float(gegenbauer_derivative(n, k, r - 1, np.array(0.37 - h)))
            assert got == pytest.approx((fplus - fminus) / (2 * h), rel=1e-5)

    def test_decay_envelope_bounded(self):
        # |d^r phi_k| / (1+k)^{r+1-n/2} bounded over k <= 200 on [-1/2, 1/2]
        xs = np.linspace(-0.5, 0.5, 21)
        for n, r in [(3, 1), (5, 2)]:
            worst = 0.0
            for k in range(r, 201):
                env = np.abs(gegenbauer_derivative(n, k, r, xs)).max()
                worst = max(worst, env / (1 + k) ** (r + 1 - n / 2))
            assert math.isfinite(worst)
            assert worst < 1e3  # measured constant, reported

    def test_endpoint_warning(self):
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            gegenbauer_derivative(3, 5, 1, np.array(0.9999999999))
        assert any("ill-conditioned" in str(w.message) for w in log)


class TestMultiplicity:
    def test_degree_zero(self):
        for n in range(3, 9):
            assert multiplicity(n, 0) == 1

    def test_n3_odd_law(self):
        assert [multiplicity(3, k) for k in range(101)] == [2 * k + 1 for k in range(101)]

    def test_n4_square_law(self):
        assert [multiplicity(4, k) for k in range(101)] == [(k + 1) ** 2 for k in range(101)]

    def test_range_guard(self):
        with pytest.raises(RangeError):
            multiplicity(3, 10 ** 6)


class TestSchattenSums:
    def test_divergence_flag(self):
        res = schatten_derivative_sum(5, 4.0, 1, 0.0)
        assert res.diverged and res.value is None and not res

    def test_cauchy_stability(self):
        res = schatten_derivative_sum(5, 4.0, 0, 0.0, tail_tol=1e-6)
        res2 = schatten_derivative_sum(5, 4.0, 0, 0.0, tail_tol=1e-6,
                                       k_start=2 * res.k_used)
        assert res2.value >= res.value - 1e-15  # truncated sums increase with the cut
        assert abs(res.value - res2.value) < 1e-6

    def test_truncated_matches_direct_summation(self):
        direct = sum(multiplicity(5, k)
                     * abs(float(gegenbauer_normalized(5, k, np.array(0.3)))) ** 2
                     for k in range(101)) ** 0.5
        assert schatten_sum_truncated(5, 2.0, 0, 0.3, 100) == pytest.approx(direct, rel=1e-12)

    def test_interior_guard(self):
        with pytest.raises(DomainError):
            schatten_derivative_sum(5, 4.0, 0, 0.99)

    def test_nan_argument_rejected(self):
        with pytest.raises(DomainError):
            schatten_derivative_sum(3, 4.0, 0, math.nan)
        with pytest.raises(DomainError):
            holder_schatten_difference(5, 4.0, 0.5, 0.0, math.nan)

    @pytest.mark.parametrize("p", [math.nan, 0.5, -4.0, math.inf])
    def test_bad_exponent_rejected(self, p):
        with pytest.raises(InputError):
            schatten_derivative_sum(3, p, 0, 0.5)
        with pytest.raises(InputError):
            holder_schatten_difference(5, p, 0.5, 0.0, 0.1)
        with pytest.raises(InputError):
            schatten_sum_truncated(5, p, 0, 0.3, 10)

    def test_holder_zero_gap(self):
        assert holder_schatten_difference(5, 4.0, 0.5, 0.1, 0.1).value == 0.0

    def test_holder_ratio_bounded(self):
        ratios = []
        for gap in (1e-1, 1e-2, 1e-3, 1e-4):
            val = holder_schatten_difference(5, 4.0, 0.5, 0.0, gap).value
            ratios.append(val / gap ** 0.5)
        assert max(ratios) <= 2.0 * min(ratios)
        assert max(ratios) < 10.0

    def test_integer_case_log_law(self):
        # alpha0 = 5/2 - 6/4 = 1 for (n, p) = (7, 4): difference of the
        # operators themselves obeys the |gap| |log gap|^{1/p} law
        ex = RigidityExponents.compute(7, 4.0)
        assert ex.alpha0 == pytest.approx(1.0)
        assert ex.alpha < 1.0
        ratios = []
        for gap in (1e-1, 1e-2, 1e-3):
            val = holder_schatten_difference(7, 4.0, ex.alpha, 0.0, gap).value
            ratios.append(val / (gap * abs(math.log(gap)) ** 0.25))
        assert max(ratios) <= 2.0 * min(ratios)


class TestRigidityExponents:
    def test_reference_point(self):
        ex = RigidityExponents.compute(5, 10.0)
        assert ex.alpha0 == pytest.approx(1.1)
        assert ex.alpha == pytest.approx(1.1)
        assert ex.c[0] == pytest.approx(5.0 / 3.0)
        assert ex.c[1] == pytest.approx(5.0 / 3.0)

    def test_small_p_rejected(self):
        with pytest.raises(DomainError):
            RigidityExponents.compute(3, 4.0)  # needs p > 4 at n = 3

    def test_nan_p_rejected(self):
        with pytest.raises(DomainError):
            RigidityExponents.compute(3, math.nan)

    def test_integer_shift(self):
        ex = RigidityExponents.compute(7, 4.0)
        assert ex.alpha == pytest.approx(1.0 - 1e-3)


class TestAveragingOperator:
    pts = sphere_grid(30.0)

    def test_constant_function(self):
        out = averaging_operator(0.5, lambda y: np.ones(y.shape[:-1]), self.pts)
        assert np.abs(out - 1.0).max() <= 1e-14

    def test_zonal_eigenfunction(self):
        pole = np.array([0.3, -0.5, 0.81])
        pole /= np.linalg.norm(pole)
        for k in (1, 4, 9):
            f = lambda y: np.asarray(gegenbauer_normalized(3, k, np.clip(y @ pole, -1, 1)))
            for delta in (-0.5, 0.0, 0.9):
                got = averaging_operator(delta, f, self.pts, circle_nodes=360)
                lam = float(gegenbauer_normalized(3, k, np.array(delta)))
                assert np.abs(got - lam * f(self.pts)).max() <= 1e-4

    def test_delta_one_identity(self):
        f = lambda y: y[..., 0] ** 2 - y[..., 2]
        got = averaging_operator(1.0, f, self.pts)
        assert np.abs(got - f(self.pts)).max() <= 1e-13

    def test_coarse_grid_flagged(self):
        from mcert.errors import AccuracyError
        f = lambda y: np.asarray(gegenbauer_normalized(3, 12, np.clip(y[..., 2], -1, 1)))
        with pytest.raises(AccuracyError):
            averaging_operator(0.3, f, self.pts, circle_nodes=10, check_tol=1e-10)

    def test_eigensystem_table(self):
        sys3 = SphericalEigenSystem(n=3, k_max=12)
        xs = np.linspace(-0.9, 0.9, 5)
        table = sys3.eigenvalues(xs)
        for k in (0, 3, 12):
            assert np.allclose(table[k], gegenbauer_normalized(3, k, xs), atol=1e-13)
        assert sys3.multiplicities() == [2 * k + 1 for k in range(13)]
