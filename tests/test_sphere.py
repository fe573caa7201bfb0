import math
from fractions import Fraction

import numpy as np
import pytest

from mcert.errors import DomainError, InputError, RangeError
from mcert.sphere import (RigidityExponents, SphericalEigenSystem, _derivative_table,
                          _eigenvalue_table, _multiplicity_table, averaging_operator,
                          gauss_legendre, gegenbauer_integral, gegenbauer_normalized,
                          multiplicity, schatten_derivative_sum, sphere_grid)


def reference_table(n, x, k_cap):
    """The recurrence written into a preallocated array, one row per degree."""
    x = np.asarray(x, dtype=float)
    lam = 0.5 * (n - 2)
    out = np.empty((k_cap + 1,) + x.shape)
    out[0] = 1.0
    if k_cap >= 1:
        out[1] = x
    for kk in range(2, k_cap + 1):
        out[kk] = (2.0 * (kk + lam - 1.0) * x * out[kk - 1]
                   - (kk - 1.0) * out[kk - 2]) / (kk + 2.0 * lam - 1.0)
    return out


def exact_scale(n, r, k):
    """The derivative normalization d^r phi_k = scale * (raised row k - r) as an exact
    fraction: its Gamma ratios at the integer 2 lam = n - 2, written as products."""
    num, den = 1, 1
    for i in range(r):
        num *= (n - 2 + 2 * i) * (k + n - 2 + i) * (k - i)
    for i in range(2 * r):
        den *= n - 2 + i
    return Fraction(num, den)


DOUBLINGS = [64 << i for i in range(9)]  # 64, 128, ..., 16384
ENGINE_XS = [0.0, 0.4, -0.4, 0.95, -0.95, np.linspace(-0.95, 0.95, 41)]


class TestRecurrenceEngine:
    @pytest.mark.parametrize("n", [3, 5, 8, 10])
    def test_table_equals_reference(self, n):
        for x in ENGINE_XS:
            want = reference_table(n, x, DOUBLINGS[-1])
            got = _eigenvalue_table(n, np.asarray(x), DOUBLINGS[-1])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            rows = []
            for k in DOUBLINGS:
                resumed = _eigenvalue_table(n, np.asarray(x), k, rows)
                assert resumed.shape == want[:k + 1].shape
                assert resumed.tobytes() == want[:k + 1].tobytes()
            assert len(rows) == DOUBLINGS[-1] + 1

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_derivative_table_equals_reference(self, r):
        # rows k >= r are the raised-index recurrence times the exact scale to
        # 1e-13 relative, rows below r are 0, and resumed tables keep the bits
        k_cap = DOUBLINGS[-1]
        for n in (3, 4, 8, 16):
            scale = np.array([float(exact_scale(n, r, k)) for k in range(r, k_cap + 1)])
            for x in ENGINE_XS:
                got = _derivative_table(n, r, np.asarray(x), k_cap)
                base = reference_table(n + 2 * r, x, k_cap - r)
                want = scale.reshape((-1,) + (1,) * (base.ndim - 1)) * base
                assert got.shape == (k_cap + 1,) + np.shape(x)
                assert np.all(got[:r] == 0.0)
                assert np.all(np.abs(got[r:] - want) <= 1e-13 * np.abs(want))
                rows = []
                for k in DOUBLINGS[:5]:
                    resumed = _derivative_table(n, r, np.asarray(x), k, rows)
                    assert resumed.tobytes() == _derivative_table(n, r, np.asarray(x), k).tobytes()

    @pytest.mark.parametrize("n", [3, 4, 8, 16])
    def test_multiplicity_table_equals_exact(self, n):
        k_cap = DOUBLINGS[-1]
        table = _multiplicity_table(n, k_cap)
        want = np.array([float(multiplicity(n, k)) for k in range(k_cap + 1)])
        assert np.all(np.abs(table - want) <= 1e-13 * want)

    @pytest.mark.parametrize("m", [64, 66, 108, 120, 180, 200])
    def test_cached_rule_is_leggauss(self, m):
        x, w = gauss_legendre(m)
        want_x, want_w = np.polynomial.legendre.leggauss(m)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
        assert gauss_legendre(m)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_rule_cache_is_bounded(self):
        assert gauss_legendre.cache_info().maxsize == 64


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


def derivative(n, k, r, x):
    """r-th derivative of the degree-k normalized eigenvalue at x."""
    return _derivative_table(n, r, x, k)[k]


class TestDerivatives:
    def test_order_zero_passthrough(self):
        xs = np.linspace(-0.9, 0.9, 7)
        assert np.allclose(derivative(4, 6, 0, xs),
                           gegenbauer_normalized(4, 6, xs))

    def test_legendre_derivative_frozen(self):
        # P2'(x) = 3x
        assert float(derivative(3, 2, 1, np.array(0.5))) == pytest.approx(1.5, rel=1e-12)

    def test_high_order_kills_low_degree(self):
        assert np.allclose(derivative(3, 2, 3, np.array(0.3)), 0.0)

    def test_finite_difference_cross_check(self):
        xs = np.array(0.37)
        h = 1e-5
        for n, k, r in [(3, 7, 1), (5, 9, 2), (4, 12, 1)]:
            got = float(derivative(n, k, r, xs))
            fplus = float(derivative(n, k, r - 1, np.array(0.37 + h)))
            fminus = float(derivative(n, k, r - 1, np.array(0.37 - h)))
            assert got == pytest.approx((fplus - fminus) / (2 * h), rel=1e-5)

    def test_decay_envelope_bounded(self):
        # |d^r phi_k| / (1+k)^{r+1-n/2} bounded over k <= 200 on [-1/2, 1/2]
        xs = np.linspace(-0.5, 0.5, 21)
        for n, r in [(3, 1), (5, 2)]:
            worst = 0.0
            for k in range(r, 201):
                env = np.abs(derivative(n, k, r, xs)).max()
                worst = max(worst, env / (1 + k) ** (r + 1 - n / 2))
            assert math.isfinite(worst)
            assert worst < 1e3  # measured constant, reported


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
        with pytest.raises(RangeError):
            SphericalEigenSystem(3, 200_001).multiplicities()

    @pytest.mark.parametrize("n", [3, 4, 8, 17])
    def test_equals_factorial_formula(self, n):
        def factorial_form(k):  # (n+k-3)! (n+2k-2) / ((n-2)! k!)
            num = math.factorial(n + k - 3) * (n + 2 * k - 2)
            q, rem = divmod(num, math.factorial(n - 2) * math.factorial(k))
            assert rem == 0
            return q

        assert SphericalEigenSystem(n, 400).multiplicities() == [
            factorial_form(k) for k in range(401)]


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
        # the certified sum is the truncated sum over degrees 0..k_used
        res = schatten_derivative_sum(5, 4.0, 0, 0.3)
        direct = sum(multiplicity(5, k)
                     * abs(float(gegenbauer_normalized(5, k, np.array(0.3)))) ** 4
                     for k in range(res.k_used + 1)) ** 0.25
        assert res.value == pytest.approx(direct, rel=1e-12)

    def test_interior_guard(self):
        with pytest.raises(DomainError):
            schatten_derivative_sum(5, 4.0, 0, 0.99)

    def test_nan_argument_rejected(self):
        with pytest.raises(DomainError):
            schatten_derivative_sum(3, 4.0, 0, math.nan)

    @pytest.mark.parametrize("p", [math.nan, 0.5, -4.0, math.inf])
    def test_bad_exponent_rejected(self, p):
        with pytest.raises(InputError):
            schatten_derivative_sum(3, p, 0, 0.5)

    def test_negative_order_rejected(self):
        with pytest.raises(InputError):
            schatten_derivative_sum(3, 8.0, -1, 0.5)


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
