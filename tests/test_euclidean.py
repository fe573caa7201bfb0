import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from mcert.errors import AccuracyError, DomainError, InputError
from mcert.euclidean import (GridSpec, frac_laplacian_constant,
                             frac_laplacian_length, local_inversion, lp_partition_value,
                             sigma_partition_value, sobolev_norm_w)
from mcert.symbols import EuclideanSymbol, SymbolFamily

class TestPartition:
    def test_squares_telescope_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            xi = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3)
            total = sum(lp_partition_value(j, xi) ** 2 for j in range(-40, 41))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_support_annulus(self):
        assert lp_partition_value(0, np.array([4.1, 0.0])) == 0.0
        assert lp_partition_value(0, np.array([0.24, 0.0])) == 0.0
        assert lp_partition_value(3, np.array([8.0, 0.0])) > 0.0

    def test_definitional_scaling(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            xi = rng.normal(size=3)
            for j in (-5, 2, 9):
                a = lp_partition_value(j, xi)
                b = lp_partition_value(0, xi / 2.0 ** j)
                assert a == pytest.approx(b, abs=1e-14)

    def test_sigma_plateau_value(self):
        # on the plateau the averaged partition equals 1/(2N+1) exactly
        val = sigma_partition_value(2, 3, np.array([8.0, 0.0]))
        assert val == pytest.approx(0.2, abs=1e-15)

    def test_sigma_far_outside(self):
        assert sigma_partition_value(1, 0, np.array([64.0, 0.0])) == 0.0

    def test_sigma_resums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            xi = rng.normal(size=2) * 10.0 ** rng.uniform(-2, 2)
            total = sum(sigma_partition_value(2, j, xi) for j in range(-40, 41))
            assert total == pytest.approx(1.0, abs=1e-12)


def psi_direct_quadrature(d, eps, rho):
    """Oscillatory-quadrature oracle for the fractional length, written
    without the closed-form radial factor used by the implementation."""
    surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    if d == 1:
        nodes = [(1.0, 1.0)]
    else:
        x, w = np.polynomial.legendre.leggauss(200)
        th = 0.25 * math.pi * (x + 1.0)
        dens = np.cos(th) ** (d - 2)
        z = np.sum(w * dens)
        nodes = list(zip(np.sin(th), w * dens / z))
    total = 0.0
    for c, wgt in nodes:
        a = 2.0 * math.pi * rho * c
        if a == 0.0:
            continue
        head = integrate.quad(lambda r: (1 - math.cos(a * r)) * r ** (-1 - 2 * eps),
                              0, 1, limit=200)[0]
        tail = 1.0 / (2 * eps) - integrate.quad(lambda r: r ** (-1 - 2 * eps), 1, np.inf,
                                                weight="cos", wvar=a, limit=400)[0]
        total += wgt * (head + tail)
    return 2.0 * surface * total


def frac_laplacian_constant_mp(d, eps):
    """The constant to 40 digits, written apart from the implementation: the radial
    factor as the Mellin transform Gamma(1 - 2 eps) cos(pi eps) / (2 eps) of the sine,
    continued through eps = 1/2 by sincpi, and the direction-cosine moment by
    tanh-sinh quadrature of its theta integral (c = sin theta; c = +-1 at d = 1)."""
    with mpmath.workdps(40):
        eps = mpmath.mpf(eps)
        surface = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
        radial = mpmath.gamma(2 - 2 * eps) * mpmath.pi / 2 * mpmath.sincpi(0.5 - eps) / (2 * eps)
        moment = 1
        if d > 1:
            weight = lambda t: mpmath.cos(t) ** (d - 2)
            half = [0, mpmath.pi / 2]
            moment = (mpmath.quad(lambda t: weight(t) * mpmath.sin(t) ** (2 * eps), half)
                      / mpmath.quad(weight, half))
        return 2 * surface * (2 * mpmath.pi) ** (2 * eps) * radial * moment


class TestFractionalLength:
    @pytest.mark.parametrize("d", [1, 2, 3, 10, 50])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 0.9])
    def test_constant_against_40_digit_oracle(self, d, eps):
        want = frac_laplacian_constant_mp(d, eps)
        assert abs(frac_laplacian_constant(d, eps) / want - 1) <= 1e-13

    @pytest.mark.parametrize("d, eps", [(1, 0.3), (2, 0.5), (3, 0.25)])
    def test_the_value_alone_is_the_constant_times_the_power(self, d, eps):
        # one value per row of xi, no constant beside it: that is frac_laplacian_constant's
        xi = np.random.default_rng(d).normal(size=(4, d))
        got = frac_laplacian_length(d, eps, xi)
        assert got.shape == (4,)
        want = frac_laplacian_constant(d, eps) * np.linalg.norm(xi, axis=-1) ** (2.0 * eps)
        np.testing.assert_allclose(got, want, rtol=1e-15)
        assert frac_laplacian_length(d, eps, xi[0]) == pytest.approx(want[0], rel=1e-15)

    def test_zero_at_origin(self):
        val = frac_laplacian_length(2, 0.4, np.zeros(2))
        assert val == 0.0

    def test_endpoints_rejected(self):
        for eps in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                frac_laplacian_constant(2, eps)

    def test_homogeneity_against_direct_quadrature(self):
        for d, eps in [(1, 0.3), (2, 0.5), (3, 0.25)]:
            v1 = frac_laplacian_length(d, eps, np.array([1.0] + [0.0] * (d - 1)))
            v2 = frac_laplacian_length(d, eps, np.array([2.0] + [0.0] * (d - 1)))
            assert v2 / v1 == pytest.approx(2.0 ** (2 * eps), rel=1e-14)
            assert v1 == pytest.approx(psi_direct_quadrature(d, eps, 1.0), rel=1e-6)
            assert v2 == pytest.approx(psi_direct_quadrature(d, eps, 2.0), rel=1e-6)

    def test_constant_normalization_window(self):
        # c * eps (1 - eps) Gamma(d/2) / pi^{d/2} stays within a fixed window
        for d in (1, 2, 3):
            ratios = []
            for eps in np.linspace(0.1, 0.9, 9):
                c = frac_laplacian_constant(d, eps)
                ratios.append(c * eps * (1 - eps) * math.gamma(d / 2) / math.pi ** (d / 2))
            big, small = max(ratios), min(ratios)
            assert small > 0 and big / small <= 25.0, (d, small, big)


SMOOTH_BUMP = SymbolFamily.parse("hm-bump:center=0,width=1").build_profile()


def annulus_bump(lam, d):
    def ev(x):
        r = np.linalg.norm(x, axis=-1) if d > 1 else np.abs(x[..., 0])
        return SMOOTH_BUMP(2.0 * (lam * r - 1.5))

    return EuclideanSymbol(d, ev, inner_radius=1.0 / lam)


class TestSobolevNorms:
    def test_zero_symbol(self):
        grid = GridSpec(box_halfwidth=8.0, box_points=1024)
        zero = EuclideanSymbol(1, lambda x: np.zeros(x.shape[:-1]), inner_radius=1.0)
        assert sobolev_norm_w(zero, 0.3, grid) == 0.0

    def test_w_dilation_invariance(self):
        grid = GridSpec(box_halfwidth=12.0, box_points=1 << 15)
        base = sobolev_norm_w(annulus_bump(1.0, 1), 0.3, grid)
        for lam in (0.25, 0.5, 2.0, 4.0):
            val = sobolev_norm_w(annulus_bump(lam, 1), 0.3, grid)
            assert val == pytest.approx(base, rel=0.02)

    def test_one_grid_serves_a_two_dimensional_symbol(self):
        # the box takes its d from the symbol: the d = 2 annulus keeps its norm under dilation
        grid = GridSpec(box_halfwidth=12.0, box_points=512)
        base = sobolev_norm_w(annulus_bump(1.0, 2), 0.3, grid)
        for lam in (0.5, 2.0):
            val = sobolev_norm_w(annulus_bump(lam, 2), 0.3, grid)
            assert val == pytest.approx(base, rel=0.02)

    def test_w_vs_h_comparison_constant(self):
        # |phi_0^2 M|_W <= C |phi_0^2 M|_{H_{d/2+eps}}; report the measured C
        eps, half, n = 0.3, 12.0, 1 << 14
        grid = GridSpec(box_halfwidth=half, box_points=n)

        def sym(x):
            r = np.abs(x[..., 0])
            return lp_partition_value(0, x) ** 2 * np.cos(r)

        m = EuclideanSymbol(1, sym, inner_radius=0.5)
        w = sobolev_norm_w(m, eps, grid)
        # classical |(1 + |xi|^2)^{alpha/2} M^|_2 on the same box, alpha = 1/2 + eps
        x = -half + (2.0 * half / n) * np.arange(n)
        fhat = np.fft.fft(sym(x[:, None])) * (2.0 * half / n)
        freq = np.fft.fftfreq(n, d=2.0 * half / n)
        h = math.sqrt(np.sum((1.0 + freq ** 2) ** (0.5 + eps) * np.abs(fhat) ** 2) / (2.0 * half))
        assert w > 0 and h > 0
        assert w <= 10.0 * h  # measured constant is ~1; generous ceiling

    def test_support_at_origin_rejected(self):
        grid = GridSpec(box_halfwidth=8.0, box_points=4096)
        gauss = EuclideanSymbol(1, lambda x: np.exp(-np.sum(x * x, axis=-1)))
        with pytest.raises(DomainError):
            sobolev_norm_w(gauss, 0.3, grid)

    def test_leakage_detected(self):
        grid = GridSpec(box_halfwidth=2.0, box_points=1024)
        wide = EuclideanSymbol(1, lambda x: np.exp(-np.abs(x[..., 0]) / 50.0), inner_radius=1.0)
        with pytest.raises(AccuracyError):
            sobolev_norm_w(wide, 0.3, grid)


class TestLocalInversion:
    def test_zero(self):
        assert np.allclose(local_inversion(np.zeros((3, 3))), 0.0)

    def test_involution(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = rng.standard_normal((3, 3)) * 0.4
            back = local_inversion(local_inversion(a))
            assert np.abs(back - a).max() <= 1e-12

    def test_exact_inverse_relation(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4)) * 0.3
        out = local_inversion(a)
        resid = (out + np.eye(4)) @ (a + np.eye(4)) - np.eye(4)
        assert np.abs(resid).max() <= 1e-12 * np.linalg.cond(a + np.eye(4))

    def test_norm_ratio_window_on_compact_set(self):
        rng = np.random.default_rng(6)
        ratios = []
        for _ in range(100):
            a = rng.standard_normal((3, 3)) * 0.25
            if np.linalg.cond(a + np.eye(3)) > 50:
                continue
            na = np.linalg.norm(a)
            if na < 1e-6:
                continue
            ratios.append(np.linalg.norm(local_inversion(a)) / na)
        c_k = max(max(ratios), 1.0 / min(ratios))
        assert c_k < 20.0  # measured window constant, reported

    def test_singular_rejected(self):
        a = -np.eye(3)
        with pytest.raises(DomainError):
            local_inversion(a)


def test_partition_sum_method_and_grid_validation():
    # squared partition values summed over the dyadic window j = -40..40
    total = sum(lp_partition_value(j, np.array([0.7, -0.2])) ** 2
                for j in range(-40, 41))
    assert total == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputError):
        GridSpec(box_points=7)
    for half in (0.0, -1.0):
        with pytest.raises(DomainError,
                           match=rf"^box_halfwidth must lie in \(0.0, inf\], got {half}$"):
            GridSpec(box_halfwidth=half)
