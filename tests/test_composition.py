import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from mcert.errors import DomainError, InputError, RangeError
from mcert.composition import (CompositionFrame, DerivativeJet, bell_coefficient_mass,
                               composition_derivative_bound, faa_di_bruno,
                               opnorm_coordinate, opnorm_coordinate_derivative,
                               rotation_matrix, shear_operator_norm, so_n1_embedded_matrix,
                               so_n1_trace_coefficients)


def bell_by_partition_enumeration(k, j, z):
    """Oracle: sum over set partitions of {1..k} into j blocks of the
    product of z_{|block|}."""
    total = 0.0
    items = list(range(k))

    def partitions(rest):
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for sub in partitions(tail):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
            yield [[first]] + sub

    for part in partitions(items):
        if len(part) == j:
            total += math.prod(z[len(block) - 1] for block in part)
    return total


class TestBell:
    def test_coefficient_mass_is_bell_numbers(self):
        assert [bell_coefficient_mass(k) for k in range(1, 7)] == [1, 2, 5, 15, 52, 203]

    def test_coefficient_mass_is_exact_to_order_60(self):
        # the Bell triangle in integers: each row starts with the last entry of the row
        # before, each later entry adds the entry above its left neighbour to that
        # neighbour, and row k starts with B_k; float sums are off from k = 23 on
        row, bell = [1], [1]
        for _ in range(60):
            nxt = [row[-1]]
            for above in row:
                nxt.append(nxt[-1] + above)
            row = nxt
            bell.append(row[0])
        assert [bell_coefficient_mass(k) for k in range(1, 61)] == bell[1:]


def polynomial_jets(fc, pc, x0, k):
    phi0 = P.polyval(x0, pc)
    f_jet = DerivativeJet([P.polyval(phi0, P.polyder(fc, j)) for j in range(1, k + 1)])
    phi_jet = DerivativeJet([P.polyval(x0, P.polyder(pc, j)) for j in range(1, k + 1)])
    return f_jet, phi_jet


def composite_coeffs(fc, pc):
    out = fc[0] * np.ones(1)
    acc = np.ones(1)
    for i in range(1, len(fc)):
        acc = P.polymul(acc, pc)
        out = P.polyadd(out, fc[i] * acc)
    return out


class TestFaaDiBruno:
    def test_chain_rule(self):
        f_jet = DerivativeJet([3.0])
        phi_jet = DerivativeJet([-2.0])
        assert faa_di_bruno(f_jet, phi_jet, 1) == -6.0

    def test_full_split(self):
        # f^(k) alone picks B_{k,k}(phi') = phi'^k
        for k in (2, 4, 6):
            f_jet = DerivativeJet([0.0] * (k - 1) + [1.0])
            phi_jet = DerivativeJet([3.0] + [0.0] * (k - 1))
            assert faa_di_bruno(f_jet, phi_jet, k) == pytest.approx(3.0 ** k)

    def test_three_two_enumeration(self):
        # f'' alone picks B_{3,2}(phi', phi'') = 3 phi' phi''
        rng = np.random.default_rng(0)
        for _ in range(10):
            phi = rng.uniform(-2, 2, size=3)
            want = bell_by_partition_enumeration(3, 2, phi[:2])
            assert want == pytest.approx(3.0 * phi[0] * phi[1], rel=1e-13)
            got = faa_di_bruno(DerivativeJet([0.0, 1.0, 0.0]), DerivativeJet(phi), 3)
            assert got == pytest.approx(want, rel=1e-13)

    def test_each_partial_bell_polynomial_against_enumeration(self):
        # a unit f^(j) alone picks the one term f^(j) B_{k,j}(phi', ..., phi^(k-j+1))
        rng = np.random.default_rng(2)
        for k in range(1, 6):
            for j in range(1, k + 1):
                f = [0.0] * k
                f[j - 1] = 1.0
                phi = rng.uniform(-1.5, 1.5, size=k)
                want = bell_by_partition_enumeration(k, j, phi[:k - j + 1])
                got = faa_di_bruno(DerivativeJet(f), DerivativeJet(phi), k)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_identity_jets_vanish_above_one(self):
        for k in (2, 3, 5):
            ident = DerivativeJet([1.0] + [0.0] * (k - 1))
            assert faa_di_bruno(ident, ident, k) == 0.0

    def test_polynomial_composition_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            fc = rng.uniform(-1, 1, 6)
            pc = rng.uniform(-1, 1, 6)
            x0 = float(rng.uniform(-1, 1))
            comp = composite_coeffs(fc, pc)
            for k in range(1, 6):
                fj, pj = polynomial_jets(fc, pc, x0, k)
                got = faa_di_bruno(fj, pj, k)
                want = P.polyval(x0, P.polyder(comp, k))
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_against_partition_enumeration(self):
        # Faa di Bruno's formula sum_j f^(j) B_{k,j}(phi', ..., phi^(k-j+1)), each partial
        # Bell polynomial summed over the set partitions of {1..k}: neither engine in it
        rng = np.random.default_rng(1)
        for k in range(1, 7):
            for _ in range(5):
                f = rng.uniform(-1.5, 1.5, size=k)
                phi = rng.uniform(-1.5, 1.5, size=k)
                want = sum(f[j - 1] * bell_by_partition_enumeration(k, j, phi)
                           for j in range(1, k + 1))
                got = faa_di_bruno(DerivativeJet(f), DerivativeJet(phi), k)
                assert got == pytest.approx(want, rel=1e-12)

    def test_exp_of_sin_against_a_50_digit_taylor_series(self):
        x0, top = 0.4, 30
        with mpmath.workdps(50):
            want = [c * mpmath.factorial(k) for k, c in
                    enumerate(mpmath.taylor(lambda t: mpmath.exp(mpmath.sin(t)), x0, top))]
        sin_derivs = [math.cos(x0), -math.sin(x0), -math.cos(x0), math.sin(x0)]
        phi_jet = DerivativeJet([sin_derivs[i % 4] for i in range(top)])
        f_jet = DerivativeJet([math.exp(math.sin(x0))] * top)
        for k in range(1, top + 1):
            assert faa_di_bruno(f_jet, phi_jet, k) == pytest.approx(float(want[k]), rel=1e-12)

    def test_order_170_is_finite(self):
        # k! is a float up to k = 170, the last order; 171 is a row of test_counts.py
        jet = DerivativeJet([1.0] * 170)
        assert math.isfinite(faa_di_bruno(jet, jet, 170))

    def test_a_derivative_past_the_float_range_is_a_range_error(self):
        jet = DerivativeJet([1e200, 1e200])
        with pytest.raises(RangeError, match=r"order k = 2 exceeds the float range"):
            faa_di_bruno(jet, jet, 2)

    @pytest.mark.parametrize("f_jet, phi_jet, message", [
        (DerivativeJet([math.nan, 1.0]), DerivativeJet([1.0, 1.0]), "f_jet must be finite"),
        (DerivativeJet([1.0, 1.0]), DerivativeJet([1.0, math.inf]), "phi_jet must be finite"),
        ([1.0, 1.0], DerivativeJet([1.0, 1.0]),
         "f_jet must be a DerivativeJet of order >= 2, got [1.0, 1.0]"),
        (DerivativeJet([1.0]), DerivativeJet([1.0, 0.0]),
         "f_jet must be a DerivativeJet of order >= 2, got DerivativeJet(values=(1.0,))"),
        (DerivativeJet([1.0, 0.0]), DerivativeJet([1.0]),
         "phi_jet must be a DerivativeJet of order >= 2, got DerivativeJet(values=(1.0,))")],
        ids=["nan-f_jet", "inf-phi_jet", "list-f_jet", "short-f_jet", "short-phi_jet"])
    def test_a_jet_that_is_no_finite_derivative_jet_is_an_input_error(self, f_jet, phi_jet,
                                                                       message):
        with pytest.raises(InputError) as exc:
            faa_di_bruno(f_jet, phi_jet, 2)
        assert str(exc.value) == message


class TestCompositionBound:
    def test_unit_inputs_give_mass(self):
        for k in (1, 3, 5):
            assert composition_derivative_bound(1.0, [1.0] * k, k) == bell_coefficient_mass(k)

    def test_fewer_sups_than_the_order_are_input_error(self):
        with pytest.raises(InputError, match=r"^need sups of orders 1\.\.3$"):
            composition_derivative_bound(1.0, [1.0, 1.0], 3)

    def test_never_violated_on_polynomials(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            fc = rng.uniform(-1, 1, 6)
            pc = rng.uniform(-1, 1, 6)
            x0 = float(rng.uniform(-1, 1))
            for k in range(1, 6):
                fj, pj = polynomial_jets(fc, pc, x0, k)
                got = abs(faa_di_bruno(fj, pj, k))
                f_norm = max(abs(v) for v in fj.values)
                bound = composition_derivative_bound(f_norm, [abs(v) for v in pj.values], k)
                assert got <= bound * (1 + 1e-12) + 1e-12

    def test_dilation_jet_homogeneity(self):
        # jet of phi(lam x) scales the j-th entry by lam^j: bound scales by lam^k
        rng = np.random.default_rng(4)
        sups = rng.uniform(0.1, 2.0, size=5)
        for lam in (1.0, 2.0, 7.5):
            for k in (2, 5):
                scaled = [lam ** j * sups[j - 1] for j in range(1, k + 1)]
                a = composition_derivative_bound(1.3, scaled, k)
                b = lam ** k * composition_derivative_bound(1.3, sups[:k], k)
                assert a == pytest.approx(b, rel=1e-12)


class TestShearNorm:
    def test_at_zero(self):
        assert float(shear_operator_norm(0.0)) == 1.0

    def test_exponential_identity(self):
        us = np.linspace(0.0, 10.0, 41)
        got = shear_operator_norm(np.sinh(us))
        assert np.max(np.abs(got - np.exp(us)) / np.exp(us)) <= 1e-12

    def test_svd_oracle_on_unit_det_shear(self):
        # [[1, 2x], [0, 1]] has det 1 and squared HS norm 2 + 4x^2
        for x in (0.5, 2.0, 10.0):
            m = np.array([[1.0, 2 * x], [0.0, 1.0]])
            top = np.linalg.svd(m, compute_uv=False)[0]
            assert float(shear_operator_norm(x)) == pytest.approx(top, rel=1e-14)

    def test_mpmath_oracle_up_to_the_float_range(self):
        # |x| is exact and hypot within an ulp; their sum adds half an ulp.  x^4 overflowed
        # from x = 1.3e77 in the square-root form
        top = sys.float_info.max / 2
        xs = np.concatenate([np.linspace(0.0, 10.0, 1000), np.geomspace(1e77, top, 1000)])
        with mpmath.workdps(40):
            exact = np.array([float(mpmath.mpf(x) + mpmath.sqrt(1 + mpmath.mpf(x) ** 2))
                              for x in xs])
        got = shear_operator_norm(xs)
        assert np.max(np.abs(got - exact) / exact) <= 2.0 * np.finfo(float).eps
        assert np.array_equal(shear_operator_norm(-xs), got)
        assert float(shear_operator_norm(top)) == sys.float_info.max

    @pytest.mark.parametrize("x", [np.nextafter(sys.float_info.max / 2, np.inf), 1e308, np.inf])
    def test_past_the_float_range_is_range_error(self, x):
        with pytest.raises(RangeError, match="^the shear operator norm exceeds the float range$"):
            shear_operator_norm([1.0, -x])


def coupling_frame(n, x):
    """The frame with x at the lower edge of its operator-norm window, where the
    coordinate-change derivatives are smallest: r = (1 + n / (n - 2)) log(x) / 2."""
    return CompositionFrame.create(n, 0.5 * (1.0 + n / (n - 2)) * math.log(x))


class TestFrames:
    def test_exponent_sum_vanishes(self):
        for n in range(3, 7):
            f = CompositionFrame.create(n, 1.1)
            assert abs(f.r + (f.n - 1) * f.s) <= 1e-12
            assert abs(np.linalg.det(f.d_matrix()) - 1.0) <= 1e-12

    def test_plain_frame_exponent(self):
        f = CompositionFrame.create(5, 2.0)
        assert f.s == pytest.approx(-0.5)  # -r/(n-1)

    def test_opnorm_formula_vs_svd(self):
        worst = 0.0
        for n in range(3, 7):
            f = CompositionFrame.create(n, 1.3)
            for delta in np.linspace(0, 1, 11):
                top = np.linalg.svd(f.conjugated_rotation(delta), compute_uv=False)[0]
                worst = max(worst, abs(top - float(f.opnorm_of_delta(delta))))
        assert worst <= 1e-10

    def test_hs_formula_vs_trace(self):
        worst = 0.0
        for n in range(3, 7):
            f = CompositionFrame.create(n, 0.9)
            for delta in np.linspace(0, 1, 11):
                mat = f.conjugated_rotation(delta)
                hs = math.sqrt(np.sum(mat * mat) / n)
                worst = max(worst, abs(hs - float(f.hs_of_delta(delta))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("r", [119.0, 177.0, 178.0, 400.0])
    def test_frames_past_the_float_range_are_range_errors(self, n, r):
        # e^(4 r) in hs_max is past the float range from r = 177.45; up to the cap of 177
        # every window end and coordinate is finite, and the operator norm at r = 119 no
        # longer overflows through x^4; hs_of_delta is the coordinate of rigidity --mode hs
        if r > 177.0:
            with pytest.raises(RangeError, match=f"^a frame at r = {r!r} exceeds the float "):
                CompositionFrame.create(n, r)
            return
        f = CompositionFrame.create(n, r)
        deltas = np.array([0.0, 0.5, 1.0])
        xs, hs = f.opnorm_of_delta(deltas), f.hs_of_delta(deltas)
        values = [f.x_min, f.x_max, f.hs_min, f.hs_max, f.d_matrix(), xs, hs,
                  f.conjugated_rotation(0.5), opnorm_coordinate(f, xs),
                  opnorm_coordinate_derivative(f, 1, xs), opnorm_coordinate_derivative(f, 2, xs)]
        assert all(np.isfinite(v).all() for v in values)
        assert opnorm_coordinate(f, xs) == pytest.approx(deltas, abs=1e-12)
        assert hs == pytest.approx(np.sqrt(f.hs_min ** 2 + deltas ** 2
                                           * (f.hs_max ** 2 - f.hs_min ** 2)), rel=1e-12)

    def test_coupling_constructor(self):
        for n, x in [(3, 2.5), (6, 7.0)]:
            f = coupling_frame(n, x)
            assert f.x_min == pytest.approx(x, rel=1e-12)
            assert f.x_max == pytest.approx(x ** (1 + n / (n - 2)), rel=1e-12)


class TestCoordinateChanges:
    def test_endpoints(self):
        f = CompositionFrame.create(4, 2.0)
        assert float(opnorm_coordinate(f, f.x_min)) == pytest.approx(0.0, abs=1e-14)
        assert float(opnorm_coordinate(f, f.x_max)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n, r", [(3, 0.5), (4, 2.0), (6, 10.0)])
    def test_hs_of_delta_runs_over_the_hs_window(self, n, r):
        # the coordinate of rigidity --mode hs: even in delta, hs_min at 0 and hs_max at
        # +-1, increasing between
        f = CompositionFrame.create(n, r)
        deltas = np.linspace(0.0, 1.0, 21)
        hs = f.hs_of_delta(deltas)
        assert hs[0] == pytest.approx(f.hs_min, rel=1e-14)
        assert hs[-1] == pytest.approx(f.hs_max, rel=1e-14)
        assert np.all(np.diff(hs) > 0)
        assert np.array_equal(f.hs_of_delta(-deltas), hs)

    def test_inverse_identity_grid(self):
        worst = 0.0
        for r in np.linspace(0.1, 5.0, 15):
            f = CompositionFrame.create(3, float(r))
            xs = np.geomspace(f.x_min, f.x_max, 30)
            rec = f.x_min * shear_operator_norm(
                opnorm_coordinate(f, xs) * math.sinh(f.r - f.s))
            worst = max(worst, float(np.max(np.abs(rec - xs) / xs)))
        assert worst <= 1e-10

    def test_domain_errors(self):
        f = CompositionFrame.create(3, 1.0)
        with pytest.raises(DomainError):
            opnorm_coordinate(f, f.x_max * 1.5)

    def richardson_fd(self, func, x, h):
        def central(hh):
            return (func(x + hh) - func(x - hh)) / (2 * hh)
        return (4.0 * central(h / 2) - central(h)) / 3.0

    def test_derivatives_vs_finite_differences(self):
        f = CompositionFrame.create(3, 1.2)
        xs = np.linspace(f.x_min * 1.05, f.x_max * 0.95, 7)
        for x in xs:
            for j in range(1, 5):
                prev = (lambda t: opnorm_coordinate(f, t)) if j == 1 else \
                    (lambda t: opnorm_coordinate_derivative(f, j - 1, t))
                fd = self.richardson_fd(prev, x, 1e-2 * x)
                cf = opnorm_coordinate_derivative(f, j, x)
                assert cf == pytest.approx(fd, rel=1e-6)

    def test_derivative_past_order_170_is_finite_or_range_error(self):
        # j! is past the float range from j = 171, j! / x^(j+1) not always: at 171 the
        # derivative is about 3e233, at 400 and x = 2 about 1e747, a RangeError
        f = CompositionFrame.create(3, 1.2)
        x = f.x_min * 1.5
        s, r, xm = (mpmath.mpf(v) for v in (f.s, f.r, x))
        exact = mpmath.factorial(171) / ((mpmath.exp(-2 * s) - mpmath.exp(-2 * r)) * xm ** 172)
        assert float(opnorm_coordinate_derivative(f, 171, x)) == pytest.approx(float(exact),
                                                                                rel=1e-12)
        assert np.isfinite(opnorm_coordinate_derivative(f, 170, f.x_min))
        with pytest.raises(RangeError, match="^the derivative of order 400 exceeds the float"):
            opnorm_coordinate_derivative(f, 400, 2.0)

    def test_first_derivative_window(self):
        # H' in [1, 2] / (e^{2r} - e^{2s}), exactly
        for r in (0.3, 1.0, 4.0):
            f = CompositionFrame.create(4, r)
            xs = np.geomspace(f.x_min, f.x_max, 50)
            vals = opnorm_coordinate_derivative(f, 1, xs)
            width = math.exp(2 * f.r) - math.exp(2 * f.s)
            assert np.all(vals * width >= 1.0 - 1e-12)
            assert np.all(vals * width <= 2.0 + 1e-12)

    def test_reconstruction_through_tabulated_composition(self):
        # tabulate psi = phi o (coordinate inverse), compose back
        f = CompositionFrame.create(3, 1.5)
        phi = lambda x: 1.0 / x + 0.1 * np.log(x)
        deltas = np.linspace(0.0, 1.0, 4001)
        psi_tab = phi(f.opnorm_of_delta(deltas))
        xs = np.geomspace(f.x_min * 1.001, f.x_max * 0.999, 200)
        recomposed = np.interp(opnorm_coordinate(f, xs), deltas, psi_tab)
        assert np.max(np.abs(recomposed - phi(xs))) <= 1e-6

    def test_derivative_peak_bound_at_coupling(self):
        # max_j |d^j H(x)|^{k/j} <= C / ((x-1)^k x^{n/(n-2)}) at x = x_min
        n, k = 3, 3
        cs = []
        for x in np.geomspace(1.3, 50.0, 12):
            f = coupling_frame(n, float(x))
            peak = max(abs(float(opnorm_coordinate_derivative(f, j, x))) ** (k / j)
                       for j in range(1, k + 1))
            cs.append(peak * (x - 1.0) ** k * x ** (n / (n - 2)))
        assert math.isfinite(max(cs))
        assert max(cs) < 50.0  # measured envelope constant, reported


class TestLorentzCoefficients:
    def test_trace_identity(self):
        worst = 0.0
        for n in (3, 4, 5):
            for r in (0.3, 0.9, 2.0):
                a, b, c = so_n1_trace_coefficients(n, r)
                for delta in np.linspace(0, 1, 9):
                    mat = so_n1_embedded_matrix(n, r, float(delta))
                    worst = max(worst, abs(np.sum(mat * mat)
                                           - (a * delta ** 2 + b * delta + c)))
        assert worst <= 1e-10

    def test_trace_rises_from_c_to_a_plus_b_plus_c(self):
        # a, b > 0: the trace law is increasing on [0, 1] and spans [c, a + b + c]
        for n, r in [(3, 0.8), (5, 2.5)]:
            a, b, c = so_n1_trace_coefficients(n, r)
            assert a > 0 and b > 0
            traces = [float(np.sum(so_n1_embedded_matrix(n, r, float(d)) ** 2))
                      for d in np.linspace(0.0, 1.0, 9)]
            assert traces[0] == pytest.approx(c, rel=1e-12)
            assert traces[-1] == pytest.approx(a + b + c, rel=1e-12)
            assert np.all(np.diff(traces) > 0)

    def test_small_r_limit(self):
        a, b, c = so_n1_trace_coefficients(4, 1e-9)
        assert a == pytest.approx(0.0, abs=1e-30)
        assert b == pytest.approx(0.0, abs=1e-15)
        assert c == pytest.approx(5.0)  # trace of the identity embed is n + 1

    def test_ratio_at_least_two(self):
        for r in np.linspace(0.01, 10.0, 40):
            a, b, _ = so_n1_trace_coefficients(3, float(r))
            assert b / a >= 2.0 - 1e-12

    @pytest.mark.parametrize("r", [1e308, 400.0, math.inf, -1e308])
    def test_boost_past_the_float_range_is_range_error(self, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if r > 0:
                with pytest.raises(RangeError):
                    so_n1_trace_coefficients(3, r)
            with pytest.raises(RangeError):
                so_n1_embedded_matrix(3, r, 0.5)

    def test_nan_boost_is_domain_error(self):
        for call in (lambda: so_n1_trace_coefficients(3, math.nan),
                     lambda: so_n1_embedded_matrix(3, math.nan, 0.5)):
            with pytest.raises(DomainError):
                call()

    def test_rotation_matrix_orthogonal(self):
        k = rotation_matrix(4, 0.3)
        assert np.allclose(k @ k.T, np.eye(4), atol=1e-14)
        assert np.linalg.det(k) == pytest.approx(1.0)


class TestNestedDifferenceInvariant:
    def nested_richardson(self, func, order, x, h):
        # two extrapolation levels: h^6 truncation keeps the rounding
        # noise of depth-5 nesting below the 1e-6 target
        if order == 0:
            return func(x)

        def central(hh):
            return (self.nested_richardson(func, order - 1, x + hh, h)
                    - self.nested_richardson(func, order - 1, x - hh, h)) / (2 * hh)

        r1 = (4.0 * central(h / 2) - central(h)) / 3.0
        r1b = (4.0 * central(h / 4) - central(h / 2)) / 3.0
        return (16.0 * r1b - r1) / 15.0

    def test_formula_matches_nested_differences_of_composite(self):
        # transcendental pair: f = exp, phi = sin, composite exp(sin x)
        x0 = 0.4
        comp = lambda t: math.exp(math.sin(t))
        phi_derivs = [math.cos(x0), -math.sin(x0), -math.cos(x0), math.sin(x0), math.cos(x0)]
        f0 = math.exp(math.sin(x0))
        f_derivs = [f0] * 5  # all derivatives of exp at the inner value
        for k in range(1, 6):
            got = faa_di_bruno(DerivativeJet(f_derivs[:k]), DerivativeJet(phi_derivs[:k]), k)
            h = {1: 1e-3, 2: 5e-3, 3: 1e-2, 4: 3e-2, 5: 5e-2}[k]
            fd = self.nested_richardson(comp, k, x0, h)
            assert got == pytest.approx(fd, rel=1e-6)
