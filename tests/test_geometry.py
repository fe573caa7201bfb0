import itertools
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm
from scipy.spatial import Delaunay, HalfspaceIntersection

from mcert import geometry
from mcert.cli import _sweep_points
from mcert.errors import DomainError, InputError, RangeError
from mcert.geometry import (GroupElement, LieBasis, _chamber_integral, check_special_linear,
                            default_step, dist_to_identity, expm, harish_chandra_xi, haar_so,
                            hs_norm, identity, kak_decompose, length, lie_derivative,
                            weyl_ball_volume)


@lru_cache(maxsize=None)
def unit_ball_simplices(n):
    """Vertices of the simplices of a Delaunay triangulation of the unit ball
    {z_1 >= ... >= z_n, z_1 <= 1, -z_n <= 1} in the coordinates z_1..z_{n-1},
    as exact rationals."""
    d = n - 1
    if d == 1:  # z_1 in [0, 1]; qhull needs two dimensions
        return [[[Fraction(0)], [Fraction(1)]]]
    rows = []  # a z + c <= 0, with z_n = -(z_1 + ... + z_{n-1})
    for k in range(d - 1):  # z_{k+1} <= z_k
        row = np.zeros(d + 1)
        row[k + 1], row[k] = 1.0, -1.0
        rows.append(row)
    rows.append(np.r_[-np.ones(d - 1), -2.0, 0.0])  # z_n <= z_{n-1}
    rows.append(np.r_[1.0, np.zeros(d - 1), -1.0])  # z_1 <= 1
    rows.append(np.r_[np.ones(d), -1.0])  # -z_n <= 1
    inside = np.array([(n + 1 - 2 * i) / (2.0 * n) for i in range(1, n)])
    pts = np.unique(np.round(HalfspaceIntersection(np.array(rows), inside).intersections, 12),
                    axis=0)
    exact = [[Fraction(x).limit_denominator(10 * n) for x in p] for p in pts]
    assert np.allclose(np.array(exact, dtype=float), pts, rtol=0, atol=1e-12)
    return [[exact[v] for v in s] for s in Delaunay(pts).simplices]


def _mpf(x):
    return mpmath.mpf(x.numerator) / x.denominator


def exp_divided_difference(xs):
    """exp[x_0, ..., x_d] at exact rational nodes, repeated nodes allowed."""
    xs = sorted(xs)
    table = [mpmath.exp(_mpf(x)) for x in xs]
    for k in range(1, len(xs)):
        table = [(table[i + 1] - table[i]) / _mpf(xs[i + k] - xs[i]) if xs[i + k] != xs[i]
                 else mpmath.exp(_mpf(xs[i])) / math.factorial(k) for i in range(len(xs) - k)]
    return table[0]


def exact_ball_volume(n, r):
    """The chamber ball volume at 50 digits: prod_{i<j} sinh(z_i - z_j) is
    2^-N sum over permutations w of sgn(w) e^<2 w rho, z>, and each exponential
    integrates over a simplex to d! |simplex| times the divided difference of exp
    at its values on the vertices."""
    r = Fraction(r)
    rho2 = [n + 1 - 2 * i for i in range(1, n + 1)]
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for simplex in unit_ball_simplices(n):
            verts = [[r * x for x in v] for v in simplex]
            size = abs(mpmath.det(mpmath.matrix([[_mpf(x - y) for x, y in zip(v, verts[0])]
                                                 for v in verts[1:]])))
            for perm in itertools.permutations(range(n)):
                sign = (-1) ** sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
                c = [rho2[k] - rho2[perm[-1]] for k in perm[:-1]]  # z_n = -(z_1 + ... + z_d)
                total += sign * size * exp_divided_difference(
                    [sum(ck * x for ck, x in zip(c, v)) for v in verts])
        return float(total / 2 ** (n * (n - 1) // 2))


def random_element(rng, n, spread=1.0):
    k1 = haar_so(n, 1, rng)[0]
    k2 = haar_so(n, 1, rng)[0]
    s = rng.normal(0.0, spread, size=n)
    s -= s.mean()
    return GroupElement(k1 @ np.diag(np.exp(s)) @ k2), np.sort(s)[::-1]


class TestGroupElement:
    def test_rejects_non_unimodular(self):
        with pytest.raises(DomainError):
            GroupElement(2.0 * np.eye(3))

    def test_rejects_non_finite(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(InputError):
            GroupElement(m)

    def test_inverse_and_product(self):
        rng = np.random.default_rng(0)
        g, _ = random_element(rng, 3)
        assert np.allclose((g @ GroupElement(np.linalg.inv(g.entries))).entries, np.eye(3),
                           atol=1e-12)


class TestKAK:
    def test_identity(self):
        dec = kak_decompose(identity(3))
        assert np.allclose(dec.exponents, 0.0)
        assert np.allclose(dec.k1 @ dec.k1.T, np.eye(3), atol=1e-12)
        assert np.allclose(dec.k2 @ dec.k2.T, np.eye(3), atol=1e-12)

    def test_already_diagonal(self):
        g = GroupElement(np.diag([math.e, 1.0, 1.0 / math.e]))
        dec = kak_decompose(g)
        assert np.allclose(dec.exponents, [1.0, 0.0, -1.0], atol=1e-12)

    def test_construct_then_decompose_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g, s = random_element(rng, 4, spread=2.0)
            dec = kak_decompose(g)
            assert np.allclose(dec.exponents, s, atol=1e-10)
            assert np.abs(dec.reconstruct() - g.entries).max() <= 1e-10 * max(
                1.0, np.abs(g.entries).max())
            assert abs(dec.exponents.sum()) <= 1e-12
            assert np.all(np.diff(dec.exponents) <= 1e-12)

    def test_special_orthogonal_factors(self):
        rng = np.random.default_rng(3)
        g, _ = random_element(rng, 3)
        dec = kak_decompose(g)
        assert np.linalg.det(dec.k1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(dec.k2) == pytest.approx(1.0, abs=1e-12)


class TestLength:
    def test_diagonal_exponential(self):
        for s in [0.3, 1.0, 4.0]:
            g = GroupElement(np.diag([math.exp(s), 1.0, math.exp(-s)]))
            assert length(g) == pytest.approx(math.exp(s), rel=1e-12)

    def test_identity_is_one(self):
        assert length(identity(2)) == 1.0

    def test_frozen_svd_oracle(self):
        # singular values of diag(2, 1, 1/2) are (2, 1, 1/2): L = 2
        assert length(GroupElement(np.diag([2.0, 1.0, 0.5]))) == pytest.approx(2.0, rel=1e-12)

    def test_inverse_and_biinvariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g, _ = random_element(rng, 3, spread=1.5)
            assert length(np.linalg.inv(g.entries)) == pytest.approx(length(g), rel=1e-10)
            k1 = GroupElement(haar_so(3, 1, rng)[0])
            k2 = GroupElement(haar_so(3, 1, rng)[0])
            assert length(k1 @ g @ k2) == pytest.approx(length(g), rel=1e-10)


class TestDistToIdentity:
    def test_identity_zero(self):
        assert dist_to_identity(identity(3)) == 0.0

    def test_zero_only_at_identity(self):
        rng = np.random.default_rng(5)
        k = haar_so(3, 1, rng)[0]  # far from e but length 1
        assert dist_to_identity(GroupElement(k)) > 0.01

    def test_near_identity_comparable(self):
        # window constant 2 sqrt(n) + slack, reported per n
        rng = np.random.default_rng(1)
        n = 3
        c_n = 2.0 * math.sqrt(n) + 0.5
        worst = 0.0
        for _ in range(50):
            x = rng.standard_normal((n, n)) * 1e-3
            x -= np.trace(x) / n * np.eye(n)
            g = GroupElement(scipy_expm(x))
            near = hs_norm(g.entries - np.eye(n))
            if near > 0.1:
                continue
            d = dist_to_identity(g)
            assert near / c_n <= d <= c_n * near
            worst = max(worst, d / near, near / d)
        assert worst <= c_n

    def test_far_diagonal_dominated_by_length(self):
        g = GroupElement(np.diag([math.exp(10.0), 1.0, math.exp(-10.0)]))
        target = math.exp(10.0)
        assert target / 2 <= dist_to_identity(g) <= 2 * target


class TestLieDerivative:
    basis = LieBasis.standard(3)

    def test_basis_orthonormal_traceless(self):
        mats = self.basis.mats
        assert len(self.basis) == 8
        for i, x in enumerate(mats):
            assert abs(np.trace(x)) <= 1e-12
            for j, y in enumerate(mats):
                want = 1.0 if i == j else 0.0
                assert abs(np.sum(x * y) - want) <= 1e-12

    def test_constant_symbol(self):
        g = GroupElement(np.diag([1.5, 1.0, 1 / 1.5]))
        for gamma in [(0,), (1, 2), (3, 3, 3)]:
            val = lie_derivative(lambda m: np.ones(m.shape[:-2]), g, gamma, self.basis)
            assert abs(val) <= 1e-10

    def test_first_order_matrix_entry(self):
        # analytic oracle: d/ds (g exp(s X))_{11} at 0 = (g X)_{11}
        g = GroupElement(np.diag([1.2, 1.0, 1 / 1.2]))
        for j in range(8):
            got = lie_derivative(lambda m: m[..., 0, 0], g, (j,), self.basis)
            want = (g.entries @ self.basis[j])[0, 0]
            assert got == pytest.approx(want, abs=1e-9)

    def test_second_order_trace(self):
        # analytic oracle: tr(g X_j X_k) / n
        g = GroupElement(np.diag([1.2, 1.0, 1 / 1.2]))
        for j, k in [(1, 4), (0, 0), (6, 2)]:
            got = lie_derivative(lambda m: np.trace(m, axis1=-2, axis2=-1) / 3.0, g, (j, k),
                                 self.basis)
            want = np.trace(g.entries @ self.basis[j] @ self.basis[k]) / 3.0
            assert got == pytest.approx(want, abs=1e-6)

    def test_linearity(self):
        g = GroupElement(np.diag([1.1, 1.0, 1 / 1.1]))
        m1 = lambda m: m[..., 0, 0]
        m2 = lambda m: m[..., 1, 1] ** 2
        combo = lambda m: 2.0 * m1(m) - 3.0 * m2(m)
        for gamma in [(2,), (0, 5)]:
            lhs = lie_derivative(combo, g, gamma, self.basis)
            rhs = (2.0 * lie_derivative(m1, g, gamma, self.basis)
                   - 3.0 * lie_derivative(m2, g, gamma, self.basis))
            assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_order_cap(self):
        g = identity(3)
        with pytest.raises(InputError):
            lie_derivative(lambda m: 1.0, g, (0,) * 7, self.basis, max_order=6)
        # default cap for n = 3 is [9/2] + 1 = 5
        with pytest.raises(InputError):
            lie_derivative(lambda m: 1.0, g, (0,) * 6, self.basis)


def nested_lie_derivative(m, g, gamma, basis):
    """Per-matrix reference: the nested recursion with Python complex arithmetic.

    Along a run of equal directions the offsets u (in units of h/2) add up,
    and the run's last level applies the flow exp(u (h/2) X_j) once; a
    direction without a repeated neighbour takes the flow at +-h/2 and +-h.
    """
    h = default_step(g, len(gamma))

    def flow(j, u):
        return expm(basis[j], u * (h / 2.0))

    def deriv(mat, order, u=None):
        if not order:
            return complex(m(mat))
        j, rest = order[0], order[1:]

        def central(du):  # du = 1 at step h/2, 2 at step h
            hh = h / 2.0 if du == 1 else h
            if rest[:1] == (j,):  # the run goes on: carry the offset
                plus = deriv(mat, rest, (u or 0) + du)
                minus = deriv(mat, rest, (u or 0) - du)
            elif u is None:
                plus = deriv(mat @ expm(basis[j], hh), rest)
                minus = deriv(mat @ expm(basis[j], -hh), rest)
            else:
                plus = deriv(mat @ flow(j, u + du), rest)
                minus = deriv(mat @ flow(j, u - du), rest)
            return (plus - minus) / (2.0 * hh)

        return (4.0 * central(1) - central(2)) / 3.0

    return deriv(g.entries, tuple(gamma))


def per_matrix_dist(g):
    """Reference: max(min(|g-e|, 1), L(g)-1) with L from the KAK exponents."""
    s = kak_decompose(g).exponents
    near = min(hs_norm(g.entries - np.eye(g.n)), 1.0)
    return max(near, float(np.exp(max(s[0], -s[-1]))) - 1.0)


def assert_within_ulps(got, want, ulps):
    """Entrywise |got - want| <= ulps units in the last place of want."""
    err = np.abs(got - want)
    assert np.all(err <= ulps * np.spacing(np.abs(want))), err.max()


class TestStackedEngine:
    basis = LieBasis.standard(3)

    def test_matches_nested_reference_exactly(self):
        # m(g) = tr(A g) at certify-hm's own n = 3 sweep points (two shells,
        # every other ray point) and orders 1..5, with the default steps
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sym = lambda m: np.trace(a @ m, axis1=-2, axis2=-1)
        local, rays = _sweep_points(3, 2, seed=0)
        points = local + [g for _, pts in rays for _, g in pts[::2]]
        for k in range(1, 6):
            for gamma in [(0,) * k, (7,) * k, tuple((3 * i + 1) % 8 for i in range(k))]:
                for g in points:
                    got = lie_derivative(sym, g, gamma, self.basis)
                    assert got == nested_lie_derivative(sym, g, gamma, self.basis), (k, gamma)

    def test_mixed_runs_match_nested_reference_exactly(self):
        # runs of repeated directions between other directions, orders 2..5
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sym = lambda m: np.trace(a @ m, axis1=-2, axis2=-1)
        local, rays = _sweep_points(3, 1, seed=2)
        points = local + [pts[-1][1] for _, pts in rays]
        for gamma in [(4, 4), (2, 5, 5), (6, 1, 1, 6), (3, 3, 0, 3, 3), (2, 5, 5, 2, 2)]:
            for g in points:
                got = lie_derivative(sym, g, gamma, self.basis)
                assert got == nested_lie_derivative(sym, g, gamma, self.basis), gamma

    def test_flow_grid_matches_expm(self):
        # F_j(u) = exp(u (h/2) X_j) at the default steps of the n = 3 and n = 4
        # sweeps, out to the order-9 width: exactly I + u (h/2) X_j on the
        # square-zero directions, within 4 ulp of scipy's expm on the diagonal ones
        for n in (3, 4):
            basis = LieBasis.standard(n)
            local, rays = _sweep_points(n, 2, seed=0)
            steps = default_step(np.stack([g.entries for g in local]
                                          + [g.entries for _, pts in rays for _, g in pts]), 9)
            width = 18
            for j in (0, n * (n - 1) - 1, n * (n - 1), len(basis) - 1):
                grid = expm(basis[j], np.arange(-width, width + 1) * (steps[:, None] / 2.0))
                for p, h in enumerate(steps.tolist()):
                    assert np.array_equal(grid[p, width], np.eye(n))
                    for u in range(-width, width + 1):
                        s = u * (h / 2.0)
                        if j < n * (n - 1):
                            assert np.array_equal(grid[p, width + u], np.eye(n) + s * basis[j])
                        else:
                            assert_within_ulps(grid[p, width + u], scipy_expm(s * basis[j]), 4)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sweep_points_match_expm(self, n):
        # the local sweep points: diagonal, rotation and square-zero directions
        shells = 6
        local, _ = _sweep_points(n, shells, seed=0)
        dirs = [np.zeros((n, n)) for _ in range(3)]
        dirs[0][0, 0], dirs[0][-1, -1] = 1.0, -1.0
        dirs[1][0, 1], dirs[1][1, 0] = 1.0, -1.0
        dirs[2][0, 1] = 1.0
        dirs = [d / np.linalg.norm(d) * math.sqrt(n) for d in dirs]
        want = [scipy_expm(t * d) for t in np.geomspace(1e-3, 0.6, shells) for d in dirs]
        for g, w in zip(local, want):
            assert_within_ulps(g.entries, w, 4)

    def test_expm_rejects_other_generators(self):
        x = np.array([[1.0, 2.0], [0.0, -1.0]])
        with pytest.raises(InputError):
            expm(x, 0.1)
        with pytest.raises(InputError):
            expm(np.array([[0.0, 1.0], [-2.0, 0.0]]), 0.1)

    def test_basis_rejects_generators_without_closed_flow(self):
        sym = np.array([[[0.0, 1.0], [1.0, 0.0]]]) / math.sqrt(2.0)  # (E_12 + E_21)/sqrt 2
        with pytest.raises(InputError):
            LieBasis(n=2, mats=sym)

    def test_stacked_call_equals_per_point_calls(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sym = lambda m: np.trace(a @ m, axis1=-2, axis2=-1)
        local, rays = _sweep_points(3, 2, seed=1)
        points = local + [g for _, pts in rays for _, g in pts]
        stack = np.stack([g.entries for g in points])
        steps = np.geomspace(1e-3, 0.2, len(points))
        for gamma in [(), (2,), (0, 0), (7,) * 5, (1, 4, 1), (3, 3, 5, 5, 5)]:
            got = lie_derivative(sym, stack, gamma, self.basis)
            assert got.shape == (len(points),)
            assert list(got) == [lie_derivative(sym, g, gamma, self.basis) for g in points]
            got = lie_derivative(sym, stack, gamma, self.basis, h=steps)
            assert list(got) == [lie_derivative(sym, g, gamma, self.basis, h=h)
                                 for g, h in zip(points, steps.tolist())]

    def test_any_leading_shape(self):
        # an (A, B, n, n) stack gives the flat call reshaped, with h broadcast to
        # (A, B); one bare matrix gives the GroupElement call's bits as a numpy scalar
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sym = lambda m: np.trace(a @ m, axis1=-2, axis2=-1)
        local, rays = _sweep_points(3, 2, seed=1)
        points = local + [g for _, pts in rays for _, g in pts]
        flat = np.stack([g.entries for g in points])
        grid = flat.reshape(4, 4, 3, 3)
        steps = np.geomspace(1e-3, 0.2, 16)
        assert np.array_equal(dist_to_identity(grid), dist_to_identity(flat).reshape(4, 4))
        assert np.array_equal(length(grid), length(flat).reshape(4, 4))
        for gamma in [(), (4,), (1, 1, 6), (2, 7, 7)]:
            got = lie_derivative(sym, grid, gamma, self.basis)
            assert got.shape == (4, 4)
            assert np.array_equal(got, lie_derivative(sym, flat, gamma, self.basis).reshape(4, 4))
            got = lie_derivative(sym, grid, gamma, self.basis, h=steps.reshape(4, 4))
            assert np.array_equal(got.ravel(), lie_derivative(sym, flat, gamma, self.basis, h=steps))
            for g in points[::5]:
                bare = lie_derivative(sym, g.entries, gamma, self.basis)
                assert isinstance(bare, np.complex128)
                assert bare == lie_derivative(sym, g, gamma, self.basis)

    def test_constant_symbol_exact_zero_at_order_nine(self):
        basis = LieBasis.standard(4)
        local, rays = _sweep_points(4, 2, seed=0)
        stack = np.stack([g.entries for g in local]
                         + [g.entries for _, pts in rays for _, g in pts])
        for gamma in [(0,) * 9, (14,) * 9, (2, 2, 2, 9, 9, 9, 9, 5, 5)]:
            got = lie_derivative(lambda m: np.full(m.shape[:-2], 2.5), stack, gamma, basis)
            assert np.all(got == 0.0), gamma

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pure_indices_match_analytic_oracle_on_rays(self, seed):
        # d^k/ds^k tr(A g exp(s X_j)) at 0 = tr(A g X_j^k), at the n = 3 sweep's
        # ray points, orders 1..[n^2/2]+1, default steps
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sym = lambda m: np.trace(a @ m, axis1=-2, axis2=-1)
        _, rays = _sweep_points(3, 5, seed=seed)
        stack = np.stack([g.entries for _, pts in rays for _, g in pts])
        scale = np.abs(a).sum() * np.abs(stack).max(axis=(1, 2))
        for k in range(1, 6):
            for j in (0, 3, 7):
                got = lie_derivative(sym, stack, (j,) * k, self.basis)
                xk = np.linalg.matrix_power(self.basis[j], k)
                want = np.trace(a @ stack @ xk, axis1=-2, axis2=-1)
                assert np.all(np.abs(got - want) <= 1e-5 * scale), (k, j)

    def test_stacked_dist_bit_identical(self):
        rng = np.random.default_rng(12)
        size = 1200
        s = rng.normal(0.0, 1.5, size=(size, 3))
        s -= s.mean(axis=1, keepdims=True)
        stack = haar_so(3, size, rng) * np.exp(s)[:, None, :] @ haar_so(3, size, rng)
        stack[0] = np.eye(3)
        stack[1] = scipy_expm(1e-6 * self.basis[2])  # near the identity, where min(|g-e|, 1) wins
        got = dist_to_identity(check_special_linear(stack))
        want = np.array([per_matrix_dist(GroupElement(m)) for m in stack])
        assert got.shape == (size,)
        assert np.array_equal(got, want)

    def test_validator_rejects_bad_members(self):
        stack = np.stack([np.eye(3)] * 4)
        det2 = stack.copy()
        det2[2] = np.diag([2.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            check_special_linear(det2)
        nan = stack.copy()
        nan[1, 0, 2] = np.nan
        with pytest.raises(InputError):
            check_special_linear(nan)
        assert check_special_linear(stack).shape == (4, 3, 3)

    def test_wrong_result_shape_rejected(self):
        g = GroupElement(np.diag([1.2, 1.0, 1 / 1.2]))
        for bad in (lambda m: 1.0, lambda m: m[0, 0], lambda m: m[..., 0]):
            with pytest.raises(InputError):
                lie_derivative(bad, g, (1, 2), self.basis)


class TestWeylVolume:
    def test_small_radius_vanishes(self):
        assert weyl_ball_volume(2, 1e-4) <= 1e-6
        assert weyl_ball_volume(3, 1e-3) <= 1e-6

    def test_strictly_increasing(self):
        for n in (2, 3):
            vols = [weyl_ball_volume(n, r) for r in (1.0, 2.0, 4.0, 6.0)]
            assert all(b > a for a, b in zip(vols, vols[1:]))

    def test_n2_matches_closed_form(self):
        # integral of sinh(2t) on [0, R] = (cosh(2R) - 1) / 2
        for r in (1.0, 3.0):
            want = (math.cosh(2 * r) - 1.0) / 2.0
            assert weyl_ball_volume(2, r) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_exact_oracle(self, n, monkeypatch):
        # the finer rule is within 1e-10 of the exact volume, and its gap to the coarser
        # rule bounds its error up to rounding: here both rules agree to about 1e-13
        rules = []
        monkeypatch.setattr(geometry, "_chamber_integral",
                            lambda *args: rules.append(_chamber_integral(*args)) or rules[-1])
        for r in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
            exact = exact_ball_volume(n, r)
            if n == 2:
                assert exact == pytest.approx((math.cosh(2 * r) - 1.0) / 2.0, rel=1e-14)
            vol = weyl_ball_volume(n, r)
            coarse, fine = rules[-2:]
            assert fine == vol
            assert abs(vol - exact) <= 1e-10 * exact, (r, vol, exact)
            assert abs(vol - exact) <= abs(coarse - vol) + 5e-13 * exact, (r, exact, coarse)


class TestHarishChandra:
    def test_identity_exact(self):
        val, err = harish_chandra_xi(identity(3), samples=500, seed=0)
        assert val == 1.0 and err == 0.0

    def test_bounded_by_one(self):
        rng = np.random.default_rng(2)
        for n in (2, 3):
            g, _ = random_element(rng, n, spread=1.0)
            val, err = harish_chandra_xi(g, samples=20_000, seed=4)
            assert val <= 1.0 + 3 * err + 1e-9

    def test_nonincreasing_along_diagonal_ray(self):
        vals = []
        for r in (0.5, 1.5, 3.0):
            g = GroupElement(np.diag([math.exp(r), 1.0, math.exp(-r)]))
            vals.append(harish_chandra_xi(g, samples=40_000, seed=9))
        for (a, ea), (b, eb) in zip(vals, vals[1:]):
            assert b <= a + 2 * (ea + eb)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_length_at_least_one(seed):
    rng = np.random.default_rng(seed)
    g, _ = random_element(rng, 3, spread=0.7)
    assert length(g) >= 1.0 - 1e-12


class TestErrorPaths:
    def test_step_underflow(self):
        basis = LieBasis.standard(3)
        from mcert.errors import NumericError
        with pytest.raises(NumericError):
            lie_derivative(lambda m: m[0, 0], identity(3), (0,), basis, h=1e-310)

    def test_weyl_bad_inputs(self):
        with pytest.raises(InputError):
            weyl_ball_volume(7, 1.0)
        for r in (-1.0, math.inf, math.nan):
            for n in (2, 3, 4):
                with pytest.raises(DomainError):
                    weyl_ball_volume(n, r)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_weyl_volume_beyond_float_range(self, n):
        # an inf or NaN volume would pass the growth-rate check, since NaN fails every
        # comparison; the check comes before the rule is sized, so at n = 5 it is not the
        # node cap and at n = 2 no rule with about 5 sqrt(r) nodes is built
        for r in (400.0, 500.0, 1e12):
            with pytest.raises(RangeError):
                weyl_ball_volume(n, r)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_float_radius_matches_oracle(self, n):
        r = geometry._FLOAT_RADIUS[n - 2]  # the least float radius past the float range
        assert exact_ball_volume(n, r) == math.inf
        assert exact_ball_volume(n, math.nextafter(r, 0.0)) < math.inf
        with pytest.raises(RangeError):
            weyl_ball_volume(n, r)
        if n < 5:  # n = 5 is past the node cap from r = 16.9 on
            below = r - 1e-9
            assert weyl_ball_volume(n, below) == pytest.approx(exact_ball_volume(n, below),
                                                               rel=1e-10)


def test_index_sequences():
    # gamma is any sequence of basis indices; the empty one gives the symbol's value
    basis = LieBasis.standard(3)
    g = GroupElement(np.diag([1.2, 1.0, 1 / 1.2]))
    sym = lambda m: m[..., 0, 0]
    via_tuple = lie_derivative(sym, g, (2, 5), basis)
    assert lie_derivative(sym, g, [2, 5], basis) == via_tuple
    assert lie_derivative(sym, g, np.array([2, 5]), basis) == via_tuple
    assert lie_derivative(sym, g, (), basis) == 1.2
