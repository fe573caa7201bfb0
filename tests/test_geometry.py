import itertools
import math
import time
import warnings
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.linalg import expm as scipy_expm
from scipy.spatial import Delaunay, HalfspaceIntersection

from mcert import geometry, taylor
from mcert.cli import _build_parser
from mcert.errors import DomainError, InputError, NumericError, RangeError
from mcert.geometry import (GroupElement, _basis_indices, _slope, _sweep_points,
                            certify_hm_report, check_special_linear, dist_to_identity, expm,
                            fit_exponent, harish_chandra_xi, haar_so, identity, lie_basis,
                            lie_derivative, volume_report, weyl_ball_volume)
from mcert.symbols import RadialProfile, SymbolFamily

from commands import ROWS
from test_symbols import _mp_profile


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


def exact_ball_volume(n, r, digits):
    """The chamber ball volume at ``digits`` digits: prod_{i<j} sinh(z_i - z_j) is
    2^-N sum over permutations w of sgn(w) e^<2 w rho, z>, and each exponential
    integrates over a simplex to d! |simplex| times the divided difference of exp
    at its values on the vertices."""
    r = Fraction(r)
    rho2 = [n + 1 - 2 * i for i in range(1, n + 1)]
    with mpmath.workdps(digits):
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


def per_level_ball_volume(n, r):
    """weyl_ball_volume with each order advancing the levels j = 1..d one after another,
    the schedule the anti-diagonal one must reproduce bit for bit; the seed, the stop rule
    and the scalings are the library's."""
    x, w = geometry._chamber_simplices(n)
    d, rs = n - 1, np.asarray(r, dtype=float).ravel()
    y, big = x.T[:, None, :] * rs[:, None], np.abs(x).max() * rs
    shift = np.maximum(0, np.ceil(big / math.log(2.0)) - 900).astype(int)
    seed, big8 = np.ldexp(1.0, -shift), np.square(np.square(np.square(big)))
    bound = np.abs(w).sum() * seed
    e = np.zeros((d + 1,) + y.shape[1:])
    e[1:] = seed[:, None] / np.cumprod(np.arange(1.0, n))[:, None, None]
    total, tail, live, m = np.zeros(len(rs)), np.zeros(len(rs)), np.ones(len(rs), bool), 0
    while live.any():
        block = np.zeros(y.shape[1:])
        for m in range(m + 1, m + 9):
            for j in range(1, d + 1):
                e[j] = (e[j - 1] + y[j - 1] * e[j]) / (m + j)
            if m >= n * d // 2:
                block += e[d]
        total = np.where(live, total + (block * w).sum(axis=-1), total)
        bound = bound * (big8 / float(math.prod(range(m - 7, m + 1))))
        done = live & ~(bound > 1e-17 * np.abs(total))
        q = big[done] / (m + 1)
        tail[done] = np.where(q < 1.0, bound[done] * q / (1.0 - q), math.inf)
        live &= ~done
    scale = np.prod([rs] * d, axis=0)
    return ((np.ldexp(total, shift) * scale + 0.0).reshape(np.shape(r)),
            (np.ldexp(tail, shift) * scale).reshape(np.shape(r)))


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

    def test_stack(self):
        rng = np.random.default_rng(3)
        mats = np.stack([random_element(rng, 3)[0].entries for _ in range(4)]).reshape(2, 2, 3, 3)
        g = GroupElement(mats)
        assert g.n == 3 and g.entries.shape == (2, 2, 3, 3)
        with pytest.raises(DomainError):
            GroupElement(np.concatenate([mats[0], [2.0 * np.eye(3)]]))
        with pytest.raises(InputError):
            GroupElement(np.ones((2, 3, 4)))

    def test_inverse_and_product(self):
        rng = np.random.default_rng(0)
        g, _ = random_element(rng, 3)
        assert np.allclose((g @ GroupElement(np.linalg.inv(g.entries))).entries, np.eye(3),
                           atol=1e-12)


class TestDistToIdentity:
    def test_identity_zero(self):
        assert dist_to_identity(identity(3).entries) == 0.0

    def test_zero_only_at_identity(self):
        rng = np.random.default_rng(5)
        k = haar_so(3, 1, rng)[0]  # far from e but length 1
        assert dist_to_identity(k) > 0.01

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
            near = np.sqrt(np.sum((g.entries - np.eye(n)) ** 2) / n)
            if near > 0.1:
                continue
            d = dist_to_identity(g.entries)
            assert near / c_n <= d <= c_n * near
            worst = max(worst, d / near, near / d)
        assert worst <= c_n

    def test_far_diagonal_dominated_by_length(self):
        g = GroupElement(np.diag([math.exp(10.0), 1.0, math.exp(-10.0)]))
        target = math.exp(10.0)
        assert target / 2 <= dist_to_identity(g.entries) <= 2 * target


def assert_within_ulps(got, want, ulps):
    """Entrywise |got - want| <= ulps units in the last place of want."""
    err = np.abs(got - want)
    assert np.all(err <= ulps * np.spacing(np.abs(want))), err.max()


def sweep_stack(n, shells=5, seed=0):
    """certify-hm's sweep points as one stack: the local shells, then the rays."""
    return _sweep_points(n, shells, seed).entries


class TestLieDerivative:
    basis = lie_basis(3)

    def test_basis_orthonormal_traceless(self):
        mats = self.basis
        assert mats.shape == (8, 3, 3) and not mats.flags.writeable
        for i, x in enumerate(mats):
            assert abs(np.trace(x)) <= 1e-12
            for j, y in enumerate(mats):
                want = 1.0 if i == j else 0.0
                assert abs(np.sum(x * y) - want) <= 1e-12

    def test_constant_symbol(self):
        g = GroupElement(np.diag([1.5, 1.0, 1 / 1.5]))
        one = SymbolFamily.parse("radial-power:exponent=0").build_profile()
        for j in (0, 3, 7):
            assert lie_derivative(one, g, self.basis[j], 3).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_second_order_trace(self):
        # analytic oracle: the lift of x^2 is d^2 = (tr(A^T A) + tr(B^T B)) / 2n with
        # A = g exp(sX) - e, B = exp(-sX) g^-1 - e; its first two derivatives are traces
        square = RadialProfile(lambda u: taylor.mul(u, u))
        g = GroupElement(np.diag([1.2, 1.0, 1 / 1.2]) @ expm(self.basis[1], 0.3))
        gi = np.linalg.inv(g.entries)
        a, b = g.entries - np.eye(3), gi - np.eye(3)
        tr = lambda p, q: np.trace(p.T @ q)
        for j in range(8):
            x = self.basis[j]
            first = (tr(a, g.entries @ x) - tr(b, x @ gi)) / 3.0
            second = (tr(g.entries @ x, g.entries @ x) + tr(a, g.entries @ x @ x)
                      + tr(x @ gi, x @ gi) + tr(b, x @ x @ gi)) / 3.0
            got = lie_derivative(square, g, x, 2)
            assert got == pytest.approx([dist_to_identity(g.entries) ** 2, first, second],
                                        rel=1e-13, abs=1e-14)

    def test_linearity(self):
        g = GroupElement(np.diag([1.1, 1.0, 1 / 1.1]) @ expm(self.basis[6], 0.2))
        p1 = SymbolFamily.parse("radial-power:exponent=2.5").build_profile()
        p2 = SymbolFamily.parse("hm-bump:center=0.5,width=0.6").build_profile()
        combo = RadialProfile(lambda u: [2.0 * a - 3.0 * b for a, b in zip(p1.of(u), p2.of(u))])
        for x in self.basis[[2, 5]]:
            lhs = lie_derivative(combo, g, x, 5)
            rhs = 2.0 * lie_derivative(p1, g, x, 5) - 3.0 * lie_derivative(p2, g, x, 5)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13 * np.abs(rhs).max())


ORACLE_SPECS = ("radial-power:exponent=5", "radial-log-power:exponent=2.5",
                "hm-bump:center=1.5,width=0.4")


def mp_derivatives(g, x, order, profiles, flow=None):
    """Derivatives 0..order at s = 0 of s -> phi(d(g expm(sX))) for each mpmath profile phi:
    50-digit mpmath.taylor, with g^-1 in mpmath and expm(sX) = I + sX for a square-zero X,
    diag(e^(s x_ii)) for a diagonal one, else ``flow(s)`` (mpmath's own expm is not smooth
    at the extra precision of taylor's steps)."""
    n = g.shape[0]
    with mpmath.workdps(50):
        e, gm, xm = mpmath.eye(n), mpmath.matrix(g.tolist()), mpmath.matrix(x.tolist())
        gi = mpmath.inverse(gm)
        diagonal = not np.any(x - np.diag(np.diag(x)))
        if flow is None:
            flow = lambda s: (mpmath.diag([mpmath.exp(s * x[i, i]) for i in range(n)])
                              if diagonal else e + s * xm)
        dists = {}

        def dist(s):  # the profiles share mpmath.taylor's nodes and precisions
            key = (s, mpmath.mp.prec)
            if key not in dists:
                a, b = gm * flow(s) - e, flow(-s) * gi - e
                dists[key] = mpmath.sqrt((sum(v * v for v in a) + sum(v * v for v in b)) / (2 * n))
            return dists[key]

        return [[float(math.factorial(k) * c)
                 for k, c in enumerate(mpmath.taylor(lambda s: phi(dist(s)), 0, order))]
                for phi in profiles]


@lru_cache(maxsize=None)
def sweep_oracle(n):
    """The sweep stack's distances and, per ORACLE_SPECS family, the 50-digit derivatives
    of orders 0..[n^2/2] + 1 along every basis direction, shaped (dim, order + 1, points)."""
    stack, basis = sweep_stack(n), lie_basis(n)
    profiles = [_mp_profile(SymbolFamily.parse(spec)) for spec in ORACLE_SPECS]
    ref = [[mp_derivatives(g, basis[j], n * n // 2 + 1, profiles) for g in stack]
           for j in range(len(basis))]  # (dim, points, family, order)
    return dist_to_identity(stack), np.transpose(ref, (2, 0, 3, 1))


class TestStackedEngine:
    basis = lie_basis(3)

    @pytest.mark.parametrize("n", [3, 4])
    def test_jets_match_mpmath_taylor_on_the_sweep(self, n):
        # every sweep point, basis direction and order 1..[n^2/2] + 1: the error of
        # d^k |X_j^k m| relative to max(d^k |X_j^k m|, |m|) is at most 1e-10 (about 3e-12 here)
        dists, ref = sweep_oracle(n)
        basis, order = lie_basis(n), n * n // 2 + 1
        weight = dists ** np.arange(order + 1)[:, None]
        sweep = _sweep_points(n, 5, 0)
        for spec, want in zip(ORACLE_SPECS, ref):
            prof = SymbolFamily.parse(spec).build_profile()
            for j in range(len(basis)):
                got = lie_derivative(prof, sweep, basis[j], order)
                scale = np.maximum(weight * np.abs(want[j]), np.abs(want[j][0]))
                err = weight * np.abs(got - want[j])
                assert np.all(err[1:] <= 1e-10 * scale[1:]), (spec, j, (err / scale).max())

    @pytest.mark.parametrize("n", [3, 4])
    def test_hm_constants_match_oracle(self, n):
        # certify-hm at default flags: per order, the sup over the sampled directions
        # and the sweep points of d^k |X_j^k m|
        dists, ref = sweep_oracle(n)
        dirs = _basis_indices(n * n - 1, 3)
        weight = dists ** np.arange(n * n // 2 + 2)[:, None]
        for spec, want in zip(ORACLE_SPECS, ref):
            rep = certify_hm_report(SymbolFamily.parse(spec).build_group_symbol(), n)
            got = [row["constant"] for row in rep.tables["hm_constants"]]
            sups = (weight * np.abs(want[dirs])).max(axis=(0, 2))
            assert got == pytest.approx(sups.tolist(), rel=1e-10, abs=0), spec

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sweep_points_match_expm(self, n):
        # the local sweep points: diagonal, rotation and square-zero directions
        shells = 6
        local = sweep_stack(n, shells)[:3 * shells]
        dirs = [np.zeros((n, n)) for _ in range(3)]
        dirs[0][0, 0], dirs[0][-1, -1] = 1.0, -1.0
        dirs[1][0, 1], dirs[1][1, 0] = 1.0, -1.0
        dirs[2][0, 1] = 1.0
        dirs = [d / np.linalg.norm(d) * math.sqrt(n) for d in dirs]
        want = [scipy_expm(t * d) for t in np.geomspace(1e-3, 0.6, shells) for d in dirs]
        for g, w in zip(local, want):
            assert_within_ulps(g, w, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sweep_is_one_validated_stack(self, n, monkeypatch):
        # one GroupElement holds the shells and then the rays, 5 points each (one ray at
        # n = 2, two from n = 3), checked by one check_special_linear call
        calls = []
        check = geometry.check_special_linear
        monkeypatch.setattr(geometry, "check_special_linear",
                            lambda m: calls.append(np.shape(m)) or check(m))
        shells, seed = 4, 11
        sweep = _sweep_points(n, shells, seed)
        rays = 1 if n == 2 else 2
        assert isinstance(sweep, GroupElement) and sweep.n == n
        assert calls == [(3 * shells + 5 * rays, n, n)]
        # the rays against the per-point formula they had as separate elements, bit for bit
        rng = np.random.default_rng(seed)
        z_dirs = [np.array([1.0] + [0.0] * (n - 2) + [-1.0])]
        if n >= 3:
            z = np.ones(n)
            z[-1] = -(n - 1)
            z_dirs.append(z / max(z.max(), -z.min()))
        k1 = haar_so(n, 2, rng)
        want = []
        for z in z_dirs:
            for logl in np.linspace(1.0, 3.0, 5):
                a = np.diag(np.exp(logl * z / max(z.max(), -z.min())))
                a /= np.linalg.det(a) ** (1.0 / n)
                want.append(k1[0] @ a @ k1[1])
        assert sweep.entries[3 * shells:].tobytes() == np.array(want).tobytes()

    def test_expm_rejects_other_generators(self):
        x = np.array([[1.0, 2.0], [0.0, -1.0]])
        with pytest.raises(InputError):
            expm(x, 0.1)
        with pytest.raises(InputError):
            expm(np.array([[0.0, 1.0], [-2.0, 0.0]]), 0.1)

    def test_stacked_call_equals_per_point_calls(self):
        prof = SymbolFamily.parse("radial-log-power:exponent=2.5").build_profile()
        stack = sweep_stack(3, 2, seed=1)
        for x in self.basis:
            got = lie_derivative(prof, GroupElement(stack), x, 5)
            assert got.shape == (6, len(stack))
            per = [lie_derivative(prof, GroupElement(g), x, 5) for g in stack]
            assert all(p.shape == (6,) for p in per)
            assert np.array_equal(got, np.transpose(per))

    def test_any_leading_shape(self):
        # an (A, B, n, n) stack gives the flat call reshaped to (order + 1, A, B)
        prof = SymbolFamily.parse("hm-bump:center=1,width=0.8").build_profile()
        flat = sweep_stack(3, 2, seed=1)
        grid = flat.reshape(4, 4, 3, 3)
        assert np.array_equal(dist_to_identity(grid), dist_to_identity(flat).reshape(4, 4))
        for x in self.basis[[0, 4, 7]]:
            got = lie_derivative(prof, GroupElement(grid), x, 5)
            assert got.shape == (6, 4, 4)
            assert np.array_equal(got, lie_derivative(prof, GroupElement(flat), x, 5)
                                  .reshape(6, 4, 4))

    def test_constant_symbol_exact_zero_at_order_nine(self):
        basis = lie_basis(4)
        one = SymbolFamily.parse("radial-power:exponent=0").build_profile()
        stack = _sweep_points(4, 2, 0)
        for j in (0, 9, 14):
            got = lie_derivative(one, stack, basis[j], 9)
            assert np.all(got[0] == 1.0) and np.all(got[1:] == 0.0), j

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pure_indices_match_analytic_oracle_on_rays(self, seed):
        # X_j^k of (1 + d)^-5 at the n = 3 sweep's ray points, orders 1..[n^2/2]+1, against
        # 50-digit mpmath.taylor, relative to max(d^k |X_j^k m|, |m|)
        stack = sweep_stack(3, 5, seed)[15:]  # the rays
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        weight = dist_to_identity(stack) ** np.arange(6)[:, None]
        for j in (0, 3, 7):
            got = lie_derivative(prof, GroupElement(stack), self.basis[j], 5)
            want = np.transpose([mp_derivatives(g, self.basis[j], 5, [lambda x: (1 + x) ** -5])[0]
                                 for g in stack])
            scale = np.maximum(weight * np.abs(want), np.abs(want[0]))
            assert np.all(weight * np.abs(got - want) <= 1e-10 * scale), j

    def test_generator_outside_the_basis(self):
        # X = (E_01 + E_10) / sqrt(2) is neither a basis element nor square-zero: at order 1
        # the derivative is linear in X, and orders 2..5 match 50-digit mpmath.taylor along
        # exp(sX), a hyperbolic rotation in the (0, 1) plane
        x = (self.basis[0] + self.basis[2]) / math.sqrt(2.0)
        stack = sweep_stack(3, 2, seed=1)[::3]
        weight = dist_to_identity(stack) ** np.arange(6)[:, None]

        def flow(s):
            out = mpmath.eye(3)
            c, t = mpmath.cosh(s / mpmath.sqrt(2)), mpmath.sinh(s / mpmath.sqrt(2))
            out[0, 0], out[0, 1], out[1, 0], out[1, 1] = c, t, t, c
            return out

        for spec in ORACLE_SPECS:
            prof = SymbolFamily.parse(spec).build_profile()
            g = GroupElement(stack)
            got = lie_derivative(prof, g, x, 5)
            first = (lie_derivative(prof, g, self.basis[0], 1)[1]
                     + lie_derivative(prof, g, self.basis[2], 1)[1]) / math.sqrt(2.0)
            assert np.allclose(got[1], first, rtol=0, atol=1e-14), spec
            mp = _mp_profile(SymbolFamily.parse(spec))
            want = np.transpose([mp_derivatives(g, x, 5, [mp], flow)[0] for g in stack])
            scale = np.maximum(weight * np.abs(want), np.abs(want[0]))
            err = weight * np.abs(got - want)
            assert np.all(err[1:] <= 1e-10 * scale[1:]), (spec, (err / scale).max())

    def test_stacked_dist_bit_identical(self):
        # one matrix alone and inside a stack of 1,200 give the same bits, the identity 0,
        # and each d is within 4 ulp of the formula with numpy's inverse
        rng = np.random.default_rng(12)
        size = 1200
        s = rng.normal(0.0, 1.5, size=(size, 3))
        s -= s.mean(axis=1, keepdims=True)
        stack = haar_so(3, size, rng) * np.exp(s)[:, None, :] @ haar_so(3, size, rng)
        stack[0] = np.eye(3)
        stack[1] = scipy_expm(1e-6 * self.basis[2])  # near the identity
        got = dist_to_identity(check_special_linear(stack))
        assert got.shape == (size,) and got[0] == 0.0
        assert np.array_equal(got, [dist_to_identity(m) for m in stack])
        sq = lambda a: np.sum((a - np.eye(3)) ** 2, axis=(-2, -1)) / 3.0
        assert_within_ulps(got, np.sqrt((sq(stack) + sq(np.linalg.inv(stack))) / 2.0), 4)

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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_generator_stack_equals_one_generator_at_a_time(self, n):
        # one call over a (D,) or (2, D) stack of generators has the bits of the calls over
        # each generator alone, at every order 0..5, for each family
        stack = _sweep_points(n, 2, 3)
        basis = lie_basis(n)
        gens = basis[np.round(np.linspace(0, len(basis) - 1, 6)).astype(int)]
        for spec in ORACLE_SPECS:
            prof = SymbolFamily.parse(spec).build_profile()
            for order in range(6):
                alone = np.stack([lie_derivative(prof, stack, x, order) for x in gens], axis=1)
                for shape in ((6,), (2, 3)):
                    got = lie_derivative(prof, stack, gens.reshape(shape + (n, n)), order)
                    want = alone.reshape((order + 1,) + shape + (len(stack.entries),))
                    assert got.shape == want.shape and np.all(got == want), (spec, order, shape)

    @pytest.mark.parametrize("per_batch, sizes", [(1, [1, 1, 1, 1, 1]), (2, [2, 2, 1])])
    def test_batches_under_the_budget_give_the_same_bits(self, per_batch, sizes, monkeypatch):
        # a budget of one or two generators' jets splits 5 generators into 5 or 3 batches,
        # each with its own profile jet, and changes no bit of the result
        n, order = 4, 5
        stack = _sweep_points(n, 3, 2)
        gens = lie_basis(n)[[0, 4, 9, 12, 14]]
        prof = SymbolFamily.parse("hm-bump:center=1.5,width=0.4").build_profile()
        whole = lie_derivative(prof, stack, gens, order)
        batches = []
        counted = RadialProfile(lambda u: batches.append(np.shape(u[0])) or prof.of(u))
        monkeypatch.setattr(geometry, "_BATCH_FLOATS",
                            per_batch * (order + 1) * stack.entries.size)
        got = lie_derivative(counted, stack, gens, order)
        assert [b[0] for b in batches] == sizes
        assert np.all(got == whole)

    @pytest.mark.parametrize("x", [np.eye(2), np.eye(4), np.ones(3), np.float64(1.0),
                                   np.ones((2, 3, 4)), np.diag([np.nan, 0.0, 0.0]),
                                   np.stack([lie_basis(3)[0], np.full((3, 3), np.inf)])])
    def test_generator_not_finite_or_of_another_size_rejected(self, x):
        # before any jet is built: numpy's matmul would raise a bare ValueError on a size
        # mismatch, and a NaN generator would surface as a non-finite derivative
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        message = ("x must be finite" if not np.all(np.isfinite(x))
                   else "generators must be finite 3 x 3 matrices")
        with pytest.raises(InputError, match=message):
            lie_derivative(prof, identity(3), x, 2)

    @pytest.mark.parametrize("x", [lie_basis(3)[0] * 1j, [["a"] * 3] * 3, [[1.0, 2.0], [3.0]]])
    def test_generator_not_real_rejected(self, x):
        # a float cast would drop the imaginary part with a ComplexWarning, and raise a bare
        # ValueError on strings and on a ragged list
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="x must be an array of real numbers"):
                lie_derivative(prof, identity(3), x, 2)

    def test_wrong_result_shape_rejected(self):
        g = GroupElement(np.diag([1.2, 1.0, 1 / 1.2]))
        for bad in (lambda u: [1.0] * len(u), lambda u: [c[..., None] for c in u],
                    lambda u: u[:1]):
            with pytest.raises(InputError):
                lie_derivative(RadialProfile(bad), g, self.basis[1], 2)


class TestWeylVolume:
    def test_small_radius_vanishes(self):
        assert weyl_ball_volume(2, 1e-4)[0] <= 1e-6
        assert weyl_ball_volume(3, 1e-3)[0] <= 1e-6

    def test_strictly_increasing(self):
        for n in (2, 3):
            vols = [weyl_ball_volume(n, r)[0] for r in (1.0, 2.0, 4.0, 6.0)]
            assert all(b > a for a, b in zip(vols, vols[1:]))

    def test_n2_matches_closed_form(self):
        # integral of sinh(2t) on [0, R] = (cosh(2R) - 1) / 2 = sinh(R)^2, here without
        # the cancellation of cosh(2R) - 1 at small R
        top = geometry._FLOAT_RADIUS[0] - 1e-9
        for r in (1e-3, 0.1, 1.0, 3.0, 10.0, 100.0, top):
            assert weyl_ball_volume(2, r)[0] == pytest.approx(math.sinh(r) ** 2, rel=1e-14), r

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_exact_oracle(self, n):
        # within 1e-13 of the 120-digit volume from R = 1e-3 to just below the float range
        # (at 50 digits the oracle itself is 1.8e-11 off at n = 5, R = 1e-3)
        top = geometry._FLOAT_RADIUS[n - 2] - 1e-9
        radii = [1e-3, 0.03, 0.5, 2.0, 5.0, 10.0, top / 2, top]
        vols, tails = weyl_ball_volume(n, radii)
        for r, vol, tail in zip(radii, vols, tails):
            exact = exact_ball_volume(n, r, 120)
            assert abs(vol - exact) <= 1e-13 * exact, (r, vol, exact)
            # the dropped tail is bounded, and the bound is what the stop rule promises
            assert abs(vol - exact) <= tail + 1e-13 * vol and 0.0 <= tail <= 1e-16 * vol

    @pytest.mark.parametrize("r", [0.5, 2.0, 5.0])
    def test_n3_matches_direct_quadrature(self, r):
        # no Weyl formula: scipy's adaptive rule on prod sinh(z_i - z_j) over the chamber
        # ball z_1 >= z_2 >= z_3 = -z_1 - z_2, z_1 <= r, -z_3 <= r, split at the kink z_1 = r/2
        def weight(z2, z1):
            z3 = -z1 - z2
            return math.sinh(z1 - z2) * math.sinh(z1 - z3) * math.sinh(z2 - z3)

        want = sum(dblquad(weight, a, b, lambda z1: -z1 / 2, hi, epsabs=0, epsrel=1e-13)[0]
                   for a, b, hi in ((0.0, r / 2, lambda z1: z1), (r / 2, r, lambda z1: r - z1)))
        assert weyl_ball_volume(3, r)[0] == pytest.approx(want, rel=1e-12)

    def test_underflowed_radius_returns_zero_at_once(self):
        start = time.monotonic()
        for n in (2, 3, 4, 5):
            assert weyl_ball_volume(n, 1e-300)[0] == 0.0
            assert np.array_equal(weyl_ball_volume(n, [1e-300, 2.0])[0] > 0, [False, True])
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_volume_alone_has_its_bits_in_a_list(self, n):
        # each radius stops at its own order, so neighbours in a list do not move its bits
        top = geometry._FLOAT_RADIUS[n - 2] - 1e-9
        radii = np.array([1e-300, 1e-3, 0.7, 2.0, 3.3, 9.5, 21.0, top / 2, top])
        rng = np.random.default_rng(n)
        alone = [weyl_ball_volume(n, float(r))[0] for r in radii]
        for order in (np.arange(len(radii)), rng.permutation(len(radii)), [8, 0, 8, 1]):
            got = weyl_ball_volume(n, radii[order])[0]
            assert got.tobytes() == np.array(alone)[order].tobytes(), order
        vols, tails = weyl_ball_volume(n, radii.reshape(3, 3))
        assert vols.shape == tails.shape == (3, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_anti_diagonal_schedule_has_the_per_level_bits(self, n):
        # level j runs up to d - 1 orders ahead of level d, so overflow, NaN or a division
        # by zero must raise; underflow stays allowed, as the per-level divide underflows too
        rng = np.random.default_rng(2700 + n)
        top = geometry._FLOAT_RADIUS[n - 2] - 1e-9
        lists = [top * (1.0 - rng.random(rng.integers(1, 7))) for _ in range(10)]
        lists += [[top], [1e-300], [1e-300, 2.0, top / 2], np.linspace(0.5, top, 9).reshape(3, 3)]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for radii in lists:
                got, want = weyl_ball_volume(n, radii), per_level_ball_volume(n, radii)
                assert [a.tobytes() for a in got] == [b.tobytes() for b in want], radii


def mp_slope(x, y):
    """The least-squares slope of the floats y against x to 50 digits, and the condition of
    its numerator, sum |(x - xm)(y - ym)| / |sum (x - xm)(y - ym)| for the means xm, ym."""
    with mpmath.workdps(50):
        xs, ys = [mpmath.mpf(a) for a in x], [mpmath.mpf(b) for b in y]
        xm, ym = mpmath.fsum(xs) / len(xs), mpmath.fsum(ys) / len(ys)
        dx = [a - xm for a in xs]
        prods = [d * (b - ym) for d, b in zip(dx, ys)]
        num = mpmath.fsum(prods)
        return num / mpmath.fsum(d * d for d in dx), mpmath.fsum(map(abs, prods)) / abs(num)


def slope_ulps(got, x, y):
    """The relative error of a slope of y against x in units of 2^-52, and the condition."""
    want, cond = mp_slope(x, y)
    return float(abs(mpmath.mpf(got) - want) / abs(want)) * 2.0 ** 52, float(cond)


def recording(monkeypatch, name):
    """Replace geometry.<name> with a wrapper that records its arguments and results."""
    calls, real = [], getattr(geometry, name)

    def record(*args):
        calls.append((*args, real(*args)))
        return calls[-1][-1]

    monkeypatch.setattr(geometry, name, record)
    return calls


def command_args(command):
    """The parsed arguments of each command-table row of ``command`` that makes a report."""
    parser = _build_parser()
    return [parser.parse_args(row.argv) for row in ROWS
            if row.argv[0] == command and row.code != 2]


class TestFit:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ray_fits_match_mpmath(self, n, monkeypatch):
        # the (1 + d, value) tables certify-hm fits, orders 0, [n^2/2] and [n^2/2] + 1, for
        # every symbol of the command table
        calls = recording(monkeypatch, "fit_exponent")
        for spec in sorted({args.symbol for args in command_args("certify-hm")}):
            certify_hm_report(SymbolFamily.parse(spec).build_group_symbol(), n)
        fitted = 0
        for ls, vals, got in calls:
            ls, vals = np.asarray(ls), np.asarray(vals)
            keep = vals > 1e-14
            if keep.sum() < 3:
                assert got is None
                continue
            x, y = np.log(ls[keep]).tolist(), np.log(vals[keep]).tolist()
            assert slope_ulps(-got, x, y)[0] <= 4.0
            fitted += 1
        assert fitted >= 3  # orders 0, [n^2/2] and [n^2/2] + 1 of radial-power:exponent=5

    def test_volume_growth_fits_match_mpmath(self, monkeypatch):
        calls = recording(monkeypatch, "_slope")
        for args in command_args("geometry"):
            volume_report(args.n, args.R)
        assert len(calls) == 3  # the rows of three or more distinct radii
        for x, y, got in calls:
            assert slope_ulps(got, x, y)[0] <= 4.0

    def test_random_tables_match_mpmath(self):
        # decays like the package's fits, a log-log line with noise up to 0.1, stay within 4
        # ulp; pure noise, whose products cancel, within the docstring's bound, (3 c + 6) 2^-53
        rng = np.random.default_rng(38)
        for _ in range(1000):
            m = int(rng.integers(3, 26))
            x = np.log(np.sort(rng.uniform(1.0, 100.0, m)))
            y = (-rng.uniform(-2.0, 12.0) * x + rng.normal(0.0, 3.0)
                 + rng.normal(0.0, 10.0 ** rng.uniform(-16.0, -1.0), m))
            assert slope_ulps(_slope(x.tolist(), y.tolist()), x.tolist(), y.tolist())[0] <= 4.0
            x, y = rng.standard_normal(m).tolist(), rng.standard_normal(m).tolist()
            ulps, cond = slope_ulps(_slope(x, y), x, y)
            assert ulps <= (3.0 * cond + 6.0) / 2.0

    def test_edge_cases(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.polyfit warned RankWarning on equal x
            assert fit_exponent([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 1e-15, 0.0]) is None
            assert fit_exponent([2.0] * 4, [1.0, 0.5, 0.25, 0.125]) is None
            assert fit_exponent([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 1e-15, 0.5]) is not None
            assert _slope([1.0] * 3, [1.0, 2.0, 3.0]) is None
            assert math.isnan(fit_exponent([1.0, 2.0, 3.0], [1.0, math.inf, 0.5]))
            assert math.isnan(_slope([1.0, 2.0, 3.0], [math.inf, -math.inf, 0.0]))  # fsum raises
            assert math.isnan(_slope([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]))


class TestHarishChandra:
    def test_identity_exact(self):
        val, err = harish_chandra_xi(identity(3), samples=500, seed=0)
        assert val == 1.0 and err == 0.0

    def test_rejects_a_stack(self):
        with pytest.raises(InputError):
            harish_chandra_xi(GroupElement(np.stack([np.eye(3)] * 2)), samples=10)

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


class TestErrorPaths:
    def test_non_finite_derivative(self):
        # next to the identity d(g exp(sX)) has radius of convergence about d, so
        # order 150 overflows at d = 1e-3
        x = lie_basis(3)[0]
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        with pytest.raises(NumericError):
            lie_derivative(prof, GroupElement(expm(x, 1e-3)), x, 150)

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
        assert exact_ball_volume(n, r, 50) == math.inf
        assert exact_ball_volume(n, math.nextafter(r, 0.0), 50) < math.inf
        with pytest.raises(RangeError):
            weyl_ball_volume(n, r)
        below = r - 1e-9
        assert weyl_ball_volume(n, below)[0] == pytest.approx(exact_ball_volume(n, below, 50),
                                                              rel=1e-13)


def test_index_sequences():
    # orders 0..k of a call to order K > k are the call to order k, bit for bit, and
    # order 0 is the lifted symbol's value
    basis = lie_basis(3)
    g = GroupElement(np.diag([1.2, 1.0, 1 / 1.2]) @ expm(basis[7], 0.4))
    family = SymbolFamily.parse("radial-log-power:exponent=3,log_exponent=2")
    prof = family.build_profile()
    full = lie_derivative(prof, g, basis[5], 9)
    for k in range(10):
        assert np.array_equal(lie_derivative(prof, g, basis[5], k), full[:k + 1])
    assert full[0] == family.build_group_symbol()(g)


def test_factorials_are_float_products_inf_from_171():
    fact = taylor.factorials(200)
    assert fact[:23].tolist() == [float(math.factorial(k)) for k in range(23)]  # exact to 22!
    assert max(abs(fact[k] / math.factorial(k) - 1.0) for k in range(23, 171)) < 1e-13
    assert np.all(np.isinf(fact[171:]))
