import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from mcert import sphere
from mcert.errors import AccuracyError, DomainError, InputError, RangeError
from mcert.sphere import (_BLOCK, _CHUNK, _K_MAX, RigidityExponents, _derivative_chunks,
                          _derivative_table, _eigenvalue_chunks, _gauss_legendre,
                          _multiplicity_constant, _multiplicity_table, _recurrence_blocks,
                          averaging_operator, eigenvalue_table, multiplicities,
                          quadrature_table, schatten_derivative_sum, spectrum_report,
                          sphere_grid)


def reference_table(n, x, k_cap):
    """The sequential recurrence written into a preallocated array, one row per degree."""
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


@lru_cache(maxsize=None)
def _oracle_nonnegative(n, k_cap):
    """The recurrence at each x of ORACLE_ABS in exact integer arithmetic on a fixed
    point 128 bits below k_cap^-lambda, the least amplitude (2 lambda = n - 2 is an
    integer and each x a dyadic fraction, so only the floor of each step rounds),
    rounded to floats."""
    bits = 128 + (n - 2) * k_cap.bit_length() // 2
    ratios = [x.as_integer_ratio() for x in ORACLE_ABS]
    num = np.array([a for a, _ in ratios], dtype=object)
    shift = np.array([b.bit_length() - 1 for _, b in ratios], dtype=object)
    y2 = np.full(num.size, 1 << bits, dtype=object)
    y1 = (num << bits) >> shift
    out = [y2, y1]
    for k in range(2, k_cap + 1):
        y2, y1 = y1, ((((2 * k + n - 4) * num * y1) >> shift) - (k - 1) * y2) // (k + n - 3)
        out.append(y1)
    return np.ldexp(np.array(out[:k_cap + 1]).astype(float), -bits)


def signs(k_cap):
    """(-1)^k for k = 0..k_cap: phi_k(-1), and phi_k(-x) / phi_k(x)."""
    return np.where(np.arange(k_cap + 1) % 2 == 0, 1.0, -1.0)


def oracle_table(n, xs, k_cap):
    """The oracle at the floats xs (each |x| in ORACLE_ABS), shaped (k_cap + 1, xs.size)."""
    table = _oracle_nonnegative(n, DOUBLINGS[-1])[:k_cap + 1, np.searchsorted(ORACLE_ABS, np.abs(xs))]
    return np.where(xs < 0, signs(k_cap)[:, None], 1.0) * table


def amplitude_error(table, exact, window=64):
    """max over k of |table_k - exact_k| relative to the running amplitude, the largest
    |exact_j| with |j - k| <= window (phi_k oscillates and decays like k^-lambda)."""
    amp = sliding_window_view(np.pad(np.abs(exact), window), 2 * window + 1).max(axis=1)
    return float(np.max(np.abs(table - exact) / amp))


def assert_within_twice_sequential(got, seq, exact):
    """Column by column, tables shaped (degrees, x): the engine's error against the
    oracle is at most twice the sequential recurrence's at every tested x."""
    e_got = np.array([amplitude_error(g, e) for g, e in zip(got.T, exact.T)])
    e_seq = np.array([amplitude_error(q, e) for q, e in zip(seq.T, exact.T)])
    assert np.all(e_got <= 2.0 * e_seq), (e_got / e_seq).max()


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
TESTED_XS = np.unique(np.hstack(ENGINE_XS))  # the 43 distinct x of ENGINE_XS
ORACLE_ABS = np.unique(np.abs(TESTED_XS))


class TestRecurrenceEngine:
    @pytest.mark.parametrize("n", [3, 5, 8, 10])
    def test_table_equals_reference(self, n):
        # the blocked engine against the oracle: at most twice the sequential
        # recurrence's error at every x of ENGINE_XS and exact at x = +-1; an array x
        # has the bits of each x alone, and the table at each tail doubling is the
        # bytewise prefix of the deepest one
        k_cap = DOUBLINGS[-1]
        xs = np.append(TESTED_XS, [1.0, -1.0])
        table = eigenvalue_table(n, xs, k_cap)
        assert table.shape == (k_cap + 1, xs.size)
        assert np.all(table[:, -2] == 1.0) and np.all(table[:, -1] == signs(k_cap))
        assert_within_twice_sequential(table[:, :-2], reference_table(n, TESTED_XS, k_cap),
                                       oracle_table(n, TESTED_XS, k_cap))
        for i, x in enumerate(xs):
            assert eigenvalue_table(n, x, k_cap).tobytes() == table[:, i].tobytes()
        for x in ENGINE_XS:
            want = eigenvalue_table(n, x, k_cap)
            for k in DOUBLINGS:
                prefix = eigenvalue_table(n, x, k)
                assert prefix.shape == want[:k + 1].shape
                assert prefix.tobytes() == want[:k + 1].tobytes()

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_derivative_table_equals_reference(self, r):
        # rows k >= r are the raised-index table times the exact scale to 1e-13
        # relative, and at most twice the sequential recurrence's error against the
        # oracle times that scale at every x of ENGINE_XS; rows below r are 0, and
        # each table is the bytewise prefix of a deeper one
        k_cap = DOUBLINGS[-1]
        for n in (3, 4, 8, 16):
            scale = np.array([float(exact_scale(n, r, k)) for k in range(r, k_cap + 1)])[:, None]
            got = _derivative_table(n, r, TESTED_XS, k_cap)
            assert got.shape == (k_cap + 1, TESTED_XS.size)
            assert np.all(got[:r] == 0.0)
            want = scale * eigenvalue_table(n + 2 * r, TESTED_XS, k_cap - r)
            assert np.all(np.abs(got[r:] - want) <= 1e-13 * np.abs(want))
            assert_within_twice_sequential(
                got[r:], scale * reference_table(n + 2 * r, TESTED_XS, k_cap - r),
                scale * oracle_table(n + 2 * r, TESTED_XS, k_cap - r))
            for x in map(np.asarray, ENGINE_XS):
                deeper = _derivative_table(n, r, x, DOUBLINGS[5])
                for k in DOUBLINGS[:5]:
                    assert _derivative_table(n, r, x, k).tobytes() == deeper[:k + 1].tobytes()

    @pytest.mark.parametrize("n", [3, 8, 22])
    def test_oracle_is_the_30_digit_recurrence(self, n):
        # the fixed-point oracle rounds to the floats of the recurrence in 30-digit mpmath
        k_cap = 512
        for x in ORACLE_ABS[::6]:
            with mpmath.workdps(30):
                xm, want, y2, y1 = mpmath.mpf(x), [1.0, x], mpmath.mpf(1), mpmath.mpf(x)
                for k in range(2, k_cap + 1):
                    y2, y1 = y1, ((2 * k + n - 4) * xm * y1 - (k - 1) * y2) / (k + n - 3)
                    want.append(float(y1))
            got = oracle_table(n, np.array([x, -x]), k_cap)
            assert got[:, 0].tolist() == want and got[:, 1].tolist() == (signs(k_cap) * want).tolist()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 40), r=st.integers(0, 3), k_start=st.integers(0, 700),
           doublings=st.integers(0, 3),
           x=st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-1.0, 1.0)))
    def test_doubling_schedules_resume_one_shot_bits(self, n, r, k_start, doublings, x):
        # a stream read chunk by chunk, as the tail doublings read it, holds the bits of
        # the table at every doubling, for any start (criterion 03 starts at 2 k_used)
        caps = [k_start << i for i in range(doublings + 1)]
        one = _derivative_table(n, r, np.asarray(x), caps[-1])
        stream, read = _derivative_chunks(n, r, np.asarray(x), _K_MAX), np.empty(0)
        for k in caps:
            while read.size <= k:
                read = np.concatenate([read, next(stream)])
            table = _derivative_table(n, r, np.asarray(x), k)
            assert table.tobytes() == read[:k + 1].tobytes() == one[:k + 1].tobytes()
        if r == 0 and abs(x) == 1.0:
            assert np.all(one == (1.0 if x > 0 else signs(caps[-1])))
        elif r == 0:
            seq = reference_table(n, x, caps[-1])
            amp = sliding_window_view(np.pad(np.abs(seq), 64), 129).max(axis=1)
            assert np.all(np.abs(one - seq) <= 1e-10 * amp)

    @pytest.mark.parametrize("n, points", [(3, 1), (8, 1), (8, 5), (40, 41), (5, 200)])
    def test_chunks_have_the_bits_of_one_call(self, n, points):
        # the stream is y_0, y_1, then calls of at most _CHUNK blocks times points that
        # end with the block holding k_cap; its chunks resume each other with the bits
        # of one call over every block, and the table is their concatenation
        x = np.linspace(-0.9, 0.95, points)
        k_cap = 2 + _BLOCK * (3 * max(1, _CHUNK // points)) + 5
        chunks = list(_eigenvalue_chunks(n, x, k_cap))
        stop = (k_cap - 2) // _BLOCK + 1
        whole = _recurrence_blocks(0.5 * (n - 2), x, 0, stop, (x, np.ones_like(x)))
        assert chunks[0].tobytes() == np.stack([np.ones_like(x), x]).tobytes()
        assert np.concatenate(chunks[1:]).tobytes() == whole.tobytes()
        assert all(len(chunk) * points <= _BLOCK * max(points, _CHUNK) for chunk in chunks[1:])
        table = np.concatenate(chunks)[:k_cap + 1]
        assert eigenvalue_table(n, x, k_cap).tobytes() == table.tobytes()

    @pytest.mark.parametrize("n", [3, 4, 8, 16])
    def test_multiplicity_table_equals_exact(self, n):
        k_cap = DOUBLINGS[-1]
        table = _multiplicity_table(n, np.arange(k_cap + 1.0))
        want = np.array([float(m_k) for m_k in multiplicities(n, k_cap)])
        assert np.all(np.abs(table - want) <= 1e-13 * want)

    @pytest.mark.parametrize("m", [64, 66, 108, 120, 180, 200])
    def test_cached_rule_is_leggauss(self, m):
        x, w = _gauss_legendre(m)
        want_x, want_w = np.polynomial.legendre.leggauss(m)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
        assert _gauss_legendre(m)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_rule_cache_is_bounded(self):
        assert _gauss_legendre.cache_info().maxsize == 64


class TestEigenvalues:
    def test_degree_zero_is_one(self):
        xs = np.linspace(-1, 1, 11)
        for n in (3, 5, 8):
            assert np.allclose(eigenvalue_table(n, xs, 0), 1.0)
            assert np.allclose(quadrature_table(n, xs, 0), 1.0, atol=1e-13)

    def test_legendre_values_frozen(self):
        # n = 3 reduces to Legendre: P1(1/2) = 1/2, P2(1/2) = (3/4 - 1)/2
        assert eigenvalue_table(3, 0.5, 2).tolist() == pytest.approx([1.0, 0.5, -0.125],
                                                                    abs=1e-15)

    def test_normalized_at_one(self):
        for n in (3, 4, 6):
            assert eigenvalue_table(n, 1.0, 20) == pytest.approx(np.ones(21), abs=1e-12)

    def test_bounded_by_one(self):
        xs = np.linspace(-1, 1, 201)
        for n in (3, 4, 7):
            assert np.abs(eigenvalue_table(n, xs, 40)).max() <= 1.0 + 1e-12

    def test_recurrence_matches_quadrature(self):
        xs = np.linspace(-0.95, 0.95, 21)
        worst = max(float(np.abs(eigenvalue_table(n, xs, 50) - quadrature_table(n, xs, 50)).max())
                    for n in range(3, 9))
        assert worst <= 1e-10

    def test_quadrature_matches_legendre(self):
        # n = 3: the normalized eigenvalues are the Legendre polynomials P_k
        xs = np.linspace(-1.0, 1.0, 23)
        want = np.polynomial.legendre.legval(xs, np.eye(51))  # row k: P_k at xs
        assert np.abs(quadrature_table(3, xs, 50) - want).max() <= 1e-13

    def test_quadrature_matches_chebyshev_second_kind(self):
        # n = 4: U_k(x) / (k + 1), with U_k(cos t) = sin((k + 1) t) / sin t inside (-1, 1)
        # and U_k(+-1) = (+-1)^k (k + 1)
        t = np.arccos(np.linspace(-0.95, 0.95, 21))
        ks = np.arange(51)[:, None] + 1.0
        want = np.sin(ks * t) / (ks * np.sin(t))
        assert np.abs(quadrature_table(4, np.cos(t), 50) - want).max() <= 1e-13
        ends = np.stack([(-1.0) ** np.arange(51), np.ones(51)], axis=1)
        assert np.abs(quadrature_table(4, [-1.0, 1.0], 50) - ends).max() <= 1e-13

    def test_quadrature_rule_grows_with_n(self):
        # the weight sin^(n-3) t sharpens with n: a rule sized by the degree alone
        # misses the recurrence by 2e-10 at n = 150 and 2e-5 at n = 300
        xs = np.array([-1.0, -0.6, 0.0, 0.5, 0.95, 1.0])
        for n in (150, 200, 300, 344):
            for k_cap in (0, 5, 50):
                got = quadrature_table(n, xs, k_cap)
                assert got.shape == (k_cap + 1, 6)
                assert np.abs(got - eigenvalue_table(n, xs, k_cap)).max() <= 1e-13, (n, k_cap)

    def test_domain_check(self):
        for table in (eigenvalue_table, quadrature_table):
            with pytest.raises(DomainError):
                table(3, np.array(1.5), 2)
            with pytest.raises(DomainError):
                table(3, np.array([0.5, np.nan]), 2)
            with pytest.raises(InputError):
                table(2, np.array(0.5), 2)
            with pytest.raises(InputError):
                table(3, np.array(0.5), -1)

    def test_empty_x_gives_an_empty_table(self):
        for x in ([], np.empty((2, 0))):
            want = eigenvalue_table(3, x, 1)
            assert want.shape == (2,) + np.shape(x)
            assert quadrature_table(3, x, 1).shape == want.shape


def derivative(n, k, r, x):
    """r-th derivative of the degree-k normalized eigenvalue at x."""
    return _derivative_table(n, r, x, k)[k]


class TestDerivatives:
    def test_order_zero_passthrough(self):
        xs = np.linspace(-0.9, 0.9, 7)
        assert np.allclose(derivative(4, 6, 0, xs), eigenvalue_table(4, xs, 6)[6])

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
            assert multiplicities(n, 0) == [1]

    def test_n3_odd_law(self):
        assert multiplicities(3, 100) == [2 * k + 1 for k in range(101)]

    def test_n4_square_law(self):
        assert multiplicities(4, 100) == [(k + 1) ** 2 for k in range(101)]

    def test_range_guard(self):
        assert multiplicities(3, 200_000)[-1] == 400_001
        with pytest.raises(RangeError):
            multiplicities(3, 200_001)
        with pytest.raises(RangeError):
            multiplicities(3, 10 ** 6)

    def test_one_pass_equals_each_degree(self):
        for n in range(3, 17):  # C(n+k-1, k) - C(n+k-3, k-2), each degree on its own
            each = [math.comb(n + k - 1, k) - (math.comb(n + k - 3, k - 2) if k >= 2 else 0)
                    for k in range(401)]
            assert multiplicities(n, 400) == each

    def test_the_multiplicity_constant_is_the_least_sup(self):
        # m_k <= A (1+k)^{n-2} in integers at every k <= 20,000, with m_k stepped exactly by
        # m_{k+1} = m_k (n + 2k)(n + k - 2) / ((n + 2k - 2)(k + 1)): equal at k = 0 for n >= 4,
        # and within 1e-4 of A at k = 20,000 for n = 3, so no smaller A holds
        for n in range(3, 65):
            a = int(_multiplicity_constant(n))
            assert a == _multiplicity_constant(n) == (2 if n == 3 else 1)
            m_k = 1
            for k in range(20_001):
                assert m_k <= a * (1 + k) ** (n - 2), (n, k)
                if k < 20_000:
                    m_k = m_k * (n + 2 * k) * (n + k - 2) // ((n + 2 * k - 2) * (k + 1))
            if n in (3, 8, 64):  # the stepped m_k is the exact table's
                assert m_k == multiplicities(n, 20_000)[-1]
            if n == 3:
                assert m_k > (a - 1e-4) * 20_001

    @pytest.mark.parametrize("n", [3, 4, 8, 17])
    def test_equals_factorial_formula(self, n):
        def factorial_form(k):  # (n+k-3)! (n+2k-2) / ((n-2)! k!)
            num = math.factorial(n + k - 3) * (n + 2 * k - 2)
            q, rem = divmod(num, math.factorial(n - 2) * math.factorial(k))
            assert rem == 0
            return q

        assert multiplicities(n, 400) == [factorial_form(k) for k in range(401)]


# (n, r, p) for n in {3, 4, 5, 8, 16}, r <= 2 and p in {3, 4, 5, 6, 8, 10, 12} where the sum
# converges and stops by k = 15,000 at each x of TAIL_X.  Of the rest, eight tails are
# unreachable, and (5, 1, 12), (8, 0, 3), (8, 2, 10) and (16, 2, 4) stop at up to 256,761
# degrees where they are reachable, which to 16 k_used tabulates up to 4 million degrees.
TAIL_GRID = [(3, 0, p) for p in (8.0, 10.0, 12.0)] + [
    (n, r, p) for n, r, ps in [(4, 0, (5, 6, 8, 10, 12)), (5, 0, (4, 5, 6, 8, 10, 12)),
                               (8, 0, (4, 5, 6, 8, 10, 12)), (8, 1, (5, 6, 8, 10, 12)),
                               (8, 2, (12,)), (16, 0, (3, 4, 5, 6, 8, 10, 12)),
                               (16, 1, (4, 5, 6, 8, 10, 12)), (16, 2, (5, 6, 8, 10, 12))]
    for p in map(float, ps)]
TAIL_X = (0.0, 0.3, 0.5, 0.65, 0.9)


class TestSchattenSums:
    def test_divergence_flag(self):
        res = schatten_derivative_sum(5, 4.0, 1, 0.0)
        assert res.diverged and res.value is None

    def test_cauchy_stability(self):
        res = schatten_derivative_sum(5, 4.0, 0, 0.0)
        res2 = schatten_derivative_sum(5, 4.0, 0, 0.0, k_start=2 * res.k_used)
        assert res2.value >= res.value - 1e-15  # truncated sums increase with the cut
        assert abs(res.value - res2.value) < 1e-6

    def test_truncated_matches_direct_summation(self):
        # the certified sum is the truncated sum over degrees 0..k_used
        res = schatten_derivative_sum(5, 4.0, 0, 0.3)
        table = eigenvalue_table(5, 0.3, res.k_used).tolist()
        direct = sum(m_k * abs(v) ** 4
                     for m_k, v in zip(multiplicities(5, res.k_used), table)) ** 0.25
        assert res.value == pytest.approx(direct, rel=1e-12)

    def test_doublings_sum_the_one_shot_terms(self):
        # each degree's term is formed once and every truncation sums all terms in one
        # np.sum, so the value has the bits of the one-shot sum over degrees 0..k_used
        for n, p, r, x in [(3, 8.0, 0, 0.35), (8, 5.0, 1, -0.3), (5, 4.0, 0, 0.0)]:
            res = schatten_derivative_sum(n, p, r, x)
            table = np.abs(_derivative_table(n, r, np.asarray(x), res.k_used))
            total = float(np.sum(_multiplicity_table(n, np.arange(res.k_used + 1.0)) * table ** p))
            assert res.value == total ** (1.0 / p)

    def test_each_recurrence_call_holds_a_bounded_working_set(self, monkeypatch):
        # the n = 8, r = 1 sum stops at k = 11,692, 731 blocks, after a last truncation
        # that alone spans 219; each call steps at most _CHUNK blocks at one x, and its
        # temporaries peak well under 1 MiB
        calls = []

        def spy(lam, x, first, stop, entry):
            tracemalloc.start()
            try:
                return _recurrence_blocks(lam, x, first, stop, entry)
            finally:
                calls.append((stop - first, x.size, tracemalloc.get_traced_memory()[1]))
                tracemalloc.stop()

        monkeypatch.setattr(sphere, "_recurrence_blocks", spy)
        assert schatten_derivative_sum(8, 5.0, 1, -0.3).k_used == 11_692
        assert sum(blocks for blocks, points, _ in calls if points == 1) >= 731
        assert all(blocks * points <= _CHUNK for blocks, points, _ in calls)
        assert max(peak for _, _, peak in calls) < 1 << 20

    @pytest.mark.parametrize("n, p, r, x, k_used, calls", [
        (8, 5.0, 1, -0.3, 11_692, [64, 64] + [128] * 5),
        (12, 6.0, 2, -0.6, 714, [64]),
        (12, 6.0, 2, 0.1, 1_480, [64, 64])])
    def test_a_sum_steps_each_block_once(self, n, p, r, x, k_used, calls, monkeypatch):
        # the truncations pull one stream: its calls step consecutive blocks, each once,
        # on the schedule 64, 64, then 128 blocks, which ends with the block that
        # holds k_used
        blocks = []

        def spy(lam, xs, first, stop, entry):
            if xs.size == 1:  # the decay constant's 41-point tables aside
                blocks.append((first, stop))
            return _recurrence_blocks(lam, xs, first, stop, entry)

        monkeypatch.setattr(sphere, "_recurrence_blocks", spy)
        assert schatten_derivative_sum(n, p, r, x).k_used == k_used
        assert [first for first, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
        assert [stop - first for first, stop in blocks] == calls

    @pytest.mark.parametrize("n, r, p", TAIL_GRID)
    def test_the_terms_past_k_used_stay_below_the_tail(self, n, r, p):
        # summed to 16 k_used, the terms past k_used move the norm by no more than the
        # reported tail, with no slack, and that tail is at most 1e-6 of the norm
        for x in TAIL_X:
            res = schatten_derivative_sum(n, p, r, x)
            terms = (_multiplicity_table(n, np.arange(16 * res.k_used + 1.0))
                     * np.abs(_derivative_table(n, r, np.asarray(x), 16 * res.k_used)) ** p)
            total = float(np.sum(terms[:res.k_used + 1]))
            rest = float(np.sum(terms[res.k_used + 1:]))
            assert res.value == total ** (1.0 / p)
            assert (total + rest) ** (1.0 / p) - res.value <= res.tail_bound, x
            assert res.tail_bound <= 1e-6 * res.value

    @pytest.mark.parametrize("n, r, p", TAIL_GRID)
    def test_the_tail_rule_fails_one_degree_short(self, n, r, p, monkeypatch):
        # k_used is the least truncation the rule admits past the one before it: one
        # degree less, ended there by an unbounded tolerance, leaves a tail above 1e-6 of
        # the norm, unless the sum stopped where it started
        used = [schatten_derivative_sum(n, p, r, x).k_used for x in TAIL_X]
        monkeypatch.setattr(sphere, "_TAIL_TOL", math.inf)
        for x, k_used in zip(TAIL_X, used):
            if k_used > 64:
                short = schatten_derivative_sum(n, p, r, x, k_start=k_used - 1)
                assert short.k_used == k_used - 1
                assert short.tail_bound > 1e-6 * short.value, x

    def test_an_unreachable_tail_is_decided_at_the_start(self, monkeypatch):
        # at n = 3, p = 6 even the certified upper end S_64 + T_64 of the sum needs more
        # than _K_MAX degrees, so the AccuracyError comes after the first recurrence call
        blocks = []

        def spy(lam, xs, first, stop, entry):
            if xs.size == 1:  # the decay constant's 41-point tables aside
                blocks.append(stop - first)
            return _recurrence_blocks(lam, xs, first, stop, entry)

        monkeypatch.setattr(sphere, "_recurrence_blocks", spy)
        with pytest.raises(AccuracyError, match="tail tolerance unreachable within k_max"):
            schatten_derivative_sum(3, 6.0, 0, 0.5)
        assert blocks == [64]

    def test_interior_guard(self):
        with pytest.raises(DomainError):
            schatten_derivative_sum(5, 4.0, 0, 0.99)

    @pytest.mark.parametrize("k_start", [_K_MAX + 1, 2 ** 20, 2 ** 30])
    def test_truncation_start_past_k_max_rejected(self, k_start):
        # a start past the truncation cap would tabulate 2^30 degrees, tens of GiB
        with pytest.raises(InputError, match=f"k_start must be <= {_K_MAX}"):
            schatten_derivative_sum(5, 8.0, 0, 0.3, k_start=k_start)

    @pytest.mark.parametrize("k_start", [0, -64])
    def test_truncation_start_below_one_rejected(self, k_start):
        # a truncation of 0 degrees would double to 0 forever
        with pytest.raises(InputError):
            schatten_derivative_sum(5, 4.0, 0, 0.3, k_start=k_start)

    def test_nan_argument_rejected(self):
        with pytest.raises(DomainError):
            schatten_derivative_sum(3, 4.0, 0, math.nan)

    @pytest.mark.parametrize("p", [math.nan, 0.5, -4.0, math.inf])
    def test_bad_exponent_rejected(self, p):
        with pytest.raises(DomainError, match=rf"^p must lie in \[1.0, inf\), got {p}$"):
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
        # degrees 0..9 at once: f(y) is the table of eigenfunctions on the last axis
        f = lambda y: np.moveaxis(eigenvalue_table(3, np.clip(y @ pole, -1, 1), 9), 0, -1)
        for delta in (-0.5, 0.0, 0.9):
            got = averaging_operator(delta, f, self.pts)
            lam = eigenvalue_table(3, delta, 9)
            assert np.abs(got - lam * f(self.pts)).max() <= 1e-4

    @pytest.mark.parametrize("delta", [-0.5, 0.9])
    def test_each_latitude_circle_has_360_equally_spaced_nodes(self, delta):
        seen = []

        def f(y):
            seen.append(y)
            return y[..., 2]

        averaging_operator(delta, f, self.pts)
        (y,) = seen
        assert y.shape == (len(self.pts), 360, 3)
        assert np.abs(np.linalg.norm(y, axis=-1) - 1.0).max() <= 1e-14
        heights = np.einsum("nkc,nc->nk", y, self.pts)
        assert np.abs(heights - delta).max() <= 1e-14
        chords = np.linalg.norm(np.diff(y, axis=1), axis=-1)
        want = 2.0 * math.sqrt(1.0 - delta * delta) * math.sin(math.pi / 360)
        assert np.abs(chords - want).max() <= 1e-14

    def test_zero_point_is_domain_error(self):
        # before the normalization, which would warn of a division by zero and average NaN
        with pytest.raises(DomainError, match="^points must be nonzero$"):
            averaging_operator(0.5, lambda y: y[..., 2], [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])

    def test_delta_one_identity(self):
        f = lambda y: y[..., 0] ** 2 - y[..., 2]
        got = averaging_operator(1.0, f, self.pts)
        assert np.abs(got - f(self.pts)).max() <= 1e-13

    def test_eigensystem_table(self):
        xs = np.linspace(-0.9, 0.9, 5)
        table = eigenvalue_table(3, xs, 12)
        assert table.shape == (13, 5)
        for k in (0, 3, 12):  # a table is a prefix of every longer one
            assert np.array_equal(table[:k + 1], eigenvalue_table(3, xs, k))
        with pytest.raises(DomainError):
            eigenvalue_table(3, [0.5, 1.5], 12)
        with pytest.raises(InputError):
            eigenvalue_table(3, xs, -1)


def sphere_grid_by_loop(resolution_deg):
    """The grid node by node in Python floats: the reference for sphere_grid's one array."""
    lats = np.arange(-90.0 + resolution_deg, 90.0, resolution_deg)
    lons = np.arange(0.0, 360.0, resolution_deg)
    out = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    for la in np.deg2rad(lats):
        for lo in np.deg2rad(lons):
            out.append(np.array([math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo),
                                 math.sin(la)]))
    return np.array(out)


@pytest.mark.parametrize("resolution", [30.0, 15.0, 7.0, 1.0, 0.7, 100.0, 200.0])
def test_sphere_grid_has_the_bits_of_the_node_loop(resolution):
    got = sphere_grid(resolution)
    assert got.dtype == float and np.array_equal(got, sphere_grid_by_loop(resolution))


@pytest.mark.parametrize("resolution", [0.248, 0.1, 0.01, 1e-300])
def test_sphere_grid_past_the_node_cap_is_range_error(resolution):
    # 180 x 360 / 0.248^2 = 1,053,590 nodes bound the grid at 0.248, past the cap of 2^20;
    # at 1e-300 the node count alone is past the float range
    with pytest.raises(RangeError, match=f"^a grid at resolution_deg = {resolution!r} exceeds "):
        sphere_grid(resolution)


@pytest.mark.parametrize("resolution", [0.0, -5.0, np.nan, np.inf])
def test_sphere_grid_resolution_outside_the_domain_is_domain_error(resolution):
    with pytest.raises(DomainError,
                       match=rf"^resolution_deg must lie in \(0.0, inf\), got {resolution}$"):
        sphere_grid(resolution)


def test_empty_x_list_is_input_error():
    # the CLI's nargs="+" cannot send one; a library call is stopped before any table
    with pytest.raises(InputError, match="--x needs at least one value"):
        spectrum_report(3, 6.0, 0, [], 5)
