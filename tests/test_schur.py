import itertools
import math
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcert import schur
from mcert.errors import AccuracyError, DomainError, InputError, NumericError, RangeError
from mcert.cli import cmd_schur_bound
from mcert.composition import CompositionFrame
from mcert.euclidean import schur_infty_upper_bound
from mcert.rigidity import CONSISTENT, VIOLATED, profile_rigidity_records, rigidity_witness
from mcert.schur import (TruncatedSchurMultiplier, circulant_lower_bound, circulant_schur_bound,
                         frobenius_schur_bound, interpolated_schur_bound, schur_norm_exact_p2,
                         schur_norm_lower_bound)
from mcert.symbols import RadialProfile, SymbolFamily


def circulant(c):
    """C_ij = c[(i - j) mod N], entry by entry."""
    n = len(c)
    return np.array([[c[(i - j) % n] for j in range(n)] for i in range(n)])


def dft_l1(c):
    """(1/N) sum_k |sum_m c_m exp(-2 pi i k m / N)|: the p = infinity norm of circulant(c)."""
    n = len(c)
    k = np.arange(n)
    return float(np.sum(np.abs(np.exp(-2j * math.pi * np.outer(k, k) / n) @ c)) / n)


@pytest.fixture
def svd_calls(monkeypatch):
    """Records every numpy SVD made while the test runs, by the id of its thread: a search
    runs its starts on two threads where it may use two CPUs."""
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def schatten_norm(a, p):
    """l_p norm of the singular values, as the optimizer takes it from an SVD."""
    return schur._lp_norm(np.linalg.svd(a, compute_uv=False), p)


class TestSchattenNorm:
    def test_identity(self):
        for p in (1.0, 2.0, 3.0):
            assert schatten_norm(np.eye(8), p) == pytest.approx(8.0 ** (1.0 / p), rel=1e-13)
        assert schatten_norm(np.eye(8), math.inf) == 1.0

    def test_rank_one(self):
        u = np.arange(1.0, 6.0)
        v = np.ones(7)
        want = np.linalg.norm(u) * np.linalg.norm(v)
        for p in (1.0, 2.0, 5.0, math.inf):
            assert schatten_norm(np.outer(u, v), p) == pytest.approx(want, rel=1e-12)

    def test_frobenius_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        assert schatten_norm(a, 2.0) == pytest.approx(np.sqrt(np.sum(a * a)), abs=1e-12)

    def test_zero_padding_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        padded = np.zeros((9, 7))
        padded[:5, :5] = a
        for p in (1.0, 2.5, math.inf):
            assert schatten_norm(padded, p) == pytest.approx(schatten_norm(a, p), rel=1e-12)


class TestLowerBound:
    def test_all_ones_symbol(self):
        res = schur_norm_lower_bound(TruncatedSchurMultiplier(np.ones((10, 10))), math.inf, seed=0)
        assert res.bracket.lower == pytest.approx(1.0, abs=1e-8)

    def test_dominates_sup_entry(self):
        rng = np.random.default_rng(4)
        for p in (1.0, 2.0, 4.0, math.inf):
            m = TruncatedSchurMultiplier(rng.standard_normal((9, 9))
                                         + 1j * rng.standard_normal((9, 9)))
            res = schur_norm_lower_bound(m, p, seed=5)
            assert res.bracket.lower >= np.abs(m.symbol).max() - 1e-8

    def test_exact_p2_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            m = TruncatedSchurMultiplier(rng.standard_normal((8, 8)))
            res = schur_norm_lower_bound(m, 2.0, seed=7)
            assert res.bracket.lower == pytest.approx(schur_norm_exact_p2(m), abs=1e-6)

    def test_extra_start_of_another_shape_or_not_finite_rejected(self):
        # numpy would broadcast a (1, 8) start against the 8 x 8 symbol: its ratio, 1.6903
        # here, is no lower bound (the exact norm is max a max b = 0.9253, upper 1.4395)
        rng = np.random.default_rng(0)
        a = rng.uniform(0.5, 1.0, 8)
        b = rng.uniform(0.5, 1.0, 8)
        with pytest.raises(InputError):
            schur_norm_lower_bound(np.outer(a, b), 4.0, iterations=5, seed=0,
                                   extra_starts=[np.ones((1, 8))])
        with pytest.raises(InputError):  # not a warning and an SVD failure after 7 starts
            schur_norm_lower_bound(np.outer(a, b), 4.0, extra_starts=[np.full((8, 8), np.nan)])
        res = schur_norm_lower_bound(np.outer(a, b), 4.0, iterations=5, seed=0,
                                     extra_starts=[np.ones((8, 8))])
        assert res.bracket.lower <= a.max() * b.max() * (1.0 + 1e-12)
        assert res.best_input.shape == (8, 8)

    @pytest.mark.parametrize("p", [math.nan, 0.5, 0.0, -math.inf])
    def test_exponent_outside_range_rejected(self, p):
        with pytest.raises(DomainError, match=rf"^p must lie in \[1.0, inf\], got {p}$"):
            schur_norm_lower_bound(TruncatedSchurMultiplier(np.ones((3, 3))), p)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(8)
        m = TruncatedSchurMultiplier(rng.standard_normal((7, 7)))
        a = schur_norm_lower_bound(m, 4.0, seed=11)
        b = schur_norm_lower_bound(m, 4.0, seed=11)
        assert a.bracket.lower == b.bracket.lower

    def test_restriction_monotone_with_nested_starts(self):
        rng = np.random.default_rng(9)
        sym_big = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        small = TruncatedSchurMultiplier(sym_big[:6, :6])
        big = TruncatedSchurMultiplier(sym_big)
        res_small = schur_norm_lower_bound(small, math.inf, seed=1)
        pad = np.zeros((12, 12), dtype=complex)
        pad[:6, :6] = res_small.best_input
        res_big = schur_norm_lower_bound(big, math.inf, seed=1, extra_starts=[pad])
        assert res_small.bracket.lower <= res_big.bracket.lower + 1e-8

    def test_search_stops_at_the_improvement_that_closes_the_bracket(self):
        # at p = infinity the circulant bound is the exact norm 2 (the DFT is 2, 2, -2, 2);
        # the sup entry 1 is the floor, and the conjugate phase, the sign pattern of M,
        # reaches 2 on its first iteration
        sym = circulant(np.array([1.0, 1.0, -1.0, 1.0]))
        res = schur_norm_lower_bound(sym, math.inf)
        ends = res.bracket
        assert 2.0 <= ends.upper <= 2.0 * (1.0 + 1e-14)
        assert res.bracket_closed and ends.lower >= ends.upper / (1.0 + schur._STALL_RTOL)
        assert (res.best_start, res.best_iteration) == (1, 1)
        # not square: the Frobenius bound 8 stays open, and the Haagerup certificate of
        # the nonzero block, read off the first reprojection, closes it at 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            padded = schur_norm_lower_bound(np.vstack([sym, np.zeros(4)]), math.inf)
        assert padded.bracket_closed and padded.certificate_steps == 0
        ends = padded.bracket
        assert ends.lower == pytest.approx(res.bracket.lower, rel=1e-12)
        assert 2.0 <= ends.upper <= ends.lower * (1.0 + ends.allowance) * (1.0 + 1e-12)
        assert ends.allowance <= 1e-13

    def test_rejects_non_finite_symbol(self):
        for bad in (math.nan, math.inf):
            sym = np.ones((3, 3))
            sym[1, 2] = bad
            with pytest.raises(InputError):
                schur_norm_lower_bound(sym, 4.0)
            with pytest.raises(InputError):
                schur_norm_exact_p2(sym)

    def test_closed_bracket_returns_floor_without_svd(self, svd_calls):
        sym = circulant(np.array([3.0, 1.0, 0.5, 1.0]))  # positive definite: norm = 3
        res = schur_norm_lower_bound(sym, 4.0)
        assert res.bracket.lower == 3.0 and 3.0 <= res.bracket.upper <= 3.0 * (1.0 + 1e-14)
        assert (res.best_start, res.best_iteration, res.bracket_closed) == (-1, 0, True)
        assert res.best_input[np.unravel_index(np.argmax(np.abs(sym)), sym.shape)] == 1.0
        assert len(svd_calls) == 0

    def test_floor_is_the_exact_sup_entry_when_no_start_beats_it(self):
        # as a start, the matrix unit would report its ratio 3.760600531174466, one ulp
        # above the sup entry it equals, as start 0
        rng = np.random.default_rng(1064)
        m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        res = schur_norm_lower_bound(m, 4.0, iterations=10, seed=1)
        assert (res.best_start, res.best_iteration) == (-1, 0)
        assert res.bracket.lower == np.abs(m).max() == 3.7606005311744655

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0, math.inf])
    def test_no_start_has_index_0(self, p):
        # the matrix unit is a fixed point of the alternating map: it never runs
        for seed in range(8):
            rng = np.random.default_rng(1000 + seed)
            rows, cols = (int(k) for k in rng.integers(2, 25, size=2))
            m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            res = schur_norm_lower_bound(m, p, iterations=6, seed=seed)
            assert res.best_start != 0 and res.bracket.lower >= np.abs(m).max()
            if res.best_start == -1:
                assert res.bracket.lower == np.abs(m).max()

    def test_never_above_exact_value_from_start_orthogonal_to_ones(self):
        # Power iteration from the all-ones vector would miss this start's top
        # singular vector, which is orthogonal to it; a start normalized by
        # such an underestimate would be too long.
        n = 16
        k = np.arange(n)
        rng = np.random.default_rng(15)
        left = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        start = (2.0 * np.outer(left[:, 0], (-1.0) ** k) + np.outer(left[:, 1], np.ones(n))) \
            / math.sqrt(n)
        assert np.linalg.norm(start, 2) == pytest.approx(2.0, rel=1e-12)
        columns = [np.exp(2j * math.pi * k / n)]
        columns += [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)]
        for c in columns:
            res = schur_norm_lower_bound(circulant(c), math.inf, seed=1, extra_starts=[start])
            assert res.bracket.lower <= dft_l1(c) * (1.0 + 1e-12)


def svd_duality(x, p):
    """|X|_p and the dual element of X in S_q, both from the SVD."""
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    return schur._lp_norm(sv, p), schur._duality_map(u, sv, vt, schur._dual_exponent(p))


class TestDualStep:
    @pytest.mark.parametrize("p", [4.0, 6.0, 8.0, 16.0])
    def test_even_p_matches_svd_at_any_scale(self, p):
        rng = np.random.default_rng(int(p))
        for shape in ((1, 1), (3, 7), (9, 2), (32, 32), (128, 128), (128, 40)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            want_value, want_dual = svd_duality(x, p)
            for e in (-500, 0, 500):
                value, dual, warm = schur._dual_step(x * 2.0 ** e, p, None)
                assert value == pytest.approx(want_value * 2.0 ** e, rel=1e-12)
                assert np.linalg.norm(dual - want_dual) <= 1e-12 * np.linalg.norm(want_dual)
                assert warm is None

    def test_even_p_zero_matrix(self):
        value, dual, _ = schur._dual_step(np.zeros((3, 4), dtype=complex), 4.0)
        assert value == 0.0 and np.abs(dual).sum() == dual[0, 0] == 1.0

    def test_warm_power_pair_gives_top_singular_value(self):
        rng = np.random.default_rng(31)
        n = 40
        for _ in range(5):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x += 3.0 * np.outer(rng.standard_normal(n), rng.standard_normal(n))  # a clear top
            u, sv, vt = np.linalg.svd(x)
            # warm start: the top right vector of a nearby matrix
            nearby = np.linalg.svd(x + 1e-3 * rng.standard_normal((n, n)))[2][0].conj()
            value, dual, warm = schur._dual_step(x, math.inf, nearby)
            assert isinstance(warm, np.ndarray)  # the power iteration settled
            assert value == pytest.approx(sv[0], rel=1e-13)
            assert value <= sv[0] * (1.0 + 1e-15)
            assert np.linalg.norm(dual - np.outer(u[:, 0], vt[0])) <= 1e-12
            assert np.linalg.norm(warm) == pytest.approx(1.0, rel=1e-14)

    def test_unsettled_power_iteration_falls_back_to_svd(self, svd_calls):
        x = np.diag([1.0, 1.0 - 1e-9, 0.5]).astype(complex)  # no gap to settle on
        value, dual, warm = schur._dual_step(x, math.inf, np.ones(3) / math.sqrt(3.0))
        assert warm is False and len(svd_calls) == 1
        assert value == 1.0
        # and the start stays on the SVD path
        assert schur._dual_step(x, math.inf, warm)[2] is False and len(svd_calls) == 2


class TestSvdCount:
    def test_schur_bound_at_p2_makes_no_svd(self, svd_calls):
        rng = np.random.default_rng(32)
        m = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        rep = cmd_schur_bound(m, 2.0, seed=0, iterations=10)
        assert len(svd_calls) == 0
        row = rep.tables["bound"][0]
        assert row["lower_bound"] == row["sup_entry"] == np.abs(m).max()
        assert row["sup_entry"] <= row["upper_bound"] <= row["sup_entry"] * (1.0 + 1e-14)

    @pytest.mark.parametrize("p", [4.0, math.inf])
    def test_one_svd_per_iteration_after_the_first(self, svd_calls, monkeypatch, p):
        steps = []  # per first half-step: whether it took no SVD
        real = schur._dual_step

        def recording(x, q, warm):  # the SVDs of this thread: another runs other starts
            before = svd_calls.count(threading.get_ident())
            out = real(x, q, warm)
            no_svd = q == 4.0 or (warm is not None and isinstance(out[2], np.ndarray))
            assert svd_calls.count(threading.get_ident()) - before == (0 if no_svd else 1)
            steps.append(no_svd)
            return out

        monkeypatch.setattr(schur, "_dual_step", recording)
        rng = np.random.default_rng(33)
        m = rng.random((48, 48))  # positive: a clear top singular pair at every step
        res = schur_norm_lower_bound(m, p, seed=1, iterations=12)
        if math.isinf(p):
            # the conjugate phase goes on as a certificate, which closes the bracket:
            # one reprojection SVD and one settled power iteration per step
            assert res.bracket_closed and res.best_start == 1 and res.certificate_steps > 0
            starts, closing = 1, 1  # the conjugate phase alone; the matrix unit never runs
        else:
            starts, closing = 7, 0  # the conjugate phase and six random starts
            assert not res.bracket_closed and res.certificate_steps == 0
        assert len(steps) > 2 * starts + res.certificate_steps
        # one SVD per iteration but the last of each start (the closing start ends on a
        # reprojection), beside the first half-steps and, at p = infinity, one start norm
        # per start
        norms = starts if math.isinf(p) else 0
        assert len(svd_calls) == norms + steps.count(False) + len(steps) - starts + closing
        assert steps.count(True) >= len(steps) - (starts if math.isinf(p) else 0)


def gaussian(seed, shape, is_complex=True):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(shape)
    return m + 1j * rng.standard_normal(shape) if is_complex else m


def toeplitz(kernel, n):
    """M_ij = kernel(i - j) on n points."""
    i = np.arange(n)
    return kernel((i[:, None] - i[None, :]).astype(float))


# (name, symbol, p, value, upper, best_start, best_iteration) of searches at the default
# step cap, as every start run to its cap or stall gives them: the climb rule keeps them
FINITE_P_BRACKETS = [
    ("complex16-p1.5", lambda: gaussian(1, (16, 16)), 1.5, 3.448494074831156,
     6.232097401321293, -1, 0),
    ("complex32-p4", lambda: gaussian(2, (32, 32)), 4.0, 3.6978789376097647,
     10.690978509147865, 5, 40),
    # start 5 wins at its last step: a slow climb that the rule must not cut
    ("complex64-p4", lambda: gaussian(54, (64, 64)), 4.0, 3.8306783114543324,
     15.560739376645062, 5, 40),
    ("complex24-p6", lambda: gaussian(3, (24, 24)), 6.0, 3.782151402827674,
     14.243325184989068, 2, 40),
    ("real32-p1.5", lambda: gaussian(4, (32, 32), False), 1.5, 3.2669820945815617,
     6.87794571732499, -1, 0),
    ("real48-p4", lambda: gaussian(5, (48, 48), False), 4.0, 3.2835604878882627,
     11.353963194016542, -1, 0),
    ("real16-p6", lambda: gaussian(6, (16, 16), False), 6.0, 3.050979726276049,
     10.058831925397525, -1, 0),
    ("complex24x40-p4", lambda: gaussian(7, (24, 40)), 4.0, 3.9597982352663994,
     28.938421657227504, -1, 0),
    ("real40x16-p1.5", lambda: gaussian(8, (40, 16), False), 1.5, 3.2339018997770634,
     10.206432339337466, -1, 0),
    ("gauss-kernel32-p4", lambda: toeplitz(lambda d: np.exp(-(d / 6.0) ** 2), 32), 4.0, 1.0,
     2.633967793170246, -1, 0),
    ("tanh-kernel48-p6", lambda: toeplitz(lambda d: np.tanh(d / 4.0), 48), 6.0,
     1.4372388040082142, 6.327683874984886, 7, 40),
    ("triangle32-p4", lambda: np.tril(np.ones((32, 32))), 4.0, 1.1668125052353908,
     2.5800880313455345, 1, 40),
    ("triangle24-p1.5", lambda: np.tril(np.ones((24, 24))), 1.5, 1.065048786652667,
     1.8068646803865847, 1, 40),
]


@pytest.mark.parametrize("symbol, p, value, upper, best_start, best_iteration",
                         [case[1:] for case in FINITE_P_BRACKETS],
                         ids=[case[0] for case in FINITE_P_BRACKETS])
def test_climb_rule_keeps_every_finite_p_bracket(symbol, p, value, upper, best_start,
                                                 best_iteration):
    res = schur_norm_lower_bound(symbol(), p)
    assert res.bracket.lower == pytest.approx(value, rel=1e-12)
    assert res.bracket.upper == pytest.approx(upper, rel=1e-12)
    assert (res.best_start, res.best_iteration) == (best_start, best_iteration)


# Counted on these draws: without the climb rule every start runs to the cap, 7 x 9 = 63
@pytest.mark.parametrize("n, ceiling", [(32, 45), (64, 49), (128, 56)])
def test_climb_rule_ends_starts_that_cannot_reach_the_best_value(svd_calls, n, ceiling):
    res = schur_norm_lower_bound(gaussian(0, (n, n)), 4.0, iterations=10)
    assert res.best_start == -1  # the sup-entry floor held
    assert len(svd_calls) <= ceiling


def test_a_start_takes_the_same_steps_after_a_start_that_beats_the_floor(monkeypatch):
    # the climb rule tests a start against the floor and its own best value alone: a first
    # start well above the floor leaves the steps of every later start as they were
    m = gaussian(2, (32, 32))
    strong = schur_norm_lower_bound(m, 4.0).best_input  # 3.698, the floor 3.565
    lanes(monkeypatch, 1)
    steps = []  # per start, its first half-steps
    real_starts, real_normalized, real_step = schur._starts, schur._normalized, schur._dual_step

    def normalized(a0, p):  # once per start, at its first iteration
        steps.append(0)
        return real_normalized(a0, p)

    def step(x, p, warm):
        steps[-1] += 1
        return real_step(x, p, warm)

    monkeypatch.setattr(schur, "_normalized", normalized)
    monkeypatch.setattr(schur, "_dual_step", step)
    res = schur_norm_lower_bound(m, 4.0, iterations=10)
    alone = list(steps)
    monkeypatch.setattr(schur, "_starts", lambda *args: itertools.chain([strong],
                                                                        real_starts(*args)))
    steps.clear()
    after = schur_norm_lower_bound(m, 4.0, iterations=10)
    assert res.bracket.lower < after.bracket.lower
    assert after.best_start == 1 and not after.bracket_closed
    assert len(alone) == 7 and steps[1:] == alone


def fields(res):
    """Every field of a search's result, the best input by its bytes."""
    return (res.bracket, res.best_start, res.best_iteration, res.bracket_closed,
            res.certificate_steps, res.best_input.dtype, res.best_input.tobytes())


THREAD = threading.Thread


class IdleThread:
    """A helper lane that never runs: the calling lane then runs every start, one after
    another, the reference the two lanes must match bit for bit."""

    def __init__(self, target):
        pass

    def start(self):
        pass

    def join(self):
        pass


def lanes(monkeypatch, count):
    monkeypatch.setattr(schur.threading, "Thread", IdleThread if count == 1 else THREAD)


LANE_SYMBOLS = [
    ("complex12", lambda: gaussian(11, (12, 12))),
    ("real16", lambda: gaussian(12, (16, 16), False)),
    ("complex10x18", lambda: gaussian(13, (10, 18))),
    ("triangle12", lambda: np.tril(np.ones((12, 12)))),
    ("tanh-kernel16", lambda: toeplitz(lambda d: np.tanh(d / 4.0), 16)),
]


class TestLanes:
    """The starts that run with no p = infinity certificate give the same result, bit for
    bit, on one lane and on two, and leave no thread behind."""

    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0, 4.0, 6.0, 8.0])
    @pytest.mark.parametrize("name, symbol", LANE_SYMBOLS, ids=[s[0] for s in LANE_SYMBOLS])
    def test_two_lanes_give_the_one_lane_result(self, monkeypatch, name, symbol, p):
        m = symbol()
        extra = [np.exp(1j * np.add.outer(np.arange(m.shape[0]), np.arange(m.shape[1])))]
        baseline = threading.active_count()
        for iterations in (3, 10, 40):
            for extra_starts in ((), extra):
                got = []
                for count in (1, 2):
                    lanes(monkeypatch, count)
                    got.append(fields(schur_norm_lower_bound(m, p, iterations, seed=iterations,
                                                             extra_starts=extra_starts)))
                    assert threading.active_count() == baseline
                assert got[0] == got[1], (iterations, len(extra_starts))

    @pytest.mark.parametrize("patch", ["stalled", "residual"])
    def test_two_lanes_after_a_certificate_ends(self, monkeypatch, patch):
        # stalled: a factorization value held 1e-7 above its own, so the certificate gives
        # up and the later starts run without one; residual: the certificate closes on a
        # bound above the a priori one, and its own start goes on without one
        if patch == "stalled":
            real = schur._factorization
            monkeypatch.setattr(schur, "_factorization", lambda *args: real(*args) * (1 + 1e-7))
        else:
            monkeypatch.setattr(schur, "_haagerup_upper", lambda *args: math.inf)
        baseline = threading.active_count()
        for seed in range(4):
            m = gaussian(20 + seed, (16 + 8 * seed, 16 + 8 * seed), is_complex=seed % 2 == 0)
            got = []
            for count in (1, 2):
                lanes(monkeypatch, count)
                got.append(fields(schur_norm_lower_bound(m, math.inf, iterations=10, seed=seed)))
                assert threading.active_count() == baseline
            assert got[0] == got[1], seed
            assert not got[0][3] and got[0][4] > 0  # certificate steps, then plain ones

    def test_both_lanes_run_starts(self, monkeypatch):
        lanes(monkeypatch, 2)
        threads, second = set(), threading.Event()
        real = schur._normalized

        def normalized(a0, p):  # the first start waits until another thread draws one
            threads.add(threading.get_ident())
            if len(threads) > 1:
                second.set()
            second.wait(timeout=10.0)
            return real(a0, p)

        monkeypatch.setattr(schur, "_normalized", normalized)
        res = schur_norm_lower_bound(gaussian(30, (16, 16)), 4.0, iterations=5)
        assert len(threads) == 2 and threading.get_ident() in threads
        lanes(monkeypatch, 1)
        monkeypatch.setattr(schur, "_normalized", real)
        assert fields(res) == fields(schur_norm_lower_bound(gaussian(30, (16, 16)), 4.0,
                                                            iterations=5))

    def test_concurrent_searches_under_fast_switching(self, monkeypatch):
        # four searches at once, each on two lanes: eight threads, switching every
        # microsecond, and each search keeps its one-lane bits
        cases = [(gaussian(40 + k, (12, 16)), p) for k, p in enumerate((1.5, 3.0, 4.0, 6.0))]
        lanes(monkeypatch, 1)
        expected = [fields(schur_norm_lower_bound(m, p, iterations=10)) for m, p in cases]
        lanes(monkeypatch, 2)
        got = [None] * len(cases)

        def search(k):
            got[k] = fields(schur_norm_lower_bound(*cases[k], iterations=10))

        threads = [threading.Thread(target=search, args=(k,)) for k in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected


def planted(monkeypatch, position, wait_for_it=False):
    """Make the start at ``position`` (from 1) raise a NumericError in its normalization;
    with ``wait_for_it`` every earlier start waits there until the planted one has run."""
    real_starts, real_normalized = schur._starts, schur._normalized
    marker, ran = np.ones((1, 1)), threading.Event()

    def starts(sym, seed, extra_starts):
        for k, a0 in enumerate(real_starts(sym, seed, extra_starts), start=1):
            yield marker if k == position else a0

    def normalized(a0, p):
        if a0 is marker:
            ran.set()
            raise NumericError("planted")
        if wait_for_it:
            ran.wait(timeout=10.0)
        return real_normalized(a0, p)

    monkeypatch.setattr(schur, "_starts", starts)
    monkeypatch.setattr(schur, "_normalized", normalized)
    return ran


class TestLaneErrors:
    """A start's exception is raised on the calling thread when, and only when, the search
    one start after another would reach it."""

    def test_error_after_the_start_that_reaches_the_target_does_not_surface(self, monkeypatch):
        m = np.tril(np.ones((16, 16)))
        lanes(monkeypatch, 1)
        reached = schur_norm_lower_bound(m, 4.0, iterations=10)
        assert reached.best_start == 1 and reached.bracket.lower > 1.0
        # an upper end the first start's value meets: the search stops at that start
        monkeypatch.setattr(schur, "interpolated_schur_bound", lambda *args: reached.bracket.lower)
        expected = fields(schur_norm_lower_bound(m, 4.0, iterations=10))
        assert expected[1] == 1 and expected[3]  # closed by the first start
        baseline = threading.active_count()
        for count in (1, 2):
            lanes(monkeypatch, count)
            ran = planted(monkeypatch, 2, wait_for_it=count == 2)
            assert fields(schur_norm_lower_bound(m, 4.0, iterations=10)) == expected
            assert ran.is_set() == (count == 2)  # the second lane ran it, and it was dropped
            assert threading.active_count() == baseline
            monkeypatch.undo()
            monkeypatch.setattr(schur, "interpolated_schur_bound",
                                lambda *args: reached.bracket.lower)

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("position", [1, 2, 7])
    def test_error_in_a_start_the_search_reaches_is_raised_here(self, monkeypatch, count,
                                                                position):
        lanes(monkeypatch, count)
        planted(monkeypatch, position)
        raised = []
        real_search = schur._Search.run

        def run(self):  # records the thread the error reaches
            try:
                return real_search(self)
            except NumericError:
                raised.append(threading.get_ident())
                raise

        monkeypatch.setattr(schur._Search, "run", run)
        baseline = threading.active_count()
        with pytest.raises(NumericError, match="^planted$"):
            schur_norm_lower_bound(gaussian(31, (16, 16)), 4.0, iterations=10)
        assert raised == [threading.get_ident()]
        assert threading.active_count() == baseline


class TestInterpolatedBound:
    def test_endpoints(self):
        rng = np.random.default_rng(34)
        m = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        upper = frobenius_schur_bound(m)
        sup = np.abs(m).max()
        assert interpolated_schur_bound(m, math.inf, upper) == upper
        assert interpolated_schur_bound(m, 1.0, upper) == upper
        assert sup <= interpolated_schur_bound(m, 2.0, upper) <= sup * (1.0 + 1e-14)
        # r = max(p, p') makes p and its dual exponent agree
        assert interpolated_schur_bound(m, 4.0, upper) == pytest.approx(
            interpolated_schur_bound(m, 4.0 / 3.0, upper), rel=1e-14)
        assert interpolated_schur_bound(m, 4.0, upper) == pytest.approx(
            math.sqrt(sup * upper), rel=1e-14)

    def test_zero_symbol(self):
        assert interpolated_schur_bound(np.zeros((3, 3)), 4.0, 0.0) == 0.0

    @pytest.mark.parametrize("p", [math.nan, 0.5])
    def test_rejects_exponent_outside_range(self, p):
        with pytest.raises(DomainError, match=rf"^p must lie in \[1.0, inf\], got {p}$"):
            interpolated_schur_bound(np.ones((2, 2)), p, 2.0)

    @pytest.mark.parametrize("upper", [-1.0, math.nan, 0.5])
    def test_rejects_a_bound_below_the_sup_entry(self, upper):
        # no certified bound of a Schur multiplier lies below its S_2 norm, the sup entry
        with pytest.raises(DomainError,
                           match=rf"^upper_inf must lie in \[1.0, inf\], got {upper}$"):
            interpolated_schur_bound(np.ones((3, 3)), 4.0, upper)
        assert interpolated_schur_bound(np.ones((3, 3)), 4.0, math.inf) == math.inf
        assert interpolated_schur_bound(np.ones((3, 3)), 4.0, 1.0) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["random", "circulant", "perturbed circulant"]),
       st.one_of(st.floats(min_value=1.0, max_value=math.inf), st.sampled_from([1.0, 2.0, 4.0])))
# interpolating min(Frobenius, circulant) rounds an ulp above the other bound's interpolation
@example(rows=3, cols=3, seed=1, kind="random", p=2.0)
@example(rows=3, cols=3, seed=53, kind="random", p=2.0)
def test_sup_entry_lower_interpolated_frobenius_in_order(rows, cols, seed, kind, p):
    rng = np.random.default_rng(seed)
    if kind == "random":
        sym = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    else:
        sym = circulant(rng.standard_normal(rows) + 1j * rng.standard_normal(rows))
        if kind == "perturbed circulant":
            sym += 1e-2 * rng.standard_normal((rows, rows))
    res = schur_norm_lower_bound(sym, p, seed=seed, iterations=15)
    # the optimizer's ratio may overshoot the exact norm by its own rounding
    assert np.abs(sym).max() <= res.bracket.lower <= res.bracket.upper * (1.0 + 1e-12)
    assert res.bracket.upper <= interpolated_schur_bound(sym, p, frobenius_schur_bound(sym))
    if sym.shape[0] == sym.shape[1]:
        assert res.bracket.upper <= interpolated_schur_bound(sym, p, circulant_schur_bound(sym))


class TestUpperBound:
    def test_constant_symbol(self):
        ub = schur_infty_upper_bound(lambda x, y: np.full(x.shape[:-1], 2.5 + 0j), 1, 1)
        assert ub.value == pytest.approx(2.5, rel=1e-12)
        assert ub.fourier_l1 == pytest.approx(2.5, rel=1e-12)

    @pytest.mark.parametrize("bad", [complex(0.0, math.inf), complex(0.0, math.nan),
                                     complex(math.inf, 0.0)])
    def test_non_finite_sample_is_accuracy_error(self, bad):
        # an infinite imaginary part alone makes value and certified NaN
        with pytest.raises(AccuracyError, match="non-finite"):
            schur_infty_upper_bound(lambda x, y: np.where(x[..., 0] < 0.5, bad, 1.0 + 0j), 1, 1)

    def test_rank_one_phase(self):
        # exp(2 pi i (x+y)) factorizes: the true multiplier norm is 1
        ub = schur_infty_upper_bound(
            lambda x, y: np.exp(2j * math.pi * (x[..., 0] + y[..., 0])), 1, 1)
        assert ub.fourier_l1 == pytest.approx(1.0, abs=1e-10)
        assert ub.value >= 1.0
        want = 1.0 + 4 * math.pi + 4 * math.pi ** 2  # sum of the four L2 norms
        assert ub.value == pytest.approx(want, rel=1e-10)

    def test_upper_dominates_sampled_lower(self):
        rng = np.random.default_rng(12)
        deg = 3
        for trial in range(8):
            c = (rng.standard_normal((2 * deg + 1, 2 * deg + 1))
                 + 1j * rng.standard_normal((2 * deg + 1, 2 * deg + 1)))
            decay = np.exp(-0.7 * (np.abs(np.arange(-deg, deg + 1))[:, None]
                                   + np.abs(np.arange(-deg, deg + 1))[None, :]))
            c = c * decay

            def sym(x, y, c=c):
                out = np.zeros(np.broadcast_shapes(x[..., 0].shape, y[..., 0].shape),
                               dtype=complex)
                for a in range(-deg, deg + 1):
                    for b in range(-deg, deg + 1):
                        out = out + c[a + deg, b + deg] * np.exp(
                            2j * math.pi * (a * x[..., 0] + b * y[..., 0]))
                return out

            ub = schur_infty_upper_bound(sym, 1, 1)
            xs = (np.arange(20) + 0.5) / 20.0
            section = sym(xs[:, None, None], xs[None, :, None])
            lb = schur_norm_lower_bound(TruncatedSchurMultiplier(section), math.inf, seed=trial)
            assert ub.certified >= lb.bracket.lower - 1e-9
            assert ub.value >= lb.bracket.lower - 1e-9


class TestCirculantBound:
    def test_exact_on_circulants_at_p_infinity(self):
        rng = np.random.default_rng(16)
        for n in (1, 2, 5, 8, 13):
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            want = dft_l1(c)
            assert want <= circulant_schur_bound(circulant(c)) <= want * (1.0 + 1e-12)

    def test_deviation_term(self):
        sym = circulant(np.array([1.0, 0.0, 0.0, 0.0]))
        sym[2, 3] = 0.5  # one entry off the circulant pattern
        assert circulant_schur_bound(sym) == pytest.approx(1.0 + 2.0 * 0.5, rel=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            circulant_schur_bound(np.ones((3, 4)))

    @pytest.mark.parametrize("e", [600, -600])
    def test_power_of_two_scaling_is_exact(self, e):
        # |c|_2 of the rounding allowance overflows at 2^600 and underflows at 2^-600
        rng = np.random.default_rng(17)
        for n in (1, 4, 13):
            sym = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            scaled = circulant_schur_bound(sym * 2.0 ** e)
            assert math.isfinite(scaled) and scaled == circulant_schur_bound(sym) * 2.0 ** e

    @pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
    def test_past_the_float_range_is_inf_and_leaves_the_frobenius_bound(self, p):
        # diag(a, -a) deviates from its circulant a I by 2a: U = a + 2 sqrt(2) a overflows
        # at a = 6e307, while sqrt(2) |M|_F = 2a fits
        sym = np.diag([6e307, -6e307])
        assert circulant_schur_bound(sym) == math.inf
        assert frobenius_schur_bound(sym) == pytest.approx(1.2e308, rel=1e-14)
        res = schur_norm_lower_bound(sym, p)
        assert 6e307 <= res.bracket.lower <= res.bracket.upper <= frobenius_schur_bound(sym)


class TestFrobeniusBound:
    def test_value_and_trace_norm(self):
        rng = np.random.default_rng(21)
        for shape in ((1, 1), (1, 6), (5, 3), (8, 8)):
            sym = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got = frobenius_schur_bound(sym)
            want = math.sqrt(min(shape)) * np.linalg.norm(sym)
            assert got == pytest.approx(want, rel=1e-14)
            assert got >= np.linalg.svd(sym, compute_uv=False).sum()

    def test_one_entry_row_is_tight(self):
        # the multiplier norm of a 1 x 5 symbol is its sup entry
        sym = np.zeros((1, 5))
        sym[0, 3] = -2.5
        assert 2.5 <= frobenius_schur_bound(sym) <= 2.5 * (1.0 + 1e-14)

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            frobenius_schur_bound(np.zeros((0, 3)))

    @pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
    def test_past_the_float_range_is_inf_and_leaves_the_circulant_bound(self, p):
        # |M|_F = 1.4e308 fits and sqrt(2) |M|_F does not; the circulant bound is 7e307
        sym = np.full((2, 2), 7e307)
        assert frobenius_schur_bound(sym) == math.inf
        res = schur_norm_lower_bound(sym, p)
        assert res.bracket.lower == 7e307 and 7e307 <= res.bracket.upper <= 7e307 * (1.0 + 1e-13)

    def test_only_bound_past_the_float_range_is_range_error(self):
        # a non-square symbol has no circulant bound
        with pytest.raises(RangeError, match="float range"):
            schur_norm_lower_bound(np.full((2, 3), 1e308), 4.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=10_000), st.sampled_from([1.0, 2.0, 4.0, math.inf]))
def test_frobenius_bound_dominates_optimizer(rows, cols, seed, p):
    rng = np.random.default_rng(seed)
    sym = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    res = schur_norm_lower_bound(sym, p, seed=seed, iterations=15)
    assert frobenius_schur_bound(sym) >= res.bracket.lower


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000),
       st.booleans(), st.sampled_from([0.0, 1e-3, 0.3]),
       st.sampled_from([1.0, 2.0, 4.0, math.inf]))
def test_circulant_bound_dominates_optimizer(n, seed, is_complex, perturbation, p):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) + (1j * rng.standard_normal(n) if is_complex else 0.0)
    sym = circulant(c) + perturbation * rng.standard_normal((n, n))
    res = schur_norm_lower_bound(sym, p, seed=seed, iterations=15)
    assert circulant_schur_bound(sym) >= res.bracket.lower


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=64), st.integers(min_value=0, max_value=10_000),
       st.booleans(), st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 10.0, math.inf]))
def test_circulant_bracket_in_order_at_its_dense_ratio(n, seed, is_complex, p):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) + (1j * rng.standard_normal(n) if is_complex else 0.0)
    res = circulant_lower_bound(c, p, seed=seed)
    assert np.abs(c).max() <= res.bracket.lower <= res.bracket.upper
    # the upper end is the interpolated circulant bound of the dense symbol, to the bit
    assert res.bracket.upper == interpolated_schur_bound(circulant(c), p,
                                                 circulant_schur_bound(circulant(c)))
    # the value is the S_p ratio of the circulant input it reports, taken by SVD
    a = circulant(res.best_column)
    dense = schatten_norm(circulant(c) * a, p) / schatten_norm(a, p)
    assert dense == pytest.approx(res.bracket.lower, rel=1e-12)
    if math.isinf(p):  # the circulant bound is the norm, and one step attains it
        assert res.bracket_closed


def oracle_symbol(kind, rows, cols, rng, is_complex):
    """(M, |S_M|_{S_inf -> S_inf} to 40 digits) for a symbol whose norm has a closed form;
    small integer entries keep every product exact, so the float matrix is that symbol."""
    def draw(*shape):
        x = rng.integers(-4, 5, size=shape).astype(complex)
        return x + 1j * rng.integers(-4, 5, size=shape) if is_complex else x

    def top(v):  # max |v_i| of an integer vector
        return mpmath.sqrt(max(int(z.real) ** 2 + int(z.imag) ** 2 for z in v.ravel()))

    if kind == "rank one":  # D(a) A D(b): max|a| max|b|, reached at a matrix unit
        a, b = draw(rows), draw(cols)
        return np.outer(a, b), top(a) * top(b)
    if kind == "psd":  # S_M is completely positive: its norm is |S_M(I)| = max M_ii
        b = draw(rows, int(rng.integers(1, rows + 1)))
        m = b @ b.conj().T
        return m, mpmath.mpf(int(m.diagonal().real.max()))
    c = draw(rows)  # circulant: (1/N) sum_k |c^_k| (Bozejko-Fendler)
    dft = [abs(mpmath.fsum(mpmath.mpc(complex(c[j])) * mpmath.expjpi(mpmath.mpf(-2 * k * j) / rows)
                           for j in range(rows))) for k in range(rows)]
    return circulant(c), mpmath.fsum(dft) / rows


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=24),
       st.integers(min_value=0, max_value=10_000), st.booleans(),
       st.sampled_from(["rank one", "psd", "circulant"]))
@example(rows=24, cols=24, seed=0, is_complex=True, kind="psd")
@example(rows=17, cols=5, seed=3, is_complex=False, kind="rank one")
# a dual vector that vanishes on nonzero columns (a matrix unit's): 0 / 0 in a factor
@example(rows=1, cols=3, seed=0, is_complex=False, kind="rank one")
def test_p_infinity_bracket_holds_the_exact_norm(rows, cols, seed, is_complex, kind):
    rng = np.random.default_rng(seed)
    with mpmath.workdps(40):
        sym, exact = oracle_symbol(kind, rows, cols, rng, is_complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # zero rows and columns divide nothing by 0
            res = schur_norm_lower_bound(sym, math.inf, seed=seed)
        assert res.bracket.lower <= exact * (1 + mpmath.mpf(1e-12))  # the optimizer's ratio rounds
        assert res.bracket.upper >= exact  # certified: no slack
    if res.bracket.allowance > 0.0:  # a Haagerup certificate closed the bracket
        assert res.bracket_closed
        assert res.bracket.relative_gap <= res.bracket.allowance + 1.01 * schur._STALL_RTOL


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16),
       st.integers(min_value=0, max_value=10_000), st.sampled_from([0.0, 0.2, 0.5]),
       st.sampled_from([1, 2, 5, 10, 40]))
def test_p_infinity_bracket_with_mixed_certificate_steps(rows, cols, seed, zero_share,
                                                        iterations):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    m[rng.random(rows) < zero_share] = 0.0
    m[:, rng.random(cols) < zero_share] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = schur_norm_lower_bound(m, math.inf, seed=seed, iterations=iterations)
    assert np.abs(m).max() <= res.bracket.lower <= res.bracket.upper
    if res.bracket_closed:
        assert res.bracket.relative_gap <= res.bracket.allowance + 2e-12


class TestHaagerupCertificate:
    @pytest.mark.parametrize("n", [32, 64])
    def test_gaussian_bracket_closes_in_few_svds(self, n, svd_calls):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = schur_norm_lower_bound(m, math.inf, seed=2, iterations=10)
        assert res.bracket_closed and 0.0 < res.bracket.allowance <= 1e-11
        assert res.bracket.relative_gap <= 1e-11 and res.certificate_steps > 0
        # without the certificate eight starts ran to the cap of 10: 80 SVDs or more
        assert len(svd_calls) <= 45

    def test_mixed_certificate_closes_in_at_most_20_svds(self, svd_calls):
        # unmixed certificate steps take 29 SVDs here (15 certificate steps)
        rng = np.random.default_rng(64)
        m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        res = schur_norm_lower_bound(m, math.inf, iterations=10, seed=3)
        assert res.bracket_closed and res.bracket.relative_gap <= res.bracket.allowance + 2e-12
        assert len(svd_calls) <= 20

    def test_certificate_that_stalls_gives_up_and_the_starts_run(self, svd_calls, monkeypatch):
        # a factorization value held 1e-7 above its own: the gap falls, then stops falling
        real = schur._factorization
        rng = np.random.default_rng(5)
        m = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))

        def run(factor):
            monkeypatch.setattr(schur, "_factorization", lambda *args: real(*args) * factor)
            before = len(svd_calls)
            res = schur_norm_lower_bound(m, math.inf, seed=1, iterations=10)
            return res, len(svd_calls) - before

        plain, plain_svds = run(math.inf)  # no finite factorization value: no certificate
        stalled, stalled_svds = run(1.0 + 1e-7)
        assert not plain.bracket_closed and plain.certificate_steps == 0
        assert not stalled.bracket_closed and 0 < stalled.certificate_steps <= 12
        assert stalled.bracket.upper == plain.bracket.upper
        assert stalled.bracket.lower >= plain.bracket.lower
        # one reprojection SVD per certificate step (and a first half-step SVD where power
        # iteration does not settle); every other SVD as without one
        assert 0 <= stalled_svds - plain_svds - stalled.certificate_steps <= 2

    def test_residual_above_the_a_priori_bound_ends_the_certificates(self, monkeypatch):
        monkeypatch.setattr(schur, "_haagerup_upper", lambda *args: math.inf)
        rng = np.random.default_rng(6)
        m = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        res = schur_norm_lower_bound(m, math.inf, seed=1, iterations=10)
        assert not res.bracket_closed and res.bracket.allowance == 0.0
        assert res.bracket.upper == min(frobenius_schur_bound(m), circulant_schur_bound(m))

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_no_iterations_take_no_certificate_step(self, iterations, svd_calls):
        # a negative cap is an input error, found before any start runs
        rng = np.random.default_rng(7)
        m = rng.standard_normal((16, 16))
        if iterations < 0:
            with pytest.raises(InputError, match="^--iterations must be >= 0, got -1$"):
                schur_norm_lower_bound(m, math.inf, iterations=iterations)
            assert len(svd_calls) == 0
            return
        res = schur_norm_lower_bound(m, math.inf, iterations=iterations)
        assert res.bracket.lower == np.abs(m).max() and res.certificate_steps == 0
        assert not res.bracket_closed and len(svd_calls) == 0


def continuation(n=8, seed=41):
    """A p = infinity continuation on an n x n complex Gaussian, holding one Anderson pair
    and a last element fed, the scaled symbol, and a unit rank-one dual element g."""
    rng = np.random.default_rng(seed)
    units = rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    m = TruncatedSchurMultiplier(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    sym, e = m.scaled
    cert = schur._Continuation(sym, e)
    cert.fed, cert.pairs = (units[0], units[1]), [((units[2], units[3]), (units[4], units[5]))]
    return cert, np.outer(units[6], np.conj(units[7])), sym


class TestContinuation:
    @pytest.mark.parametrize("before, gap, budget, closes", [
        (math.nan, 0.5, 40, False),  # no earlier gap
        (1e-3, 1e-6, 0, False),  # no budget left
        (1e-3, 1e-13, 0, False),  # not even at _STALL_RTOL
        (1e-3, 1e-6, 40, True),  # the same rate with budget: 2 more steps
        (1e-11, 1e-12, 1, True),  # already at _STALL_RTOL
        (1e-3, 0.0, 1, True),
        (math.inf, 1e-3, 1, True),  # rate 0
        (0.11, 0.1, 40, False),  # rate 0.91 needs 266 steps
        (0.11, 0.1, 300, True),
        (0.1, 0.1, 40, False),  # the gap did not fall
    ])
    def test_give_up_rule(self, before, gap, budget, closes):
        cert = continuation()[0]
        cert.before, cert.gap = before, gap
        assert cert.closes_in_time(budget) is closes

    def test_non_finite_mixture_reprojects_the_plain_element(self, monkeypatch, svd_calls):
        cert, g, sym = continuation()
        mixed = []
        monkeypatch.setattr(schur, "_anderson", lambda pairs: mixed.append(pairs))
        tried, closed = cert.step(g, 0.0, math.inf, mix=True)
        assert len(mixed) == 1 and len(mixed[0]) == 2  # mixed, and found not finite
        assert len(tried) == 1 and len(svd_calls) == 1 and cert.pairs == []
        u, _, vt = np.linalg.svd(np.conj(sym) * g, full_matrices=False)
        assert np.array_equal(tried[0][0], u @ vt)
        assert all(np.array_equal(x, y) for x, y in zip(cert.fed, schur._rank_one_factors(g)))

    def test_mixture_whose_gap_did_not_fall_is_followed_by_the_plain_element(self, svd_calls):
        cert, g, sym = continuation()
        cert.gap = -1.0  # no factorization gap falls below it
        tried, closed = cert.step(g, 0.0, math.inf, mix=True)
        assert closed is None and len(tried) == 2 and len(svd_calls) == 2 and cert.pairs == []
        u, _, vt = np.linalg.svd(np.conj(sym) * g, full_matrices=False)
        assert np.array_equal(tried[1][0], u @ vt) and cert.before == -1.0

    def test_plain_step_keeps_the_pairs(self, svd_calls):
        cert, g, _ = continuation()
        tried, _ = cert.step(g, 0.0, math.inf, mix=False)
        assert len(tried) == 1 and len(svd_calls) == 1 and len(cert.pairs) == 2
        assert math.isfinite(cert.gap) and math.isnan(cert.before)


class TestCirculantLowerBound:
    def test_closed_at_the_floor_without_steps(self):
        c = np.array([3.0, 1.0, 0.5, 1.0])  # positive definite circulant: norm = 3
        res = circulant_lower_bound(c, 4.0)
        assert res.bracket.lower == 3.0 and 3.0 <= res.bracket.upper <= 3.0 * (1.0 + 1e-14)
        assert res.bracket_closed and res.iterations == 0
        assert list(res.best_column) == [1.0, 0.0, 0.0, 0.0]

    def test_warm_start_keeps_its_ratio(self):
        # zero insertion puts the smaller input on the even points, where the section's
        # symbol is the smaller section's: no row falls below the previous one
        c = np.cos(2.0 * math.pi * np.arange(64) / 64) ** 3 + 0.3j
        small = circulant_lower_bound(c[::2], 10.0, seed=2)
        big = circulant_lower_bound(c, 10.0, seed=2, warm=small.best_column)
        assert big.bracket.lower >= small.bracket.lower

    @pytest.mark.parametrize("e", [600, -600])
    def test_power_of_two_scaling_is_exact(self, e):
        rng = np.random.default_rng(41)
        c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        base, scaled = circulant_lower_bound(c, 3.0), circulant_lower_bound(c * 2.0 ** e, 3.0)
        assert scaled.bracket == schur.Bracket(base.bracket.lower * 2.0 ** e,
                                               base.bracket.upper * 2.0 ** e)

    @pytest.mark.parametrize("p", [math.nan, 0.5])
    def test_rejects_exponent_outside_range(self, p):
        with pytest.raises(DomainError, match=rf"^p must lie in \[1.0, inf\], got {p}$"):
            circulant_lower_bound(np.ones(4), p)

    @pytest.mark.parametrize("p", [2.0, 6.0, math.inf])
    def test_frobenius_term_past_the_float_range_leaves_the_circulant_term(self, p):
        # the dense bracket's Frobenius bound N |c|_2 = 6.4e308 would overflow; the
        # section's upper end is the circulant bound alone, for a constant its entry
        res = circulant_lower_bound(np.full(16, 1e307), p)
        assert res.bracket.lower == 1e307 and 1e307 <= res.bracket.upper <= 1e307 * (1.0 + 1e-13)

    def test_both_terms_past_the_float_range_are_range_error(self):
        # the circulant bound (1/N) sum_k |fft(c)_k| = 2e308 for c = 1e308 (1, 1, 1, -1),
        # and the Frobenius bound N |c|_2 = 8e308 above it, which the section never takes
        with pytest.raises(RangeError, match="float range"):
            circulant_lower_bound(1e308 * np.array([1.0, 1.0, 1.0, -1.0]), 4.0)

    @pytest.mark.parametrize("c", [np.zeros(0), np.ones((2, 2)), np.array([1.0, math.nan])])
    def test_rejects_a_bad_first_column(self, c):
        with pytest.raises(InputError):
            circulant_lower_bound(c, 4.0)


def dense_section_rows(profile, n, p, sizes):
    """Rows of the dense optimizer on the N x N "hs" sections, built entry by entry
    from cos(theta_i - theta_j), the largest over the two frame radii."""
    rows = []
    for size in sizes:
        theta = 2.0 * math.pi * np.arange(size) / size
        delta = np.cos(theta[:, None] - theta[None, :])
        values = []
        for r in (0.75, 1.5):
            x = CompositionFrame.create(n, r).hs_of_delta(delta)
            res = schur_norm_lower_bound(np.asarray(profile(x), dtype=complex), p)
            values.append(res.bracket.lower)
        rows.append(max(values))
    return rows


# a radial jump at 2, flat on each side, so every derivative is 0
JUMP = RadialProfile(
    lambda u: [np.where(u[0] < 2.0, 1.0, 0.2)] + [np.zeros_like(u[0])] * (len(u) - 1))


class TestRigidityWitness:
    def test_constant_profile_consistent(self):
        one = RadialProfile(lambda u: [np.ones_like(u[0])] + [np.zeros_like(u[0])] * (len(u) - 1))
        res = rigidity_witness(one, 5, 10.0, seed=0)
        assert res.classification == CONSISTENT
        assert [b.lower for b in res.brackets] == [1.0] * 4  # the true norm, not above it
        assert all(1.0 <= b.upper <= 1.0 + 1e-12 for b in res.brackets)

    def test_certified_sections_make_no_svd(self, svd_calls):
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        res = rigidity_witness(prof, 8, 10.0, sections=5, seed=0)
        assert len(svd_calls) == 0
        for b in res.brackets:
            assert b.lower <= b.upper <= b.lower * (1.0 + 1e-12)

    @pytest.mark.parametrize("sections, message", [
        (0, "--sections must be >= 2, got 0"), (1, "--sections must be >= 2, got 1"),
        (-1, "--sections must be >= 2, got -1"), (9, "--sections must be <= 8, got 9")])
    def test_sizes_that_do_not_grow_are_input_error(self, sections, message):
        # fewer than two sections leave the growth record nothing to compare
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        with pytest.raises(InputError, match=f"^{message}$"):
            rigidity_witness(prof, 3, 10.0, sections=sections)

    def test_power_profile_against_own_rank(self):
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        res = rigidity_witness(prof, 3, 10.0, seed=0)
        assert res.classification == CONSISTENT

    def test_power_profile_against_high_rank(self):
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        res = rigidity_witness(prof, 16, 100.0, sections=2, seed=0)
        assert res.classification == VIOLATED
        failed = {r.name for r in res.records if r.verdict == "FAIL"}
        assert "decay-c0" in failed
        assert res.exponents.c[0] == pytest.approx(16.0 / 3.0)

    def test_jump_profile_violated_by_section_growth(self):
        # flat away from the jump at 2, where every derivative is 0
        res = rigidity_witness(JUMP, 5, 10.0, seed=0)
        assert res.classification == VIOLATED
        growth = [r for r in res.records if r.name == "section-growth"][0]
        assert growth.verdict == "FAIL"
        lows = [b.lower for b in res.brackets]
        assert lows == sorted(lows)
        assert res.iterations > 0  # the bracket stays open: the optimizer runs
        assert all(b.lower < b.upper for b in res.brackets)

    @pytest.mark.parametrize("spec, n", [("radial-power:exponent=5", 3), ("hm-bump", 8),
                                         ("hm-bump:center=1.5,width=0.4", 5),
                                         ("hm-bump:center=1.5,width=0.4", 8),
                                         ("hm-bump:center=1.5,width=0.4", 16), ("jump", 5)])
    def test_sections_reach_the_dense_optimizer(self, spec, n):
        profile = JUMP if spec == "jump" else SymbolFamily.parse(spec).build_profile()
        rows = [b.lower for b in rigidity_witness(profile, n, 10.0, sections=4, seed=0).brackets]
        for got, dense in zip(rows, dense_section_rows(profile, n, 10.0, (8, 16, 32, 64))):
            assert got >= dense * (1.0 - 1e-12)
        assert rows == sorted(rows)

    def test_bump_sections_to_256_points(self):
        bump = SymbolFamily.parse("hm-bump").build_profile()
        res = rigidity_witness(bump, 8, 10.0, sections=6, seed=0)
        lows = [b.lower for b in res.brackets]
        assert lows[-1] >= 0.90258  # the dense optimizer reached 0.902265
        assert lows == sorted(lows)
        assert all(b.lower < b.upper for b in res.brackets[1:])

    def test_sections_allocate_no_square_array(self):
        import tracemalloc

        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        tracemalloc.start()
        try:
            rigidity_witness(prof, 8, 10.0, sections=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a dense 1,024-point section alone is 16 MB

    def test_smooth_bump_consistent(self):
        bump = SymbolFamily.parse("hm-bump:center=1.5,width=0.4").build_profile()
        res = rigidity_witness(bump, 5, 10.0, seed=0)
        assert res.classification == CONSISTENT

    @pytest.mark.parametrize("n", [16, 40])
    @pytest.mark.parametrize("spec", ["radial-power:exponent=5", "radial-log-power:exponent=2.5",
                                      "hm-bump:center=1.5,width=0.4"])
    def test_hoelder_decided_at_high_rank(self, spec, n):
        # [alpha] is 6 at n = 16 and 18 at n = 40: exact jets decide the quotient
        records, ex = profile_rigidity_records(SymbolFamily.parse(spec).build_profile(), n, 100.0)
        verdicts = {r.name: r.verdict for r in records}
        assert verdicts["hoelder-alpha"] in ("PASS", "FAIL")
        assert all(f"derivative-c{k}" in verdicts for k in range(1, int(ex.alpha) + 1))
        if spec.startswith("hm-bump"):  # compact support: every envelope vanishes at infinity
            assert set(verdicts.values()) == {"PASS"}

    def test_overflowing_envelope_is_inconclusive(self):
        # at n = 80, p = 100 the order-[alpha] Hoelder weights ((x - 1) x^(n/(n-2)))^alpha
        # overflow at x = 1e4, and the bump's zero times inf is NaN: no evidence either way
        bump = SymbolFamily.parse("hm-bump:center=1.5,width=0.4").build_profile()
        with np.errstate(all="ignore"):
            records, _ = profile_rigidity_records(bump, 80, 100.0)
        verdicts = {r.name: r.verdict for r in records}
        assert verdicts["hoelder-alpha"] == "INCONCLUSIVE"
        assert "FAIL" not in verdicts.values()

    def test_inf_before_the_outer_decade_is_inconclusive(self):
        # a profile that is inf below x = 2 only: its decay envelope's sup before the outer
        # decade is inf, where tail / head would be a growth ratio of 0 that passes
        pole = RadialProfile(lambda u: [np.where(u[0] < 2.0, np.inf, 1.0 / u[0])]
                             + [np.zeros_like(u[0])] * (len(u) - 1))
        with np.errstate(all="ignore"):
            records, _ = profile_rigidity_records(pole, 5, 10.0)
        decay = {r.name: r for r in records}["decay-c0"]
        assert decay.verdict == "INCONCLUSIVE" and math.isnan(decay.measured)
        assert "FAIL" not in {r.verdict for r in records}

    def test_overflowing_profile_values_leave_the_limit_inconclusive(self):
        # (1 + x)^200 overflows on the dyadic probes: inf - inf differences decide nothing
        grow = SymbolFamily.parse("radial-power:exponent=-200").build_profile()
        with np.errstate(all="ignore"):
            records, _ = profile_rigidity_records(grow, 5, 6.0)
        limit = {r.name: r for r in records}["limit-existence"]
        assert limit.verdict == "INCONCLUSIVE" and math.isnan(limit.measured)

    def test_orders_past_170_return_records(self):
        # [alpha] = 399 at n = 1000, p = 10, and k! is inf from k = 171: the envelopes
        # past the float range are INCONCLUSIVE records, not an exception
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        records, ex = profile_rigidity_records(prof, 1000, 10.0)
        verdicts = {r.name: r.verdict for r in records}
        assert math.floor(ex.alpha) == 399 and len(records) == 402
        assert verdicts["derivative-c171"] == verdicts["derivative-c399"] == "INCONCLUSIVE"
        assert verdicts["limit-existence"] == "PASS"

    @pytest.mark.parametrize("spec, x_end", [("hm-bump:center=5000,width=1000", 6e4),
                                             ("hm-bump:center=9000,width=2000", 1.1e5),
                                             ("hm-bump:center=1.5,width=0.4", 1e4),
                                             ("radial-power:exponent=5", 1e4)])
    def test_grid_ends_a_decade_past_the_profile_scale(self, spec, x_end):
        # phi_inf is read at X = max(1e4, 10 scale), outside a bump that ends at its scale
        prof = SymbolFamily.parse(spec).build_profile()
        records, _ = profile_rigidity_records(prof, 3, 10.0)
        limit = {r.name: r for r in records}["limit-existence"]
        assert limit.details["phi_inf"] == float(prof(np.array([x_end]))[0])

    def test_opnorm_mode(self):
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        res = rigidity_witness(prof, 3, 10.0, mode="opnorm", sections=2, seed=0)
        assert res.classification == CONSISTENT


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1.0, 2.0, 3.0, math.inf]))
def test_lower_bound_never_exceeds_trace_dual(seed, p):
    # |M o A|_p <= sup|M_ij| * (sum of |A| singular values bound) is not tight,
    # but the reported value must at least stay finite and >= 0
    rng = np.random.default_rng(seed)
    m = TruncatedSchurMultiplier(rng.standard_normal((5, 5)))
    res = schur_norm_lower_bound(m, p, seed=seed, iterations=8)
    assert math.isfinite(res.bracket.lower)
    assert res.bracket.lower >= np.abs(m.symbol).max() - 1e-8

