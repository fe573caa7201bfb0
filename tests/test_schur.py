import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcert import schur
from mcert.errors import InputError
from mcert.cli import cmd_schur_bound
from mcert.schur import (CONSISTENT, VIOLATED, TruncatedSchurMultiplier, circulant_schur_bound,
                         frobenius_schur_bound, interpolated_schur_bound,
                         profile_rigidity_records, rigidity_witness,
                         schur_infty_upper_bound, schur_norm_exact_p2, schur_norm_lower_bound)
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
    """Counts every numpy SVD made while the test runs."""
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def schatten_norm(a, p):
    """l_p norm of the singular values, as the optimizer takes it from an SVD."""
    return schur._schatten_from_sv(np.linalg.svd(a, compute_uv=False), p)


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
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_dominates_sup_entry(self):
        rng = np.random.default_rng(4)
        for p in (1.0, 2.0, 4.0, math.inf):
            m = TruncatedSchurMultiplier(rng.standard_normal((9, 9))
                                         + 1j * rng.standard_normal((9, 9)))
            res = schur_norm_lower_bound(m, p, seed=5)
            assert res.value >= np.abs(m.symbol).max() - 1e-8

    def test_exact_p2_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            m = TruncatedSchurMultiplier(rng.standard_normal((8, 8)))
            res = schur_norm_lower_bound(m, 2.0, seed=7)
            assert res.value == pytest.approx(schur_norm_exact_p2(m), abs=1e-6)

    @pytest.mark.parametrize("p", [math.nan, 0.5, 0.0, -math.inf])
    def test_exponent_outside_range_rejected(self, p):
        with pytest.raises(InputError):
            schur_norm_lower_bound(TruncatedSchurMultiplier(np.ones((3, 3))), p)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(8)
        m = TruncatedSchurMultiplier(rng.standard_normal((7, 7)))
        a = schur_norm_lower_bound(m, 4.0, seed=11)
        b = schur_norm_lower_bound(m, 4.0, seed=11)
        assert a.value == b.value

    def test_restriction_monotone_with_nested_starts(self):
        rng = np.random.default_rng(9)
        sym_big = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        small = TruncatedSchurMultiplier(sym_big[:6, :6])
        big = TruncatedSchurMultiplier(sym_big)
        res_small = schur_norm_lower_bound(small, math.inf, seed=1)
        pad = np.zeros((12, 12), dtype=complex)
        pad[:6, :6] = res_small.best_input
        res_big = schur_norm_lower_bound(big, math.inf, seed=1, extra_starts=[pad])
        assert res_small.value <= res_big.value + 1e-8

    def test_search_stops_at_the_improvement_that_closes_the_bracket(self):
        # at p = infinity the circulant bound is the exact norm 2 (the DFT is 2, 2, -2, 2);
        # the matrix unit stalls at the sup entry 1, and the conjugate phase, the sign
        # pattern of M, reaches 2 on its first iteration
        sym = circulant(np.array([1.0, 1.0, -1.0, 1.0]))
        res = schur_norm_lower_bound(sym, math.inf)
        assert 2.0 <= res.upper <= 2.0 * (1.0 + 1e-14)
        assert res.bracket_closed and res.value >= res.upper / (1.0 + schur._STALL_RTOL)
        assert (res.best_start, res.best_iteration) == (1, 1)
        unbounded = schur_norm_lower_bound(np.vstack([sym, np.zeros(4)]), math.inf)
        assert not unbounded.bracket_closed  # not square: the Frobenius bound 8 stays open
        assert unbounded.value == pytest.approx(res.value, rel=1e-12)

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
        assert res.value == 3.0 and 3.0 <= res.upper <= 3.0 * (1.0 + 1e-14)
        assert (res.best_start, res.best_iteration, res.bracket_closed) == (-1, 0, True)
        assert res.best_input[np.unravel_index(np.argmax(np.abs(sym)), sym.shape)] == 1.0
        assert len(svd_calls) == 0

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
            assert res.value <= dft_l1(c) * (1.0 + 1e-12)


def svd_duality(x, p):
    """|X|_p and the dual element of X in S_q, both from the SVD."""
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    return schur._schatten_from_sv(sv, p), schur._duality_map(u, sv, vt, schur._dual_exponent(p))


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
        rep = cmd_schur_bound(m, 2.0, iterations=10)
        assert len(svd_calls) == 0
        row = rep.tables["bound"][0]
        assert row["lower_bound"] == row["sup_entry"] == np.abs(m).max()
        assert row["sup_entry"] <= row["upper_bound"] <= row["sup_entry"] * (1.0 + 1e-14)

    @pytest.mark.parametrize("p", [4.0, math.inf])
    def test_one_svd_per_iteration_after_the_first(self, svd_calls, monkeypatch, p):
        steps = []  # per first half-step: whether it took no SVD
        real = schur._dual_step

        def recording(x, q, warm):
            before = len(svd_calls)
            out = real(x, q, warm)
            no_svd = q == 4.0 or (warm is not None and isinstance(out[2], np.ndarray))
            assert len(svd_calls) - before == (0 if no_svd else 1)
            steps.append(no_svd)
            return out

        monkeypatch.setattr(schur, "_dual_step", recording)
        rng = np.random.default_rng(33)
        m = rng.random((48, 48))  # positive: a clear top singular pair at every step
        res = schur_norm_lower_bound(m, p, seed=1, iterations=12)
        starts = 8  # the matrix unit, the conjugate phase and six random starts
        assert not res.bracket_closed and len(steps) > 2 * starts
        # one SVD per iteration but the last of each start, beside the first half-steps
        # and, at p = infinity, one start norm per start
        norms = starts if math.isinf(p) else 0
        assert len(svd_calls) == norms + steps.count(False) + len(steps) - starts
        assert steps.count(True) >= len(steps) - (starts if math.isinf(p) else 0)


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
        with pytest.raises(InputError):
            interpolated_schur_bound(np.ones((2, 2)), p, 2.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["random", "circulant", "perturbed circulant"]),
       st.one_of(st.floats(min_value=1.0, max_value=math.inf), st.sampled_from([1.0, 2.0, 4.0])))
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
    assert np.abs(sym).max() <= res.value <= res.upper * (1.0 + 1e-12)
    assert res.upper <= interpolated_schur_bound(sym, p, frobenius_schur_bound(sym))
    if sym.shape[0] == sym.shape[1]:
        assert res.upper <= interpolated_schur_bound(sym, p, circulant_schur_bound(sym))


class TestUpperBound:
    def test_constant_symbol(self):
        ub = schur_infty_upper_bound(lambda x, y: np.full(x.shape[:-1], 2.5 + 0j), 1, 1)
        assert ub.value == pytest.approx(2.5, rel=1e-12)
        assert ub.fourier_l1 == pytest.approx(2.5, rel=1e-12)

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
            assert ub.certified >= lb.value - 1e-9
            assert ub.value >= lb.value - 1e-9


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


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=10_000), st.sampled_from([1.0, 2.0, 4.0, math.inf]))
def test_frobenius_bound_dominates_optimizer(rows, cols, seed, p):
    rng = np.random.default_rng(seed)
    sym = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    res = schur_norm_lower_bound(sym, p, seed=seed, iterations=15)
    assert frobenius_schur_bound(sym) >= res.value


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000),
       st.booleans(), st.sampled_from([0.0, 1e-3, 0.3]),
       st.sampled_from([1.0, 2.0, 4.0, math.inf]))
def test_circulant_bound_dominates_optimizer(n, seed, is_complex, perturbation, p):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) + (1j * rng.standard_normal(n) if is_complex else 0.0)
    sym = circulant(c) + perturbation * rng.standard_normal((n, n))
    res = schur_norm_lower_bound(sym, p, seed=seed, iterations=15)
    assert circulant_schur_bound(sym) >= res.value


class TestRigidityWitness:
    def test_constant_profile_consistent(self):
        one = RadialProfile(lambda u: [np.ones_like(u[0])] + [np.zeros_like(u[0])] * (len(u) - 1))
        res = rigidity_witness(one, 5, 10.0, seed=0)
        assert res.classification == CONSISTENT
        assert res.lower_bounds == [1.0] * 4  # the true norm, not above it
        assert all(1.0 <= u <= 1.0 + 1e-12 for u in res.upper_bounds)

    def test_certified_sections_make_no_svd(self, svd_calls):
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        res = rigidity_witness(prof, 8, 10.0, point_sets=(8, 16, 32, 64, 128), seed=0)
        assert len(svd_calls) == 0
        for lo, hi in zip(res.lower_bounds, res.upper_bounds):
            assert lo <= hi <= lo * (1.0 + 1e-12)

    def test_power_profile_against_own_rank(self):
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        res = rigidity_witness(prof, 3, 10.0, seed=0)
        assert res.classification == CONSISTENT

    def test_power_profile_against_high_rank(self):
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        res = rigidity_witness(prof, 16, 100.0, point_sets=(8, 16), seed=0)
        assert res.classification == VIOLATED
        failed = {r.name for r in res.records if r.verdict == "FAIL"}
        assert "decay-c0" in failed
        assert res.exponents.c[0] == pytest.approx(16.0 / 3.0)

    def test_jump_profile_violated_by_section_growth(self, svd_calls):
        # flat away from the jump at 2, where every derivative is 0
        jump = RadialProfile(
            lambda u: [np.where(u[0] < 2.0, 1.0, 0.2)] + [np.zeros_like(u[0])] * (len(u) - 1))
        res = rigidity_witness(jump, 5, 10.0, seed=0)
        assert res.classification == VIOLATED
        growth = [r for r in res.records if r.name == "section-growth"][0]
        assert growth.verdict == "FAIL"
        assert res.lower_bounds == sorted(res.lower_bounds)
        assert len(svd_calls) > 0  # the bracket stays open: the optimizer runs
        assert all(lo < hi for lo, hi in zip(res.lower_bounds, res.upper_bounds))

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

    def test_overflowing_profile_values_leave_the_limit_inconclusive(self):
        # (1 + x)^200 overflows on the dyadic probes: inf - inf differences decide nothing
        grow = SymbolFamily.parse("radial-power:exponent=-200").build_profile()
        with np.errstate(all="ignore"):
            records, _ = profile_rigidity_records(grow, 5, 6.0)
        limit = {r.name: r for r in records}["limit-existence"]
        assert limit.verdict == "INCONCLUSIVE" and math.isnan(limit.measured)

    def test_opnorm_mode(self):
        prof = SymbolFamily.parse("radial-power:exponent=5").build_profile()
        res = rigidity_witness(prof, 3, 10.0, mode="opnorm", point_sets=(8, 16), seed=0)
        assert res.classification == CONSISTENT


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1.0, 2.0, 3.0, math.inf]))
def test_lower_bound_never_exceeds_trace_dual(seed, p):
    # |M o A|_p <= sup|M_ij| * (sum of |A| singular values bound) is not tight,
    # but the reported value must at least stay finite and >= 0
    rng = np.random.default_rng(seed)
    m = TruncatedSchurMultiplier(rng.standard_normal((5, 5)))
    res = schur_norm_lower_bound(m, p, seed=seed, iterations=8)
    assert math.isfinite(res.value)
    assert res.value >= np.abs(m.symbol).max() - 1e-8

