"""Finite-section Schur multipliers: lower bounds by alternating
maximization inside a certified upper bound, on dense symbols and, for
circulant sections, on the Fourier side; and at p = infinity, a Haagerup
factorization certificate read off the optimizer's own SVDs, which closes
the dense bracket.  The layer needs numpy alone.

All lower bounds are one-sided: a finite section never overestimates
the full multiplier norm (restriction), and any admissible input to the
maximization yields a valid certificate.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericError, RangeError, check_array, check_count

__all__ = ["TruncatedSchurMultiplier", "Bracket", "SchurLowerBound", "schur_norm_lower_bound",
           "CirculantLowerBound", "circulant_lower_bound", "circulant_schur_bound",
           "frobenius_schur_bound", "interpolated_schur_bound", "schur_norm_exact_p2"]


@dataclass(frozen=True)
class TruncatedSchurMultiplier:
    """Finite symbol matrix of a Schur multiplier over sampled points."""

    symbol: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "symbol", check_array("symbol", self.symbol, complex,
                                                       finite=True, shape=(None, None)))

    @cached_property
    def peak(self) -> tuple:
        """(max |M_ij|, the index where it first occurs)."""
        modulus = np.abs(self.symbol)
        k = int(modulus.argmax())
        return float(modulus.flat[k]), np.unravel_index(k, modulus.shape)

    @cached_property
    def scaled(self) -> tuple:
        """:func:`_pow2_scaled` of the symbol, shared by the bounds and the optimizer."""
        return _pow2_scaled(self.symbol, self.peak[0])


def _multiplier(m) -> TruncatedSchurMultiplier:
    """``m`` as a multiplier, validated once: a matrix here, a multiplier when built."""
    return m if isinstance(m, TruncatedSchurMultiplier) else TruncatedSchurMultiplier(m)


# Relative gain below which an optimizer start has stalled, and the relative
# gap at which a lower bound meets a certified upper bound.
_STALL_RTOL = 1e-12
_RANDOM_STARTS = 6  # seeded Gaussian starts of the optimizer
_ITERATIONS = 40  # the optimizers' default step cap per start
_ANDERSON_DEPTH = 3  # (input, output) pairs a p = infinity certificate step mixes
# Over-relaxation of that mixture.  The plain map shrinks its error by a factor rho of
# 0.3-0.4 per step on Gaussians (N = 32-128); relaxing by beta maps error factors in
# [0, rho] to [1 - beta, 1 - beta (1 - rho)], balanced at beta = 2 / (2 - rho).  Any beta
# in [1.2, 1.4] took 5% fewer SVDs than 1 on the benchmark's p = infinity CSVs, and 2%
# fewer on searches at N = 4-48 (real, complex, sparse, rectangular).
_ANDERSON_RELAXATION = 1.25
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0
# FFT rounding allowance per radix level, in units of the unit roundoff.
# Higham's radix-2 bound (Accuracy and Stability, Thm 24.2) is about 6.7;
# numpy's FFT measured at most 0.72 against a long-double DFT for every
# N <= 69 and selected N up to 2048, primes included.
_FFT_ERROR_PER_LEVEL = 16.0


def _svd(a: np.ndarray, compute_uv: bool = True):
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc


def _pow2_scaled(x: np.ndarray, top: float | None = None):
    """(x / 2^e, e), 2^e just above max|x| = ``top`` (2^-e finite): an exact scaling,
    so norms computed on x / 2^e neither overflow nor lose their scaling with x."""
    top = float(np.abs(x).max(initial=0.0)) if top is None else top
    e = max(math.frexp(top)[1], -1021)
    return x * math.ldexp(1.0, -e), e


def _unscaled(x: float, e: int) -> float:
    """x 2^e, a value taken on M / 2^e scaled back (exact); math.inf past the largest
    float, where an upper bound bounds nothing."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _unscaled_ratio(x: float, e: int) -> float:
    """:func:`_unscaled` for a ratio an input reaches, which lies below a finite upper
    bound up to its rounding: past the largest float a RangeError."""
    value = _unscaled(x, e)
    if value == math.inf:
        raise RangeError(f"a Schur ratio of {x:.17g} x 2^{e} exceeds the float range")
    return value


def _lp_norm(x: np.ndarray, p: float):
    """l_p norm over the last axis, as top |x / top|_p with top = max|x| (no power
    overflows); of singular values, the Schatten norm."""
    modulus = np.abs(x)
    top = modulus.max(axis=-1, initial=0.0)
    if math.isinf(p):
        return top
    safe = np.where(top > 0.0, top, 1.0)
    return top * np.sum((modulus / safe[..., None]) ** p, axis=-1) ** (1.0 / p)


def _exponent(p) -> float:
    """``p`` as a float in [1, infinity], by :func:`errors.check_array`."""
    return float(check_array("p", p, shape=(), least=1.0))


def _dual_exponent(p: float) -> float:
    return 1.0 if math.isinf(p) else math.inf if p == 1.0 else p / (p - 1.0)


def _duality_map(u: np.ndarray, sv: np.ndarray, vt: np.ndarray, p: float) -> np.ndarray:
    """Matrix of unit S_p norm maximizing <A, C>, given C = u diag(sv) vt
    (polar-type duality map).  At finite p > 1 it overwrites ``u``."""
    if math.isinf(p):
        return u @ vt
    top = float(sv.max())
    if top == 0.0:
        out = np.zeros((u.shape[0], vt.shape[1]), dtype=complex)
        out[0, 0] = 1.0
        return out
    if p == 1.0:
        return np.outer(u[:, 0], vt[0, :])
    q = _dual_exponent(p)
    s = sv / top  # no power overflows
    w = (s / np.sum(s ** q) ** (1.0 / q)) ** (q - 1.0)
    return np.multiply(u, w, out=u) @ vt


# Even exponents whose duality map comes from products, not an SVD: one
# complex SVD costs 12-26 products of its size (N = 32..512), p = 16 six.
_GRAM_EXPONENTS = frozenset(range(2, 17, 2))
_POWER_TOL = 1e-13  # power iteration stops once unit vectors move this little


def _gram_dual(x: np.ndarray, p: float):
    """(|X|_p, J) at even p without an SVD: with X~ = X / 2^e, G = X~^* X~ and
    Y = X~ G^(p/2 - 1) = U S^(p-1) V^*, |X~|_p^p = tr(G^(p/2)) = <X~, Y> and
    J = Y / |X~|_p^(p-1).  Entries of X~ lie below 1: no power overflows."""
    xs, e = _pow2_scaled(x)
    y, k = xs, int(p) // 2 - 1
    power = np.conj(xs.T) @ xs if k else None
    while k:
        if k & 1:
            y = y @ power
        k >>= 1
        if k:
            power = power @ power
    trace = float(np.vdot(xs, y).real)
    if trace <= 0.0:  # X = 0
        return 0.0, _duality_map(*_svd(x), _dual_exponent(p))
    norm = trace ** (1.0 / p)
    return math.ldexp(norm, e), np.multiply(y, norm / trace, out=y)


def _dual_step(x: np.ndarray, p: float, warm=None):
    """(|X|_p, J, warm), J the unit element of S_q with <J, X> = |X|_p: the
    first half-step of an optimizer iteration.  Even p <= 16 takes no SVD.
    At p = infinity J = u v^*, the top singular pair; ``warm`` is None on a
    start's first iteration (SVD), then the last right vector v, from which
    power iteration on X^* X runs until unit vectors move by <= _POWER_TOL,
    in max(2, N // 2) steps at most, else ``warm`` is False: SVD from then
    on.  |Xv| <= s_1(X) for every unit v, settled or not."""
    if p in _GRAM_EXPONENTS:
        return (*_gram_dual(x, p), warm)
    if isinstance(warm, np.ndarray):
        v, xh = warm, np.conj(x.T)
        for _ in range(max(2, min(x.shape) // 2)):
            w = xh @ (x @ v)
            size = math.sqrt(np.vdot(w, w).real)
            if size == 0.0:
                break
            w /= size
            if np.vdot(w - v, w - v).real <= _POWER_TOL ** 2:
                xw = x @ w
                value = float(np.linalg.norm(xw))
                return value, np.outer(xw / value, np.conj(w)), w
            v = w
        warm = False
    u, sv, vt = _svd(x)
    if math.isinf(p) and warm is None:
        warm = np.conj(vt[0])
    return _lp_norm(sv, p), _duality_map(u, sv, vt, _dual_exponent(p)), warm


@dataclass(frozen=True)
class Bracket:
    """[lower, upper] on a multiplier norm; ``allowance`` is the relative rounding allowance
    of an ``upper`` read off a factorization over its value (0 for the a priori bounds), so a
    bracket a certificate closed has ``relative_gap`` <= allowance + 1.01 * _STALL_RTOL.
    ``schur-bound`` reports it beside ``relative_gap``; :meth:`fields` writes the ends alone."""

    lower: float
    upper: float
    allowance: float = 0.0

    @property
    def relative_gap(self) -> float:
        """upper / lower - 1: 0 on the zero symbol."""
        if self.lower > 0.0:
            return self.upper / self.lower - 1.0
        return 0.0 if self.upper == 0.0 else math.inf

    def fields(self) -> dict:
        """The two ends under the keys every report gives them."""
        return {"lower_bound": self.lower, "upper_bound": self.upper}


@dataclass(frozen=True)
class SchurLowerBound:
    """The :class:`Bracket` on |S_M|_{S_p -> S_p}; the ratio of ``best_input`` is its lower
    end, or at least that when it is a trace norm at p = infinity (:func:`schur_norm_lower_bound`).

    ``best_start`` indexes the starts from 1 (the conjugate phase, then the random
    starts, then caller-provided starts; 0 is left to the peak matrix unit, which
    certifies the sup-entry floor and never runs) and ``best_iteration`` counts from
    1, certificate steps included; -1 and 0 mean that floor was never beaten.  The search
    stopped on a closed bracket when ``relative_gap`` <= ``allowance`` + 1.01 * _STALL_RTOL
    (:class:`Bracket`).  ``certificate_steps`` counts the p = infinity steps taken past the
    end of a start.
    """

    bracket: Bracket
    best_input: np.ndarray = field(repr=False)
    best_start: int = -1
    best_iteration: int = 0
    certificate_steps: int = 0


def schur_norm_lower_bound(m, p: float, iterations: int = _ITERATIONS, seed: int = 0,
                           extra_starts=()) -> SchurLowerBound:
    """Best found value of |M o A|_p / |A|_p (always a valid lower bound) and
    a certified upper bound on the multiplier norm.

    Alternating maximization (normalize, push through the duality maps,
    reproject) from the conjugate-phase matrix, _RANDOM_STARTS seeded Gaussians, each
    drawn when the search reaches it, and any caller-provided starts, each finite and of
    M's shape (else InputError).  The maximum over indexed starts is deterministic for a
    fixed seed.  ``iterations`` caps the steps of each start; at 0 no start runs and the
    sup-entry floor is returned.  A start also ends, as a stalled one does, once its last
    gain, carried over every remaining step, leaves it below max(floor, its own best
    value): value + (value - last) (iterations - iteration) < that, where floor is the
    best value held when the starts without a certificate begin (at every finite p, the
    sup entry), so a start's steps depend on its own input alone.  The rule only skips
    steps: every value reported is still the ratio of an input actually evaluated, so it
    stays one-sided, and :func:`_starts` still draws every start in order.  It is off
    while a p = infinity certificate runs, where an ended start goes on as a certificate:
    ending it sooner closes the certificate on another factorization, and loosened the
    upper end of the 4 x 4 matrix (4i + j) / 16 from 0.9375000000101172 to
    0.9375000000115893.  The peak matrix unit E_ij certifies the floor and is not run: at
    every p it is a fixed point of the alternating map, since M o E_ij = M_ij E_ij and its
    dual element and reprojection are phase multiples of E_ij, so its steps could only
    restate the floor.

    ``upper`` is the smaller of the interpolated :func:`frobenius_schur_bound` and, for
    square M, :func:`circulant_schur_bound` (rounded, the interpolation can swap their
    order).  The search stops once the best value reaches ``upper / (1 + _STALL_RTOL)``:
    before any start runs when the sup-entry floor already does, else right after the
    improvement that does.

    At p = infinity each reprojection SVD C = conj(M~) o g = P diag(s) Q^* is also a
    certificate, with g = l r^* the unit rank-one dual element: ``s.sum()`` = |C|_1 is
    the S_1 ratio of g for conj(M~), a lower bound, since by duality |S_conj(M)| on
    S_1 is |S_M| on S_inf; the reprojected input P Q^* has at least that ratio, as
    <M~ o P Q^*, g> = |C|_1; and :func:`_factorization` reads off M~ = X Y with the
    value F = max_i |X_i| max_j |Y^j|, at least |C|_1.  A start that ends, at its cap
    or stalled, while the gap F / value - 1 falls at a rate that reaches _STALL_RTOL
    within _ITERATIONS steps goes on as a certificate (its :class:`_Continuation`), one
    Anderson-mixed SVD per step, counted apart from ``iterations``; it gives up as soon
    as the gap stops falling that fast, so a gap that creeps down costs a step or two
    rather than _ITERATIONS.  Once the best value reaches F / (1 + _STALL_RTOL), F plus
    its rounding allowance (:func:`_haagerup_upper`) becomes ``upper`` if that is
    smaller, and the search stops; a start whose certificate closed on a bound not smaller
    ends there.  After that, or a certificate that gave up, the remaining starts run
    without one.  Every value is taken on M / 2^e and scaled back; an ``upper`` past the
    largest float is a RangeError.

    The starts that run with no certificate (every start at finite p) run as a
    :class:`_Search`: on two threads, each start on its own, folded in start order, so the
    result is the same as one after another, on any core count with BLAS on one thread,
    which ``import mcert`` sets; a caller who imported numpy first keeps its BLAS threads.
    """
    check_count("--seed", seed, 0)
    check_count("--iterations", iterations, 0)
    p = _exponent(p)
    m = _multiplier(m)
    sym = m.symbol
    extra_starts = [check_array("extra_starts", a, complex, finite=True, shape=sym.shape)
                    for a in extra_starts]
    upper = interpolated_schur_bound(m, p, frobenius_schur_bound(m))
    if sym.shape[0] == sym.shape[1]:
        upper = min(upper, interpolated_schur_bound(m, p, circulant_schur_bound(m)))
    if upper == math.inf:
        raise RangeError("every Schur bound of the symbol exceeds the float range")
    target, allowance, steps = upper / (1.0 + _STALL_RTOL), 0.0, 0
    sup, where = m.peak
    best = (sup, None, -1, 0)  # the matrix unit E_ij certifies the sup entry (made if returned)

    def result():  # the fields in order: bracket, best input, start, iteration, steps
        value, best_a, start, iteration = best
        if best_a is None:
            best_a = np.zeros_like(m.symbol)
            best_a[where] = 1.0
        return SchurLowerBound(Bracket(value, upper, allowance), best_a, start, iteration, steps)

    if best[0] >= target or iterations == 0:
        return result()

    sym, e = m.scaled  # exact: every value below is scaled back by 2^e
    jobs = enumerate(_starts(m.symbol, seed, extra_starts), start=1)  # (start index, input)
    for index, a0 in jobs if math.isinf(p) else ():  # starts go on as certificates
        a = _normalized(a0, p)
        if a is None:
            continue
        last, warm, ended, closed = -math.inf, None, 0, None
        cert = _Continuation(sym, e)
        for iteration in itertools.count(1):
            val, g, warm = _dual_step(sym * a, p, warm)  # g: dual element of M o A in S_q
            val = _unscaled_ratio(val, e)
            if val > best[0]:
                best = (val, a, index, iteration)
                if val >= target:
                    return result()
            if ended or iteration == iterations or val <= last * (1.0 + _STALL_RTOL):
                ended = ended or iteration
                if not cert.closes_in_time(_ITERATIONS - (iteration - ended)):
                    break
                steps += 1
            last = val
            tried, closed = cert.step(g, best[0], target, mix=ended > 0)
            for a, trace in tried:
                if trace > best[0]:
                    best = (trace, a, index, iteration)
                    if trace >= target:
                        return result()
            if closed is not None:  # the best value met F / (1 + _STALL_RTOL)
                bound, value = closed
                if bound < upper:
                    upper, target, allowance = bound, value / (1.0 + _STALL_RTOL), bound / value - 1.0
                    return result()
                break  # the residual outweighs the a priori bound: the start ends here
        if closed is not None or iteration > ended:  # no later start runs a certificate
            break
    best = _Search(sym, e, p, iterations, target, best, jobs).run()
    return result()


def _normalized(a0: np.ndarray, p: float):
    """The start ``a0`` scaled to unit S_p norm, or None when it is 0."""
    norm0 = (_gram_dual(a0, p)[0] if p in _GRAM_EXPONENTS
             else _lp_norm(_svd(a0, compute_uv=False), p))
    return None if norm0 == 0.0 else a0 / norm0


class _Search:
    """The starts of :func:`schur_norm_lower_bound` that run with no p = infinity
    certificate, on two lanes (the calling thread, and a helper thread that lives as long
    as :meth:`run`), with the result of running them one after another.

    ``jobs`` yields (start index, input) pairs, in start order, the input not yet
    normalized.  Each lane draws the next start under the lock and climbs it on its own
    (:meth:`_climb`): its steps until ``iterations``, a stall, the target, or the climb rule
    tested against the floor, the best value held when the search begins, and the start's
    own best value.  No start's steps depend on another's, so the lanes share nothing but
    the draw and the fold: the outcomes are folded in start order, keeping the first
    strict improvement, up to the first start that reached the target or raised.  That
    start's exception (a NumericError or RangeError) is raised on the calling thread; one
    in a later start never surfaces.  Once a start has reached the target or raised, no
    start is drawn, and a later one that runs ends at its next step.
    """

    def __init__(self, sym, e, p, iterations, target, best, jobs):
        self.sym, self.conj, self.e, self.p = sym, np.conj(sym), e, p
        self.iterations, self.target, self.best = iterations, target, best
        self.floor, self.jobs = best, enumerate(jobs)  # draw positions from 0
        self.lock = threading.Lock()
        self.outcomes, self.folded = {}, 0  # draw position -> (best, error), until folded
        self.end = math.inf  # the first position whose start reached the target or raised
        self.error = None

    def run(self) -> tuple:
        """The best (value, input, start, iteration) of the starts run one after another."""
        helper = threading.Thread(target=self._lane)
        helper.start()
        try:
            self._lane()
        except BaseException:
            self.end = -1  # the helper draws no more starts and ends its own at its next step
            raise
        finally:
            helper.join()
        if self.error is not None:
            raise self.error
        return self.best

    def _lane(self) -> None:
        while (outcome := self._climb()) is not None:
            position, best, error = outcome
            with self.lock:
                self.outcomes[position] = best, error
                if error is not None or best[0] >= self.target:
                    self.end = min(self.end, position)
                while self.folded <= self.end and self.folded in self.outcomes:
                    best, self.error = self.outcomes.pop(self.folded)
                    self.folded += 1
                    if best[0] > self.best[0]:
                        self.best = best

    def _climb(self):
        """Draw the next job and run its steps: (its draw position, its best step as
        (value, input, start, iteration), which is the floor when no step beat it, and the
        exception that ended it or None).  None once every job is drawn, or a start has
        reached the target or raised."""
        with self.lock:
            drawn = next(self.jobs, None) if self.end == math.inf else None
        if drawn is None:
            return None
        position, (index, a) = drawn
        del drawn  # the input lives in ``a`` alone, and goes as the steps move on
        best, last, warm = self.floor, -math.inf, None
        try:
            a = _normalized(a, self.p)
            for iteration in itertools.count(1) if a is not None else ():
                val, g, warm = _dual_step(self.sym * a, self.p, warm)
                val = _unscaled_ratio(val, self.e)
                if val > best[0]:
                    best = (val, a, index, iteration)
                if (val >= self.target or iteration == self.iterations
                        or val <= last * (1.0 + _STALL_RTOL)
                        or val + (val - last) * (self.iterations - iteration) < best[0]
                        or self.end < position):  # the last: a start before it ended the search
                    break
                last = val
                del a  # the input goes before the reprojection allocates; its product in g
                a = _duality_map(*_svd(np.multiply(self.conj, g, out=g)), self.p)
        except Exception as exc:  # raised when the fold reaches it
            return position, best, exc
        return position, best, None


def _starts(sym: np.ndarray, seed: int, extra_starts):
    """The optimizer's starts in index order from 1, each made when it is reached:
    the conjugate phase exp(-i arg M), _RANDOM_STARTS seeded complex Gaussians, then
    ``extra_starts``."""
    yield np.exp(-1j * np.angle(sym))
    rng = np.random.default_rng(seed)
    for _ in range(_RANDOM_STARTS):
        yield rng.standard_normal(sym.shape) + 1j * rng.standard_normal(sym.shape)
    yield from extra_starts


class _Continuation:
    """The p = infinity certificate of one start on the scaled symbol M~ = ``sym`` =
    M / 2^e.  It owns the last _ANDERSON_DEPTH (input, output) pairs of the map g -> g'
    (reproject, then the dual step), the factorization gaps F / value - 1 of its last two
    steps (NaN before one) and the rule that gives it up.

    A mixed step reprojects the Anderson-mixed element of :func:`_anderson` in place of
    the plain g.  Any unit vectors l and r keep both ends valid.  g = l r^* then has
    |g|_1 = |l| |r| = 1, so |C|_1 is still the S_1 ratio of g and <M~ o P Q^*, g> = |C|_1
    still holds; and conj(C)_ij = M~_ij conj(l_i) r_j for every l and r, so
    :func:`_factorization` still reads off a factorization, whose residual
    :func:`_haagerup_upper` bounds as computed, however l and r were found.
    """

    def __init__(self, sym: np.ndarray, e: int):
        self.sym, self.e = sym, e
        self.live = (sym.any(axis=1), sym.any(axis=0))  # the nonzero rows and columns
        self.gap = self.before = math.nan
        self.fed, self.pairs = None, []  # the last element reprojected; (element, next) pairs

    def closes_in_time(self, budget: int) -> bool:
        """Whether a gap that fell from ``before`` to ``gap`` on the last step reaches
        _STALL_RTOL within ``budget`` more steps falling at that step's rate."""
        before, gap = self.before, self.gap
        if budget <= 0 or not gap < before:  # a NaN ``before``: no earlier step
            return False
        if gap <= _STALL_RTOL:
            return True
        rate = gap / before
        return rate == 0.0 or math.log(gap / _STALL_RTOL) <= budget * -math.log(rate)

    def step(self, g: np.ndarray, best: float, target: float, mix: bool) -> tuple:
        """([(A, |C|_1), ...], closed): each reprojection of the unit rank-one dual element
        ``g`` (:meth:`_reproject`) after the search's best value ``best``, in
        order, the last being the next input.  With ``mix`` and two pairs the mixed element
        goes first, and the plain g follows, the pairs dropped, when the mixture is not
        finite or its gap did not fall (a second SVD).  A trace norm that reaches ``target``
        ends the step; ``closed`` is (U, F) of :func:`_haagerup_upper` once the best value
        meets F / (1 + _STALL_RTOL), else None."""
        plain = _rank_one_factors(g)
        if self.fed is not None:
            self.pairs = [*self.pairs[1 - _ANDERSON_DEPTH:], (self.fed, plain)]
        tries = [(plain, g)]
        if mix and len(self.pairs) > 1:
            mixed = _anderson(self.pairs)
            if mixed is None:
                self.pairs = []
            else:
                tries.insert(0, (mixed, np.outer(mixed[0], np.conj(mixed[1]))))
        tried = []
        for self.fed, dual in tries:
            a, trace, value, bound = self._reproject(dual, self.fed, best)
            tried.append((a, trace))
            if trace >= target:
                return tried, None
            best = max(best, trace)
            if bound is not None or dual is g or value / best - 1.0 < self.gap:
                break
            self.pairs = []  # the mixed element's gap did not fall: the plain one follows
        if bound is not None:
            return tried, (bound, value)
        self.gap, self.before = value / best - 1.0, self.gap
        return tried, None

    def _reproject(self, g: np.ndarray, factors: tuple, best: float) -> tuple:
        """(A, |C|_1, F, U) for the rank-one g = l r^*, ``factors`` = (l, r): the next
        input A = P Q^* from the SVD of C = conj(M~) o g, and scaled back by 2^e, its trace
        norm, the value F of :func:`_factorization` and, once max(``best``, |C|_1) reaches
        F / (1 + _STALL_RTOL), :func:`_haagerup_upper` (else None).  No factor outlives
        the call."""
        u, sv, vt = _svd(np.conj(self.sym) * g)
        a = u @ vt
        trace = _unscaled_ratio(float(sv.sum()), self.e)
        scaled = _factorization(u, sv, vt, *factors, self.live)  # turns u into X, vt into Y
        value = _unscaled(scaled, self.e)
        if max(best, trace) < value / (1.0 + _STALL_RTOL):
            return a, trace, value, None
        resid = u @ vt
        del u, vt  # the factors go before the residual's bound allocates
        bound = _haagerup_upper(self.sym, resid, sv.size, scaled)
        return a, trace, value, _unscaled(bound, self.e)


def _rank_one_factors(g: np.ndarray) -> tuple:
    """Unit vectors (l, r) with l r^* = g for a rank-one g of unit trace norm, as the
    dual step builds it: l is the column of g through its largest entry, in the
    phase that makes that entry of l positive."""
    i, j = divmod(int(np.abs(g).argmax()), g.shape[1])
    left, right = g[:, j] / g[i, j], np.conj(g[i])
    return left / np.linalg.norm(left), right / np.linalg.norm(right)


def _anderson(pairs: list):
    """The Anderson-mixed next element (l, r) of the p = infinity map l r^* -> l' r'^*
    (reproject, then take the top singular pair) from its last (input, output) pairs,
    or None when it is not finite (Walker and Ni, SIAM J. Numer. Anal. 49, 2011).

    Each element is taken as the point (l, r) of C^(N + M), phase-fixed at the row of
    the newest output's largest entry of l.  With the residuals f = output - input, the
    coefficients gamma minimize |f_k - sum_j gamma_j (f_(j+1) - f_j)| (at most
    _ANDERSON_DEPTH - 1 columns); the same combination of the inputs and of the
    outputs gives x and y, and the mixed point is x + beta (y - x), beta =
    _ANDERSON_RELAXATION, with l and r renormalized to unit length.
    """
    top = int(np.abs(pairs[-1][1][0]).argmax())
    points = np.array([np.concatenate(element) * np.exp(-1j * np.angle(element[0][top]))
                       for pair in pairs for element in pair])
    inputs, outputs = points[0::2], points[1::2]
    f = outputs - inputs
    gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
    x, y = (z[-1] - gamma @ np.diff(z, axis=0) for z in (inputs, outputs))
    mixed = x + _ANDERSON_RELAXATION * (y - x)
    n = pairs[-1][1][0].size
    with np.errstate(divide="ignore", invalid="ignore"):
        left, right = mixed[:n] / np.linalg.norm(mixed[:n]), mixed[n:] / np.linalg.norm(mixed[n:])
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        return None
    return left, right


def _factorization(u: np.ndarray, sv: np.ndarray, vt: np.ndarray, left: np.ndarray,
                   right: np.ndarray, live) -> float:
    """F = max_i |X_i| max_j |Y^j| as computed, for M~ = X Y in exact arithmetic read off
    the SVD u diag(sv) vt of C = conj(M~) o (l r^*), l = ``left`` and r = ``right``; X
    and Y overwrite u and vt.

    conj(C) = conj(u) diag(sv) conj(vt) and conj(C)_ij = M~_ij conj(l_i) r_j, so
    X = D(1 / conj(l)) conj(u) diag(sv)^(1/2) and Y = diag(sv)^(1/2) conj(vt) D(1 / r).
    The nonzero block of M~ is all that is factored: X and Y are 0 on the zero rows and
    columns of M~ (``live`` masks the others), which makes those entries of X Y exact.
    F is inf when a factor is not finite, or when max_i |X_i|^2 or max_j |Y^j|^2 is
    below 2^-900, so that no underflowed square matters to :func:`_haagerup_upper`.
    """
    half = np.sqrt(sv)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.conjugate(u, out=u)
        x *= half
        x /= np.conj(left)[:, None]
        x[~live[0]] = 0.0
        y = np.conjugate(vt, out=vt)
        y *= half[:, None]
        y /= right
        y[:, ~live[1]] = 0.0
        rows = float(np.square(np.abs(x)).sum(axis=1).max())
        cols = float(np.square(np.abs(y)).sum(axis=0).max())
    if not (2.0 ** -900 <= rows < math.inf and 2.0 ** -900 <= cols < math.inf):  # or NaN
        return math.inf
    return math.sqrt(rows) * math.sqrt(cols)


def _haagerup_upper(sym: np.ndarray, resid: np.ndarray, k: int, value: float) -> float:
    """Certified bound on |S_M|_{S_inf -> S_inf} for M = ``sym`` from finite factors
    X (N x K) and Y (K x M), K = ``k`` = min(N, M), given their computed product
    ``resid`` = fl(X Y), which it overwrites, and F = ``value`` as
    :func:`_factorization` computes it.

    * Factorization.  With X_i the rows of X and Y^j the columns of Y,
      (X Y) o A = V^* (A (x) I) W for isometries built from them, so the exact
      F* = max_i |X_i| max_j |Y^j| bounds |S_{X Y}| (Haagerup; Pisier, LNM 1618,
      Thm 5.1; Paulsen, Completely Bounded Maps and Operator Algebras, ch. 8).
      Each term |x|^2 carries at most 3u (the modulus and the square), a sum of K
      of them is within gamma_{K-1} <= 1.01 (K - 1) u (Higham, Accuracy and
      Stability of Numerical Algorithms, section 4.2), which the square roots
      halve; the roots and the product add 3u, and an underflowed square loses
      less than 2^-1075, nothing beside sums of at least 2^-900: F* <= F (1 + (K + 16) u).
    * Residual.  M = X Y + R.  The computed Z = fl(X Y) obeys |Z - X Y| <=
      sqrt(2) gamma_{K+2} |X| |Y| <= 2 (K + 2) u |X| |Y| = eta |X| |Y| entrywise
      (complex inner products, Higham section 3.6), and the computed R' = fl(M - Z)
      obeys |M - Z - R'| <= 1.01 u |R'|.  Schur multipliers multiply under o, and
      |S_theta| <= sqrt(K) when every |theta_ij| <= 1 (theta = theta I, or I theta), so
      |S_{Z - X Y}| <= eta sqrt(K) |S_{|X| |Y|}| <= eta sqrt(K) F*, as |X| and |Y|
      have the row and column norms of X and Y; and |S_{M - Z - R'}| <= 1.01 u
      sqrt(K) |R'|_F <= 1.01 u rho, with rho = :func:`frobenius_schur_bound` (R'),
      which bounds |S_{R'}| with its own rounding.

    U = (F (1 + (K + 16) u) (1 + eta sqrt(K)) + rho (1 + 2u)) (1 + 8u): the last
    factor covers the six roundings of this line.
    """
    np.subtract(sym, resid, out=resid)
    eta = 2.0 * (k + 2) * _UNIT_ROUNDOFF
    total = (value * (1.0 + (k + 16) * _UNIT_ROUNDOFF) * (1.0 + eta * math.sqrt(k))
             + frobenius_schur_bound(resid) * (1.0 + 2.0 * _UNIT_ROUNDOFF))
    return total * (1.0 + 8.0 * _UNIT_ROUNDOFF)


def circulant_schur_bound(m) -> float:
    """Certified upper bound on |S_M|_{S_p -> S_p} for a square symbol M,
    valid for every p in [1, infinity].

    Write M = C + E with the circulant C_ij = c[(i - j) mod N] built on
    the first column c = M[:, 0], and let c^_k = sum_m c_m w^{-km},
    w = exp(2 pi i / N), be its DFT.

    * Circulant part.  C_ij = (1/N) sum_k c^_k w^{ki} w^{-kj}, so
      C o A = sum_k (c^_k / N) D_k A D_k^* with the unitary diagonals
      D_k = diag(w^{ki})_i.  Every S_p norm is unitarily invariant, hence
      |C o A|_p <= (1/N) sum_k |c^_k| |A|_p.  At p = infinity this is
      the exact norm of C (Bozejko-Fendler 1984).
    * Deviation.  |E o A|_2 <= max|E| |A|_2, and on N x N matrices
      |X|_p and |X|_2 differ by at most the factor N^{|1/2 - 1/p|}, so
      |E o A|_p <= N^{|1/2 - 1/p|} max|E| |A|_p <= sqrt(N) max|E| |A|_p.
    * Rounding.  The computed DFT obeys |c^' - c^|_2 <= eps |c^|_2 with
      eps = _FFT_ERROR_PER_LEVEL * u * ceil(log2 N) (Higham, Accuracy
      and Stability of Numerical Algorithms, section 24.1), and
      |c^|_2 = sqrt(N) |c|_2, so (1/N) sum_k |c^_k - c^'_k| <= eps |c|_2.
      The factor 1 + 16u covers the few roundings of the absolute
      values, the correctly rounded sum, the products and the additions.

    U = (1/N) sum_k |c^'_k| + sqrt(N) max|E| + eps |c|_2, times 1 + 16u.

    U is taken on M / 2^e (exact, 2^e just above max|M|): no norm overflows, 2^k M
    gets exactly 2^k times the bound of M, and as U >= max|M_ij| / 2^e >= 1/2, an
    entry that underflows there moves U far less than the 16u allowance.  A U that,
    scaled back, exceeds the largest float is inf.
    """
    m = _multiplier(m)
    n = check_array("symbol", m.symbol, complex, shape=("n", "n")).shape[0]
    scaled, e = m.scaled
    c = scaled[:, 0]
    v = np.concatenate((c[1:], c))  # v[k] = c[(k + 1) mod N], so C_ij = v[i + N - 1 - j]
    circ = np.ndarray((n, n), v.dtype, v, strides=v.strides * 2)[:, ::-1]  # a view of v
    return _unscaled(_circulant_total(c, float(np.abs(scaled - circ).max())), e)


def _circulant_total(c: np.ndarray, deviation: float = 0.0) -> float:
    """U of :func:`circulant_schur_bound` on a scaled first column ``c`` and the
    largest deviation from its circulant, times 1 + 16u."""
    n = c.size
    fourier_l1 = math.fsum(np.abs(np.fft.fft(c))) / n
    eps = _FFT_ERROR_PER_LEVEL * _UNIT_ROUNDOFF * max(1, (n - 1).bit_length())
    total = fourier_l1 + math.sqrt(n) * deviation + eps * math.sqrt(np.vdot(c, c).real)
    return total * (1.0 + 16.0 * _UNIT_ROUNDOFF)


def frobenius_schur_bound(m) -> float:
    """Certified upper bound sqrt(min(N, M)) |M|_F on |S_M|_{S_p -> S_p}
    for an N x M symbol, valid for every p in [1, infinity]; no SVD.

    With the SVD M = sum_k s_k u_k v_k^*, M o A = sum_k s_k D(u_k) A D(v_k)^*
    for the diagonals D(u) = diag(u), and |D(u) A D(v)^*|_p <= |u|_inf
    |v|_inf |A|_p <= |A|_p for unit vectors, so the multiplier norm is at
    most sum_k s_k = |M|_{S_1} <= sqrt(rank M) |M|_F.

    Rounding: on M / 2^e (exact; no square overflows, an underflowed one
    loses < 2^-1074 of a sum >= 1/4) each of the K = N M terms |m_ij|^2
    carries at most 3u relative error (the modulus and the square); a sum
    of K nonnegative terms in any order is within gamma_{K-1} <= 1.01
    (K - 1) u of the exact sum (Higham, Accuracy and Stability of Numerical
    Algorithms, section 4.2), which the square root halves; the roots and
    the products add a few u more.  The factor 1 + (K + 16) u covers them.
    A bound past the largest float is inf.
    """
    m = _multiplier(m)
    sym = m.symbol
    scaled, e = m.scaled
    frobenius = _unscaled(math.sqrt(float((np.abs(scaled) ** 2).sum())), e)
    return math.sqrt(min(sym.shape)) * frobenius * (1.0 + (sym.size + 16) * _UNIT_ROUNDOFF)


def interpolated_schur_bound(m, p: float, upper_inf: float) -> float:
    """Certified bound sup|m|^(2/r) U^(1 - 2/r), r = max(p, p'), on
    |S_M|_{S_p -> S_p} from a certified U >= |S_M|_{S_inf -> S_inf}.

    Riesz-Thorin on the Schatten scale (Pisier, Non-commutative vector
    valued L_p-spaces, Asterisque 247, 1998) between the exact S_2 law (norm
    sup|m|) and U gives it for p >= 2.  For p < 2, |S_M|_p = |S_conj(M)|_p'
    by duality, and conjugation keeps the sup entry and every Schatten norm.

    Rounding: the value is U t^a with t = sup|m| / U < 1 and a = 2/r.  The
    computed a is within 3u relative (two roundings in p', one in the
    quotient), which moves t^a by at most the factor exp(3u |ln t|); the
    modulus, t, the power (libm pow is within one ulp) and the product add
    at most 5u.  The factor 1 + (16 + 3 |ln t|) u covers them all.  A p outside
    [1, infinity], or a U (inf allowed) below the sup entry, which bounds no M, is a DomainError.
    """
    p = _exponent(p)
    sup = schur_norm_exact_p2(m)
    return _interpolated(sup, p, float(check_array("upper_inf", upper_inf, shape=(), least=sup)))


def _interpolated(sup: float, p: float, upper_inf: float) -> float:
    """:func:`interpolated_schur_bound` from the sup entry itself."""
    a = 2.0 / max(p, _dual_exponent(p))
    if sup == 0.0:
        return 0.0
    if a == 0.0 or not sup < upper_inf < math.inf:
        return upper_inf
    t = sup / upper_inf
    bound = upper_inf * t ** a * (1.0 + (16.0 + 3.0 * abs(math.log(t))) * _UNIT_ROUNDOFF)
    return min(upper_inf, bound)


def schur_norm_exact_p2(m) -> float:
    """Exact S_2 -> S_2 multiplier norm: sup of |entries| (the multiplier
    acts diagonally on matrix units in the Hilbert-Schmidt space)."""
    return _multiplier(m).peak[0]


# ---------------------------------------------------------------------------
# Circulant sections on the Fourier side


@dataclass(frozen=True)
class CirculantLowerBound:
    """The :class:`Bracket` on the S_p multiplier norm of the circulant symbol
    C_ij = c[(i - j) mod N]; its lower end is the ratio reached by the circulant input
    with first column ``best_column``; the search closed the bracket when ``relative_gap``
    <= _STALL_RTOL, up to rounding."""

    bracket: Bracket
    best_column: np.ndarray = field(repr=False)


def _norming(v: np.ndarray, r: float) -> np.ndarray:
    """Per row, the direction of the functional norming v in l_r: phase(v) |v|^(r - 1),
    a unit vector of the top entry's phase at r = infinity; largest modulus 1."""
    modulus = np.abs(v)
    if math.isinf(r):
        rows, out = np.arange(len(v)), np.zeros_like(v)
        top = modulus.argmax(axis=-1)
        out[rows, top] = np.sign(v[rows, top])
        return out
    phase = np.divide(v, modulus, out=np.zeros_like(v), where=modulus > 0.0)
    top = modulus.max(axis=-1, keepdims=True)
    return phase * (modulus / np.where(top > 0.0, top, 1.0)) ** (r - 1.0)


def circulant_lower_bound(c, p: float, seed: int = 0, warm=None) -> CirculantLowerBound:
    """Lower bound on |S_C|_{S_p -> S_p} for C_ij = c[(i - j) mod N] from circulant
    inputs, in the bracket of :func:`schur_norm_lower_bound`, at O(N log N) per step.

    A circulant A with first column a has the singular values |b|, b = fft(a), and
    C o A is the circulant on c a, so the S_p ratio of A is the l_p(Z_N) ratio
    |fft(c ifft(b))|_p / |b|_p of a convolution by fft(c) / N.  By Neuwirth-Ricard
    (Canad. J. Math. 63, 2011) its supremum is the multiplier norm of C; at p = 1
    and infinity it is (1/N) sum_k |fft(c)_k|, the circulant bound (Bozejko-Fendler).

    ``upper`` is the interpolated circulant bound, whose deviation term is 0
    (:func:`circulant_schur_bound`); the dense bracket's Frobenius bound N |c|_2 is never
    smaller.  By Cauchy-Schwarz and Parseval, (1/N) sum_k |fft(c)_k| <= |c|_2; with the
    FFT within its allowance eps in l2 and the roundings, the circulant bound as computed
    is at most |c|_2 (1 + 3 eps)(1 + 20u) < N |c|_2 (1 - N u), the least computed Frobenius
    bound, for N >= 2 (at N = 1 it is at most 32u above it); both scale back by 2^e, and
    :func:`_interpolated` does not decrease with its bound.  The sup entry max|c| is the
    floor, certified by the shift a = e_k.  While the floor is short of the upper bound,
    Boyd's p-norm power method (Linear Algebra Appl. 9, 1974) runs on the spectra b, all
    starts at once: the shift, the :func:`_starts` of c and, given the best first column
    ``warm`` at a size dividing N, its zero insertion: the same input on every
    (N / len(warm))-th point, whose ratio is the one at that size when c there is the
    smaller c.
    A start stops after _ITERATIONS steps or when its ratio gains less than
    _STALL_RTOL; the search stops at the improvement that reaches
    ``upper / (1 + _STALL_RTOL)``.  At p = infinity one step turns any start into
    the unimodular spectrum that attains the circulant bound, which closes it.
    Each value is the ratio as evaluated on c / 2^e (exact; 2^e just above max|c|);
    a bound past the largest float is inf, and an ``upper`` there a RangeError.
    """
    check_count("--seed", seed, 0)
    p = _exponent(p)
    c = check_array("c", c, complex, finite=True, shape=(None,))
    warm = warm if warm is None else check_array("warm", warm, complex, finite=True, shape=(None,))
    n = c.size
    modulus = np.abs(c)
    peak = int(modulus.argmax())
    sup = float(modulus[peak])
    cs, e = _pow2_scaled(c, sup)
    upper = _interpolated(sup, p, _unscaled(_circulant_total(cs), e))
    if upper == math.inf:
        raise RangeError(f"every Schur bound of the {n}-point circulant exceeds the float range")
    target = upper / (1.0 + _STALL_RTOL)
    unit = np.zeros(n, dtype=complex)
    unit[peak] = 1.0
    best = (sup, unit)  # the shift certifies the sup entry
    if sup < target:
        extra = []
        if warm is not None and n % len(warm) == 0:
            extra.append(np.zeros(n, dtype=complex))
            extra[0][::n // len(warm)] = warm
        b = np.fft.fft(np.array([unit, *_starts(c, seed, extra)]), axis=-1)
        last = np.full(len(b), -math.inf)
        for iteration in range(1, _ITERATIONS + 1):
            y = np.fft.fft(cs * np.fft.ifft(b, axis=-1), axis=-1)
            norms = _lp_norm(b, p)
            ratios = np.ldexp(np.divide(_lp_norm(y, p), norms, out=np.zeros_like(norms),
                                        where=norms > 0.0), e)
            i = int(ratios.argmax())
            if ratios[i] > best[0]:
                best = (float(ratios[i]), np.fft.ifft(b[i]))
                if best[0] >= target:
                    break
            live = ratios > last * (1.0 + _STALL_RTOL)
            if iteration == _ITERATIONS or not live.any():
                break
            g = _norming(y[live], p)  # the dual element of C o A in l_q
            b = _norming(np.fft.fft(np.conj(cs) * np.fft.ifft(g, axis=-1), axis=-1),
                         _dual_exponent(p))
            last = ratios[live]
    return CirculantLowerBound(Bracket(best[0], upper), best[1])
