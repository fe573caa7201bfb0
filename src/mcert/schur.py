"""Finite-section Schur multipliers: lower bounds by alternating
maximization inside a certified upper bound, a product-cube upper bound,
and the radial rigidity witness.

All lower bounds are one-sided: a finite section never overestimates
the full multiplier norm (restriction), and any admissible input to the
maximization yields a valid certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AccuracyError, InputError, NumericError
from .composition import CompositionFrame
from .report import FAIL, INCONCLUSIVE, PASS, CheckRecord
from .sphere import RigidityExponents
from .symbols import RadialProfile

__all__ = [
    "TruncatedSchurMultiplier",
    "SchurLowerBound",
    "schur_norm_lower_bound",
    "circulant_schur_bound",
    "frobenius_schur_bound",
    "interpolated_schur_bound",
    "schur_norm_exact_p2",
    "SchurUpperBound",
    "schur_infty_upper_bound",
    "WitnessResult",
    "rigidity_witness",
    "profile_rigidity_records",
    "CONSISTENT",
    "VIOLATED",
]

CONSISTENT = "CONSISTENT"
VIOLATED = "VIOLATED"


@dataclass(frozen=True)
class TruncatedSchurMultiplier:
    """Finite symbol matrix of a Schur multiplier over sampled points."""

    symbol: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.symbol, dtype=complex)
        if m.ndim != 2 or m.size == 0:
            raise InputError("symbol matrix must be 2-dimensional and non-empty")
        if not np.isfinite(m).all():
            raise InputError("symbol matrix must be finite")
        object.__setattr__(self, "symbol", m)

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


def _schatten_from_sv(sv: np.ndarray, p: float) -> float:
    """l_p norm of descending singular values, as s_1 |s / s_1|_p (no overflow)."""
    top = float(sv[0]) if sv.size else 0.0
    if math.isinf(p) or top == 0.0:
        return top
    return top * float(np.sum((sv / top) ** p)) ** (1.0 / p)


def _dual_exponent(p: float) -> float:
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def _duality_map(u: np.ndarray, sv: np.ndarray, vt: np.ndarray, p: float) -> np.ndarray:
    """Matrix of unit S_p norm maximizing <A, C>, given C = u diag(sv) vt
    (polar-type duality map)."""
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
    return (u * w) @ vt


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
    return math.ldexp(norm, e), y * (norm / trace)


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
    return _schatten_from_sv(sv, p), _duality_map(u, sv, vt, _dual_exponent(p)), warm


@dataclass(frozen=True)
class SchurLowerBound:
    """Bracket [value, upper] on |S_M|_{S_p -> S_p}; ``value`` is reached at ``best_input``.

    ``best_start`` indexes the starts (matrix unit, conjugate phase,
    random starts, then caller-provided starts) and ``best_iteration``
    counts from 1; -1 and 0 mean the sup-entry floor was never beaten.
    ``bracket_closed`` is set when the search stopped because the value
    reached ``upper / (1 + _STALL_RTOL)``; together with
    ``best_start == -1`` it means no start ran at all.
    """

    value: float
    best_input: np.ndarray = field(repr=False)
    upper: float
    best_start: int = -1
    best_iteration: int = 0
    bracket_closed: bool = False


def schur_norm_lower_bound(m, p: float, iterations: int = 40, seed: int = 0,
                           extra_starts=()) -> SchurLowerBound:
    """Best found value of |M o A|_p / |A|_p (always a valid lower bound) and
    a certified upper bound on the multiplier norm.

    Alternating maximization (normalize, push through the duality maps,
    reproject) from structured starts: the peak matrix unit, the
    conjugate-phase matrix, _RANDOM_STARTS seeded Gaussians, and any caller-provided
    starts.  The maximum over indexed starts is deterministic for a
    fixed seed.

    ``upper`` interpolates :func:`frobenius_schur_bound` or, for square M, its
    minimum with :func:`circulant_schur_bound`.  The search stops once the best
    value reaches ``upper / (1 + _STALL_RTOL)``: before any start runs when the
    sup-entry floor already does, else right after the improvement that does.
    """
    if not (p >= 1.0):
        raise InputError("p must lie in [1, infinity]")
    m = _multiplier(m)
    sym = m.symbol
    upper_inf = frobenius_schur_bound(m)
    if sym.shape[0] == sym.shape[1]:
        upper_inf = min(upper_inf, circulant_schur_bound(m))
    upper = interpolated_schur_bound(m, p, upper_inf)
    target = upper / (1.0 + _STALL_RTOL)
    sup, where = m.peak
    unit = np.zeros_like(sym)
    unit[where] = 1.0
    best = (sup, unit, -1, 0)  # the matrix unit certifies the sup entry

    def result():  # the fields in order: value, best input, upper, start, iteration, closed
        value, best_a, start, iteration = best
        return SchurLowerBound(value, best_a, upper, start, iteration, value >= target)

    if best[0] >= target:
        return result()

    rng = np.random.default_rng(seed)
    starts = [unit, np.exp(-1j * np.angle(sym))]
    for _ in range(_RANDOM_STARTS):
        starts.append(rng.standard_normal(sym.shape) + 1j * rng.standard_normal(sym.shape))
    starts.extend(np.asarray(s, dtype=complex) for s in extra_starts)

    sym, e = m.scaled  # exact: every value below is scaled back by 2^e
    for index, a0 in enumerate(starts):
        norm0 = (_gram_dual(a0, p)[0] if p in _GRAM_EXPONENTS
                 else _schatten_from_sv(_svd(a0, compute_uv=False), p))
        if norm0 == 0.0:
            continue
        a = a0 / norm0
        last, warm = -math.inf, None
        for iteration in range(1, iterations + 1):
            val, g, warm = _dual_step(sym * a, p, warm)  # g: dual element of M o A in S_q
            val = math.ldexp(val, e)
            if val > best[0]:
                best = (val, a, index, iteration)
                if val >= target:
                    return result()
            if iteration == iterations or val <= last * (1.0 + _STALL_RTOL):
                break
            last = val
            a = _duality_map(*_svd(np.conj(sym) * g), p)
    return result()


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
    entry that underflows there moves U far less than the 16u allowance.
    """
    m = _multiplier(m)
    n = m.symbol.shape[0]
    if m.symbol.shape != (n, n):
        raise InputError("the circulant bound needs a square symbol matrix")
    scaled, e = m.scaled
    c = scaled[:, 0]
    v = np.concatenate((c[1:], c))  # v[k] = c[(k + 1) mod N], so C_ij = v[i + N - 1 - j]
    circ = np.ndarray((n, n), v.dtype, v, strides=v.strides * 2)[:, ::-1]  # a view of v
    deviation = float(np.abs(scaled - circ).max())
    fourier_l1 = math.fsum(np.abs(np.fft.fft(c))) / n
    eps = _FFT_ERROR_PER_LEVEL * _UNIT_ROUNDOFF * max(1, (n - 1).bit_length())
    total = fourier_l1 + math.sqrt(n) * deviation + eps * math.sqrt(np.vdot(c, c).real)
    return math.ldexp(total * (1.0 + 16.0 * _UNIT_ROUNDOFF), e)


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
    """
    m = _multiplier(m)
    sym = m.symbol
    scaled, e = m.scaled
    frobenius = math.ldexp(math.sqrt(float((np.abs(scaled) ** 2).sum())), e)
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
    at most 5u.  The factor 1 + (16 + 3 |ln t|) u covers them all.
    """
    if not (p >= 1.0):
        raise InputError("p must lie in [1, infinity]")
    a = 2.0 / max(p, _dual_exponent(p))
    sup = schur_norm_exact_p2(m)
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
# Product-cube upper bound


@dataclass(frozen=True)
class SchurUpperBound:
    """Output of the mixed-derivative quadrature bound.

    ``value`` is the plain sum of mixed first-derivative L2 norms, and
    ``certified`` the quadratic mean of those norms times a computed
    absolute factor, a certified bound for periodic symbols.  ``fourier_l1``
    is the coefficient absolute sum, the sharp factorization bound for
    band-limited symbols.
    """

    value: float
    certified: float
    fourier_l1: float


def schur_infty_upper_bound(s, d1: int, d2: int) -> SchurUpperBound:
    """Upper bound for the sup-norm Schur multiplier of S on the unit cubes
    Q1 = [0, 1]^d1 and Q2 = [0, 1]^d2.

    ``s`` is called with arrays (x, y) of shapes (..., d1) and (..., d2).
    Samples sit on the midpoint tensor grid with 32 points per axis;
    derivatives and L2 norms come from the discrete Fourier side, which is
    exact for band-limited periodic symbols and spectrally accurate for
    smooth ones.
    """
    d, size = d1 + d2, 32
    axes = [(np.arange(size) + 0.5) / size] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    x = pts[..., :d1]
    y = pts[..., d1:]
    vals = np.asarray(s(x, y), dtype=complex)
    if not np.all(np.isfinite(vals.real)):
        raise AccuracyError("symbol evaluation produced non-finite samples")

    coeff = np.fft.fftn(vals) / vals.size  # Fourier coefficients on the torus
    fourier_l1 = float(np.sum(np.abs(coeff)))

    sq_sum = 0.0  # sum over binary multi-indices of |d^rho S|_{L2}^2
    lin_sum = 0.0
    ks = np.fft.fftfreq(size, d=1.0 / size)  # integer frequencies
    grids = np.meshgrid(*[ks * 2.0 * math.pi] * d, indexing="ij")
    for mask in range(1 << d):
        w = np.ones_like(vals, dtype=float)
        for i in range(d):
            if mask >> i & 1:
                w = w * grids[i] ** 2
        norm_sq = float(np.sum(w * np.abs(coeff) ** 2))
        sq_sum += norm_sq
        lin_sum += math.sqrt(norm_sq)

    weight_sum = float(np.sum(1.0 / (1.0 + (2.0 * math.pi * ks) ** 2)))
    kappa = math.sqrt(np.prod([weight_sum] * d))
    return SchurUpperBound(value=lin_sum, certified=kappa * math.sqrt(sq_sum),
                           fourier_l1=fourier_l1)


# ---------------------------------------------------------------------------
# Radial rigidity witness


_GROWTH_TOL = 0.05  # the relative growth that fails an envelope or the section bounds


def _growth(xs: np.ndarray, vals: np.ndarray) -> tuple:
    """(ratio, verdict) of an envelope: the ratio is its sup on the outer decade over
    the sup before it, and the verdict FAIL when the ratio exceeds 1 + _GROWTH_TOL.

    A bounded envelope (decay inequality satisfiable with some constant)
    gives ratio <= 1 + noise; persistent growth gives ratio >> 1.  A NaN or
    inf value, where the envelope weights overflow, decides nothing: the
    verdict is INCONCLUSIVE.
    """
    cut = xs.max() / 10.0
    head = float(vals[xs < cut].max(initial=0.0))
    tail = float(vals[xs >= cut].max(initial=0.0))
    ratio = tail / head if head > 0.0 else (0.0 if tail <= 0.0 else math.inf)
    if not np.all(np.isfinite(vals)):
        return ratio, INCONCLUSIVE
    return ratio, PASS if ratio <= 1.0 + _GROWTH_TOL else FAIL


@np.errstate(over="ignore", invalid="ignore")  # a NaN or inf envelope is INCONCLUSIVE
def profile_rigidity_records(profile: RadialProfile, n: int, p: float) -> tuple:
    """Evaluate the radial rigidity inequalities on a log grid over [1.05, 1e4],
    with derivative records up to order [alpha].

    Returns (records, exponents).  Each record compares the measured
    envelope of one inequality against a non-growing trend requirement;
    the measured constant is the envelope sup.  Every derivative comes
    from two profile jets to order [alpha], one at the grid points and
    one at the Hoelder offsets.  A profile that overflows on the grid
    leaves its records INCONCLUSIVE, without numpy warnings.
    """
    ex = RigidityExponents.compute(n, p)
    r = int(math.floor(ex.alpha))
    xs = np.geomspace(1.05, 1e4, 80)
    jet = profile.jet(xs, r)
    records = []

    # limit existence: dyadic tail differences must shrink
    probes = 1e4 * 2.0 ** -np.arange(6, dtype=float)
    probes.sort()
    pv = np.asarray(profile(probes), dtype=float)
    diffs = np.abs(np.diff(pv))
    verdict = (INCONCLUSIVE if not np.all(np.isfinite(diffs))  # overflow decides nothing
               else PASS if diffs[-1] <= 0.5 * diffs.max() + 1e-12 else FAIL)
    phi_inf = float(pv[-1])
    records.append(CheckRecord(
        name="limit-existence", check_id="rigidity/limit", verdict=verdict,
        measured=float(diffs[-1]), tolerance=0.5,
        details={"phi_inf": phi_inf, "dyadic_diffs": [float(v) for v in diffs]},
    ))

    # decay of phi - phi_inf at rate c0
    env = np.abs(jet[0] - phi_inf) * xs ** ex.c[0]
    ratio, verdict = _growth(xs, env)
    records.append(CheckRecord(
        name="decay-c0", check_id="rigidity/decay-c0", verdict=verdict,
        measured=float(env.max()), bound=ex.c[0], tolerance=_GROWTH_TOL,
        details={"growth_ratio": ratio, "c0": ex.c[0]},
    ))

    # derivative records
    for k in range(1, r + 1):
        env = math.factorial(k) * np.abs(jet[k]) * (xs - 1.0) ** k * xs ** ex.c[k]
        ratio, verdict = _growth(xs, env)
        records.append(CheckRecord(
            name=f"derivative-c{k}", check_id=f"rigidity/derivative-c{k}", verdict=verdict,
            measured=float(env.max()), bound=ex.c[k], tolerance=_GROWTH_TOL,
            details={"growth_ratio": ratio, "order": k, "ck": ex.c[k]},
        ))

    # local Hoelder quotient of the [alpha]-th derivative
    gaps = 1e-3 * xs
    step = math.factorial(r) * (profile.jet(xs + gaps, r)[r] - jet[r])
    env = np.abs(step) / gaps ** (ex.alpha - r) * ((xs - 1.0) * xs ** (n / (n - 2))) ** ex.alpha
    ratio, verdict = _growth(xs, env)
    records.append(CheckRecord(
        name="hoelder-alpha", check_id="rigidity/hoelder", verdict=verdict,
        measured=float(env.max()), bound=ex.alpha, tolerance=_GROWTH_TOL,
        details={"growth_ratio": ratio, "alpha": ex.alpha},
    ))
    return records, ex


@dataclass
class WitnessResult:
    classification: str
    records: list
    lower_bounds: list
    upper_bounds: list
    exponents: RigidityExponents


def rigidity_witness(profile: RadialProfile, n: int, p: float, point_sets=(8, 16, 32, 64),
                     mode: str = "hs", seed: int = 0) -> WitnessResult:
    """Classify a radial profile against the rigidity inequalities.

    Finite sections are sampled along diagonal-conjugated rotation
    orbits at growing angular resolutions; their multiplier lower bounds
    must stay bounded for a profile consistent with S_p-boundedness.
    Each section is a circulant symbol (equispaced angles), so the
    optimizer's certified upper bound is the circulant bound interpolated
    to p, exact at p = infinity; the optimizer stops as soon as its lower
    bound meets it.  ``upper_bounds`` holds, per size, the largest upper
    bound over the radii.
    Classification: CONSISTENT when every inequality record passes and
    the section bounds plateau; VIOLATED when an inequality fails or the
    bounds keep growing; INCONCLUSIVE otherwise.
    """
    if mode not in ("hs", "opnorm"):
        raise InputError("mode must be 'hs' or 'opnorm'")
    records, ex = profile_rigidity_records(profile, n, p)

    lower_bounds, upper_bounds = [], []
    prev_best = {}  # radius index -> best input at the previous size
    for n_points in point_sets:
        theta = 2.0 * math.pi * np.arange(n_points) / n_points
        delta = np.cos(theta[:, None] - theta[None, :])
        results = []
        for ir, r in enumerate((0.75, 1.5)):  # composition frame radii
            frame = CompositionFrame.create(n, r)
            xvals = frame.hs_of_delta(delta) if mode == "hs" else frame.opnorm_of_delta(np.abs(delta))
            with np.errstate(over="ignore", invalid="ignore"):
                sym = np.asarray(profile(xvals), dtype=complex)
            if not np.all(np.isfinite(sym)):
                raise AccuracyError(f"the profile overflows on the {n_points}-point section")
            extra, prev = [], prev_best.get(ir)
            if prev is not None and n_points % len(prev) == 0:  # warm start: prev, padded
                stride = n_points // len(prev)
                pad = np.zeros((n_points, n_points), dtype=complex)
                pad[::stride, ::stride] = prev
                extra.append(pad)
            results.append(schur_norm_lower_bound(sym, p, seed=seed, extra_starts=extra))
            prev_best[ir] = results[-1].best_input
        lower_bounds.append(max(res.value for res in results))
        upper_bounds.append(max(res.upper for res in results))

    # Saturating sections (shrinking increments) indicate a bounded
    # multiplier approached from below; persistent per-doubling growth
    # indicates divergence.  Both the last increment and its persistence
    # relative to the previous one must flag before we call it growth.
    increments = []
    for a, b in zip(lower_bounds, lower_bounds[1:]):
        increments.append(b / a - 1.0 if a > 0 else 0.0)
    last_inc = increments[-1] if increments else 0.0
    persistence = (increments[-1] / max(increments[-2], 1e-12)
                   if len(increments) >= 2 else 1.0)
    growing = last_inc > _GROWTH_TOL and persistence > 0.5
    records.append(CheckRecord(
        name="section-growth", check_id="rigidity/section-growth",
        verdict=FAIL if growing else PASS,
        measured=float(last_inc), tolerance=_GROWTH_TOL,
        details={"lower_bounds": [float(v) for v in lower_bounds],
                 "increments": [float(v) for v in increments],
                 "persistence": float(persistence),
                 "sizes": list(point_sets), "mode": mode},
    ))

    verdicts = [r.verdict for r in records]
    if all(v == PASS for v in verdicts):
        classification = CONSISTENT
    elif any(v == FAIL for v in verdicts):
        classification = VIOLATED
    else:
        classification = INCONCLUSIVE
    return WitnessResult(classification=classification, records=records,
                         lower_bounds=lower_bounds, upper_bounds=upper_bounds, exponents=ex)
