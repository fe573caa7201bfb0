"""Spectral data of the sphere-averaging operators on S^{n-1}.

The operator averaging a function over the latitude circle at inner
product delta is diagonalized by spherical harmonics; its eigenvalue on
degree k is the ultraspherical polynomial of index (n-2)/2 normalized to
1 at the north pole, with multiplicity m_k.  This module evaluates those
eigenvalues, their derivatives, truncated Schatten sums over the
spectrum, and a direct quadrature oracle for the n = 3 operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, InputError, RangeError

__all__ = [
    "gegenbauer_normalized",
    "gegenbauer_integral",
    "multiplicity",
    "eigenvalue_table",
    "RigidityExponents",
    "SchattenSumResult",
    "schatten_derivative_sum",
    "averaging_operator",
    "sphere_grid",
]

_FACTORIAL_BOUND = 200_000


def _check_nk(n: int, k: int) -> None:
    if n < 3:
        raise InputError("sphere dimension parameter n must be >= 3")
    if k < 0:
        raise InputError("degree k must be >= 0")


def _eigenvalue_table(n: int, x, k_cap: int, rows: list | None = None) -> np.ndarray:
    """Normalized eigenvalues of degree 0..k_cap at x by the ultraspherical recurrence
    at index (n-2)/2, appended to ``rows`` in place (rows already there, at the same
    n and x, are resumed).  A 0-d x runs on Python floats: same operations, same bits."""
    x = float(x) if np.ndim(x) == 0 else np.array(x, dtype=float)  # rows outlive the call
    rows = [] if rows is None else rows
    seed = [np.ones_like(x) if isinstance(x, np.ndarray) else 1.0, x]  # degrees 0 and 1
    rows.extend(seed[len(rows):k_cap + 1])
    lam = 0.5 * (n - 2)
    for kk in range(len(rows), k_cap + 1):
        rows.append((2.0 * (kk + lam - 1.0) * x * rows[kk - 1]
                     - (kk - 1.0) * rows[kk - 2]) / (kk + 2.0 * lam - 1.0))
    return np.array(rows[:k_cap + 1], dtype=float)


def eigenvalue_table(n: int, x, k_cap: int) -> np.ndarray:
    """Eigenvalues of degrees 0..k_cap at x, shaped (k_cap + 1,) + x.shape: n >= 3 and
    k_cap >= 0 (InputError), every x in [-1, 1] (DomainError)."""
    _check_nk(n, k_cap)
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0 + 1e-14):  # NaN fails too
        raise DomainError("argument outside [-1, 1]")
    return _eigenvalue_table(n, x, k_cap)


def gegenbauer_normalized(n: int, k: int, x):
    """Eigenvalue of the latitude-averaging operator on degree k.

    Ultraspherical three-term recurrence at index lambda = (n-2)/2,
    normalized so the value at 1 is exactly 1.  Vectorized in x.
    """
    return eigenvalue_table(n, x, k)[k]


@lru_cache(maxsize=64)  # bounded: a sweep over node counts must not fill memory
def gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre (nodes, weights) on [-1, 1], shared by the package."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gegenbauer_integral(n: int, k: int, x):
    """Quadrature form c_n int_0^pi (x + i sqrt(1-x^2) cos t)^k sin^{n-3} t dt.

    Cross-check for the recurrence, by Gauss-Legendre at max(64, 2k + 8) nodes;
    the imaginary part must cancel and is asserted below 1e-12.
    """
    _check_nk(n, k)
    x = np.asarray(x, dtype=float)
    t, w = gauss_legendre(max(64, 2 * k + 8))
    theta = 0.5 * math.pi * (t + 1.0)
    wt = w * 0.5 * math.pi
    c_n = math.gamma((n - 1) / 2.0) / (math.sqrt(math.pi) * math.gamma((n - 2) / 2.0))
    base = x[..., None] + 1j * np.sqrt(np.maximum(1.0 - x[..., None] ** 2, 0.0)) * np.cos(theta)
    integrand = base ** k * np.sin(theta) ** (n - 3)
    val = c_n * np.sum(wt * integrand, axis=-1)
    if np.max(np.abs(val.imag)) > 1e-12:
        raise AccuracyError("imaginary part failed to cancel")
    return val.real


def multiplicity(n: int, k: int) -> int:
    """Dimension of the degree-k eigenspace, exactly in integer arithmetic:
    C(n+k-1, k) - C(n+k-3, k-2), about min(k, n-1) multiplies each."""
    _check_nk(n, k)
    if n + k - 3 > _FACTORIAL_BOUND:
        raise RangeError(f"n + k exceeds the configured factorial bound {_FACTORIAL_BOUND}")
    return math.comb(n + k - 1, k) - (math.comb(n + k - 3, k - 2) if k >= 2 else 0)


# ---------------------------------------------------------------------------
# Rigidity exponents


@dataclass(frozen=True)
class RigidityExponents:
    """Derived exponents for the radial rigidity inequalities."""

    n: int
    p: float
    alpha0: float
    alpha: float
    c: tuple

    @classmethod
    def compute(cls, n: int, p: float) -> "RigidityExponents":
        if n < 3:
            raise InputError("n must be >= 3")
        if not (p > 2.0 + 2.0 / (n - 2)):
            raise DomainError(f"p must exceed 2 + 2/(n-2) = {2 + 2/(n-2):.6f}")
        alpha0 = (n - 2) / 2.0 - (n - 1) / p
        near_int = abs(alpha0 - round(alpha0)) < 1e-12 and round(alpha0) >= 1
        alpha = alpha0 - 1e-3 if near_int else alpha0  # off an integer, where [alpha] jumps
        cs = []
        if alpha > 1.0:
            c0 = n / math.floor(3.0 / (1.0 - 2.0 / p))
        else:
            c0 = alpha * n / (n - 2)
        cs.append(c0)
        for k in range(1, int(math.floor(alpha)) + 1):
            cs.append(n / math.floor((2 * k + 1) / (1.0 - 2.0 / p)))
        return cls(n=n, p=p, alpha0=alpha0, alpha=alpha, c=tuple(cs))


# ---------------------------------------------------------------------------
# Schatten sums over the spectrum

_INTERIOR = 0.95  # |x| above this is a DomainError: the decay constants blow up at |x| = 1
_K_MAX = 1 << 18  # the truncation a certified tail may double to


def _derivative_table(n: int, r: int, x, k_cap: int, rows: list | None = None) -> np.ndarray:
    """d^r of the normalized eigenvalues, degrees 0..k_cap at x; ``rows`` at index n + 2r.
    Row k is raised row k - r times prod_{i<r} (k + n - 2 + i)(k - i) / (n - 1 + 2i)."""
    if r == 0:
        return _eigenvalue_table(n, x, k_cap, rows)
    out = np.zeros((k_cap + 1,) + np.shape(x))
    if k_cap < r:
        return out
    base = _eigenvalue_table(n + 2 * r, x, k_cap - r, rows)
    ks = np.arange(r, k_cap + 1, dtype=float)
    scale = np.ones_like(ks)
    for i in range(r):
        scale *= (ks + (n - 2 + i)) * (ks - i) / (n - 1 + 2 * i)
    out[r:] = scale.reshape((-1,) + (1,) * (out.ndim - 1)) * base
    return out


def _multiplicity_table(n: int, k_cap: int) -> np.ndarray:
    """:func:`multiplicity` for k = 0..k_cap in floats, as the finite product
    (n + 2k - 2) prod_{i=1}^{n-3} (k + i)/(i + 1)."""
    ks = np.arange(k_cap + 1, dtype=float)
    mult = n - 2.0 + 2.0 * ks
    for i in range(1, n - 2):
        mult *= (ks + i) / (i + 1)
    return mult


_BANDS = (0.5, 0.6, 0.7, 0.8, 0.9, _INTERIOR)


@lru_cache(maxsize=None)
def _decay_constant(n: int, r: int, band: float) -> float:
    """Measured best constant in |d^r eigenvalue_k| <= C (1+k)^{r+1-n/2}
    on [-band, band] over k <= 200, times a safety factor 2."""
    xs = np.linspace(-band, band, 41)
    table = np.abs(_derivative_table(n, r, xs, 200))
    ks = np.arange(201)
    ratios = table.max(axis=1) / (1.0 + ks) ** (r + 1 - n / 2.0)
    return 2.0 * float(ratios.max())


def _band_for(x: float) -> float:
    for b in _BANDS:
        if abs(x) <= b:
            return b
    return _BANDS[-1]


@lru_cache(maxsize=None)
def _multiplicity_constant(n: int) -> float:
    """Measured best constant in m_k <= A (1+k)^{n-2} over k <= 400, times 2."""
    worst = max(multiplicity(n, k) / (1.0 + k) ** (n - 2) for k in range(401))
    return 2.0 * worst


@dataclass(frozen=True)
class SchattenSumResult:
    value: float | None
    diverged: bool
    k_used: int = 0
    tail_bound: float = 0.0


def _alpha0(n: int, p: float) -> float:
    return (n - 2) / 2.0 - (n - 1) / p


def _check_sum_args(p: float, order: float) -> None:
    if not (1.0 <= p < math.inf):
        raise InputError(f"Schatten exponent p must be finite and >= 1, got {p}")
    if not order >= 0:
        raise InputError(f"derivative order must be >= 0, got {order}")


def _truncated_norm(total: float, n: int, p: float, r: int, scale: float,
                    k_cap: int) -> tuple[float, float]:
    """(value, err): the 1/p power of a sum of p-th-power terms over degrees
    0..k_cap, and the analytic tail remainder past k_cap for terms bounded
    by m_k (cdec (1+k)^{r-alpha0})^p, pushed through the concavity bound
    for the 1/p power; ``scale`` is A cdec^p, A the multiplicity constant."""
    power = p * (r - _alpha0(n, p))  # tail terms decay like (1+k)^{power - 1}
    tail = scale * (1.0 + k_cap) ** power / (-power)
    value = total ** (1.0 / p)
    err = tail * value ** (1.0 - p) / p if total > 0 else tail ** (1.0 / p)
    return value, err


def schatten_derivative_sum(n: int, p: float, r: int, x: float, tail_tol: float = 1e-6,
                            k_start: int = 64) -> SchattenSumResult:
    """Schatten p-sum of the r-th derivative spectrum with certified tail, for
    |x| <= _INTERIOR (DomainError) and a truncation of at most _K_MAX degrees
    (AccuracyError); a tail constant past the float range is a RangeError.

    Diverges (by the spectral decay law) when r >= alpha0.
    """
    _check_sum_args(p, r)
    if not abs(x) <= _INTERIOR:  # NaN included
        raise DomainError(f"|x| must be <= {_INTERIOR}")
    a0 = _alpha0(n, p)
    if r >= a0 - 1e-12:
        return SchattenSumResult(value=None, diverged=True)
    cdec = _decay_constant(n, r, _band_for(x))
    try:  # Python float powers raise past the float range
        scale = _multiplicity_constant(n) * cdec ** p
    except OverflowError:
        raise RangeError(f"the tail bound at n = {n}, p = {p:g} exceeds the float range") from None
    xs = np.asarray(float(x))
    rows = []  # each doubling resumes the recurrence where the last one stopped
    k_cap = k_start
    while True:  # grow the truncation until the tail is below tail_tol relative to the norm
        table = np.abs(_derivative_table(n, r, xs, k_cap, rows))
        total = float(np.sum(_multiplicity_table(n, k_cap) * table ** p))
        value, err = _truncated_norm(total, n, p, r, scale, k_cap)
        if err <= tail_tol * max(value, 1e-300):
            return SchattenSumResult(value=value, diverged=False, k_used=k_cap, tail_bound=err)
        if 2 * k_cap > _K_MAX:
            raise AccuracyError("tail tolerance unreachable within k_max")
        k_cap *= 2


# ---------------------------------------------------------------------------
# Desk-scale averaging oracle on S^2


def sphere_grid(resolution_deg: float = 15.0) -> np.ndarray:
    """Deterministic latitude-longitude node set on S^2 (unit vectors)."""
    lats = np.arange(-90.0 + resolution_deg, 90.0, resolution_deg)
    lons = np.arange(0.0, 360.0, resolution_deg)
    out = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    for la in np.deg2rad(lats):
        for lo in np.deg2rad(lons):
            out.append(np.array([math.cos(la) * math.cos(lo),
                                 math.cos(la) * math.sin(lo),
                                 math.sin(la)]))
    return np.array(out)


def averaging_operator(delta: float, f, points, circle_nodes: int = 360,
                       check_tol: float | None = None):
    """Average of f over {y : <x, y> = delta} for each row x of points.

    Uniform midpoint quadrature on the latitude circle (spectrally
    accurate for smooth f).  With ``check_tol`` set, the quadrature is
    repeated at half resolution and must agree within the tolerance.
    """
    if not (-1.0 <= delta <= 1.0):
        raise DomainError("delta must lie in [-1, 1]")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != 3:
        raise InputError("the averaging oracle is implemented on S^2 (n = 3)")

    def run(m_nodes: int) -> np.ndarray:
        x = points / np.linalg.norm(points, axis=1, keepdims=True)
        pick = np.argmin(np.abs(x), axis=1)
        helper = np.eye(3)[pick]
        u = np.cross(helper, x)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v = np.cross(x, u)
        t = 2.0 * math.pi * (np.arange(m_nodes) + 0.5) / m_nodes
        circ = math.sqrt(max(1.0 - delta * delta, 0.0))
        y = (delta * x[:, None, :]
             + circ * (np.cos(t)[None, :, None] * u[:, None, :]
                       + np.sin(t)[None, :, None] * v[:, None, :]))
        return np.mean(np.asarray(f(y), dtype=float), axis=1)

    vals = run(circle_nodes)
    if check_tol is not None:
        coarse = run(max(circle_nodes // 2, 8))
        mismatch = float(np.max(np.abs(vals - coarse)))
        if mismatch > check_tol:
            raise AccuracyError("circle quadrature too coarse")
    return vals
