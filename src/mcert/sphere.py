"""Spectral data of the sphere-averaging operators on S^{n-1}.

The operator averaging a function over the latitude circle at inner
product delta is diagonalized by spherical harmonics; its eigenvalue on
degree k is the ultraspherical polynomial of index (n-2)/2 normalized to
1 at the north pole, with multiplicity m_k.  This module evaluates those
eigenvalues (by their recurrence, and by quadrature as its cross-check),
their derivatives, truncated Schatten sums over the spectrum, and a direct
quadrature oracle for the n = 3 operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, InputError, RangeError
from .report import CROSS_CHECK, VALUE, CertificationReport, CheckRecord

__all__ = [
    "eigenvalue_table",
    "quadrature_table",
    "multiplicity",
    "RigidityExponents",
    "SchattenSumResult",
    "schatten_derivative_sum",
    "averaging_operator",
    "sphere_grid",
]

_FACTORIAL_BOUND = 200_000
_MAX_RULE = 1024  # nodes of the largest quadrature rule: numpy's rule costs O(nodes^3)


def _check_nk(n: int, k: int, x=0.0) -> np.ndarray:
    """x as floats: n >= 3 and k >= 0 (InputError), every x in [-1, 1] (DomainError)."""
    if n < 3:
        raise InputError("sphere dimension parameter n must be >= 3")
    if k < 0:
        raise InputError("degree k must be >= 0")
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0 + 1e-14):  # NaN fails too
        raise DomainError("argument outside [-1, 1]")
    return x


_BLOCK = 16  # degrees per block; block b holds degrees 2 + b _BLOCK to 1 + (b + 1) _BLOCK


def _eigenvalue_table(n: int, x, k_cap: int, rows: list | None = None) -> np.ndarray:
    """Normalized eigenvalues of degrees 0..k_cap at x, shaped (k_cap + 1,) + x.shape,
    by the ultraspherical recurrence at index lambda = (n-2)/2,
    y_k = (2 (k + lambda - 1) x y_{k-1} - (k - 1) y_{k-2}) / (k + 2 lambda - 1),
    from y_0 = 1 and y_1 = x, on a blocked schedule.

    y_0 and y_1 are exact.  Every degree from 2 on runs in blocks of _BLOCK, anchored
    at 2 + b _BLOCK.  Each call steps two basis solutions A and B of the recurrence
    for all its new blocks, from the states (y_{k-1}, y_{k-2}) = (1, 1) and (1, -1),
    in one np.longdouble array over all those blocks and all x: _BLOCK array steps,
    whatever k_cap.  A pass over the blocks then carries the true state (t1, t2),
    from (x, 1) at degree 2, across the block edges in floats, as
    c_a = (t1 + t2)/2, c_b = (t1 - t2)/2, and one float product c_a A + c_b B forms
    every row.  At x = 1 the state is c_a = 1, c_b = 0 and at x = -1 it is c_a = 0,
    c_b = +-1, so the table is exact there, where the basis (1, 0), (0, 1) would
    cancel.  Elsewhere the error enters through the carry, a few float roundings per
    block where the sequential recurrence rounds a few times per degree: with the
    64-bit significand of the x86-64 long double, the table's error against an exact
    oracle is about a third of the sequential recurrence's (k <= 16,384).  Where the
    long double is the float itself, the bases round like the recurrence and the
    error is about the sequential recurrence's.  Each x is carried on its own, so an
    array x gives the bits of each x alone.  Whole blocks are appended to ``rows``
    (blocks already there, at the same n and x, are resumed), so a resumed table has
    the bits of a one-shot table."""
    x = np.asarray(x, dtype=float)
    rows = [] if rows is None else rows
    if not rows:
        rows.append(np.stack([np.ones_like(x), x]))
    have = sum(len(chunk) for chunk in rows)  # 2 + a multiple of _BLOCK
    if k_cap >= have:
        entry = (rows[-1][-1], rows[-1][-2])
        rows.append(_recurrence_blocks(0.5 * (n - 2), x, (have - 2) // _BLOCK,
                                       (k_cap - 2) // _BLOCK + 1, entry))
    return np.concatenate(rows)[:k_cap + 1]


def _recurrence_blocks(lam: float, x: np.ndarray, first: int, stop: int, entry) -> np.ndarray:
    """Blocks first..stop - 1 of :func:`_eigenvalue_table`, degrees 2 + first _BLOCK to
    1 + stop _BLOCK, shaped ((stop - first) _BLOCK,) + x.shape, from the true state
    ``entry`` = (y_{k-1}, y_{k-2}) at k = 2 + first _BLOCK."""
    xs = x.reshape(-1)
    nb = stop - first
    k = (2 + _BLOCK * np.arange(first, stop) + np.arange(_BLOCK)[:, None])[:, None, :, None] + 0.0
    # one copy for each of A and B on axis 1, so that the steps run on whole arrays
    px, q, d = (np.concatenate([c, c], axis=1) for c in
                ((2.0 * (k + lam - 1.0)).astype(np.longdouble) * xs,
                 (k - 1.0).astype(np.longdouble), (k + 2.0 * lam - 1.0).astype(np.longdouble)))
    basis = np.empty((_BLOCK + 2, 2, nb, xs.size), dtype=np.longdouble)  # axis 1: A and B
    basis[0], basis[1] = np.array([1.0, -1.0])[:, None, None], 1.0  # (y_{k-2}, y_{k-1}) at j = 0
    ys, tmp = list(basis), np.empty(basis.shape[1:], dtype=np.longdouble)
    for y2, y1, y, pj, qj, dj in zip(ys, ys[1:], ys[2:], px, q, d):
        np.multiply(pj, y1, out=y)  # (2 (k + lam - 1) x y1 - (k - 1) y2) / (k + 2 lam - 1)
        np.subtract(y, np.multiply(qj, y2, out=tmp), out=y)
        np.divide(y, dj, out=y)
    basis = basis[2:].astype(float)
    t1, t2 = np.reshape(entry[0], -1), np.reshape(entry[1], -1)
    coef = np.empty((xs.size, nb, 2))  # (c_a, c_b) per x and block
    coef[:, 0, 0], coef[:, 0, 1] = (t1 + t2) * 0.5, (t1 - t2) * 0.5  # first block: all x at once
    if nb > 1:  # one pass per x over the edges of the other blocks, on Python floats
        edges = basis[[-1, -1, -2, -2], [0, 1, 0, 1], :-1].transpose(2, 1, 0).tolist()
        carried = []
        for (ca, cb), ends in zip(coef[:, 0].tolist(), edges):
            for a1, b1, a2, b2 in ends:  # A, B at the block's last two degrees
                t1, t2 = ca * a1 + cb * b1, ca * a2 + cb * b2
                ca, cb = (t1 + t2) * 0.5, (t1 - t2) * 0.5
                carried += ca, cb
        coef[:, 1:] = np.array(carried).reshape(xs.size, nb - 1, 2)
    coef = coef.transpose(2, 1, 0)
    table = coef[0] * basis[:, 0] + coef[1] * basis[:, 1]  # (_BLOCK, nb, x)
    return table.transpose(1, 0, 2).reshape((nb * _BLOCK,) + x.shape)


def eigenvalue_table(n: int, x, k_cap: int) -> np.ndarray:
    """Eigenvalues of degrees 0..k_cap at x, shaped (k_cap + 1,) + x.shape: n >= 3 and
    k_cap >= 0 (InputError), every x in [-1, 1] (DomainError)."""
    return _eigenvalue_table(n, _check_nk(n, k_cap, x), k_cap)


@lru_cache(maxsize=64)  # bounded: a sweep over node counts must not fill memory
def gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre (nodes, weights) on [-1, 1], the package's one cached rule."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def quadrature_table(n: int, x, k_cap: int) -> np.ndarray:
    """The table of :func:`eigenvalue_table`, with its shape and checks, by the Laplace-type
    integral int_0^pi (x + i sqrt(1-x^2) cos t)^k sin^{n-3} t dt / int_0^pi sin^{n-3} t dt
    (Szego, Orthogonal Polynomials, 4.10), its cross-check.  One Gauss-Legendre rule of
    max(64, 2 k_cap + n + 8) nodes serves every degree and both integrals (the weight
    sharpens with n; above _MAX_RULE nodes a RangeError), and the powers are one running
    product.  An imaginary part above 1e-12 is an AccuracyError."""
    x = _check_nk(n, k_cap, x)
    nodes = max(64, 2 * k_cap + n + 8)
    if nodes > _MAX_RULE:
        raise RangeError(f"the quadrature at n = {n} needs {nodes} > {_MAX_RULE} nodes")
    t, w = gauss_legendre(nodes)
    theta = 0.5 * math.pi * (t + 1.0)
    weights = w * np.sin(theta) ** (n - 3)
    base = x[..., None] + 1j * np.sqrt(np.maximum(1.0 - x[..., None] ** 2, 0.0)) * np.cos(theta)
    out = np.empty((k_cap + 1,) + x.shape, dtype=complex)
    power = np.ones_like(base)
    for k in range(k_cap + 1):
        out[k] = power @ weights
        power *= base
    out /= out[0]
    if np.max(np.abs(out.imag)) > 1e-12:
        raise AccuracyError("imaginary part failed to cancel")
    return out.real


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
        alpha0 = _alpha0(n, p)
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
_FIRST_ROWS = 1023  # degrees the first doubling tabulates at least: a call costs ~0.1 ms fixed


def _derivative_table(n: int, r: int, x, k_cap: int, rows: list | None = None,
                      k_from: int = 0) -> np.ndarray:
    """d^r of the normalized eigenvalues, degrees k_from..k_cap at x; ``rows`` at index
    n + 2r.  Row k is raised row k - r times prod_{i<r} (k + n - 2 + i)(k - i) / (n - 1 + 2i)."""
    if r == 0:
        return _eigenvalue_table(n, x, k_cap, rows)[k_from:]
    out = np.zeros((k_cap + 1 - k_from,) + np.shape(x))
    lo = max(k_from, r)
    if k_cap < lo:
        return out
    base = _eigenvalue_table(n + 2 * r, x, k_cap - r, rows)[lo - r:]
    ks = np.arange(lo, k_cap + 1, dtype=float)
    scale = np.ones_like(ks)
    for i in range(r):
        scale *= (ks + (n - 2 + i)) * (ks - i) / (n - 1 + 2 * i)
    out[lo - k_from:] = scale.reshape((-1,) + (1,) * (out.ndim - 1)) * base
    return out


def _multiplicity_table(n: int, k_cap: int, k_from: int = 0) -> np.ndarray:
    """:func:`multiplicity` for k = k_from..k_cap in floats, as the finite product
    (n + 2k - 2) prod_{i=1}^{n-3} (k + i)/(i + 1)."""
    ks = np.arange(k_from, k_cap + 1, dtype=float)
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
    with np.errstate(divide="ignore"):  # an envelope underflowing to 0 makes the constant inf
        ratios = table.max(axis=1) / (1.0 + ks) ** (r + 1 - n / 2.0)
    return 2.0 * float(ratios.max())


def _band_for(x: float) -> float:
    """The narrowest band holding x, for |x| <= _INTERIOR = _BANDS[-1]."""
    return next(b for b in _BANDS if abs(x) <= b)


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
    |x| <= _INTERIOR (DomainError), k_start >= 1 (InputError) and a truncation of at
    most _K_MAX degrees (AccuracyError); a tail constant past the float range is a
    RangeError.

    Diverges (by the spectral decay law) when r >= alpha0.

    The truncation doubles from k_start until the tail bound is met.  Each doubling
    resumes the blocked recurrence of :func:`_eigenvalue_table` where the last one
    stopped: blocks of _BLOCK degrees, each stepped in one long double array as two
    basis solutions from the states (1, 1) and (1, -1), which are exact at x = +-1
    where the basis (1, 0), (0, 1) would cancel, then joined by one pass that carries
    the true state across the block edges.  Each degree's term m_k |d^r phi_k|^p is
    formed once, when its degree first appears, and each doubling sums all terms with
    one np.sum, in the order of a one-shot sum over degrees 0..k_cap.
    """
    _check_sum_args(p, r)
    if not abs(x) <= _INTERIOR:  # NaN included
        raise DomainError(f"|x| must be <= {_INTERIOR}")
    if k_start < 1:  # the truncation doubles from k_start
        raise InputError(f"k_start must be >= 1, got {k_start}")
    a0 = _alpha0(n, p)
    if r >= a0 - 1e-12:
        return SchattenSumResult(value=None, diverged=True)
    cdec = _decay_constant(n, r, _band_for(x))
    try:  # Python float powers raise past the float range; products and inf do not
        scale = _multiplicity_constant(n) * cdec ** p
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise RangeError(f"the tail bound at n = {n}, p = {p:g} exceeds the float range")
    xs = np.asarray(float(x))
    rows = []  # whole blocks of the recurrence, resumed by each doubling
    terms = np.empty(0)  # m_k |d^r phi_k|^p for k < terms.size, each formed once
    k_cap = k_start
    while True:  # grow the truncation until the tail is below tail_tol relative to the norm
        table = np.abs(_derivative_table(n, r, xs, max(k_cap, _FIRST_ROWS), rows, terms.size))
        table = table[:k_cap + 1 - terms.size]
        terms = np.concatenate([terms, _multiplicity_table(n, k_cap, terms.size) * table ** p])
        total = float(np.sum(terms))
        value, err = _truncated_norm(total, n, p, r, scale, k_cap)
        if err <= tail_tol * max(value, 1e-300):
            return SchattenSumResult(value=value, diverged=False, k_used=k_cap, tail_bound=err)
        if 2 * k_cap > _K_MAX:
            raise AccuracyError("tail tolerance unreachable within k_max")
        k_cap *= 2


def spectrum_report(n: int, p: float, r: int, x_list, k_max: int) -> CertificationReport:
    """The ``sphere-spectrum`` report: the eigenvalue and multiplicity table to degree
    k_max, its recurrence-vs-quadrature cross-check to degree min(k_max, 50) against
    1e-10, and per x the Schatten p-sum of the r-th derivative spectrum, a value that is
    INCONCLUSIVE, written as null, where the sum diverges.  Columns and records are
    labelled by x in ``:g`` format, so two x with one label are an InputError, as is
    an empty x list."""
    rep = CertificationReport(command="sphere-spectrum")
    xs = np.asarray(list(x_list), dtype=float)
    if xs.size == 0:
        raise InputError("--x needs at least one value")
    labels = {}
    for x in xs.tolist():
        label = f"{x:g}"
        if label in labels:
            raise InputError(f"--x {labels[label]!r} and {x!r} share the label x={label}")
        labels[label] = x
    mults = [multiplicity(n, k) for k in range(k_max + 1)]  # checks k_max before the table
    table = eigenvalue_table(n, xs, k_max)
    rep.add_table("spectrum", [
        {"k": k, "m_k": m_k, **{f"phi(x={x:g})": float(v) for x, v in zip(xs, table[k])}}
        for k, m_k in enumerate(mults)])

    # the sums first: a tail bound past the float range is reported before the rule is sized
    sums = [schatten_derivative_sum(n, p, r, float(x)) for x in xs]
    k_check = min(k_max, 50)
    worst = float(np.max(np.abs(table[:k_check + 1] - quadrature_table(n, xs, k_check))))
    rep.add(CheckRecord(
        name="recurrence-vs-quadrature", check_id="sphere/recurrence-quadrature",
        kind=CROSS_CHECK, measured=worst, bound=1e-10, details={"k_max_checked": k_check},
    ))
    for x, res in zip(xs, sums):
        rep.add(CheckRecord(
            name=f"schatten-sum(x={x:g})", check_id="sphere/schatten-sum", kind=VALUE,
            measured=res.value,
            details={"diverged": res.diverged, "k_used": res.k_used,
                     "tail_bound": res.tail_bound, "order": r, "p": p},
        ))
    return rep


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


def averaging_operator(delta: float, f, points, circle_nodes: int = 360):
    """Average of f over {y : <x, y> = delta} for each row x of points.

    Uniform midpoint quadrature on the latitude circle (spectrally
    accurate for smooth f).
    """
    if not (-1.0 <= delta <= 1.0):
        raise DomainError("delta must lie in [-1, 1]")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != 3:
        raise InputError("the averaging oracle is implemented on S^2 (n = 3)")
    x = points / np.linalg.norm(points, axis=1, keepdims=True)
    pick = np.argmin(np.abs(x), axis=1)
    helper = np.eye(3)[pick]
    u = np.cross(helper, x)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(x, u)
    t = 2.0 * math.pi * (np.arange(circle_nodes) + 0.5) / circle_nodes
    circ = math.sqrt(max(1.0 - delta * delta, 0.0))
    y = (delta * x[:, None, :]
         + circ * (np.cos(t)[None, :, None] * u[:, None, :]
                   + np.sin(t)[None, :, None] * v[:, None, :]))
    return np.mean(np.asarray(f(y), dtype=float), axis=1)
