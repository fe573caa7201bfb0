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

from .errors import AccuracyError, DomainError, InputError, RangeError, check_array, check_count
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


def _check_nk(n: int, k: int, k_name: str = "k") -> None:
    """n >= 3 and the degree k >= 0 (InputError, named ``k_name``), n + k - 3 within
    _FACTORIAL_BOUND (RangeError)."""
    check_count("n", n, 3)
    check_count(k_name, k, 0)
    if n + k - 3 > _FACTORIAL_BOUND:
        raise RangeError(f"n + k exceeds the configured factorial bound {_FACTORIAL_BOUND}")


def _table_x(n: int, x, k_cap: int) -> np.ndarray:
    """x as floats (:func:`check_array`) in [-1, 1] (DomainError), after n and k_cap."""
    _check_nk(n, k_cap, "k_cap")
    x = check_array("x", x)
    if not np.all(np.abs(x) <= 1.0 + 1e-14):  # NaN fails too
        raise DomainError("argument outside [-1, 1]")
    return x


_BLOCK = 16  # degrees per block; block b holds degrees 2 + b _BLOCK to 1 + (b + 1) _BLOCK
# Blocks times points per _recurrence_blocks call, and at least one block.  Its largest
# array, the long-double basis, holds (_BLOCK + 2) x 2 values of 16 bytes per block and
# point, 576 bytes, and each step coefficient array _BLOCK x 2 of them, 512 bytes.  At 128
# blocks at one point these are 72 and 64 KiB, below the 128 KiB from which glibc's malloc
# by default maps fresh pages for an array (and faults them in anew on every call), so a
# call's temporaries are reused heap memory.
_CHUNK = 128


def _eigenvalue_chunks(n: int, x: np.ndarray, k_cap: int):
    """The normalized eigenvalues at the float array x as one forward stream of chunks,
    each shaped (rows,) + x.shape, that ends with the chunk holding degree k_cap: the
    table is their concatenation.  By the ultraspherical recurrence at index
    lambda = (n-2)/2,
    y_k = (2 (k + lambda - 1) x y_{k-1} - (k - 1) y_{k-2}) / (k + 2 lambda - 1).

    The first chunk is y_0 = 1 and y_1 = x, exact.  Every degree from 2 on runs in
    blocks of _BLOCK, anchored at 2 + b _BLOCK, and each later chunk is one
    :func:`_recurrence_blocks` call over the next blocks, seeded with the last two rows
    of the chunk before.  A call steps as many blocks as the table holds, at least half
    and at most _CHUNK blocks times points (and at least one block): at one x, 64, 64,
    then 128 blocks each.  The call steps two basis solutions A and B of the recurrence
    for all its blocks, from the states (y_{k-1}, y_{k-2}) = (1, 1) and (1, -1), in one
    np.longdouble array over all those blocks and all x: _BLOCK array steps, whatever
    its length.  A pass over the blocks then carries the true state (t1, t2), from
    (x, 1) at degree 2, across the block edges in floats, as c_a = (t1 + t2)/2,
    c_b = (t1 - t2)/2, and one float product c_a A + c_b B forms every row.  At x = 1
    the state is c_a = 1, c_b = 0 and at x = -1 it is c_a = 0, c_b = +-1, so the table is
    exact there, where the basis (1, 0), (0, 1) would cancel.  Elsewhere the error
    enters through the carry, a few float roundings per block where the sequential
    recurrence rounds a few times per degree: with the 64-bit significand of the x86-64
    long double, the table's error against an exact oracle is about a third of the
    sequential recurrence's (k <= 16,384).  Where the long double is the float itself,
    the bases round like the recurrence and the error is about the sequential
    recurrence's.  Each x is carried on its own, so an array x gives the bits of each x
    alone, and the carry into a chunk is the float state the chunk before ended with, so
    chunks have the bits of one call over all their blocks, and a table the bits of
    every deeper table's first rows."""
    chunk = np.stack([np.ones_like(x), x])
    yield chunk
    stop, step = (k_cap - 2) // _BLOCK + 1, max(1, _CHUNK // max(1, x.size))
    first = 0  # the next block to step
    while first < stop:
        last = first + min(step, max(first, (step + 1) // 2), stop - first)
        chunk = _recurrence_blocks(0.5 * (n - 2), x, first, last, (chunk[-1], chunk[-2]))
        yield chunk
        first = last


def _recurrence_blocks(lam: float, x: np.ndarray, first: int, stop: int, entry) -> np.ndarray:
    """Blocks first..stop - 1 of :func:`_eigenvalue_chunks`, degrees 2 + first _BLOCK to
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


def _derivative_chunks(n: int, r: int, x: np.ndarray, k_cap: int):
    """d^r of the normalized eigenvalues at the float array x as one forward stream of
    chunks that ends with the chunk holding degree k_cap: r zero rows, then the chunks of
    :func:`_eigenvalue_chunks` at index n + 2r, whose row k - r times
    prod_{i<r} (k + n - 2 + i)(k - i) / (n - 1 + 2i) is row k."""
    yield np.zeros((r,) + x.shape)
    k = r  # the degree of the chunk's first row
    for chunk in _eigenvalue_chunks(n + 2 * r, x, k_cap - r):
        ks = np.arange(k, k + len(chunk), dtype=float)
        scale = np.ones_like(ks)
        for i in range(r):
            scale *= (ks + (n - 2 + i)) * (ks - i) / (n - 1 + 2 * i)
        yield scale.reshape((-1,) + (1,) * x.ndim) * chunk
        k += len(chunk)


def _derivative_table(n: int, r: int, x: np.ndarray, k_cap: int) -> np.ndarray:
    """Degrees 0..k_cap of :func:`_derivative_chunks`, shaped (k_cap + 1,) + x.shape."""
    return np.concatenate(list(_derivative_chunks(n, r, x, k_cap)))[:k_cap + 1]


def eigenvalue_table(n: int, x, k_cap: int) -> np.ndarray:
    """Eigenvalues of degrees 0..k_cap at x, shaped (k_cap + 1,) + x.shape: n >= 3 and
    k_cap >= 0 (InputError), n + k_cap - 3 within _FACTORIAL_BOUND (RangeError), both
    before any array, every x in [-1, 1] (DomainError)."""
    return _derivative_table(n, 0, _table_x(n, x, k_cap), k_cap)


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
    x = _table_x(n, x, k_cap)
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
    if np.max(np.abs(out.imag), initial=0.0) > 1e-12:  # initial: an empty x has no maximum
        raise AccuracyError("imaginary part failed to cancel")
    return out.real


def multiplicity(n: int, k: int) -> int:
    """Dimension of the degree-k eigenspace, exactly in integer arithmetic:
    C(n+k-1, k) - C(n+k-3, k-2), about min(k, n-1) multiplies each: n >= 3 and k >= 0
    (InputError), n + k - 3 within _FACTORIAL_BOUND (RangeError)."""
    _check_nk(n, k)
    return math.comb(n + k - 1, k) - (math.comb(n + k - 3, k - 2) if k >= 2 else 0)


def _multiplicities(n: int, k_max: int, k_name: str = "k_max") -> list:
    """[:func:`multiplicity` (n, k) for k = 0..k_max], in one loop after one check (k_max
    named ``k_name``): C(n+k-3, k-2) is C(n+k-1, k) two degrees down."""
    _check_nk(n, k_max, k_name)
    binomials = [math.comb(n + k - 1, k) for k in range(k_max + 1)]
    return binomials[:2] + [c - c2 for c, c2 in zip(binomials[2:], binomials)]


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
        check_count("n", n, 3)
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


def _multiplicity_table(n: int, ks: np.ndarray) -> np.ndarray:
    """:func:`multiplicity` at the float degrees ks in floats, as the finite product
    (n + 2k - 2) prod_{i=1}^{n-3} (k + i)/(i + 1)."""
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
    worst = max(m_k / (1.0 + k) ** (n - 2) for k, m_k in enumerate(_multiplicities(n, 400)))
    return 2.0 * worst


@dataclass(frozen=True)
class SchattenSumResult:
    value: float | None
    diverged: bool
    k_used: int = 0
    tail_bound: float = 0.0


def _alpha0(n: int, p: float) -> float:
    return (n - 2) / 2.0 - (n - 1) / p


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
    """Schatten p-sum of the r-th derivative spectrum with certified tail, for n >= 3,
    r >= 0, 1 <= k_start <= _K_MAX, a finite p >= 1 and tail_tol > 0 (InputError, all
    before any table), |x| <= _INTERIOR (DomainError) and a truncation of at most _K_MAX
    degrees (AccuracyError); a tail constant past the float range is a RangeError.

    Diverges (by the spectral decay law) when r >= alpha0.

    The truncation doubles from k_start until the tail bound is met.  The doublings read
    one stream of :func:`_derivative_chunks`, pulling a chunk only while degree k_cap is
    missing.  Each degree's term m_k |d^r phi_k|^p is formed once, with its chunk, and
    each doubling sums the terms of degrees 0..k_cap with one np.sum, in the order of a
    one-shot sum.
    """
    check_count("n", n, 3)
    check_count("r", r, 0)
    check_count("k_start", k_start, 1, _K_MAX)  # the truncation doubles from k_start
    if not (1.0 <= p < math.inf):
        raise InputError(f"Schatten exponent p must be finite and >= 1, got {p}")
    if not tail_tol > 0.0:  # NaN included
        raise InputError(f"tail_tol must be > 0, got {tail_tol}")
    if not abs(x) <= _INTERIOR:  # NaN included
        raise DomainError(f"|x| must be <= {_INTERIOR}")
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
    chunks = _derivative_chunks(n, r, np.asarray(float(x)), _K_MAX)
    terms = np.empty(0)  # m_k |d^r phi_k|^p for k < terms.size, each formed once
    k_cap = k_start
    while True:  # grow the truncation until the tail is below tail_tol relative to the norm
        while terms.size <= k_cap:  # pull chunks only while degree k_cap is missing
            chunk = np.abs(next(chunks))
            ks = np.arange(terms.size, terms.size + len(chunk), dtype=float)
            terms = np.concatenate([terms, _multiplicity_table(n, ks) * chunk ** p])
        total = float(np.sum(terms[:k_cap + 1]))
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
    an empty x list.  n, r and k_max are checked first, each an InputError named by its
    ``sphere-spectrum`` flag."""
    check_count("--n", n, 3)
    check_count("--r", r, 0)
    check_count("--kmax", k_max, 0)
    rep = CertificationReport(command="sphere-spectrum")
    xs = check_array("--x", x_list).ravel()
    if xs.size == 0:
        raise InputError("--x needs at least one value")
    labels = {}
    for x in xs.tolist():
        label = f"{x:g}"
        if label in labels:
            raise InputError(f"--x {labels[label]!r} and {x!r} share the label x={label}")
        labels[label] = x
    mults = _multiplicities(n, k_max, "--kmax")  # checks n + k_max before the table
    table = eigenvalue_table(n, xs, k_max)
    columns = [f"phi(x={label})" for label in labels]
    rep.add_table("spectrum", [{"k": k, "m_k": m_k, **dict(zip(columns, row))}
                               for k, (m_k, row) in enumerate(zip(mults, table.tolist()))])

    # the sums first: a tail bound past the float range is reported before the rule is sized
    sums = [schatten_derivative_sum(n, p, r, x) for x in labels.values()]
    k_check = min(k_max, 50)
    worst = float(np.max(np.abs(table[:k_check + 1] - quadrature_table(n, xs, k_check))))
    rep.add(CheckRecord(
        name="recurrence-vs-quadrature", check_id="sphere/recurrence-quadrature",
        kind=CROSS_CHECK, measured=worst, bound=1e-10, details={"k_max_checked": k_check},
    ))
    for label, res in zip(labels, sums):
        rep.add(CheckRecord(
            name=f"schatten-sum(x={label})", check_id="sphere/schatten-sum", kind=VALUE,
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
    check_count("circle_nodes", circle_nodes, 1)
    if not (-1.0 <= delta <= 1.0):
        raise DomainError("delta must lie in [-1, 1]")
    points = np.atleast_2d(check_array("points", points))
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
    return np.mean(check_array("f(y)", f(y)), axis=1)
