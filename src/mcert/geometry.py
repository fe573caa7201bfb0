"""Geometry of SL(n,R): the growth metric, Lie derivatives, Weyl-chamber
integration and spherical averages.

Conventions used throughout:

* ``|A|`` is the normalized Hilbert-Schmidt norm, |A|^2 = tr(A^T A)/n.
* ``L(g) = max(||g||, ||g^{-1}||)`` (operator norms), so L >= 1 with
  equality exactly on the orthogonal group.
* ``d(g)`` is the distance to the identity, d^2 = (|g - e|^2 + |g^{-1} - e|^2) / 2.
* Haar measure on SO(n) is the probability measure; Haar measure on the
  full group is normalized as  d(mu) = prod_{i<j} sinh(Z_i - Z_j) dZ dk1 dk2
  over the KAK chart with the descending chamber parametrized by its
  first n-1 coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import taylor
from .errors import DomainError, InputError, NumericError, RangeError, check_array, check_count
from .report import CROSS_CHECK, NECESSARY, SUFFICIENT, VALUE, CertificationReport, CheckRecord

__all__ = [
    "GroupElement",
    "check_special_linear",
    "identity",
    "lie_basis",
    "dist_to_identity",
    "expm",
    "lie_derivative",
    "weyl_ball_volume",
    "harish_chandra_xi",
    "haar_so",
]


def check_special_linear(entries) -> np.ndarray:
    """The (..., n, n) stack as finite floats (:func:`check_array`) in SL(n,R): square of
    size >= 2 (InputError) with |det - 1| <= 1e-10 max(1, max|a_ij|^n) (DomainError)."""
    m = check_array("entries", entries, finite=True)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 2:
        raise InputError(f"expected a square matrix of size >= 2, got shape {m.shape}")
    det = np.asarray(np.linalg.det(m))
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)) ** m.shape[-1])
    bad = np.abs(det - 1.0) > 1e-10 * scale
    if np.any(bad):
        worst = float(det[bad].flat[0])
        raise DomainError(f"determinant {worst} too far from 1")
    return m


@dataclass(frozen=True)
class GroupElement:
    """An n x n real matrix of determinant one, or a (..., n, n) stack of them."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", check_special_linear(self.entries))

    @property
    def n(self) -> int:
        return self.entries.shape[-1]

    def __array__(self, dtype=None, copy=None):  # np.asarray(g), as perfbench's observers read it
        return np.asarray(self.entries, dtype=dtype)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.entries @ other.entries)


def identity(n: int) -> GroupElement:
    check_count("n", n, 2)
    return GroupElement(np.eye(n))


def _dist_jet(mats, x, order: int = 0) -> list:
    """Jet of s -> d(g exp(sX)) at s = 0, shaped (D, N), over (N, n, n) g and (D, n, n) X.
    The curves g exp(sX) - e and exp(-sX) g^-1 - e have the matrix jets [g - e, g X^m / m!]
    and [g^-1 - e, (-X)^m g^-1 / m!], so the jet of d^2 pairs each with itself, and d is its
    square root.  Every sum runs over one matrix, so a g and an X give the same bits in any
    stacks."""
    n = mats.shape[-1]
    a, b = mats, np.linalg.inv(mats)
    ja, jb = [a - np.eye(n)], [b - np.eye(n)]
    for m in range(1, order + 1):
        a, b = a @ x[:, None] / m, -x[:, None] @ b / m
        ja.append(a)
        jb.append(b)
    sq = lambda jet: [np.sum(c, axis=(-2, -1)) for c in taylor.mul(jet, jet)]
    d2 = [(p + q) / (2 * n) for p, q in zip(sq(ja), sq(jb))]
    return taylor.power([np.broadcast_to(d2[0], (len(x), len(mats))), *d2[1:]], 0.5)


def dist_to_identity(mats):
    """The distance d(g) = sqrt((|g - e|^2 + |g^-1 - e|^2) / 2) to the identity.

    Smooth away from e, d(g) = d(g^-1), and it vanishes only at e: it is
    comparable to |g - e| near the identity and to L(g) at infinity.  Takes
    a (..., n, n) stack that :func:`check_special_linear` accepts and returns
    values of shape ``...`` (a numpy scalar for one (n, n) matrix, with the bits
    it has inside a stack); :func:`lie_derivative` takes its jets along
    one-parameter subgroups.
    """
    mats = check_array("mats", mats, finite=True)
    flat = mats.reshape(-1, *mats.shape[-2:])
    return _dist_jet(flat, np.zeros_like(flat[:1]))[0].reshape(mats.shape[:-2])[()]


# ---------------------------------------------------------------------------
# Lie algebra basis and derivatives


_MAX_RANK = 64  # the Lie basis holds 8 n^4 bytes, 134 MB at n = 64
_BATCH_FLOATS = 1 << 16  # jet floats per lie_derivative batch (512 KB): peak memory stays flat


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not hit the entry of 2
def lie_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the traceless matrices under <X,Y> = tr(X^T Y), read-only,
    shaped (n^2 - 1, n, n): the E_ij (i != j) in row-major order, then the diagonal
    (E_11 + ... + E_kk - k E_{k+1,k+1}) / sqrt(k (k + 1)) for k = 1..n-1; 2 <= n <=
    _MAX_RANK (InputError)."""
    check_count("n", n, 2, _MAX_RANK)
    mats = []
    for i in range(n):
        for j in range(n):
            if i != j:
                e = np.zeros((n, n))
                e[i, j] = 1.0
                mats.append(e)
    for k in range(1, n):
        d = np.zeros((n, n))
        d[np.arange(k), np.arange(k)] = 1.0
        d[k, k] = -float(k)
        mats.append(d / math.sqrt(k * (k + 1)))
    out = np.array(mats)
    out.flags.writeable = False
    return out


def expm(x, s=1.0) -> np.ndarray:
    """exp(s X) in closed form at every entry of the array ``s`` (s.shape + (n, n)):
    I + sX for square-zero X, entrywise exp for diagonal X, and cos sc, sin sc in the
    (i, j) plane for X = c (E_ij - E_ji), i < j; other X raise InputError."""
    x, s = check_array("x", x, finite=True), check_array("s", s, finite=True)[..., None, None]
    eye = np.eye(x.shape[-1])
    if not np.any(x @ x):
        return eye + s * x
    if np.array_equal(x, np.diag(np.diag(x))):
        return eye * np.exp(s * np.diag(x))
    nonzero = np.argwhere(x)
    if len(nonzero) != 2 or not np.array_equal(x, -x.T):
        raise InputError("expm takes a square-zero, diagonal or plane rotation generator")
    (i, j), _ = nonzero  # row-major order, so i < j
    angle = s[..., 0, 0] * x[i, j]
    out = eye * np.ones_like(s)
    out[..., i, i] = out[..., j, j] = np.cos(angle)
    out[..., i, j], out[..., j, i] = np.sin(angle), -np.sin(angle)
    return out


def lie_derivative(phi, g: GroupElement, x, order: int) -> np.ndarray:
    """Derivatives 0..order at s = 0 of the lift s -> phi(d(g exp(sX))) of a radial profile
    phi along each generator X of ``x``, an (n, n) matrix or a (..., n, n) stack such as
    :func:`lie_basis`, exact up to rounding; an X that is not a finite real n x n matrix is
    an InputError.

    The distance's jet along the flow (:func:`dist_to_identity`), one g^-1 per batch of
    generators whose jets hold at most _BATCH_FLOATS floats (or one generator's), is composed
    with the profile's jet map ``phi.of`` (:class:`mcert.symbols.RadialProfile`), which takes
    and returns jets of (generators, matrices) arrays, another shape being an InputError.
    ``g`` is a :class:`GroupElement`, already validated; the result, (order + 1,) + x.shape[:-2]
    + g.entries.shape[:-2], has the same bits in any stacks; a non-finite one is a NumericError.
    """
    check_count("order", order, 0)
    x = check_array("x", x, finite=True)
    if x.shape[-2:] != (g.n, g.n):
        raise InputError(f"generators must be finite {g.n} x {g.n} matrices, got shape {x.shape}")
    flat, gens = g.entries.reshape(-1, g.n, g.n), x.reshape(-1, g.n, g.n)
    step = max(1, _BATCH_FLOATS // ((order + 1) * flat.size))  # generators per batch
    out = np.empty((order + 1, len(gens), len(flat)))
    with np.errstate(all="ignore"):
        for i in range(0, len(gens), step):
            jet, part = phi.of(_dist_jet(flat, gens[i:i + step], order)), out[:, i:i + step]
            if len(jet) != order + 1 or any(np.shape(c) != part.shape[1:] for c in jet):
                raise InputError(f"profile jet of shapes {[np.shape(c) for c in jet]} for "
                                 f"{part.shape[1:]} arrays at order {order}")
            part[...] = check_array("phi.of(u)", jet)
            part *= taylor.factorials(order)[:, None, None]  # k! u_k
            if not np.all(np.isfinite(part)):  # stop at the first batch that overflows
                raise NumericError("symbol derivative is not finite")
    return out.reshape((order + 1,) + x.shape[:-2] + g.entries.shape[:-2])


# ---------------------------------------------------------------------------
# Weyl chamber integration
#
# In simple-root coordinates t_i = z_i - z_{i+1} >= 0 the ball {max(z_1, -z_n) <= r} is
# r P_1, P_1 = {t >= 0, sum (n - i)/n t_i <= 1, sum i/n t_i <= 1}: d + 2 rows, d = n - 1.
# prod_{i<j} sinh(z_i - z_j) = 2^-N sum_w sgn(w) e^<lambda_w, z> (Weyl denominator formula),
# and e^<lambda_w, z> integrates over a cone r conv(0, v) to r^d |det v| exp[0, y_1..y_d] =
# r^d |det v| sum_m h_m(y) / (m + d)!, y_j = r <lambda_w, v_j> (Hermite-Genocchi).

# n = 2..5: the least float radius whose volume exceeds the largest float (exact oracle)
_FLOAT_RADIUS = (355.584503627252, 178.31211219904594, 89.84113596494072, 60.25585769663995)


@lru_cache(maxsize=None)
def _chamber_simplices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cones from the origin over a pulling triangulation of the facet sum (n - i)/n t_i = 1
    of P_1, one row per (cone, w in S_n), read-only: <lambda_w, v> = <cumsum(lambda_w)[:-1], t>
    at the far vertices v, (k n!, n - 1), lambda_w,i = n + 1 - 2w(i), and sgn(w) vol / 2^N,
    the volumes doubled for the mirror facet (t_i <-> t_{n-i} keeps P_1 and the weight)."""
    d, i, e = n - 1, np.arange(1, n), np.eye(n - 1)
    # d rows are tight at a vertex, at most two of them outer: at most two t_k > 0
    verts = np.array([0 * e[0]] + [e[k - 1] * n / max(k, n - k) for k in i]
                     + [(e[j - 1] * (2 * k - n) + e[k - 1] * (n - 2 * j)) / (k - j)
                        for j in i for k in i if 2 * j < n < 2 * k])
    tight = np.c_[verts == 0, np.isclose(verts @ np.c_[n - i, i] / n, 1.0)]  # vertex x row
    rank = lambda f: np.linalg.matrix_rank(verts[list(f)] - verts[f[0]])

    def pull(face):  # simplices covering the face, each through its first vertex
        if len(face) == rank(face) + 1:
            return [face]
        facets = {tuple(v for v in face if tight[v, c]) for c in range(d + 2)}
        return [(face[0],) + s for f in facets
                if f and face[0] not in f and rank(f) == rank(face) - 1 for s in pull(f)]

    outer = [tuple(np.flatnonzero(tight[:, c])) for c in (d, d + 1)]  # equal for n = 2
    far = verts[pull(outer[0])]
    perms = np.array(list(itertools.permutations(range(n))))  # w - 1, 0-based
    x = (np.cumsum(n - 1 - 2 * perms, axis=1)[:, :-1] @ far.transpose(0, 2, 1)).reshape(-1, d)
    vols = np.abs(np.linalg.det(far)) / n * len(set(outer))  # |dz_1 ... dz_{n-1} / dt| = 1/n
    w = np.outer(vols, np.linalg.det(np.eye(n)[perms])).ravel() / 2.0 ** (n * d // 2)  # det = sgn
    x.flags.writeable = w.flags.writeable = False
    return x, w


def weyl_ball_volume(n: int, r):
    """(volume, truncation bound) of the ball {log L(g) <= r} (Haar normalization above) at a
    radius or an array of radii, both of r's shape.  The volume is the series over the orders
    m >= N (the lower ones cancel over w), up to the first block of 8 orders ending in a term
    bound sum |w| max|y|^m / m! at most 1e-17 of the radius's sum, so a radius has the same
    bits alone as in a list.  n, ``geometry --n``, takes 2 to 5 (InputError); r must be
    positive and finite (DomainError); a volume past the float range is a RangeError.

    The recurrence e_j(m) = (e_{j-1}(m) + y_j e_j(m - 1)) / (m + j) advances along
    anti-diagonals: after a ramp of d - 1 partial steps level j is held at order m + d - j,
    so each order is one array step over every level at once for every n, with the operands
    and roundings, hence the bits, of the level-by-level recurrence.

    The truncation bound on the dropped tail is the geometric series of term bounds past the
    last order m, T q / (1 - q) with q = max|y| / (m + 1) < 1, scaled like the volume; at most
    about 1e-17 of it."""
    check_count("--n", n, 2, 5)
    r = check_array("--R", r)
    if not np.all((0 < r) & (r < math.inf)):
        raise DomainError("radius must be positive and finite")
    if np.any(r >= _FLOAT_RADIUS[n - 2]):  # before the series is sized: its length grows with r
        raise RangeError(f"the chamber volume at radius {r.max():g} exceeds the float range")
    x, w = _chamber_simplices(n)
    d, rs = n - 1, r.ravel()
    # (d, radii, rows) in C order, like e below: a transposed y strides every array step
    y = np.ascontiguousarray(x.T)[:, None, :] * rs[:, None]
    big = np.abs(x).max() * rs  # max |y|
    # the terms reach about e^big: a power-of-two seed keeps them below 2^900 and stays normal
    shift = np.maximum(0, np.ceil(big / math.log(2.0)) - 900).astype(int)
    seed, big8 = np.ldexp(1.0, -shift), np.square(np.square(np.square(big)))  # big^8 by products
    bound = np.abs(w).sum() * seed  # sum |w| seed big^m / m!
    e = np.zeros((d + 1,) + y.shape[1:])  # e_j(m) = seed h_m(0, y_1..y_j) / (m + j)!, e_0 = 0
    e[1:] = seed[:, None] / taylor.factorials(d)[1:, None, None]  # m = 0
    tmp = np.empty_like(y)
    for k in range(1, d):  # the ramp: levels 1..k, level j to order k + 1 - j
        np.multiply(y[:k], e[1:k + 1], out=tmp[:k])
        tmp[:k] += e[:k]
        np.divide(tmp[:k], k + 1, out=e[1:k + 1])
    total, live, m = np.zeros(len(rs)), np.ones(len(rs), dtype=bool), 0
    tail = np.zeros(len(rs))
    while live.any():  # blocks of 8 orders, so every radius is tested at the same orders
        block = np.zeros(y.shape[1:])
        for m in range(m + 1, m + 9):  # level j to order m + d - j, level d to order m
            np.multiply(y, e[1:], out=tmp)
            tmp += e[:-1]
            np.divide(tmp, m + d, out=e[1:])
            if m >= n * d // 2:
                block += e[d]
        total = np.where(live, total + (block * w).sum(axis=-1), total)
        bound = bound * (big8 / float(math.prod(range(m - 7, m + 1))))
        done = live & ~(bound > 1e-17 * np.abs(total))  # an underflowed bound stops at once
        q = big[done] / (m + 1)
        tail[done] = np.where(q < 1.0, bound[done] * q / (1.0 - q), math.inf)
        live &= ~done
    scale = np.prod([rs] * d, axis=0)  # r^d without SIMD pow rounding
    vol = np.ldexp(total, shift) * scale
    if np.any(np.isinf(vol)):  # rounded past the largest float, just below _FLOAT_RADIUS
        raise RangeError(f"the chamber volume at radius {rs[np.isinf(vol)][0]:g} exceeds "
                         "the float range")
    vol = (vol + 0.0).reshape(r.shape)[()]  # an underflowed volume is +0.0
    return vol, (np.ldexp(tail, shift) * scale).reshape(r.shape)[()]


def volume_report(n: int, radii) -> CertificationReport:
    """The ``geometry`` report: chamber ball volumes over a radius list, each with the bound
    on its series' dropped tail, and the growth-rate cross-check, the distance of the slope
    of log volume in R, fitted to the positive volumes by :func:`_slope`, from [n^2/2], against
    5% of it: INCONCLUSIVE when those volumes sit at fewer than three distinct radii."""
    rep = CertificationReport(command="geometry")
    rs = check_array("--R", radii).ravel()
    vols, tails = weyl_ball_volume(n, rs)
    rep.add_table("volumes", [{"R": float(r), "volume": float(v), "truncation_bound": float(t)}
                              for r, v, t in zip(rs, vols, tails)])
    sigma = n * n // 2
    keep = vols > 0.0  # an underflowed volume has no logarithm
    fit = len(set(rs[keep].tolist())) >= 3  # np.unique would load numpy.ma
    slope = _slope(rs[keep].tolist(), np.log(vols[keep]).tolist()) if fit else None
    rep.add(CheckRecord(
        name="volume-growth-rate", check_id="geometry/volume-growth", kind=CROSS_CHECK,
        measured=abs(slope - sigma) if fit else None, bound=0.05 * sigma,
        details={"slope": slope} if fit else
        {"note": "fewer than three distinct radii with a positive volume"},
    ))
    return rep


# ---------------------------------------------------------------------------
# Haar measure on SO(n) and the spherical function


def haar_so(n: int, size: int, rng) -> np.ndarray:
    """Haar-distributed stack of SO(n) matrices.

    QR orthogonalization of Gaussian matrices with the positive-diagonal
    sign correction, then a last-column flip onto determinant +1.
    """
    check_count("n", n, 1)
    check_count("size", size, 0)
    a = rng.standard_normal((size, n, n))
    q, r = np.linalg.qr(a)
    d = np.sign(np.einsum("sii->si", r))
    d[d == 0] = 1.0
    q = q * d[:, None, :]
    neg = np.linalg.det(q) < 0
    q[neg, :, -1] *= -1.0
    return q


def harish_chandra_xi(g: GroupElement, samples: int = 100_000, seed: int = 0):
    """Monte Carlo value of the spherical function Xi(g) with its error.

    Xi(g) averages Delta(gk)^{-1/2} over Haar k in SO(n); Delta is read
    off the QR factorization gk = k' p through the diagonal of p with the
    upper-triangular modular weights n+1-2i; a stack g is an InputError.
    """
    if g.entries.ndim != 2:
        raise InputError(f"expected one matrix, got a stack of shape {g.entries.shape}")
    check_count("samples", samples, 1)
    check_count("seed", seed, 0)
    n = g.n
    rng = np.random.default_rng(seed)
    expo = np.arange(n - 1, -n, -2, dtype=float)  # n + 1 - 2i, i = 1..n
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 65536
    while done < samples:
        m = min(chunk, samples - done)
        k = haar_so(n, m, rng)
        gk = g.entries @ k
        _, r = np.linalg.qr(gk)
        d = np.abs(np.einsum("sii->si", r))
        if np.any(d <= 0) or not np.all(np.isfinite(d)):
            raise NumericError("QR breakdown in modular function evaluation")
        vals = np.exp(-0.5 * (np.log(d) @ expo))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    err = math.sqrt(var / samples)
    return mean, err



# ---------------------------------------------------------------------------
# The certify-hm sweep

_RAY_POINTS = 5  # sweep points per asymptotic ray
_MAX_ORDER = 170  # k! overflows a float from k = 171
# the sweep's jets per direction hold (order + 1)(3 shells + 2 _RAY_POINTS) n^2 floats; it
# holds about three such stacks at once, and 4 shells fit at every allowed n and order
_MAX_JET_FLOATS = 1 << 24


def _basis_indices(dim: int, per_order: int) -> list:
    """``per_order`` distinct basis directions, 1 <= per_order <= dim, spread over the basis."""
    return np.round(np.linspace(0, dim - 1, per_order)).astype(int).tolist()


def _sweep_points(n: int, shells: int, seed: int) -> GroupElement:
    """The sweep as one validated (3 shells + _RAY_POINTS rays, n, n) stack: the local
    shells first, shell by shell, then the asymptotic rays, each moving out from the
    identity."""
    rng = np.random.default_rng(seed)
    dirs = np.zeros((3, n, n))  # diagonal, plane rotation, square-zero; unit normalized HS
    dirs[0, 0, 0], dirs[0, -1, -1] = 1.0, -1.0
    dirs[1, 0, 1], dirs[1, 1, 0] = 1.0, -1.0
    dirs[2, 0, 1] = 1.0
    dirs = dirs / np.linalg.norm(dirs, axis=(1, 2), keepdims=True) * math.sqrt(n)
    radii = np.geomspace(1e-3, 0.6, shells)
    local = np.stack([expm(d, radii) for d in dirs], axis=1)

    z = np.zeros((2 if n >= 3 else 1, n))  # ray directions in the Cartan algebra, max |z_i| = 1
    z[0, 0], z[0, -1] = 1.0, -1.0
    if n >= 3:
        z[1], z[1, -1] = 1.0 / (n - 1), -1.0
    k1 = haar_so(n, 2, rng)
    logl = np.linspace(1.0, 3.0, _RAY_POINTS)
    a = np.exp(logl[:, None] * z[:, None, :])[..., None] * np.eye(n)  # (rays, points, n, n)
    det = np.linalg.det(a)  # one libm pow per point: numpy's SIMD pow can round differently
    a /= np.reshape([d ** (1.0 / n) for d in det.ravel().tolist()], det.shape + (1, 1))
    rays = k1[0] @ a @ k1[1]
    return GroupElement(np.concatenate([local.reshape(-1, n, n), rays.reshape(-1, n, n)]))


def _slope(x: list, y: list):
    """The least-squares slope of the floats y against x, sum (x - xm)(y - ym) / sum (x - xm)^2
    for the means xm, ym, with both means and both sums exactly rounded by math.fsum; None
    when the x are all equal, NaN when a value is not finite (fsum raises on inf + -inf).  Its
    relative error against the exact slope of the same floats is at most about (3 c + 6) 2^-53,
    where c = sum |(x - xm)(y - ym)| / |sum (x - xm)(y - ym)| is 1 when the products share a
    sign, while |xm| stays below some 1e8 times the spread of x."""
    if not all(map(math.isfinite, x + y)):
        return math.nan
    xm, ym = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [a - xm for a in x]
    sxx = math.fsum([d * d for d in dx])
    return math.fsum([d * (b - ym) for d, b in zip(dx, y)]) / sxx if sxx else None


def fit_exponent(ls, vals):
    """Minus the slope of log vals against log ls by :func:`_slope`, the package's one fit,
    through the values above 1e-14: None below three of them or when their ls are all equal,
    NaN when one of them is not finite."""
    ls, vals = check_array("ls", ls), check_array("vals", vals)
    keep = vals > 1e-14
    slope = (_slope(np.log(ls[keep]).tolist(), np.log(vals[keep]).tolist())
             if np.count_nonzero(keep) >= 3 else None)
    return None if slope is None else -slope


def _median(values: list) -> float:
    """np.median of a list of floats, with its bits, by sorting: np.median would load
    numpy.ma.  Like np.median's mean, it adds the middle values to 0.0, so -0.0 gives 0.0."""
    s = sorted(values)
    h = len(s) // 2
    return 0.0 + s[h] if len(s) % 2 else (0.0 + s[h - 1] + s[h]) / 2


def _median_fit(tables):
    """Median over the rays of the exponents fitted to their (1 + d, value) tables, or None."""
    fits = [fit_exponent([x for x, _ in tab], [v for _, v in tab]) for tab in tables]
    fits = [f for f in fits if f is not None]
    return _median(fits) if fits else None


def certify_hm_report(symbol, n: int, order: int | None = None, shells: int = 5, seed: int = 0,
                      per_order: int = 3) -> CertificationReport:
    """The ``certify-hm`` report: the derivative-growth sweep of a group symbol (a
    :class:`mcert.symbols.SymbolHandle`) over local shells and rays.

    Per order k >= 1 a value record: the sup over the points g and directions X_j of
    d^k |X_j^k m(g)|, d = dist(g, e), from the exact derivatives of :func:`lie_derivative`.
    Order 0 is necessary: the largest ratio along a ray of its farthest symbol value to its
    nearest, floored at 1/2, against 2.  When the sweep covers orders [n^2/2] and
    [n^2/2] + 1, the gap of their decay exponents, fitted along the rays against 1 + d,
    tests a sufficient condition against a fifth of the larger or of 1: 0 when both orders
    vanish on the rays, inf when one does.  n, order, shells, per_order and seed are
    checked first, each an InputError named by its ``certify-hm`` flag.
    """
    check_count("--n", n, 2, _MAX_RANK)
    sigma = n * n // 2
    order = sigma + 1 if order is None else order
    check_count("--order", order, 0, _MAX_ORDER)
    check_count("--grid-levels", shells, 1,
                (_MAX_JET_FLOATS // ((order + 1) * n * n) - 2 * _RAY_POINTS) // 3)
    check_count("--per-order", per_order, 1, n * n - 1)  # the basis size
    check_count("--seed", seed, 0)
    basis = lie_basis(n)
    dirs = _basis_indices(len(basis), per_order)
    sweep = _sweep_points(n, shells, seed)
    n_local = 3 * shells

    rep = CertificationReport(command="certify-hm")
    rep.seeds["sweep"] = seed

    dists = dist_to_identity(sweep.entries)
    ray_x = (1.0 + dists[n_local:]).reshape(-1, _RAY_POINTS).tolist()
    # v = max over the directions of |X_j^k m| per order k and point
    derivs = lie_derivative(symbol.profile, sweep, basis[dirs], order)[1:]
    vmax = np.vstack([np.abs(symbol(sweep)), np.max(np.abs(derivs), axis=1)])

    sups, ray_fits = [], {}
    for k in range(order + 1):
        sups.append(float(np.max(dists ** k * vmax[k], initial=0.0)))
        ray_vals = vmax[k, n_local:].reshape(-1, _RAY_POINTS)
        tabs = [list(zip(xs, vs)) for xs, vs in zip(ray_x, ray_vals.tolist())]  # (1 + d, v)
        if k == 0:
            fitted_decay = _median_fit(tabs)
            rep.add(CheckRecord(
                name="hm-order-0", check_id="hm/order-0", kind=NECESSARY,
                measured=float(np.max(ray_vals[:, -1] / np.maximum(ray_vals[:, 0], 0.5))),
                bound=2.0,
                details={"constant": sups[0], "fitted_decay_exponent": fitted_decay,
                         "ray_values": {f"(0, {r})": tab for r, tab in enumerate(tabs)}}))
            continue
        if k >= sigma:
            ray_fits[k] = _median_fit(tabs)
        rep.add(CheckRecord(name=f"hm-order-{k}", check_id=f"hm/order-{k}", kind=VALUE,
                            measured=sups[k], details={"indices": [[j] * k for j in dirs]}))

    if order >= sigma + 1:
        fa, fb = ray_fits[sigma], ray_fits[sigma + 1]
        fits = [abs(f) for f in (fa, fb) if f is not None]
        rep.add(CheckRecord(
            name="decay-propagation", check_id="hm/decay-propagation", kind=SUFFICIENT,
            measured=abs(fa - fb) if len(fits) == 2 else math.inf if fits else 0.0,
            bound=0.2 * max([*fits, 1.0]),
            details={"fitted_exponents": [fa, fb], "order_low": sigma, "order_high": sigma + 1},
        ))

    rep.add_table("hm_constants", [{"order": k, "constant": c} for k, c in enumerate(sups)])
    rep.add(CheckRecord(
        name="hm-constant", check_id="hm/constant", kind=VALUE, measured=float(np.max(sups)),
        details={"max_order": order, "fitted_decay_exponent": fitted_decay},
    ))
    return rep
