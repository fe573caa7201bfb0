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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import taylor
from .errors import AccuracyError, DomainError, InputError, NumericError, RangeError
from .sphere import gauss_legendre

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


def check_special_linear(mats) -> np.ndarray:
    """The (..., n, n) stack as floats, checked to lie in SL(n,R): finite
    (InputError) with |det - 1| <= 1e-10 max(1, max|a_ij|^n) (DomainError)."""
    m = np.asarray(mats, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 2:
        raise InputError(f"expected a square matrix of size >= 2, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix entries must be finite")
    det = np.asarray(np.linalg.det(m))
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)) ** m.shape[-1])
    bad = np.abs(det - 1.0) > 1e-10 * scale
    if np.any(bad):
        worst = float(det[bad].flat[0])
        raise DomainError(f"determinant {worst} too far from 1")
    return m


@dataclass(frozen=True)
class GroupElement:
    """An n x n real matrix of determinant one."""

    entries: np.ndarray

    def __post_init__(self):
        m = check_special_linear(self.entries)
        if m.ndim != 2:
            raise InputError(f"expected a square matrix of size >= 2, got shape {m.shape}")
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.entries @ other.entries)


def identity(n: int) -> GroupElement:
    return GroupElement(np.eye(n))


def _dist_jet(mats, x=None, order: int = 0) -> list:
    """Jet of s -> d(g exp(sX)) at s = 0 over an (N, n, n) stack of g.  The curves
    g exp(sX) - e and exp(-sX) g^-1 - e have the matrix jets [g - e, g X^m / m!] and
    [g^-1 - e, (-X)^m g^-1 / m!], so the jet of d^2 pairs each with itself, and d is
    its square root.  Every sum runs over one matrix, so a matrix gives the same
    bits in any stack."""
    n = mats.shape[-1]
    a, b = mats, np.linalg.inv(mats)
    ja, jb = [a - np.eye(n)], [b - np.eye(n)]
    for m in range(1, order + 1):
        a, b = a @ x / m, -x @ b / m
        ja.append(a)
        jb.append(b)
    sq = lambda jet: [np.sum(c, axis=(-2, -1)) for c in taylor.mul(jet, jet)]
    return taylor.power([(p + q) / (2 * n) for p, q in zip(sq(ja), sq(jb))], 0.5)


def dist_to_identity(mats):
    """The distance d(g) = sqrt((|g - e|^2 + |g^-1 - e|^2) / 2) to the identity.

    Smooth away from e, d(g) = d(g^-1), and it vanishes only at e: it is
    comparable to |g - e| near the identity and to L(g) at infinity.  Takes
    a (..., n, n) stack that :func:`check_special_linear` accepts and returns
    values of shape ``...`` (a numpy scalar for one (n, n) matrix, with the bits
    it has inside a stack); :func:`lie_derivative` takes its jets along
    one-parameter subgroups.
    """
    return _dist_jet(mats.reshape(-1, *mats.shape[-2:]))[0].reshape(mats.shape[:-2])[()]


# ---------------------------------------------------------------------------
# Lie algebra basis and derivatives


@lru_cache(maxsize=None)
def lie_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the traceless matrices under <X,Y> = tr(X^T Y), read-only,
    shaped (n^2 - 1, n, n): the E_ij (i != j) in row-major order, then the diagonal
    (E_11 + ... + E_kk - k E_{k+1,k+1}) / sqrt(k (k + 1)) for k = 1..n-1."""
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
    x, s = np.asarray(x, dtype=float), np.asarray(s, dtype=float)[..., None, None]
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


def lie_derivative(phi, mats, x, order: int) -> np.ndarray:
    """Derivatives 0..order at s = 0 of the lift s -> phi(d(g exp(sX))) of a radial
    profile phi along the generator X (an (n, n) matrix, such as a row of
    :func:`lie_basis`), exact up to rounding.

    The jet of the distance along the flow (:func:`dist_to_identity`) is composed
    with the profile's jet map ``phi.of`` (:class:`mcert.symbols.RadialProfile`).
    ``mats`` is a (..., n, n) stack of g that :func:`check_special_linear` accepts,
    and the result has shape (order + 1, ...), the same bits for a matrix in any
    stack.  ``phi.of`` takes and returns jets of (N,) arrays; another shape is an
    InputError, and a non-finite derivative a NumericError.
    """
    mats = check_special_linear(mats)
    flat = mats.reshape(-1, *mats.shape[-2:])
    with np.errstate(all="ignore"):
        jet = phi.of(_dist_jet(flat, np.asarray(x, dtype=float), order))
        if len(jet) != order + 1 or any(np.shape(c) != flat.shape[:1] for c in jet):
            raise InputError(f"profile jet of shapes {[np.shape(c) for c in jet]} for "
                             f"{len(flat)} matrices at order {order}")
        out = np.array(jet, dtype=float) * np.cumprod([1.0, *range(1, order + 1)])[:, None]  # k!
    if not np.all(np.isfinite(out)):
        raise NumericError("symbol derivative is not finite")
    return out.reshape(order + 1, *mats.shape[:-2])


# ---------------------------------------------------------------------------
# Weyl chamber integration
#
# In simple-root coordinates t_i = z_i - z_{i+1} >= 0 the ball {max(z_1, -z_n) <= r} is
# r P_1, P_1 = {t >= 0, sum (n - i)/n t_i <= 1, sum i/n t_i <= 1}: d + 2 rows, d = n - 1.

_MAX_NODES = 2 ** 22  # nodes of the finer tensor rule on one simplex
# n = 2..5: the least float radius whose volume exceeds the largest float (exact oracle)
_FLOAT_RADIUS = (355.584503627252, 178.31211219904594, 89.84113596494072, 60.25585769663995)


@lru_cache(maxsize=None)
def _chamber_simplices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cones from the origin over a pulling triangulation of the facet sum (n - i)/n t_i = 1
    of P_1, read-only: the roots z_i - z_j (i < j) at their far vertices, (k, n - 1, n(n-1)/2),
    and their volumes, doubled for the mirror facet (t_i <-> t_{n-i} keeps P_1 and the weight)."""
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
    lo, hi = np.triu_indices(n, 1)
    roots = far @ ((lo[:, None] <= i - 1) & (i - 1 < hi[:, None])).T  # t_lo + ... + t_{hi-1}
    vols = np.abs(np.linalg.det(far)) / n * len(set(outer))  # |dz_1 ... dz_{n-1} / dt| = 1/n
    roots.flags.writeable = vols.flags.writeable = False
    return roots, vols


def _chamber_integral(n: int, r: float, q: int) -> float:
    """prod_{i<j} sinh(z_i - z_j) over the ball of radius r, q nodes per axis, each sinh a as
    -e^a expm1(-2a) / 2: sum a <= sigma r, so only the closing e^(sigma r / 2) can overflow."""
    x, w = gauss_legendre(q)
    s, ws = 0.5 * (x + 1.0), 0.5 * w
    bary, wf = np.ones((1, 1)), np.ones(1)  # collapsed (Duffy) rule on the j-simplex
    for j in range(n - 2):  # the cone over the j-simplex from a new vertex
        bary = np.hstack([np.repeat(1.0 - s, len(wf))[:, None],
                          (s[:, None, None] * bary).reshape(-1, j + 1)])
        wf = np.outer(ws * s ** j, wf).ravel()
    ws = ws * s ** (n - 2)
    step = max(1, 2 ** 16 // len(wf))  # radial nodes per array: at most 2^16 nodes
    sigma, total = n * n // 2, 0.0
    for face, vol in zip(*_chamber_simplices(n)):
        y = -2.0 * r * face.T @ bary.T  # -2r times the roots at the face nodes
        for k in range(0, q, step):
            vals = np.exp(-0.5 * s[k:k + step, None] * y.sum(axis=0) - sigma * r / 2.0)
            vals *= np.expm1(y[:, None] * s[k:k + step, None]).prod(axis=0)
            total += vol * float(ws[k:k + step] @ vals @ wf)
    return float(total * r ** (n - 1)) * (-0.5) ** (n * (n - 1) // 2) * math.exp(sigma * r / 2.0)


def weyl_ball_volume(n: int, r: float) -> float:
    """Volume of the ball {log L(g) <= r} in the Haar normalization above: the finer of
    the rules at q and q + 4 nodes per axis.  A gap above 1e-9 relative, or a rule above
    _MAX_NODES nodes per simplex, is an AccuracyError; r must be positive and finite
    (DomainError), and a volume beyond the float range is a RangeError."""
    if n < 2 or n > 5:
        raise InputError("n must be in {2, ..., 5}")
    if not (0 < r < math.inf):
        raise DomainError("radius must be positive and finite")
    if r >= _FLOAT_RADIUS[n - 2]:  # before the rule is sized: q grows with r
        raise RangeError(f"the chamber volume at radius {r:g} exceeds the float range")
    # coarser rule within 1e-11 up to the float range, sigma r < 724; n + 4 covers small r
    q = max(n + 4, 4 + math.ceil(2.6 * math.sqrt(n * n // 2 * r)))
    if (q + 4) ** (n - 1) > _MAX_NODES:
        raise AccuracyError(f"radius {r:g} needs {q + 4}^{n - 1} > {_MAX_NODES} nodes per simplex")
    coarse, vol = (_chamber_integral(n, r, m) for m in (q, q + 4))
    if math.isinf(vol):  # rounded past the largest float, just below _FLOAT_RADIUS
        raise RangeError(f"the chamber volume at radius {r:g} exceeds the float range")
    if abs(coarse - vol) > 1e-9 * vol:
        raise AccuracyError("chamber quadrature did not converge")
    return vol + 0.0  # an underflowed volume is +0.0, whatever the sign of the weight


# ---------------------------------------------------------------------------
# Haar measure on SO(n) and the spherical function


def haar_so(n: int, size: int, rng) -> np.ndarray:
    """Haar-distributed stack of SO(n) matrices.

    QR orthogonalization of Gaussian matrices with the positive-diagonal
    sign correction, then a last-column flip onto determinant +1.
    """
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
    upper-triangular modular weights n+1-2i.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
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

