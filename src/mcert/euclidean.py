"""Euclidean symbol analysis on R^d.

Dyadic partitions of unity, the fractional-laplacian length and its
constant, the dilation-invariant Sobolev norm, local matrix inversion, and an
upper bound on the sup-norm Schur multiplier of a symbol on a product of unit
cubes.

Fourier convention: f^(xi) = int f(x) exp(-2 pi i <x, xi>) dx, so
Plancherel holds without extra factors and frequencies are cycles per
unit length (fftfreq units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, InputError, check_array, check_count
from .symbols import EuclideanSymbol

__all__ = ["DyadicPartition", "GridSpec", "lp_partition_value", "sigma_partition_value",
           "frac_laplacian_constant", "frac_laplacian_length", "sobolev_norm_w",
           "local_inversion", "SchurUpperBound", "schur_infty_upper_bound"]


def _smoothstep(t):
    """C-infinity increasing step of a float array: 0 for t <= 0, 1 for t >= 1."""
    with np.errstate(over="ignore", divide="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


class DyadicPartition:
    """Radial plateau eta with chi_{B1} <= eta <= chi_{B2}: the canonical mollified step,
    so every partition value is deterministic."""

    def eta(self, r):
        return _smoothstep(2.0 - check_array("r", r))


def _radius(xi):
    xi = check_array("xi", xi)
    return np.abs(xi) if xi.ndim == 0 else np.linalg.norm(xi, axis=-1)


_J_RANGE = (-1074, 1023)  # the band indices j at which 2^j is a finite positive float


def lp_partition_value(p: DyadicPartition, j: int, xi):
    """phi_j(xi) = (eta(2^-j xi) - eta(2^{1-j} xi))^{1/2}, for an integer j in _J_RANGE
    (InputError)."""
    check_count("j", j, *_J_RANGE)
    r = _radius(xi)
    with np.errstate(over="ignore"):  # 2^-j r past the float range is inf, where eta is 0
        val = p.eta(np.ldexp(r, -j)) - p.eta(np.ldexp(r, 1 - j))
    return np.sqrt(np.maximum(val, 0.0))


def sigma_partition_value(p: DyadicPartition, n_width: int, j: int, xi):
    """Averaged plateau sigma_j = (sum of phi_k^2, k = j-N..j+N) / (2N+1), for N = n_width
    >= 1 and an integer j in _J_RANGE (InputError)."""
    check_count("n_width", n_width, 1)
    check_count("j", j, *_J_RANGE)
    r = _radius(xi)
    # telescoping: sum of phi_k^2 over k in [a, b] = eta(2^-b r) - eta(2^{1-a} r)
    with np.errstate(over="ignore"):  # as in lp_partition_value
        total = p.eta(np.ldexp(r, -(j + n_width))) - p.eta(np.ldexp(r, 1 - (j - n_width)))
    return np.maximum(total, 0.0) / (2 * n_width + 1)


# ---------------------------------------------------------------------------
# Fractional laplacian length


def _cosine_moment(d: int, eps: float) -> float:
    """Mean of |c|^{2 eps} for c the first coordinate of a uniform point
    on the (d-1)-sphere.  c^2 is Beta(1/2, (d-1)/2)-distributed (c = +-1 at d = 1),
    so the mean is Gamma(eps + 1/2) Gamma(d/2) / (sqrt(pi) Gamma(d/2 + eps))."""
    return math.gamma(eps + 0.5) * math.gamma(d / 2.0) / (
        math.sqrt(math.pi) * math.gamma(d / 2.0 + eps))


def frac_laplacian_constant(d: int, eps: float) -> float:
    """Constant c in  2 int (1 - cos(2 pi <xi, x>)) dx / |x|^{d+2 eps}
    = c |xi|^{2 eps}.

    The radial factor int_0^inf (1 - cos(a r)) r^{-1-2 eps} dr carries the
    oscillation and is evaluated in closed form,
    a^{2 eps} pi / (2 Gamma(1+2 eps) sin(pi eps)); so is the remaining
    direction-cosine moment.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie strictly inside (0, 1)")
    check_count("d", d, 1)
    surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    radial = math.pi / (2.0 * math.gamma(1.0 + 2.0 * eps) * math.sin(math.pi * eps))
    return 2.0 * surface * (2.0 * math.pi) ** (2.0 * eps) * radial * _cosine_moment(d, eps)


def frac_laplacian_length(d: int, eps: float, xi):
    """psi_eps(xi) = c_{d,eps} |xi|^{2 eps}; returns (value, constant)."""
    c = frac_laplacian_constant(d, eps)
    return c * _radius(xi) ** (2.0 * eps), c


# ---------------------------------------------------------------------------
# Evaluation grids


@dataclass(frozen=True)
class GridSpec:
    """The uniform box [-box_halfwidth, box_halfwidth)^d with box_points points
    per axis, used by the transform-based norms."""

    d: int
    box_halfwidth: float = 8.0
    box_points: int = 256

    def __post_init__(self):
        check_count("d", self.d, 1)
        check_count("box_points", self.box_points, 8)
        if self.box_halfwidth <= 0:
            raise InputError("grid needs a positive box")


# ---------------------------------------------------------------------------
# Transform-based Sobolev norms


def _box_axes(grid: GridSpec):
    n, half = grid.box_points, grid.box_halfwidth
    x = -half + (2.0 * half / n) * np.arange(n)
    freq = np.fft.fftfreq(n, d=2.0 * half / n)
    return x, freq


def _sample_box(m: EuclideanSymbol, grid: GridSpec) -> np.ndarray:
    x, _ = _box_axes(grid)
    axes = np.meshgrid(*([x] * m.d), indexing="ij")
    pts = np.stack(axes, axis=-1)
    return check_array("m(x)", m(pts), complex)


def _check_leakage(samples: np.ndarray, grid: GridSpec, name: str, tol: float = 1e-8):
    n = grid.box_points
    edge = max(1, n // 10)
    total = float(np.sum(np.abs(samples) ** 2))
    if total == 0.0:
        return
    mask = np.zeros(samples.shape, dtype=bool)
    for ax in range(samples.ndim):
        sl = [slice(None)] * samples.ndim
        sl[ax] = slice(0, edge)
        mask[tuple(sl)] = True
        sl[ax] = slice(n - edge, n)
        mask[tuple(sl)] = True
    leak = float(np.sum(np.abs(samples[mask]) ** 2)) / total
    if leak > tol:
        raise AccuracyError(f"{name}: support leaks outside the box (fraction {leak:.2e})")


def sobolev_norm_w(m: EuclideanSymbol, eps: float, grid: GridSpec) -> float:
    """Dilation-invariant norm || |.|^{d/2+eps} (sqrt(psi_eps) m)^ ||_2.

    Requires m to vanish near the origin: its ``inner_radius`` must be set
    and positive (DomainError).
    """
    d = m.d
    if m.inner_radius is None or not m.inner_radius > 0:
        raise DomainError("symbol support touches the origin: the inner radius must be positive")
    c = frac_laplacian_constant(d, eps)
    samples = _sample_box(m, grid)
    _check_leakage(samples, grid, "sobolev_norm_w")
    x, freq = _box_axes(grid)
    axes = np.meshgrid(*([x] * d), indexing="ij")
    r = np.sqrt(sum(a * a for a in axes))
    gfun = math.sqrt(c) * r ** eps * samples
    n, half = grid.box_points, grid.box_halfwidth
    cell = (2.0 * half / n) ** d
    ghat = np.fft.fftn(gfun) * cell
    grids = np.meshgrid(*([freq] * d), indexing="ij")
    xi = np.sqrt(sum(f * f for f in grids))
    norm_sq = float(np.sum(xi ** (d + 2.0 * eps) * np.abs(ghat) ** 2)) / (2.0 * half) ** d
    return math.sqrt(norm_sq)


# ---------------------------------------------------------------------------
# Local inversion


_MAX_COND = 1e12  # A + e past this condition number is numerically singular


def local_inversion(a) -> np.ndarray:
    """I(A) = (A + e)^{-1} - e, an involution where A + e is invertible: a condition
    number of A + e past _MAX_COND is a DomainError."""
    a = check_array("a", a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("expected a square matrix")
    shifted = a + np.eye(a.shape[0])
    cond = np.linalg.cond(shifted)
    if not cond <= _MAX_COND:  # inf and NaN too
        raise DomainError("A + e is numerically singular")
    return np.linalg.inv(shifted) - np.eye(a.shape[0])


# ---------------------------------------------------------------------------
# Product-cube Schur multiplier bound


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


# The grid, its coordinates, Fourier coefficients and weights hold about 112 bytes per
# sample, 32^(d1 + d2) samples: 117 MB at d1 + d2 = 4 and 3.8 GB at 5, so the dimension
# stops at 4, within a memory budget of 128 MB.
_MAX_CUBE_DIM = 4


def schur_infty_upper_bound(s, d1: int, d2: int) -> SchurUpperBound:
    """Upper bound for the sup-norm Schur multiplier of S on the unit cubes
    Q1 = [0, 1]^d1 and Q2 = [0, 1]^d2.

    ``s`` is called with arrays (x, y) of shapes (..., d1) and (..., d2).
    Samples sit on the midpoint tensor grid with 32 points per axis;
    derivatives and L2 norms come from the discrete Fourier side, which is
    exact for band-limited periodic symbols and spectrally accurate for
    smooth ones.  d1, d2 >= 1 and d1 + d2 <= _MAX_CUBE_DIM (InputError), checked before
    any array is allocated.
    """
    check_count("d1", d1, 1)
    check_count("d2", d2, 1)
    check_count("d1 + d2", d1 + d2, 2, _MAX_CUBE_DIM)
    d, size = d1 + d2, 32
    pts = np.stack(np.meshgrid(*[(np.arange(size) + 0.5) / size] * d, indexing="ij"), axis=-1)
    vals = check_array("s(x, y)", s(pts[..., :d1], pts[..., d1:]), complex)
    if not np.all(np.isfinite(vals)):
        raise AccuracyError("symbol evaluation produced non-finite samples")

    coeff = np.fft.fftn(vals) / vals.size  # Fourier coefficients on the torus
    fourier_l1 = float(np.sum(np.abs(coeff)))

    sq_sum = lin_sum = 0.0  # sums over binary multi-indices of |d^rho S|_{L2}^2 and its root
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
