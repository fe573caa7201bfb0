"""Higher chain rule machinery and the diagonal-conjugation frames.

Partial Bell polynomials drive the exact higher-derivative composition
formula and an assertable bound with fully computed constants.  The
frames describe conjugation of a planar rotation by a one-parameter
diagonal matrix: the resulting operator norm and normalized
Hilbert-Schmidt norm are explicit in the rotation parameter, and the
inverse changes of variable (from norm value back to the rotation
parameter) have closed-form derivatives with fast decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import taylor
from .errors import DomainError, InputError, RangeError, check_array, check_count

__all__ = [
    "DerivativeJet",
    "bell_polynomial",
    "bell_coefficient_mass",
    "faa_di_bruno",
    "composition_derivative_bound",
    "shear_operator_norm",
    "CompositionFrame",
    "opnorm_coordinate",
    "opnorm_coordinate_derivative",
    "hs_coordinate",
    "so_n1_trace_coefficients",
    "so_n1_embedded_matrix",
    "rotation_matrix",
]


@dataclass(frozen=True)
class DerivativeJet:
    """First k derivatives of a scalar function at a point; values[i] is
    the (i+1)-th derivative."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(check_array("values", self.values).tolist()))

    @property
    def order(self) -> int:
        return len(self.values)


def bell_polynomial(k: int, j: int, z) -> float:
    """Partial Bell polynomial B_{k,j}(z_1, ..., z_{k-j+1})."""
    check_count("k", k, 1)
    check_count("j", j, 1, k)
    z = check_array("z", z).tolist()
    if len(z) < k - j + 1:
        raise InputError(f"need at least {k - j + 1} arguments, got {len(z)}")
    table = {(0, 0): 1.0}

    def get(kk: int, jj: int) -> float:
        if jj == 0:
            return 1.0 if kk == 0 else 0.0
        if kk < jj:
            return 0.0
        key = (kk, jj)
        if key not in table:
            table[key] = sum(math.comb(kk - 1, i - 1) * z[i - 1] * get(kk - i, jj - 1)
                             for i in range(1, kk - jj + 2))
        return table[key]

    return get(k, j)


@lru_cache(maxsize=None, typed=True)  # typed: True must not hit the entry of 1
def bell_coefficient_mass(k: int) -> int:
    """Total coefficient mass sum_j B_{k,j}(1, ..., 1), the Bell number B_k, exact in
    integers by B_{m+1} = sum_i C(m, i) B_i."""
    check_count("k", k, 0)
    bell = [1]
    for m in range(k):
        bell.append(sum(math.comb(m, i) * b for i, b in enumerate(bell)))
    return bell[k]


def faa_di_bruno(f_jet: DerivativeJet, phi_jet: DerivativeJet, k: int) -> float:
    """k-th derivative of a composition from the two jets.

    ``f_jet`` holds derivatives of the outer function at the inner value;
    ``phi_jet`` holds derivatives of the inner function at the point.
    """
    check_count("k", k, 1)
    if f_jet.order < k or phi_jet.order < k:
        raise InputError(f"jets must have order >= {k}")
    total = 0.0
    for j in range(1, k + 1):
        total += bell_polynomial(k, j, phi_jet.values[: k - j + 1]) * f_jet.values[j - 1]
    return total


def composition_derivative_bound(f_norm: float, phi_jet_sups, k: int) -> float:
    """Assertable bound C_k * f_norm * max_j sup|d^j phi|^{k/j}.

    C_k is the exact Bell coefficient mass of row k, so the bound can
    never be violated by the exact composition formula.
    """
    check_count("k", k, 1)
    sups = [abs(v) for v in check_array("phi_jet_sups", phi_jet_sups).tolist()]
    if len(sups) < k:
        raise InputError(f"need sups of orders 1..{k}")
    peak = max(sups[j - 1] ** (k / j) for j in range(1, k + 1))
    return bell_coefficient_mass(k) * abs(f_norm) * peak


# ---------------------------------------------------------------------------
# Conjugated-rotation frames


def shear_operator_norm(x):
    """Operator norm of a determinant-one 2 x 2 matrix whose squared
    Hilbert-Schmidt norm is 2 + 4 x^2; equals e^u at x = sinh(u)."""
    x = check_array("x", x)
    x2 = x * x
    return np.sqrt(1.0 + 2.0 * x2 + 2.0 * np.sqrt(x2 + x2 * x2))


def rotation_matrix(n: int, delta: float) -> np.ndarray:
    """Rotation by arccos(delta) in the first two coordinates of R^n."""
    check_count("n", n, 2)
    if not (-1.0 <= delta <= 1.0):
        raise DomainError("delta must lie in [-1, 1]")
    k = np.eye(n)
    s = math.sqrt(max(1.0 - delta * delta, 0.0))
    k[0, 0] = delta
    k[0, 1] = -s
    k[1, 0] = s
    k[1, 1] = delta
    return k


@dataclass(frozen=True)
class CompositionFrame:
    """Diagonal matrix D = diag(e^r, e^s x (n-1)) in SL(n), r + (n-1)s = 0."""

    n: int
    r: float
    s: float

    @classmethod
    def create(cls, n: int, r: float) -> "CompositionFrame":
        check_count("n", n, 3)
        if not (r > 0):
            raise DomainError("r must be positive")
        # -r / (n - 1) rounds differently, and the section reports carry these bits
        return cls(n=n, r=r, s=-2 / (2 * n - 2) * r)

    def d_matrix(self) -> np.ndarray:
        return np.diag([math.exp(self.r)] + [math.exp(self.s)] * (self.n - 1))

    def conjugated_rotation(self, delta: float) -> np.ndarray:
        d = self.d_matrix()
        return d @ rotation_matrix(self.n, delta) @ d

    # operator-norm window [x_min, x_max] swept by delta in [0, 1]
    @property
    def x_min(self) -> float:
        return math.exp(self.r + self.s)

    @property
    def x_max(self) -> float:
        return math.exp(2.0 * self.r)

    def opnorm_of_delta(self, delta) -> np.ndarray:
        stretch = math.sinh(self.r - self.s)
        return self.x_min * shear_operator_norm(check_array("delta", delta) * stretch)

    # normalized Hilbert-Schmidt window [hs_min, hs_max]
    @property
    def hs_min(self) -> float:
        val = (2.0 * math.exp(2.0 * (self.r + self.s))
               + (self.n - 2) * math.exp(4.0 * self.s)) / self.n
        return math.sqrt(val)

    @property
    def hs_max(self) -> float:
        val = (math.exp(4.0 * self.r) + (self.n - 1) * math.exp(4.0 * self.s)) / self.n
        return math.sqrt(val)

    def hs_of_delta(self, delta) -> np.ndarray:
        delta = check_array("delta", delta)
        a2, b2 = self.hs_min ** 2, self.hs_max ** 2
        return np.sqrt(a2 + delta * delta * (b2 - a2))


_DOMAIN_SLACK = 1e-9


def _check_window(x, lo: float, hi: float) -> np.ndarray:
    """``x`` as a float array (:func:`check_array`); a DomainError where it leaves [lo, hi]
    by more than _DOMAIN_SLACK relative."""
    x = check_array("x", x)
    if np.any(x < lo * (1 - _DOMAIN_SLACK)) or np.any(x > hi * (1 + _DOMAIN_SLACK)):
        raise DomainError(f"x outside [{lo:.6g}, {hi:.6g}]")
    return x


def opnorm_coordinate(frame: CompositionFrame, x) -> np.ndarray:
    """Rotation parameter delta realizing operator norm x; inverse of
    ``opnorm_of_delta`` on [x_min, x_max] -> [0, 1]."""
    lo = frame.x_min
    x = _check_window(x, lo, frame.x_max)
    return (x / lo - lo / x) / (2.0 * math.sinh(frame.r - frame.s))


def opnorm_coordinate_derivative(frame: CompositionFrame, j: int, x) -> np.ndarray:
    """Closed-form j-th derivative of :func:`opnorm_coordinate`."""
    check_count("j", j, 1)
    x = _check_window(x, frame.x_min, frame.x_max)
    e2r, e2s = math.exp(2.0 * frame.r), math.exp(2.0 * frame.s)
    if j == 1:
        return (1.0 + math.exp(2.0 * (frame.r + frame.s)) / (x * x)) / (e2r - e2s)
    sign = 1.0 if (j - 1) % 2 == 0 else -1.0
    return sign * taylor.factorials(j)[j] / ((1.0 / e2s - 1.0 / e2r) * x ** (j + 1))


def hs_coordinate(frame: CompositionFrame, x) -> np.ndarray:
    """Rotation parameter delta realizing normalized HS norm x; inverse
    of ``hs_of_delta`` on [hs_min, hs_max] -> [0, 1]."""
    a, b = frame.hs_min, frame.hs_max
    x = _check_window(x, a, b)
    num = np.maximum((x / a) ** 2 - 1.0, 0.0)
    return np.sqrt(num / ((b / a) ** 2 - 1.0))


# ---------------------------------------------------------------------------
# Lorentz-group coefficients


def so_n1_trace_coefficients(n: int, r: float):
    """Quadratic trace law for the Lorentz-embedded conjugated rotation.

    tr((D k_delta D)^T (D k_delta D)) = a delta^2 + b delta + c with
    a = 4 sinh^4 r, b = 2 sinh^2(2r), c = n - 3 + 4 cosh^4 r; returns
    (a, b, c, g) where g inverts the quadratic on [c, a + b + c].  Coefficients past the
    float range are a RangeError.
    """
    check_count("n", n, 2)
    if not (r > 0):
        raise DomainError("r must be positive")
    try:
        a = 4.0 * math.sinh(r) ** 4
        b = 2.0 * math.sinh(2.0 * r) ** 2
        c = n - 3.0 + 4.0 * math.cosh(r) ** 4
    except OverflowError:
        a = b = c = math.inf
    if not math.isfinite(a + b + c):
        raise RangeError(f"the trace coefficients at r = {r:g} exceed the float range")

    def g(x):
        x = _check_window(x, c, a + b + c)
        return -b / (2.0 * a) + np.sqrt(b * b / (4.0 * a * a) + (x - c) / a)

    return a, b, c, g


def so_n1_embedded_matrix(n: int, r: float, delta: float) -> np.ndarray:
    """(n+1) x (n+1) product D(r) diag(k_delta, 1) D(r) in the Lorentz
    group, D(r) the standard one-parameter boost.  Entries past the float range are a
    RangeError."""
    check_count("n", n, 2)
    if math.isnan(r):
        raise DomainError("r must be a number")
    k = np.eye(n + 1)
    k[:n, :n] = rotation_matrix(n, delta)
    d = np.eye(n + 1)
    try:
        d[0, 0] = d[n, n] = math.cosh(r)
        d[0, n] = d[n, 0] = math.sinh(r)
    except OverflowError:
        d[0, 0] = math.inf  # a boost past the float range: the product check raises
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN entry is checked below
        product = d @ k @ d
    if not np.isfinite(product).all():
        raise RangeError(f"the product at r = {r:g} exceeds the float range")
    return product
