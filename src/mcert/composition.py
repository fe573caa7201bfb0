"""Higher chain rule machinery and the diagonal-conjugation frames.

The exact higher-derivative composition formula runs on :mod:`taylor` jets,
the package's one derivative engine, and an assertable bound takes exact Bell
numbers as its constants.  The frames describe conjugation of a planar
rotation by a one-parameter diagonal matrix: the resulting operator norm and
normalized Hilbert-Schmidt norm are explicit in the rotation parameter, and
the inverse change of variable, from operator norm back to the rotation
parameter, has closed-form derivatives with fast decay.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import taylor
from .errors import InputError, RangeError, check_array, check_count

__all__ = [
    "DerivativeJet",
    "bell_coefficient_mass",
    "faa_di_bruno",
    "composition_derivative_bound",
    "shear_operator_norm",
    "CompositionFrame",
    "opnorm_coordinate",
    "opnorm_coordinate_derivative",
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
        values = check_array("values", self.values, shape=(None,))
        object.__setattr__(self, "values", tuple(values.tolist()))

    @property
    def order(self) -> int:
        return len(self.values)


def bell_coefficient_mass(k: int) -> int:
    """Total coefficient mass sum_j B_{k,j}(1, ..., 1), the Bell number B_k, exact in
    integers by B_{m+1} = sum_i C(m, i) B_i; k is checked before the cache hashes it."""
    check_count("k", k, 0)
    return _bell_number(k)


@lru_cache(maxsize=None)
def _bell_number(k: int) -> int:
    bell = [1]
    for m in range(k):
        bell.append(sum(math.comb(m, i) * b for i, b in enumerate(bell)))
    return bell[k]


def faa_di_bruno(f_jet: DerivativeJet, phi_jet: DerivativeJet, k: int) -> float:
    """k-th derivative of f(phi(x)) at a point, k! times coefficient k of sum_j f^(j) / j!
    (phi - phi_0)^j on :mod:`taylor` jets, from ``f_jet`` at phi_0 and ``phi_jet`` at the
    point, each a finite DerivativeJet of order >= k, else an InputError that names it.  k is
    a count from 1, past taylor.MAX_ORDER a RangeError, as is a result past the float range."""
    check_count("k", k, 1)
    if k > taylor.MAX_ORDER:
        raise RangeError(f"k must be <= {taylor.MAX_ORDER}, got {k}: k! exceeds the float range")
    for name, jet in (("f_jet", f_jet), ("phi_jet", phi_jet)):
        if not isinstance(jet, DerivativeJet) or jet.order < k:
            raise InputError(f"{name} must be a DerivativeJet of order >= {k}, got {jet!r}")
        check_array(name, jet.values, finite=True)
    fact = taylor.factorials(k).tolist()  # Python floats overflow to inf without a warning
    shift = [0.0] + [v / fact[i] for i, v in enumerate(phi_jet.values[:k], start=1)]
    power, total = shift, f_jet.values[0] * shift[k]
    for j in range(2, k + 1):
        power = taylor.mul(power, shift)
        total += f_jet.values[j - 1] / fact[j] * power[k]
    if not math.isfinite(value := fact[k] * total):
        raise RangeError(f"the derivative of order k = {k} exceeds the float range")
    return value


def composition_derivative_bound(f_norm: float, phi_jet_sups, k: int) -> float:
    """Assertable bound C_k * f_norm * max_j sup|d^j phi|^{k/j}, C_k the exact Bell
    coefficient mass of row k, which the exact composition formula never exceeds."""
    check_count("k", k, 1)
    sups = [abs(v) for v in check_array("phi_jet_sups", phi_jet_sups, shape=(None,)).tolist()]
    if len(sups) < k:
        raise InputError(f"need sups of orders 1..{k}")
    peak = max(sups[j - 1] ** (k / j) for j in range(1, k + 1))
    return bell_coefficient_mass(k) * abs(check_array("f_norm", f_norm, shape=()).item()) * peak


# ---------------------------------------------------------------------------
# Conjugated-rotation frames


def shear_operator_norm(x):
    """Operator norm |x| + sqrt(1 + x^2) of a determinant-one 2 x 2 matrix whose squared
    Hilbert-Schmidt norm is 2 + 4 x^2; equals e^u at x = sinh(u).  It is past the float
    range, a RangeError, exactly where |x| exceeds half the largest float."""
    x = check_array("x", x)
    if np.any(np.abs(x) > sys.float_info.max / 2):
        raise RangeError("the shear operator norm exceeds the float range")
    return np.abs(x) + np.hypot(1.0, x)


def rotation_matrix(n: int, delta: float) -> np.ndarray:
    """Rotation by arccos(delta) in the first two coordinates of R^n."""
    check_count("n", n, 2)
    delta = float(check_array("delta", delta, shape=(), least=-1.0, most=1.0))
    k = np.eye(n)
    s = math.sqrt(max(1.0 - delta * delta, 0.0))
    k[0, 0] = delta
    k[0, 1] = -s
    k[1, 0] = s
    k[1, 1] = delta
    return k


# The largest r of a frame: hs_max takes e^(4 r), past the float range from r = 177.45, and
# up to this r every window end and coordinate function below is finite at every n.
_R_MAX = 177.0


@dataclass(frozen=True)
class CompositionFrame:
    """Diagonal matrix D = diag(e^r, e^s x (n-1)) in SL(n), r + (n-1)s = 0, for r in
    (0, _R_MAX]: r <= 0 is a DomainError, r > _R_MAX a RangeError."""

    n: int
    r: float
    s: float

    @classmethod
    def create(cls, n: int, r: float) -> "CompositionFrame":
        check_count("n", n, 3)
        r = float(check_array("r", r, shape=(), above=0.0))
        if r > _R_MAX:
            raise RangeError(f"a frame at r = {r!r} exceeds the float range: r must be <= "
                             f"{_R_MAX!r}")
        # -r / (n - 1) rounds differently, and the section reports carry these bits
        return cls(n=n, r=r, s=-2 / (2 * n - 2) * r)

    def d_matrix(self) -> np.ndarray:
        return np.diag([math.exp(self.r)] + [math.exp(self.s)] * (self.n - 1))

    def conjugated_rotation(self, delta: float) -> np.ndarray:
        d = self.d_matrix()
        return d @ rotation_matrix(self.n, delta) @ d

    # operator-norm window [x_min, x_max] swept by |delta| in [0, 1]; delta lies in [-1, 1]
    @property
    def x_min(self) -> float:
        return math.exp(self.r + self.s)

    @property
    def x_max(self) -> float:
        return math.exp(2.0 * self.r)

    def opnorm_of_delta(self, delta) -> np.ndarray:
        stretch = math.sinh(self.r - self.s)
        delta = check_array("delta", delta, least=-1.0, most=1.0)
        return self.x_min * shear_operator_norm(delta * stretch)

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
        delta = check_array("delta", delta, least=-1.0, most=1.0)
        a2, b2 = self.hs_min ** 2, self.hs_max ** 2
        return np.sqrt(a2 + delta * delta * (b2 - a2))


_DOMAIN_SLACK = 1e-9


def _check_window(x, lo: float, hi: float) -> np.ndarray:
    """``x`` as a float array (:func:`check_array`); a DomainError where it leaves [lo, hi]
    by more than _DOMAIN_SLACK relative."""
    return check_array("x", x, least=lo * (1 - _DOMAIN_SLACK), most=hi * (1 + _DOMAIN_SLACK))


def opnorm_coordinate(frame: CompositionFrame, x) -> np.ndarray:
    """Rotation parameter delta realizing operator norm x; inverse of
    ``opnorm_of_delta`` on [x_min, x_max] -> [0, 1]."""
    lo = frame.x_min
    x = _check_window(x, lo, frame.x_max)
    return (x / lo - lo / x) / (2.0 * math.sinh(frame.r - frame.s))


def opnorm_coordinate_derivative(frame: CompositionFrame, j: int, x) -> np.ndarray:
    """Closed-form j-th derivative of :func:`opnorm_coordinate`: from j = 2,
    (-1)^(j-1) j! / ((e^(-2s) - e^(-2r)) x^(j+1)), with j! / x^(j+1) taken through
    logarithms, so that neither overflows on its own (j! does from j = 171); a derivative
    past the float range is a RangeError."""
    check_count("j", j, 1)
    x = _check_window(x, frame.x_min, frame.x_max)
    e2r, e2s = math.exp(2.0 * frame.r), math.exp(2.0 * frame.s)
    if j == 1:
        return (1.0 + math.exp(2.0 * (frame.r + frame.s)) / (x * x)) / (e2r - e2s)
    sign = 1.0 if (j - 1) % 2 == 0 else -1.0
    with np.errstate(over="ignore"):  # an inf is checked below
        value = sign * np.exp(math.lgamma(j + 1.0) - (j + 1) * np.log(x)) / (1.0 / e2s - 1.0 / e2r)
    if not np.isfinite(value).all():
        raise RangeError(f"the derivative of order {j} exceeds the float range")
    return value


# ---------------------------------------------------------------------------
# Lorentz-group coefficients


def so_n1_trace_coefficients(n: int, r: float):
    """Quadratic trace law for the Lorentz-embedded conjugated rotation.

    tr((D k_delta D)^T (D k_delta D)) = a delta^2 + b delta + c with
    a = 4 sinh^4 r, b = 2 sinh^2(2r), c = n - 3 + 4 cosh^4 r; returns (a, b, c).
    Coefficients past the float range are a RangeError.
    """
    check_count("n", n, 2)
    r = float(check_array("r", r, shape=(), above=0.0))
    try:
        a = 4.0 * math.sinh(r) ** 4
        b = 2.0 * math.sinh(2.0 * r) ** 2
        c = n - 3.0 + 4.0 * math.cosh(r) ** 4
    except OverflowError:
        a = b = c = math.inf
    if not math.isfinite(a + b + c):
        raise RangeError(f"the trace coefficients at r = {r:g} exceed the float range")
    return a, b, c


def so_n1_embedded_matrix(n: int, r: float, delta: float) -> np.ndarray:
    """(n+1) x (n+1) product D(r) diag(k_delta, 1) D(r) in the Lorentz
    group, D(r) the standard one-parameter boost.  Entries past the float range are a
    RangeError."""
    check_count("n", n, 2)
    r = float(check_array("r", r, shape=(), least=-math.inf))
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
