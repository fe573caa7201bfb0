"""Symbol containers and the built-in symbol families.

Three evaluator containers are used across the toolkit:

* :class:`SymbolHandle`  - symbols on the group; called with one (n, n)
  matrix or a stack of them.
* :class:`EuclideanSymbol` - symbols on R^d; called with an (..., d) array.
* :class:`RadialProfile` - scalar profiles phi on (1, infinity), the
  subject of the radial rigidity checks.

Families are deliberately closed-form (auditable); an arbitrary symbol
matrix enters ``schur-bound`` as a CSV file (:func:`read_matrix_csv`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import check_special_linear, dist_to_identity

__all__ = [
    "SymbolHandle",
    "EuclideanSymbol",
    "RadialProfile",
    "SymbolFamily",
    "read_matrix_csv",
]


@dataclass
class SymbolHandle:
    """Evaluator on group elements.

    ``evaluator`` receives a raw (..., n, n) float array and must return
    a matching (...) array (or scalar).
    """

    evaluator: object

    def __call__(self, mats):
        return self.evaluator(np.asarray(mats, dtype=float))


@dataclass
class EuclideanSymbol:
    """Evaluator on R^d points, vectorized over leading axes."""

    d: int
    evaluator: object
    support_radius: float | None = None
    inner_radius: float | None = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.d:
            raise InputError(f"expected points in R^{self.d}, got last axis {x.shape[-1]}")
        return self.evaluator(x)


@dataclass
class RadialProfile:
    """Scalar profile on (1, infinity), given by its Taylor jet.

    ``jet(x, K)`` returns the list [phi(x), phi'(x), ..., phi^(K)(x) / K!]
    of arrays shaped like ``x``.
    """

    jet: object

    def __call__(self, x):
        return self.jet(np.asarray(x, dtype=float), 0)[0]

    def derivative(self, k: int, x):
        """k-th derivative, exact up to rounding."""
        return math.factorial(k) * self.jet(np.asarray(x, dtype=float), k)[k]


# ---------------------------------------------------------------------------
# Truncated Taylor arithmetic (Griewank & Walther, Evaluating Derivatives, ch. 13) on
# jets [u_0, ..., u_K], u_k = u^(k) / k!; order 0 runs the plain evaluator's operations.


def _variable(x0, slope, order: int) -> list:
    """Jet of an affine function of x with value x0 and slope ``slope``."""
    return [x0, slope, *[0.0] * (order - 1)][:order + 1]


def _mul(u: list, v: list) -> list:
    return [u[0] * v[0]] + [sum(u[j] * v[k - j] for j in range(k + 1)) for k in range(1, len(u))]


def _pow(u: list, a: float) -> list:
    w = [u[0] ** a]
    for k in range(1, len(u)):
        w.append(sum(((a + 1.0) * j / k - 1.0) * u[j] * w[k - j] for j in range(1, k + 1)) / u[0])
    return w


def _exp(u: list) -> list:
    w = [np.exp(u[0])]
    for k in range(1, len(u)):
        w.append(sum(j * u[j] * w[k - j] for j in range(1, k + 1)) / k)
    return w


def _log(u: list) -> list:
    w = [np.log(u[0])]
    for k in range(1, len(u)):
        w.append((u[k] - sum(j * w[j] * u[k - j] for j in range(1, k)) / k) / u[0])
    return w


# ---------------------------------------------------------------------------
# Built-in families

_FAMILY_KEYS = {  # kind -> the parameters its builders read
    "radial-power": ("exponent", "shift"),
    "radial-log-power": ("exponent", "log_exponent"),
    "hm-bump": ("center", "width"),
}
_FAMILY_LOWER_BOUNDS = {  # (kind, parameter) -> the value the parameter must exceed
    ("radial-power", "shift"): -1.0,  # (shift + x)^-a finite on [1, oo)
    ("hm-bump", "width"): 0.0,
}


@dataclass
class SymbolFamily:
    """Parametric symbol family; see :meth:`build_profile`."""

    kind: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _FAMILY_KEYS:
            raise InputError(f"unknown family kind {self.kind!r}; choose from {tuple(_FAMILY_KEYS)}")
        allowed = _FAMILY_KEYS[self.kind]
        unknown = sorted(set(self.parameters) - set(allowed))
        if unknown:
            raise InputError(f"unknown {self.kind} parameter(s) {unknown}; choose from {allowed}")
        for key, value in self.parameters.items():
            low = _FAMILY_LOWER_BOUNDS.get((self.kind, key))
            if low is not None and not value > low:
                raise InputError(f"{self.kind} parameter {key!r} must be > {low:g}, got {value:g}")

    @classmethod
    def parse(cls, spec: str) -> "SymbolFamily":
        """Parse 'kind:key=val,key=val' command-line specs; every value is a finite number."""
        kind, _, rest = spec.partition(":")
        params: dict = {}
        if rest:
            for item in rest.split(","):
                if not item:
                    continue
                key, _, val = item.partition("=")
                if not _:
                    raise InputError(f"malformed family parameter {item!r}")
                try:
                    value = float(val)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise InputError(f"family parameter {key.strip()!r} needs a finite number, "
                                     f"got {val.strip()!r}")
                params[key.strip()] = value
        return cls(kind=kind.strip(), parameters=params)

    def build_profile(self) -> RadialProfile:
        """Radial profile phi(x) on (1, infinity) for the rigidity checks."""
        p = self.parameters
        if self.kind == "radial-power":  # (shift + x)^-a
            a, shift = float(p.get("exponent", 1.0)), float(p.get("shift", 1.0))
            return RadialProfile(lambda x, k: _pow(_variable(shift + x, 1.0, k), -a))
        if self.kind == "radial-log-power":  # (1 + x)^-a log(e + x)^-b
            a, b = float(p.get("exponent", 1.0)), float(p.get("log_exponent", 1.0))
            return RadialProfile(lambda x, k: _mul(_pow(_variable(1.0 + x, 1.0, k), -a),
                                                   _pow(_log(_variable(math.e + x, 1.0, k)), -b)))
        if self.kind == "hm-bump":  # the bump at (x - center) / width
            c, w = float(p.get("center", 1.0)), float(p.get("width", 0.5))
            return RadialProfile(lambda x, k: _bump_jet(_variable((x - c) / w, 1.0 / w, k)))
        raise InputError(f"family {self.kind!r} does not define a radial profile")

    def build_group_symbol(self) -> SymbolHandle:
        """The lift g -> phi(dist(g, e)) of the profile.  Any (..., n, n) stack gives (...)
        values, once it is checked to lie in SL(n,R).  dist(e, e) = 0, so a radial-power
        shift must be > 0."""
        if self.kind == "radial-power" and not self.parameters.get("shift", 1.0) > 0.0:
            raise InputError(f"radial-power parameter 'shift' must be > 0 to lift to the group, "
                             f"got {self.parameters['shift']:g}")
        profile = self.build_profile()
        return SymbolHandle(lambda mats: profile(dist_to_identity(check_special_linear(mats))))


def _bump_jet(t: list) -> list:
    """Jet of exp(1 - 1/(1 - t^2)) on |t| < 1, and 0 elsewhere, from the jet of t."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inside = np.abs(t[0]) < 1.0
        s = _mul(t, t)
        w = _pow([np.where(inside, 1.0 - s[0], 1.0)] + [-c for c in s[1:]], -1.0)
        e = _exp([1.0 - w[0]] + [-c for c in w[1:]])
        inside &= e[0] > 0.0  # where e underflows, so do its derivatives
        return [np.where(inside, c, 0.0) for c in e]


def _smooth_bump(t):
    """C-infinity bump equal to 1 at t = 0, supported on |t| < 1."""
    return _bump_jet([np.asarray(t, dtype=float)])[0]


# ---------------------------------------------------------------------------
# Matrix CSV input (UTF-8, header row, decimal point, no locale)


_MAX_SIDE = 4096  # a 4096 x 4096 complex matrix takes 256 MiB


def read_matrix_csv(path) -> np.ndarray:
    """Complex matrix from long-format CSV with columns i, j, re and an
    optional im (an empty im is 0).  Blank lines are skipped, and a later
    row for the same (i, j) replaces an earlier one.  An index at or above
    _MAX_SIDE is an InputError, raised before the matrix is allocated."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        missing = [c for c in ("i", "j", "re") if c not in header]
        if missing:
            raise InputError(f"CSV header {header} has no column {', '.join(missing)}")
        ci, cj, cr = (header.index(c) for c in ("i", "j", "re"))
        cm = header.index("im") if "im" in header else None
        try:
            entries = {(int(r[ci]), int(r[cj])):
                       complex(float(r[cr]), 0.0 if cm is None else float(r[cm] or 0.0))
                       for r in rows if r}
        except IndexError:
            raise InputError(f"line {rows.line_num} of {path} has too few fields") from None
        except ValueError as exc:
            raise InputError(f"line {rows.line_num} of {path}: {exc}") from exc
    if not entries:
        raise InputError(f"no data rows in {path}")
    ij = np.array(list(entries), dtype=np.int64)
    if ij.min() < 0:
        raise InputError(f"negative index in CSV row {ij[ij.min(axis=1).argmin()].tolist()}")
    n = int(ij.max()) + 1
    if n > _MAX_SIDE:
        raise InputError(f"CSV index {n - 1} gives side {n}; the side may not exceed {_MAX_SIDE}")
    m = np.zeros((n, n), dtype=complex)
    m[ij[:, 0], ij[:, 1]] = np.fromiter(entries.values(), dtype=complex, count=len(entries))
    return m

