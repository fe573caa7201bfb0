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
    "group_symbol_from_profile",
    "read_matrix_csv",
]


@dataclass
class SymbolHandle:
    """Evaluator on group elements with light metadata.

    ``evaluator`` receives a raw (..., n, n) float array and must return
    a matching (...) array (or scalar).
    """

    evaluator: object
    name: str = "symbol"

    def __call__(self, mats):
        return self.evaluator(np.asarray(mats, dtype=float))


@dataclass
class EuclideanSymbol:
    """Evaluator on R^d points, vectorized over leading axes."""

    d: int
    evaluator: object
    support_radius: float | None = None
    inner_radius: float | None = None
    name: str = "symbol"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.d:
            raise InputError(f"expected points in R^{self.d}, got last axis {x.shape[-1]}")
        return self.evaluator(x)


@dataclass
class RadialProfile:
    """Scalar profile on (1, infinity) with optional analytic derivatives.

    ``derivatives[k-1]``, when present, evaluates the k-th derivative.
    """

    evaluator: object
    derivatives: tuple = ()
    name: str = "profile"
    params: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))

    def derivative(self, k: int, x):
        """k-th derivative, analytic when available, else central differences
        with step max(1e-4 |x|, 1e-7)."""
        x = np.asarray(x, dtype=float)
        if k == 0:
            return self(x)
        if len(self.derivatives) >= k and self.derivatives[k - 1] is not None:
            return np.asarray(self.derivatives[k - 1](x), dtype=float)
        h = np.maximum(1e-4 * np.abs(x), 1e-7)
        prev = lambda t: self.derivative(k - 1, t)
        return (prev(x + h) - prev(x - h)) / (2.0 * h)


def group_symbol_from_profile(profile: RadialProfile) -> SymbolHandle:
    """Lift a radial profile to the group symbol g -> profile(dist(g, e)).

    Any (..., n, n) stack gives (...) values, once it is checked to lie in SL(n,R).
    """
    return SymbolHandle(lambda mats: profile(dist_to_identity(check_special_linear(mats))),
                        name=f"{profile.name}(dist)")


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
        if self.kind == "radial-power":
            a = float(p.get("exponent", 1.0))
            shift = float(p.get("shift", 1.0))
            ev = lambda x: (shift + x) ** (-a)
            ders = tuple(
                (lambda k: (lambda x: _falling(-a, k) * (shift + x) ** (-a - k)))(k)
                for k in range(1, 9)
            )
            return RadialProfile(ev, derivatives=ders, name=f"radial-power(a={a})",
                                 params={"exponent": a, "shift": shift})
        if self.kind == "radial-log-power":
            a = float(p.get("exponent", 1.0))
            b = float(p.get("log_exponent", 1.0))
            ev = lambda x: (1.0 + x) ** (-a) * np.log(math.e + x) ** (-b)
            return RadialProfile(ev, name=f"radial-log-power(a={a},b={b})",
                                 params={"exponent": a, "log_exponent": b})
        if self.kind == "hm-bump":
            center = float(p.get("center", 1.0))
            width = float(p.get("width", 0.5))
            ev = lambda x: _smooth_bump((np.asarray(x) - center) / width)
            return RadialProfile(ev, name=f"hm-bump(c={center},w={width})",
                                 params={"center": center, "width": width})
        raise InputError(f"family {self.kind!r} does not define a radial profile")


def _falling(a: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= a - i
    return out


def _smooth_bump(t):
    """C-infinity bump equal to 1 at t = 0, supported on |t| < 1."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        inside = np.abs(t) < 1.0
        val = np.zeros_like(t)
        u = np.where(inside, 1.0 - t * t, 1.0)
        val = np.where(inside, np.exp(1.0 - 1.0 / u), 0.0)
    return val


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

