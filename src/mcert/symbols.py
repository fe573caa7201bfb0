"""Symbol containers and the built-in symbol families.

Three evaluator containers are used across the toolkit:

* :class:`SymbolHandle`  - the lift of a radial profile to the group; called
  with one (n, n) matrix or a stack of them.
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

from . import taylor
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
    """The lift g -> phi(dist(g, e)) of a radial profile phi to the group.

    Called with a (..., n, n) stack that :func:`check_special_linear` accepts,
    it returns (...) values; :func:`geometry.lie_derivative` takes the exact
    derivatives of the lift from ``profile``.
    """

    profile: RadialProfile

    def __call__(self, mats):
        return self.profile(dist_to_identity(check_special_linear(np.asarray(mats, dtype=float))))


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
    """Scalar profile phi on (1, infinity), given on Taylor jets.

    ``of(u)`` maps the jet u of an argument x(s) (see :mod:`mcert.taylor`) to
    the jet of phi(x(s)); ``jet(x, K)`` applies it to the variable itself and
    returns [phi(x), phi'(x), ..., phi^(K)(x) / K!], arrays shaped like ``x``.
    """

    of: object

    def jet(self, x, order: int) -> list:
        return self.of(taylor.variable(np.asarray(x, dtype=float), order))

    def __call__(self, x):
        return self.jet(x, 0)[0]


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
            return RadialProfile(lambda u: taylor.power([shift + u[0], *u[1:]], -a))
        if self.kind == "radial-log-power":  # (1 + x)^-a log(e + x)^-b
            a, b = float(p.get("exponent", 1.0)), float(p.get("log_exponent", 1.0))
            return RadialProfile(lambda u: taylor.mul(
                taylor.power([1.0 + u[0], *u[1:]], -a),
                taylor.power(taylor.log([math.e + u[0], *u[1:]]), -b)))
        if self.kind == "hm-bump":  # the bump at (x - center) / width
            c, w = float(p.get("center", 1.0)), float(p.get("width", 0.5))
            return RadialProfile(lambda u: _bump_jet([(u[0] - c) / w, *[v / w for v in u[1:]]]))
        raise InputError(f"family {self.kind!r} does not define a radial profile")

    def build_group_symbol(self) -> SymbolHandle:
        """The lift g -> phi(dist(g, e)) of the profile.  Any (..., n, n) stack gives (...)
        values, once it is checked to lie in SL(n,R).  dist(e, e) = 0, so a radial-power
        shift must be > 0."""
        if self.kind == "radial-power" and not self.parameters.get("shift", 1.0) > 0.0:
            raise InputError(f"radial-power parameter 'shift' must be > 0 to lift to the group, "
                             f"got {self.parameters['shift']:g}")
        return SymbolHandle(self.build_profile())


def _bump_jet(t: list) -> list:
    """Jet of exp(1 - 1/(1 - t^2)) on |t| < 1, and 0 elsewhere, from the jet of t."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inside = np.abs(t[0]) < 1.0
        s = taylor.mul(t, t)
        w = taylor.power([np.where(inside, 1.0 - s[0], 1.0)] + [-c for c in s[1:]], -1.0)
        e = taylor.exp([1.0 - w[0]] + [-c for c in w[1:]])
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

