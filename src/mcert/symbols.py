"""Symbol containers and the built-in symbol families.

Three evaluator containers are used across the toolkit:

* :class:`SymbolHandle`  - the lift of a radial profile to the group; called
  with a :class:`geometry.GroupElement`, one (n, n) matrix or a stack of them.
* :class:`EuclideanSymbol` - symbols on R^d; called with an (..., d) array.
* :class:`RadialProfile` - scalar profiles phi on (1, infinity), the
  subject of the radial rigidity checks.

Families are deliberately closed-form (auditable); an arbitrary symbol
matrix enters ``schur-bound`` as a CSV file (:func:`read_matrix_csv`).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import taylor
from .errors import InputError, check_array, check_count
from .geometry import GroupElement, dist_to_identity

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

    Called with a :class:`geometry.GroupElement`, one matrix or a (..., n, n)
    stack, it returns (...) values; :func:`geometry.lie_derivative` takes the
    exact derivatives of the lift from ``profile``.
    """

    profile: RadialProfile

    def __call__(self, g: GroupElement):
        return self.profile(dist_to_identity(g))


@dataclass
class EuclideanSymbol:
    """Evaluator on R^d points, vectorized over leading axes."""

    d: int
    evaluator: object
    support_radius: float | None = None
    inner_radius: float | None = None

    def __call__(self, x):
        return self.evaluator(check_array("x", x, shape=(..., self.d)))


@dataclass
class RadialProfile:
    """Scalar profile phi on (1, infinity), given on Taylor jets.

    ``of(u)`` maps the jet u of an argument x(s) (see :mod:`mcert.taylor`) to
    the jet of phi(x(s)); ``jet(x, K)`` applies it to the variable itself and
    returns [phi(x), phi'(x), ..., phi^(K)(x) / K!], arrays shaped like ``x``.
    ``scale`` is where the profile's own features end: center + width for
    ``hm-bump``, 1 for the other families.
    """

    of: object
    scale: float = 1.0

    def jet(self, x, order: int) -> list:
        check_count("order", order, 0)
        return self.of(taylor.variable(check_array("x", x), order))

    def __call__(self, x):
        return self.jet(x, 0)[0]


# ---------------------------------------------------------------------------
# Built-in families

_FAMILIES = {  # kind -> {each parameter its builders read: its default}
    "radial-power": {"exponent": 1.0, "shift": 1.0},
    "radial-log-power": {"exponent": 1.0, "log_exponent": 1.0},
    "hm-bump": {"center": 1.0, "width": 0.5},
}
_FAMILY_LOWER_BOUNDS = {  # (kind, parameter) -> the value the parameter must exceed
    ("radial-power", "shift"): -1.0,  # (shift + x)^-a finite on [1, oo)
    ("hm-bump", "width"): 0.0,
}


@dataclass
class SymbolFamily:
    """Parametric symbol family; see :meth:`build_profile`.  Once built, ``parameters``
    holds every parameter of the kind, the defaults of _FAMILIES filled in, each a finite
    real number (:func:`check_array`, named by its key) above its _FAMILY_LOWER_BOUNDS."""

    kind: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _FAMILIES:
            raise InputError(f"unknown family kind {self.kind!r}; choose from {tuple(_FAMILIES)}")
        allowed = tuple(_FAMILIES[self.kind])
        unknown = sorted(set(self.parameters) - set(allowed))
        if unknown:
            raise InputError(f"unknown {self.kind} parameter(s) {unknown}; choose from {allowed}")
        self.parameters = {**_FAMILIES[self.kind], **self.parameters}
        for key, value in self.parameters.items():
            check_array(key, value, shape=(), finite=True,
                        above=_FAMILY_LOWER_BOUNDS.get((self.kind, key)))

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
            a, shift = float(p["exponent"]), float(p["shift"])
            return RadialProfile(lambda u: taylor.power([shift + u[0], *u[1:]], -a))
        if self.kind == "radial-log-power":  # (1 + x)^-a log(e + x)^-b
            a, b = float(p["exponent"]), float(p["log_exponent"])
            return RadialProfile(lambda u: taylor.mul(
                taylor.power([1.0 + u[0], *u[1:]], -a),
                taylor.power(taylor.log([math.e + u[0], *u[1:]]), -b)))
        c, w = float(p["center"]), float(p["width"])  # hm-bump: the bump at (x - center) / width
        return RadialProfile(lambda u: _bump_jet(u, c, w), scale=c + w)

    def build_group_symbol(self) -> SymbolHandle:
        """The lift g -> phi(dist(g, e)) of the profile.  A GroupElement stack of leading
        shape ... gives (...) values.  dist(e, e) = 0, so a radial-power shift must be > 0
        (DomainError)."""
        if self.kind == "radial-power":
            check_array("shift", self.parameters["shift"], shape=(), above=0.0)
        return SymbolHandle(self.build_profile())


def _bump_jet(u: list, center: float = 0.0, width: float = 1.0) -> list:
    """Jet of exp(1 - 1/(1 - t^2)) on |t| < 1, and 0 elsewhere, at t = (x - center)/width
    from the jet u of x."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = [(u[0] - center) / width, *[v / width for v in u[1:]]]
        inside = np.abs(t[0]) < 1.0
        s = taylor.mul(t, t)
        w = taylor.power([np.where(inside, 1.0 - s[0], 1.0)] + [-c for c in s[1:]], -1.0)
        e = taylor.exp([1.0 - w[0]] + [-c for c in w[1:]])
        inside &= e[0] > 0.0  # where e underflows, so do its derivatives
        return [np.where(inside, c, 0.0) for c in e]


def _smooth_bump(t):
    """C-infinity bump equal to 1 at t = 0, supported on |t| < 1."""
    return _bump_jet([check_array("t", t)])[0]


# ---------------------------------------------------------------------------
# Matrix CSV input (UTF-8 with or without a BOM, header row, decimal point, no locale)


_MAX_SIDE = 4096  # a 4096 x 4096 complex matrix takes 256 MiB


def read_matrix_csv(path) -> np.ndarray:
    """Complex matrix from long-format CSV with columns i, j, re and an optional im (an empty
    im is 0), and any other named columns, which are skipped.  Blank lines are skipped, and a
    later row for the same (i, j) replaces an earlier one.  A header without i, j or re, or
    that names a column twice, is an InputError that quotes at most 60 characters of it; so is
    a malformed row, or one with more or fewer fields than the header, named by its line, and a
    negative index, or one at or above _MAX_SIDE, raised before the matrix is allocated.
    numpy's C reader parses the rows; im passes through Python only in a pipe, or in a second
    read of a file the first read failed on.  A path that is not a str, bytes or os.PathLike is
    an InputError before any open (an int would be read as a file descriptor, and closed), and
    so is a file that cannot be opened, with the OSError's text.  A byte that is not UTF-8
    reads as U+FFFD, which no number or required column name holds."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InputError(f"a CSV path must be a str, bytes or os.PathLike, got {path!r}")
    try:
        fh = open(path, newline="", encoding="utf-8-sig", errors="replace")
    except OSError as exc:
        raise InputError(str(exc)) from None
    with fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        head = f"CSV header {repr(','.join(header))[:60]} of {path}"  # one short line for noise
        missing = [c for c in ("i", "j", "re") if c not in header]
        if missing:
            raise InputError(f"{head} has no column {', '.join(missing)}")
        twice = [c for k, c in enumerate(header) if c in header[:k]]
        if twice:
            raise InputError(f"{head} names column {twice[0]!r} twice")
        types = {"i": np.int64, "j": np.int64, "re": float, "im": float}
        numbered = enumerate(fh, rows.line_num + 1)
        line, text = next(((k, text) for k, text in numbered if text.strip("\r\n")), (0, ""))
        if not text:  # numpy would warn on a file without data
            raise InputError(f"no data rows in {path}")

        def lines():  # the data lines, counted so that a malformed row can be named
            nonlocal line, text
            yield text
            for line, text in numbered:
                yield text

        def load(im):  # one field per header column: a row of another length is an error
            return np.loadtxt(lines(), dtype=[(c, types[c]) if c in types else (f"_{k}", "U0")
                                              for k, c in enumerate(header)],
                              delimiter=",", comments=None, quotechar='"', ndmin=1,
                              converters={header.index("im"): lambda s: float(s or 0.0)}
                              if im else None)

        try:  # numpy's C reader alone where the file can be read again (a pipe cannot)
            try:
                data = load("im" in header and not fh.seekable())
            except ValueError:
                if "im" not in header or not fh.seekable():
                    raise
                fh.seek(0)  # again from the line after the header, im through Python
                numbered = ((k, t) for k, t in enumerate(fh, 1) if k > rows.line_num)
                line, text = next(numbered)
                data = load(True)
        except ValueError as exc:  # numpy counts data rows, not lines: keep its reason only
            reason = str(exc).partition(" at row ")[0]
            if "columns but" in reason:
                fields = len(next(csv.reader([text])))
                reason = f"{fields} fields where the header has {len(header)}"
            raise InputError(f"line {line} of {path}: {reason}") from None
    i, j = data["i"], data["j"]
    if min(i.min(), j.min()) < 0:
        k = int(np.argmax((i < 0) | (j < 0)))
        raise InputError(f"negative index in CSV row {[int(i[k]), int(j[k])]}")
    n = int(max(i.max(), j.max())) + 1
    if n > _MAX_SIDE:
        raise InputError(f"CSV index {n - 1} gives side {n}; the side may not exceed {_MAX_SIDE}")
    flat = i * n + j
    order = np.argsort(flat, kind="stable")  # a repeated (i, j) keeps its file order
    last = order[np.append(flat[order[1:]] != flat[order[:-1]], True)]  # its last row wins
    m = np.zeros(n * n, dtype=complex)
    m.real[flat[last]] = data["re"][last]
    if "im" in header:
        m.imag[flat[last]] = data["im"][last]
    return m.reshape(n, n)
