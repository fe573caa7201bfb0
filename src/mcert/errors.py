"""Exception types shared across the toolkit, and its one rule per property of an input: a
count's type and range (:func:`check_count`), an array's dtype and finiteness, shape and interval
(:func:`check_array`).  The CLI maps these onto process exit codes: input/domain problems exit
with 2, accuracy problems with 3.  A count or array the CLI can reach is named by its flag.
"""

import numbers

import numpy as np


class CertifyError(Exception):
    """Base class for all toolkit errors."""


class InputError(CertifyError):
    """Malformed input: bad shapes, non-finite entries, missing columns."""


class DomainError(CertifyError):
    """Input outside the mathematical domain of an operation."""


class RangeError(CertifyError):
    """Parameter outside the supported or configured range."""


class NumericError(CertifyError):
    """A numerical routine broke down (factorization failure, underflow)."""


class AccuracyError(CertifyError):
    """Requested accuracy could not be reached or certified."""


def check_count(flag: str, value: int, least: int, most: int | None = None) -> None:
    """An InputError, named by ``flag``, unless value is an integer (a bool is not one)
    with least <= value <= most."""
    # the type test decides a plain int at once, where the ABC check takes ten times longer
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise InputError(f"{flag} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{flag} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise InputError(f"{flag} must be <= {most}, got {value}")


def check_array(name: str, value, dtype=float, finite: bool = False, shape=None, *,
                least=None, most=None, above=None, below=None) -> np.ndarray:
    """``value`` as an array of ``dtype``, float or complex, and the same array when it is
    one already: an InputError, named by ``name``, for a ragged nesting, an entry that is
    no number (or a complex one where dtype is float), a shape off ``shape`` (per axis an
    int, None for any length >= 1 or a name, equal names for equal lengths >= 1, and an
    optional ... first for any leading axes or last for any trailing ones) and, with
    ``finite``, a NaN or inf.  Past its bounds, ``least`` and ``most`` closed, ``above`` and
    ``below`` open (an end not given is -inf or inf, closed), a real value or a NaN is a
    DomainError that names the interval and the first such value in C order: ``delta must
    lie in [-1.0, 1.0], got 2.0``."""
    field = "real" if dtype is float else "complex"
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nesting
        raise InputError(f"{name} must be an array of {field} numbers, got a ragged nesting")
    if a.dtype.kind not in ("biuf" if dtype is float else "biufc"):  # numpy's dtype kinds
        raise InputError(f"{name} must be an array of {field} numbers, got dtype {a.dtype}")
    if shape is not None and a.shape != shape:  # an all-int shape that fits ends here
        lead, trail = shape[:1] == (...,), shape[-1:] == (...,)  # any leading, trailing axes
        spec = shape[lead:len(shape) - trail]
        got = (a.shape[max(0, a.ndim - len(spec)):] if lead else a.shape[:len(spec)] if trail
               else a.shape)
        fits = len(got) == len(spec)
        for g, d in zip(got, spec):  # a loop: a generator takes longer
            fits = fits and (g == d if type(d) is int  # a name: the length at its first axis
                             else g >= 1 and (d is None or g == got[spec.index(d)]))
        if not fits:
            text = str(shape).replace("Ellipsis", "...").replace("None", "*").replace("'", "")
            raise InputError(f"{name} must be of shape {text}, got {a.shape}")
    a = a.astype(dtype, copy=False)
    if finite and not np.isfinite(a).all():
        raise InputError(f"{name} must be finite")
    if least is not None or most is not None or above is not None or below is not None:
        lo_open, hi_open = above is not None, below is not None
        lo = float(above if lo_open else -np.inf if least is None else least)
        hi = float(below if hi_open else np.inf if most is None else most)
        x = float(a) if a.ndim == 0 else a  # a Python float compares in a tenth of the time
        inside = (lo < x if lo_open else lo <= x) & (x < hi if hi_open else x <= hi)
        if not (inside if a.ndim == 0 else inside.all()):  # a NaN is outside
            raise DomainError(f"{name} must lie in {'[('[lo_open]}{lo!r}, {hi!r}{'])'[hi_open]}, "
                              f"got {x if a.ndim == 0 else float(a[~inside][0])!r}")
    return a
