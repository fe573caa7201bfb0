"""Exception types shared across the toolkit, and its one rule for counts and for arrays.

The CLI maps these onto process exit codes: input/domain problems exit
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


def check_array(name: str, value, dtype=float, finite: bool = False) -> np.ndarray:
    """``value`` as an array of ``dtype``, float or complex, and the same array when it is
    one already: an InputError, named by ``name``, for a ragged nesting, an entry that is
    no number (or a complex one where dtype is float) and, with ``finite``, a NaN or inf."""
    field = "real" if dtype is float else "complex"
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nesting
        raise InputError(f"{name} must be an array of {field} numbers, got a ragged nesting")
    if a.dtype.kind not in ("biuf" if dtype is float else "biufc"):  # numpy's dtype kinds
        raise InputError(f"{name} must be an array of {field} numbers, got dtype {a.dtype}")
    a = a.astype(dtype, copy=False)
    if finite and not np.isfinite(a).all():
        raise InputError(f"{name} must be finite")
    return a
