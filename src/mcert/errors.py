"""Exception types shared across the toolkit, and the count check of the report builders.

The CLI maps these onto process exit codes: input/domain problems exit
with 2, accuracy problems with 3.
"""


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
    """An InputError, named by its command-line ``flag``, unless least <= value <= most."""
    if value < least:
        raise InputError(f"{flag} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise InputError(f"{flag} must be <= {most}, got {value}")
