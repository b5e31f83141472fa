"""Exception hierarchy and process exit codes.

Exit code convention: 0 success, 2 input validation, 3 numerical failure,
4 capacity.
"""

__all__ = [
    "LLESpecError",
    "ValidationError",
    "DomainError",
    "SizeError",
    "PoleError",
    "NumericalError",
    "PrecisionError",
    "DegeneracyError",
    "CapacityError",
    "RealizabilityWarning",
    "TruncationNearMissWarning",
]


class LLESpecError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ValidationError(LLESpecError):
    """Invalid input value (bad field, negative rate, malformed file)."""

    exit_code = 2


class DomainError(LLESpecError):
    """Argument outside the mathematical domain of an operation."""

    exit_code = 2


class SizeError(LLESpecError):
    """Dimension or index-coverage requirement violated."""

    exit_code = 2


class PoleError(DomainError):
    """Evaluation lands on a pole (e.g. Gamma at a nonpositive integer)."""


class NumericalError(LLESpecError):
    """A numerical routine failed to converge or produced no usable result."""

    exit_code = 3


class PrecisionError(NumericalError):
    """Requested accuracy is unreachable with the current settings."""


class DegeneracyError(NumericalError):
    """A pivot or eigenvalue degeneracy blocks the requested computation."""


class CapacityError(LLESpecError):
    """A configured size limit was exceeded."""

    exit_code = 4


class RealizabilityWarning(UserWarning):
    """Formal input accepted, but no driving process realizes it."""


class TruncationNearMissWarning(UserWarning):
    """An eta value is close to a truncation identity but not exactly on it."""
