"""Exception types shared across the package.

Every package error is an ``EntmiError``; the CLI maps each one to exit 2.
"""


class EntmiError(Exception):
    """Base class for all package-specific errors."""


class DomainError(EntmiError, ValueError):
    """An argument of the wrong type, shape, value or norm, or too few samples for a check."""


class EmptySliceError(EntmiError, ValueError):
    """The histogram, or the requested slice of it, holds no counts."""


class HistogramFormatError(EntmiError, ValueError):
    """A histogram file or payload is malformed or its counts are inconsistent."""


class ConsistencyError(EntmiError, ArithmeticError):
    """A quantity violated an internal numerical invariant (rounding guard)."""
