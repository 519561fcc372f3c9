"""Exception types shared across the package."""


class EntmiError(Exception):
    """Base class for all package-specific errors."""


class NotNormalizedError(EntmiError, ValueError):
    """Squared amplitudes do not sum to 1 within tolerance."""


class DomainError(EntmiError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class OutOfRangeError(EntmiError, ValueError):
    """Sample value outside [0, 1] by more than the clamping tolerance."""


class ShapeMismatchError(EntmiError, ValueError):
    """The c and i batches given to ``JointHistogram.accumulate_many`` differ in length."""


class EmptyHistogramError(EntmiError, ValueError):
    """Operation requires at least one accumulated sample."""


class EmptySliceError(EntmiError, ValueError):
    """Requested slice contains no counts."""


class InsufficientDataError(EntmiError, ValueError):
    """Histogram does not contain enough samples for a reliable check."""


class HistogramFormatError(EntmiError, ValueError):
    """A histogram file or payload is malformed or its counts are inconsistent."""


class ConsistencyError(EntmiError, ArithmeticError):
    """A quantity violated an internal numerical invariant (rounding guard)."""
