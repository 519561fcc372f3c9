"""Exception types shared across the package."""


class EntmiError(Exception):
    """Base class for all package-specific errors."""


class ZeroVectorError(EntmiError, ValueError):
    """All amplitudes are numerically zero; the state cannot be normalized."""


class NotNormalizedError(EntmiError, ValueError):
    """Squared amplitudes do not sum to 1 within tolerance."""


class DomainError(EntmiError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class OutOfRangeError(EntmiError, ValueError):
    """Sample value outside [0, 1] by more than the clamping tolerance."""


class ShapeMismatchError(EntmiError, ValueError):
    """Histograms with different binning cannot be combined."""


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


class ConvergenceError(EntmiError, ArithmeticError):
    """Iterative solver exhausted its iteration budget before reaching tolerance."""
