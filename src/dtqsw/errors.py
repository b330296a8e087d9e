"""Exception hierarchy shared across the package."""


class DtqswError(Exception):
    """Base class for all package errors."""


class ParameterError(DtqswError, ValueError):
    """A parameter is outside its documented domain."""


class OutOfValidatedRangeError(ParameterError):
    """z beyond the numerically validated cap (0.99999)."""


class UnsupportedFamilyError(DtqswError):
    """Kraus family with complex coin blocks, or cross shift blocks of rank > 1,
    fed to a routine that needs real blocks of rank <= 1."""


class TruncationError(DtqswError):
    """Walker support reached the lattice truncation boundary."""


class ResourceError(DtqswError):
    """Requested computation exceeds the configured memory cap."""


class ConsistencyError(DtqswError):
    """Internal invariant violated (e.g. negative first-return weight)."""


class SingularKernelError(DtqswError):
    """I - zV is singular where it is inverted: the pointwise resolvent, the
    A0 inverse at a xi node, or an eta root of the closed-form coefficients
    on or outside the unit circle."""


class ConditioningError(DtqswError):
    """Stieltjes matrix too ill-conditioned for a reliable solve."""


class FitDegenerateError(DtqswError):
    """Fit requested on data the model cannot represent (e.g. constant)."""

    def __init__(self, message, constant=None):
        super().__init__(message)
        self.constant = constant


class BracketError(DtqswError):
    """Root bracket does not contain a sign change."""
