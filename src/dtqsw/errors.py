"""Exception hierarchy shared across the package."""


class DtqswError(Exception):
    """Base class for all package errors."""


class ParameterError(DtqswError, ValueError):
    """A parameter is outside its documented domain."""


class OutOfValidatedRangeError(ParameterError):
    """z beyond the numerically validated cap (0.99999)."""


class UnsupportedFamilyError(DtqswError):
    """Kraus family that a generating-function routine cannot take: complex coin
    blocks, shift blocks without the coin-pair rows (M+- nonzero off row (R,L),
    or rows (R,L), (L,R) of M++ other than alpha e_RL, alpha e_LR), or without
    the reflection M_-s,-s' = (G x G) M_s,s' (G x G)^T, G = [[0, 1], [-1, 0]] in
    (R, L). Every family the library builds has both; directsim runs any family."""


class TruncationError(DtqswError):
    """Walker support reached the lattice truncation boundary."""


class ResourceError(DtqswError):
    """Requested computation exceeds the configured memory cap."""


class ConsistencyError(DtqswError):
    """Internal invariant violated (e.g. negative first-return weight)."""


class SingularKernelError(DtqswError):
    """I - zV is singular where it is inverted: the pointwise resolvent, the
    closed-form A0 inverse at a xi node, or an eta root of the closed-form
    coefficients on or outside the unit circle."""


class ConditioningError(DtqswError):
    """Stieltjes matrix too ill-conditioned for a reliable solve."""


class FitDegenerateError(DtqswError):
    """Fit requested on data the model cannot represent (e.g. constant)."""

    def __init__(self, message, constant=None):
        super().__init__(message)
        self.constant = constant


class BracketError(DtqswError):
    """Root bracket does not contain a sign change."""
