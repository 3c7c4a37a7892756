"""Exception types shared across the package."""

__all__ = [
    "ConvergenceError",
    "DegenerateZeroError",
    "DomainError",
    "EvaluationError",
    "FactorizationError",
    "GeometryError",
    "KernelSpecError",
    "NegativeCoefficientError",
    "NormalizationError",
    "SphereCovError",
    "ZeroMassError",
]


class SphereCovError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SphereCovError, ValueError):
    """An argument lies outside its mathematical domain (e.g. |x| > 1)."""


class NegativeCoefficientError(SphereCovError, ValueError):
    """A kernel coefficient is negative.

    `index` is an int for sequences or an (m, n) pair for matrices.
    """

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"coefficient at index {index} is negative: {value}")


class ZeroMassError(SphereCovError, ValueError):
    """All kernel coefficients are zero."""


class NormalizationError(SphereCovError, ValueError):
    """Coefficients do not sum to one and normalization was not requested."""


class DegenerateZeroError(SphereCovError, ValueError):
    """Separability analysis of an identically-zero coefficient matrix."""


class ConvergenceError(SphereCovError, RuntimeError):
    """An iterative numerical procedure failed to converge."""


class GeometryError(SphereCovError, ValueError):
    """Point set geometry does not match the kernel."""


class FactorizationError(SphereCovError, RuntimeError):
    """Covariance factorization failed even after the eigenvalue fallback."""

    def __init__(self, message, min_eigenvalue=None):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(message)


class EvaluationError(SphereCovError, RuntimeError):
    """A user-supplied function failed at a specific evaluation point."""

    def __init__(self, point, cause):
        self.point = point
        super().__init__(f"function evaluation failed at x={point!r}: {cause}")


class KernelSpecError(SphereCovError, ValueError):
    """A kernel-spec document is malformed or fails validation."""
