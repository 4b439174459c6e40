"""Exception types shared across the package."""


class QsdError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QsdError, ValueError):
    """An input violates a structural precondition (bad overlap, prior,
    intensity, non-PSD Gram, malformed matrix, ...)."""


class UnsupportedPriorsError(ValidationError):
    """An operation restricted to equal priors received unequal ones."""


class NotCirculantError(ValidationError):
    """A circulant-only operation received a non-circulant matrix."""


class InvalidIsometryError(ValidationError):
    """A matrix expected to have orthonormal rows does not."""


class InfeasibleCouplingError(ValidationError):
    """A coupling, or a sequential first stage, misses the target Gram matrix."""


class UndefinedConditionalError(ValidationError):
    """A conditional state was requested for a zero-probability outcome."""


class NoSolutionError(QsdError, RuntimeError):
    """A numerical solver failed to locate any admissible solution."""
