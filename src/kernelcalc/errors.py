"""Exception types shared across the package."""


class KernelCalcError(Exception):
    """Base class for all package errors."""

    #: index of the offending entry when a batched jet operation fails
    batch_index: tuple[int, ...] | None = None


class ShapeError(KernelCalcError):
    """Kernel combinator applied to children of incompatible shape or dimension."""


class BranchError(KernelCalcError):
    """Principal branch of pow/log not available (base left the right half-plane)."""


class DomainError(KernelCalcError):
    """Evaluation point outside the kernel's domain."""


class EvaluationError(KernelCalcError):
    """Generic evaluation failure (zero kernel value, singular prefactor, ...)."""


class OrderCapError(KernelCalcError):
    """Requested derivative order exceeds the configured cap."""


class ParseError(KernelCalcError):
    """DSL syntax or validation error, at a position of the DSL text or None."""

    def __init__(self, message, position: int | None = None):
        at = "" if position is None else f" (at position {position})"
        super().__init__(message + at)
        self.position = position


class BracketError(KernelCalcError):
    """A scan/bisection could not find the required sign change."""
