"""Exception types shared across the package."""

from __future__ import annotations


class ProjcorrError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(ProjcorrError, ValueError):
    """A vector or matrix has the wrong length/shape."""

    def __init__(self, what: str, expected, actual):
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected {expected}, got {actual}")


class ParameterError(ProjcorrError, ValueError):
    """An argument is outside its valid domain."""


class DegenerateOperatorError(ParameterError):
    """Construction produced an operator with an empty measurement space."""


class SolverError(ProjcorrError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        self.residual = float(residual)
        self.iterations = int(iterations)
        super().__init__(
            f"{message} (relative residual {residual:.3e} after {iterations} iterations)"
        )


class UnsupportedConfigError(ProjcorrError, ValueError):
    """The requested combination of operator/noise/solver is not supported."""


class DivergenceError(ProjcorrError, RuntimeError):
    """Gradient descent diverged."""

    def __init__(self, epoch: int, value: float):
        self.epoch = int(epoch)
        self.value = float(value)
        super().__init__(f"training diverged at epoch {epoch} (loss {value:.3e})")


class MissingOutputError(ProjcorrError, KeyError):
    """A file-backed reconstruction source has no entry for the requested id."""
