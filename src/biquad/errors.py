"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """Malformed or dimensionally inconsistent input."""


def require_count(name: str, value: int) -> None:
    """Raise InvalidInput unless a count of starts or draws is at least 1."""
    if value < 1:
        raise InvalidInput(f"{name} must be at least 1, got {value}")


class NotPSD(RuntimeError):
    """Raised when an operation requires a positive semidefinite input.

    ``witness`` carries the numeric evidence: for a matrix S (``linalg``,
    ``gram``) a vector v with v' S v < 0; for a form (``partsym``) a
    ``partsym.InvalidReduction``, an (x, y) with P(x, y) < 0.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CannotReduce(RuntimeError):
    """Rank reduction is impossible (the Gram family has no free directions)."""


class NoPSDPointFound(RuntimeError):
    """The heuristic search found no PSD point in the Gram family."""


class NumericalError(ArithmeticError):
    """A computed decomposition failed its own residual invariants."""
