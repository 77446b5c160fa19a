"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PrecisionError(ArithmeticError):
    """The requested precision cannot be honored; retry with more digits."""


class ConsistencyError(RuntimeError):
    """Two routes to the same exact quantity disagreed."""


class FormulaParseError(ValueError):
    """A formula or fraction file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UsageError(ValueError):
    """Command line arguments violate a documented precondition."""
