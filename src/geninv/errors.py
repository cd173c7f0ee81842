"""Exception types shared across the library."""


class ShapeError(ValueError):
    """Matrix dimensions do not conform for the requested operation."""


class DomainError(ValueError):
    """Input is outside the operation's mathematical domain."""


class NumericError(ArithmeticError):
    """A floating-point computation failed or produced an unusable result."""


class DecompositionError(RuntimeError):
    """A computed decomposition violates its validation invariants."""


class ParseError(ValueError):
    """A matrix file could not be parsed.

    Carries the 1-based line and column of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


def index_above_one(name: str, k: int) -> DomainError:
    """The error of an inverse defined only for Ind(A) <= 1 (`name`: group
    inverse, core inverse), worded the same on the float and exact paths."""
    return DomainError(f"{name} requires index at most 1, computed index is {k}")
