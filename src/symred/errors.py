"""Exception hierarchy and warnings used across the toolkit."""


class SymredError(Exception):
    """Base class for all toolkit errors."""


class NonFiniteError(SymredError):
    """A computed quantity contains NaN or an infinity."""


class DegenerateInputError(SymredError):
    """Input is singular or degenerate where a nondegenerate object is required."""


class NotSPDError(SymredError):
    """A matrix expected to be symmetric positive definite is not."""


class OddDimensionError(SymredError):
    """Symplectic data was requested on an odd-dimensional chart."""


class NotRegularValueError(SymredError):
    """The momentum level is not a regular value near the working point."""


class NotOnLevelError(SymredError):
    """A point expected on the momentum level set is not on it."""


class ActionNotFreeError(SymredError):
    """Group generators are linearly dependent at the working point."""


class RankDeficientLiftError(SymredError):
    """The horizontal-lift system is rank deficient; the map is not a submersion."""


class NotStandardStructureError(SymredError):
    """The operation requires the standard coordinate almost complex structure."""


class UnknownScenarioError(SymredError):
    """The requested built-in scenario name is not registered."""


class ScenarioFormatError(SymredError):
    """Base class for problems with scenario text."""


class ParseError(ScenarioFormatError):
    """Syntax error, with 1-based position and the token kinds that were expected."""

    def __init__(self, message: str, line: int, column: int, expected: tuple = ()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{message} at line {line}, column {column}"
        if self.expected:
            detail += " (expected " + " or ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class ValidationError(ScenarioFormatError):
    """Scenario text parsed but is inconsistent (dimensions, identifiers, ...)."""


class UnknownIdentifierError(ValidationError):
    """An expression reads a coordinate that is not in scope."""


class VerticalLeakWarning(UserWarning):
    """Pushforward of the almost complex structure left the horizontal space."""
