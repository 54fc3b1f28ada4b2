"""Exception hierarchy and warnings used across the toolkit, and the base
of its immutable types, whose one constructor builds no code at import."""

# sets a field of a record in its constructor, past the refusing __setattr__
_set = object.__setattr__


class Record:
    """Base of the package's immutable types.  A record's fields are the
    ``__slots__`` of its class and of its record bases, bases first
    (``_fields``).  The constructor takes them in that order, positionally
    or by keyword, and sets each once with ``_set``; a field missing,
    unknown or given twice raises TypeError naming the class.  A record
    whose fields are checked, converted or defaulted stores them through
    it.  Assigning or deleting an attribute afterwards raises
    AttributeError.  Records compare by identity; see ``ValueRecord``."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            cls, values = type(self).__qualname__, dict(zip(fields, args))
            if len(args) > len(fields):
                raise TypeError(f"{cls} takes {len(fields)} fields, got {len(args)} positional")
            for name in kwargs:
                if name in values or name not in fields:
                    raise TypeError(f"{cls} got field {name!r} twice" if name in values
                                    else f"{cls} has no field {name!r}")
            values.update(kwargs)
            if len(values) < len(fields):
                raise TypeError(f"{cls} is missing field "
                                + ", ".join(repr(name) for name in fields if name not in values))
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        """The fields' values, in the order of ``_fields``."""
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor, as
        # restoring its slots one by one would assign them
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class ValueRecord(Record):
    """A record equal to another of its own type with equal fields, and
    hashed by its type and fields."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), *self._values()))


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
