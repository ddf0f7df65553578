"""Exception hierarchy shared by all matchboard modules, the base of the
immutable value classes, the helper that reads their integer fields, and
the helper that reports an object decoded from bad text as a ParseError."""

from operator import attrgetter, index

__all__ = [
    "MatchboardError",
    "InvalidObjectError",
    "ParseError",
    "PatternViolationError",
    "ResourceCapError",
    "SeriesError",
    "DivisibilityError",
    "Value",
]


class MatchboardError(Exception):
    """Base class for all errors raised by this package."""


class InvalidObjectError(MatchboardError):
    """A combinatorial object violates its structural invariants."""


class ParseError(MatchboardError):
    """A text encoding could not be parsed."""


class PatternViolationError(MatchboardError):
    """An input fails a pattern-avoidance precondition.

    ``vertices`` names a witnessing vertex set when one is available.
    """

    def __init__(self, message, vertices=None):
        super().__init__(message)
        self.vertices = tuple(vertices) if vertices is not None else None


class ResourceCapError(MatchboardError):
    """A request exceeds the cap of the route that would run it: a count
    past the scan's size cap or the enumeration cap of the family, or a
    series order past the formulas' order cap."""


class SeriesError(MatchboardError):
    """A power-series operation violated one of its preconditions."""


class DivisibilityError(SeriesError):
    """An exact division in the series layer left a remainder."""


def _ints(values, what: str) -> tuple[int, ...]:
    """The values read with ``operator.index``; the first value that is not
    an integer is named in an InvalidObjectError."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        for v in values:
            try:
                index(v)
            except TypeError:
                raise InvalidObjectError(f"{what} {v!r} is not an integer") from None
        raise


def _decoded(cls, *args):
    """cls(*args) for an object read from its text: a bad encoding is a
    ParseError, so an InvalidObjectError is raised as one."""
    try:
        return cls(*args)
    except InvalidObjectError as e:
        raise ParseError(str(e)) from e


class Value:
    """Base of the immutable value classes.  A subclass names its fields,
    in constructor order, in ``_fields``, and lists them in its slots with
    any attribute derived from them: an eager one such as
    ``DyckPath.heights``, or the private slot of the one lazy attribute,
    ``DyckPath.column_heights``, which holds None until the first read."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # reads the tuple of fields, or the field itself when there is one
        cls._get = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        values = self._get(self)
        return values if len(self._fields) > 1 else (values,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == other._get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
