"""Exception hierarchy shared by all matchboard modules, and the helper
that reports an object decoded from bad text as a ParseError."""

__all__ = [
    "MatchboardError",
    "InvalidObjectError",
    "ParseError",
    "PatternViolationError",
    "ResourceCapError",
    "SeriesError",
    "DivisibilityError",
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


def _decoded(cls, *args):
    """cls(*args) for an object read from its text: a bad encoding is a
    ParseError, so an InvalidObjectError is raised as one."""
    try:
        return cls(*args)
    except InvalidObjectError as e:
        raise ParseError(str(e)) from e
