"""Core value types for the workbench.

Matchings of [2n] (optionally with unmatched vertices), set partitions of
[n], Dyck paths, full rook placements, and labeled Dyck paths, together
with the opener/closer correspondence between perfect matchings and
placements.

Coordinate conventions: a board in F_n is given by its border, a
``DyckPath``: a south-east lattice path from (0, n) to (n, 0) that stays
weakly above the diagonal y = n - x, with the board's cells under it.
Board columns are numbered 1..n left to right and rows 1..n bottom to top;
``DyckPath.column_heights`` holds the height of each column.  Border
vertices V_0..V_2n are 0-indexed; matching vertices are 1-indexed.

Value protocol: every type here (and ``bijections.NoncrossingPathPair``)
is a slotted subclass of ``errors.Value``.  A constructor checks its input
in one pass and refuses bad input with ``InvalidObjectError``; integer
fields (rook rows, arcs, fixed points, block elements, labels, and the
heights ``DyckPath.from_heights`` reads) are read with ``operator.index``,
so 1.5 or "1" is refused, never truncated or parsed.  ``PathStats``, the record ``statistics`` returns, checks nothing
and keeps its fields as given.  The fields cannot be assigned or
deleted.  ``==`` holds between objects of the same class with equal
fields, ``hash`` is the hash of the tuple of fields, ``repr`` names every
field, and pickling or copying rebuilds the object through its
constructor.  ``DyckPath.column_heights`` is lazy, since all the placements
on a board read it through their one border: its slot holds None until the
first read, which computes it once.  The other views are computed per read.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain
from operator import gt, index, sub

from .errors import InvalidObjectError, ParseError, Value, _decoded, _ints

__all__ = [
    "DyckPath",
    "RookPlacement",
    "Matching",
    "SetPartition",
    "LabeledDyckPath",
    "PathStats",
    "kappa",
    "kappa_inv",
    "partition_to_matching",
    "statistics",
    "gamma_restriction",
    "parse_int_list",
]

_INT = re.compile(r"-?[0-9]+")
_STEP = {"E": 1, "S": -1}
_LETTER = {1: "E", -1: "S"}
# (step, label change) of every jump a labeled path may make
_JUMPS = {("E", 0), ("E", 1), ("S", 0), ("S", -1)}
# the constructors fill slots past the refusing __setattr__ of Value
_set = object.__setattr__


def _arc(arc) -> tuple[int, int]:
    try:
        i, j = arc
        return index(i), index(j)
    except (TypeError, ValueError):
        raise InvalidObjectError(f"arc {arc!r} is not a pair of integers") from None


def parse_int_list(text: str, what: str, empty: bool = False) -> tuple[int, ...]:
    """The integers of a comma-separated field, read exactly as ``to_text``
    writes them: each item is ASCII ``-?[0-9]+`` and none is empty.  An
    empty field is no items when ``empty`` is set, for the one field that
    ``to_text`` writes empty; otherwise it is bad, as is any other item."""
    if empty and not text:
        return ()
    items = text.split(",")
    if not all(_INT.fullmatch(t) for t in items):
        raise ParseError(f"bad {what}")
    return tuple(int(t) for t in items)


class DyckPath(Value):
    """A path over steps E (east) and S (south) from (0, n) to (n, 0) that
    stays weakly above the diagonal y = n - x.  ``heights`` holds the
    distances d_0..d_2n from each vertex to the diagonal; it is not a field."""

    _fields = ("steps",)
    __slots__ = _fields + ("heights", "_column_heights")

    def __init__(self, steps: str = ""):
        if not isinstance(steps, str):
            raise InvalidObjectError(f"steps {steps!r} are not a string")
        try:
            hs = tuple(accumulate(map(_STEP.__getitem__, steps), initial=0))
        except KeyError:
            raise InvalidObjectError(f"bad step characters in {steps!r}") from None
        if min(hs) < 0:
            raise InvalidObjectError(f"path {steps!r} crosses the diagonal")
        if hs[-1]:
            raise InvalidObjectError(f"path {steps!r} is unbalanced")
        self._fill(steps, hs)

    def _fill(self, steps: str, hs: tuple[int, ...]) -> "DyckPath":
        _set(self, "steps", steps)
        _set(self, "heights", hs)
        _set(self, "_column_heights", None)
        return self

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    @property
    def vertices(self) -> tuple[tuple[int, int], ...]:
        """Cartesian coordinates of V_0..V_2n."""
        x, y = 0, self.n
        out = [(x, y)]
        for ch in self.steps:
            if ch == "E":
                x += 1
            else:
                y -= 1
            out.append((x, y))
        return tuple(out)

    @property
    def column_heights(self) -> tuple[int, ...]:
        """Heights of the board columns, left to right: the y of each E step."""
        if self._column_heights is None:
            y, out = self.n, []
            for ch in self.steps:
                if ch == "E":
                    out.append(y)
                else:
                    y -= 1
            _set(self, "_column_heights", tuple(out))
        return self._column_heights

    def peak_indices(self) -> tuple[int, ...]:
        """Vertex indices i with an E step arriving and an S step leaving."""
        s = self.steps
        return tuple(i for i in range(1, len(s)) if s[i - 1] == "E" and s[i] == "S")

    def valley_indices(self) -> tuple[int, ...]:
        s = self.steps
        return tuple(i for i in range(1, len(s)) if s[i - 1] == "S" and s[i] == "E")

    def aligned_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) of vertex indices at equal height where the segment
        between them runs strictly under the path: each E step's start vertex
        paired with the end vertex of the matching S step."""
        stack: list[int] = []
        out = []
        for idx, ch in enumerate(self.steps):
            if ch == "E":
                stack.append(idx)
            else:
                out.append((stack.pop(), idx + 1))
        return tuple(sorted(out))

    @classmethod
    def from_heights(cls, heights) -> "DyckPath":
        hs = _ints(heights, "height")
        if not hs or hs[0] != 0 or hs[-1] != 0:
            raise InvalidObjectError(f"height sequence {list(hs)} must start and end at 0")
        try:
            steps = "".join(map(_LETTER.__getitem__, map(sub, hs[1:], hs)))
        except KeyError:
            jump = next(b - a for a, b in zip(hs, hs[1:]) if b - a not in _LETTER)
            raise InvalidObjectError(f"height sequence {list(hs)} has a jump of {jump}") from None
        if min(hs) < 0:
            raise InvalidObjectError(f"path {steps!r} crosses the diagonal")
        return cls.__new__(cls)._fill(steps, hs)

    def to_text(self) -> str:
        return self.steps

    @classmethod
    def from_text(cls, text: str) -> "DyckPath":
        return _decoded(cls, text.strip())


class RookPlacement(Value):
    """A full rook placement: one rook in each row and column of the board
    under the border path.

    rook_rows[c-1] is the row of the rook in column c.
    """

    _fields = ("border", "rook_rows")
    __slots__ = _fields

    def __init__(self, border: DyckPath, rook_rows):
        rows = _ints(rook_rows, "rook row")
        n = border.n
        if sorted(rows) != list(range(1, n + 1)):
            raise InvalidObjectError(f"rook rows {rows} are not a permutation of 1..{n}")
        heights = border.column_heights
        if any(map(gt, rows, heights)):
            c, r, h = next(
                (c, r, h) for c, (r, h) in enumerate(zip(rows, heights), start=1) if r > h
            )
            raise InvalidObjectError(f"rook ({c},{r}) lies outside column of height {h}")
        _set(self, "border", border)
        _set(self, "rook_rows", rows)

    @property
    def n(self) -> int:
        return self.border.n

    def rook_row(self, col: int) -> int:
        return self.rook_rows[col - 1]

    def to_text(self) -> str:
        rooks = ",".join(str(r) for r in self.rook_rows)
        return f"border:{self.border.steps};rooks:{rooks}"

    @classmethod
    def from_text(cls, text: str) -> "RookPlacement":
        parts = text.strip().split(";")
        if len(parts) != 2 or not parts[0].startswith("border:") or not parts[1].startswith("rooks:"):
            raise ParseError(f"bad placement encoding {text!r}")
        border = DyckPath.from_text(parts[0][len("border:"):])
        rook_part = parts[1][len("rooks:"):]
        rooks = parse_int_list(rook_part, f"rook list {rook_part!r}", empty=True)
        return _decoded(cls, border, rooks)


def _unpartitioned(arcs, fps, size: int) -> InvalidObjectError:
    return InvalidObjectError(f"arcs {arcs} and fixed points {fps} do not partition [{size}]")


class Matching(Value):
    """A matching of [2n + k] given by n arcs (opener, closer) and k fixed
    points (vertices of degree 0); perfect when fixed_points is empty."""

    _fields = ("arcs", "fixed_points")
    __slots__ = _fields

    def __init__(self, arcs, fixed_points=()):
        arcs = tuple(sorted(map(_arc, arcs)))
        fps = tuple(sorted(_ints(fixed_points, "fixed point")))
        for i, j in arcs:
            if not i < j:
                raise InvalidObjectError(f"arc ({i},{j}) must have opener < closer")
        size = 2 * len(arcs) + len(fps)
        # size vertices, each in 1..size and none twice, are all of [size]
        free = [True] * (size + 1)
        for i, j in arcs:
            if i < 1 or j > size or not (free[i] and free[j]):
                raise _unpartitioned(arcs, fps, size)
            free[i] = free[j] = False
        for v in fps:
            if not 0 < v <= size or not free[v]:
                raise _unpartitioned(arcs, fps, size)
            free[v] = False
        _set(self, "arcs", arcs)
        _set(self, "fixed_points", fps)

    @property
    def n(self) -> int:
        return len(self.arcs)

    @property
    def size(self) -> int:
        return 2 * len(self.arcs) + len(self.fixed_points)

    @property
    def shape(self) -> DyckPath:
        """Border path read off the opener/closer word, fixed points skipped."""
        # vertex v writes word[v]; a fixed point, and the unused word[0], write ""
        word = [""] * (self.size + 1)
        for i, j in self.arcs:
            word[i] = "E"
            word[j] = "S"
        return DyckPath("".join(word))

    def to_text(self) -> str:
        arc_part = "".join(f"({i},{j})" for i, j in self.arcs)
        if not self.fixed_points:
            return arc_part
        fp_part = "fp:" + ",".join(str(v) for v in self.fixed_points)
        return f"{arc_part};{fp_part}" if arc_part else fp_part

    @classmethod
    def from_text(cls, text: str) -> "Matching":
        text = text.strip()
        fps: tuple[int, ...] = ()
        arc_part = text
        if "fp:" in text:
            arc_part, _, fp_part = text.partition("fp:")
            # fp: opens the text or follows the arcs and exactly one ";"
            if arc_part:
                if not arc_part.endswith(";") or arc_part == ";":
                    raise ParseError(f"bad matching encoding {text!r}")
                arc_part = arc_part[:-1]
            fps = parse_int_list(fp_part, f"fixed-point list in {text!r}")
        arcs = []
        rest = arc_part
        while rest:
            if not rest.startswith("("):
                raise ParseError(f"bad matching encoding {text!r}")
            body, close, rest = rest[1:].partition(")")
            if not close:
                raise ParseError(f"unbalanced parentheses in {text!r}")
            arc = parse_int_list(body, f"arc ({body}) in {text!r}")
            if len(arc) != 2:
                raise ParseError(f"bad arc ({body}) in {text!r}")
            arcs.append(arc)
        return _decoded(cls, tuple(arcs), fps)


class SetPartition(Value):
    """A partition of [n] into blocks, with arcs joining consecutive
    elements inside each block."""

    _fields = ("blocks",)
    __slots__ = _fields

    def __init__(self, blocks):
        blocks = tuple(sorted(tuple(sorted(_ints(b, "block element"))) for b in blocks if b))
        elems = sorted(chain(*blocks))
        if elems != list(range(1, len(elems) + 1)):
            raise InvalidObjectError(f"blocks {blocks} do not partition [{len(elems)}]")
        _set(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        out = []
        for b in self.blocks:
            out.extend(zip(b, b[1:]))
        return tuple(sorted(out))

    def to_text(self) -> str:
        return "".join("{" + ",".join(str(v) for v in b) + "}" for b in self.blocks)

    @classmethod
    def from_text(cls, text: str) -> "SetPartition":
        text = text.strip()
        blocks = []
        rest = text
        while rest:
            if not rest.startswith("{"):
                raise ParseError(f"bad partition encoding {text!r}")
            body, close, rest = rest[1:].partition("}")
            if not close:
                raise ParseError(f"unbalanced braces in {text!r}")
            blocks.append(parse_int_list(body, f"block {{{body}}} in {text!r}"))
        return _decoded(cls, tuple(blocks))


class LabeledDyckPath(Value):
    """A Dyck path whose vertices carry integer labels that change by at
    most one along each step, rising weakly on E and falling weakly on S."""

    _fields = ("path", "labels")
    __slots__ = _fields

    def __init__(self, path: DyckPath, labels):
        labels = _ints(labels, "label")
        steps = path.steps
        if len(labels) != len(steps) + 1:
            raise InvalidObjectError(f"expected {len(steps) + 1} labels, got {len(labels)}")
        if not _JUMPS.issuperset(zip(steps, map(sub, labels[1:], labels))):
            idx, ch, a, b = next(
                (idx, ch, a, b)
                for idx, (ch, a, b) in enumerate(zip(steps, labels, labels[1:]))
                if (ch, b - a) not in _JUMPS
            )
            raise InvalidObjectError(f"label jump {a}->{b} on {ch} step {idx}")
        _set(self, "path", path)
        _set(self, "labels", labels)

    def to_text(self) -> str:
        return self.path.steps + ";" + ",".join(str(a) for a in self.labels)

    @classmethod
    def from_text(cls, text: str) -> "LabeledDyckPath":
        steps, sep, label_part = text.strip().partition(";")
        if not sep:
            raise ParseError(f"bad labeled path encoding {text!r}")
        labels = parse_int_list(label_part, f"label list {label_part!r}")
        return _decoded(cls, DyckPath.from_text(steps), labels)


class PathStats(Value):
    _fields = ("valleys", "peaks", "returns", "height", "eta")
    __slots__ = _fields

    def __init__(self, valleys: int, peaks: int, returns: int, height: int, eta: int):
        for name, value in zip(self._fields, (valleys, peaks, returns, height, eta)):
            _set(self, name, value)


def statistics(path: DyckPath) -> PathStats:
    """Path statistics of a Dyck path, such as a board border or a matching
    shape.

    valleys/peaks are SE/ES corners, returns are south steps landing on the
    diagonal, height is the maximum diagonal distance, and eta counts
    vertices at distance exactly 2.
    """
    hs = path.heights
    returns = sum(
        1 for i, ch in enumerate(path.steps) if ch == "S" and hs[i + 1] == 0
    )
    return PathStats(
        valleys=len(path.valley_indices()),
        peaks=len(path.peak_indices()),
        returns=returns,
        height=max(hs),
        eta=sum(1 for d in hs if d == 2),
    )


def kappa(m: Matching) -> RookPlacement:
    """Send a perfect matching to a rook placement: the opener/closer word
    gives the border, the a-th opener gives column a, and the k-th closer
    gives row n + 1 - k; the arcs place the rooks."""
    if m.fixed_points:
        raise InvalidObjectError(
            "kappa is defined for perfect matchings; use kappa_prime for fixed points"
        )
    n = m.n
    # the arcs are sorted by opener, so arc a (from 0) is column a + 1's,
    # and the closer of rank k (from 0) gives row n - k
    rook_rows = [0] * n
    for k, (_, a) in enumerate(sorted((j, a) for a, (_, j) in enumerate(m.arcs))):
        rook_rows[a] = n - k
    return RookPlacement(m.shape, tuple(rook_rows))


def kappa_inv(p: RookPlacement) -> Matching:
    """Inverse of kappa: read openers and closers off the border steps; the
    rook in row r of column a joins the a-th opener to the (n + 1 - r)-th
    closer."""
    n, steps = p.n, p.border.steps
    openers = [v for v, ch in enumerate(steps, start=1) if ch == "E"]
    closers = [v for v, ch in enumerate(steps, start=1) if ch == "S"]
    return Matching(tuple(zip(openers, [closers[n - r] for r in p.rook_rows])))


def partition_to_matching(p: SetPartition) -> Matching:
    """Drop singletons and split every interior block element into a closer
    followed by an opener; a partition of [n] with b blocks maps to a
    perfect matching with n - b arcs, with arc occurrences preserved."""
    roles = [0] * (p.n + 1)  # an arc (a, b) gives a an opener, b a closer
    for a, b in p.arcs:
        roles[a] += 1
        roles[b] += 1
    # numbered in vertex order, an element's closer before its opener: last[v]
    # is v's last role, so a's opener is last[a] and b's closer last[b - 1] + 1
    last = list(accumulate(roles))
    return Matching(tuple((last[a], last[b - 1] + 1) for a, b in p.arcs))


def gamma_restriction(p: RookPlacement, v: int) -> tuple[int, ...]:
    """Permutation induced by the rooks inside the rectangle spanned by the
    origin and border vertex V_v, empty rows and columns disregarded."""
    (v,) = _ints((v,), "vertex index")
    vertices = p.border.vertices
    if not 0 <= v < len(vertices):
        raise InvalidObjectError(f"vertex index {v} out of range 0..{2 * p.n}")
    x, y = vertices[v]
    inside = [r for r in p.rook_rows[:x] if r <= y]
    rank = {r: i for i, r in enumerate(sorted(inside), start=1)}
    return tuple(map(rank.__getitem__, inside))
