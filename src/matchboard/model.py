"""Core value types for the workbench.

Matchings of [2n] (optionally with unmatched vertices), set partitions of
[n], Dyck borders of Ferrers boards, full rook placements, and labeled
Dyck paths, together with the opener/closer correspondence between
perfect matchings and placements.

Coordinate conventions: board columns are numbered 1..n left to right and
rows 1..n bottom to top, so a board in F_n sits under its border, a
south-east lattice path from (0, n) to (n, 0) that stays weakly above the
diagonal y = n - x.  Border vertices V_0..V_2n are 0-indexed; matching
vertices are 1-indexed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import sub

from .errors import InvalidObjectError, ParseError, _decoded

__all__ = [
    "DyckPath",
    "FerrersBoard",
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
# (step, label change) of every jump a labeled path may make
_JUMPS = {("E", 0), ("E", 1), ("S", 0), ("S", -1)}


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


@dataclass(frozen=True)
class DyckPath:
    """A path over steps E (east) and S (south) from (0, n) to (n, 0) that
    stays weakly above the diagonal y = n - x."""

    steps: str = ""
    # distances d_0..d_2n from each vertex to the diagonal
    heights: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if set(self.steps) - {"E", "S"}:
            raise InvalidObjectError(f"bad step characters in {self.steps!r}")
        hs = tuple(accumulate(map(_STEP.__getitem__, self.steps), initial=0))
        if min(hs) < 0:
            raise InvalidObjectError(f"path {self.steps!r} crosses the diagonal")
        if hs[-1]:
            raise InvalidObjectError(f"path {self.steps!r} is unbalanced")
        object.__setattr__(self, "heights", hs)

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    @cached_property
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

    def peak_indices(self) -> tuple[int, ...]:
        """Vertex indices i with an E step arriving and an S step leaving."""
        return self._peak_indices

    @cached_property
    def _peak_indices(self) -> tuple[int, ...]:
        s = self.steps
        return tuple(i for i in range(1, len(s)) if s[i - 1] == "E" and s[i] == "S")

    def valley_indices(self) -> tuple[int, ...]:
        s = self.steps
        return tuple(i for i in range(1, len(s)) if s[i - 1] == "S" and s[i] == "E")

    def aligned_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) of vertex indices at equal height where the segment
        between them runs strictly under the path: each E step's start vertex
        paired with the end vertex of the matching S step."""
        return self._aligned_pairs

    @cached_property
    def _aligned_pairs(self) -> tuple[tuple[int, int], ...]:
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
        hs = list(heights)
        if not hs or hs[0] != 0 or hs[-1] != 0:
            raise InvalidObjectError(f"height sequence {hs} must start and end at 0")
        steps = []
        for a, b in zip(hs, hs[1:]):
            if b - a == 1:
                steps.append("E")
            elif b - a == -1:
                steps.append("S")
            else:
                raise InvalidObjectError(f"height sequence {hs} has a jump of {b - a}")
        return cls("".join(steps))

    def to_text(self) -> str:
        return self.steps

    @classmethod
    def from_text(cls, text: str) -> "DyckPath":
        return _decoded(cls, text.strip())


@dataclass(frozen=True)
class FerrersBoard:
    """A Ferrers board in F_n, stored as its border path."""

    border: DyckPath

    @property
    def n(self) -> int:
        return self.border.n

    @classmethod
    def from_column_heights(cls, heights) -> "FerrersBoard":
        hs = list(heights)
        n = len(hs)
        if hs and (hs[0] != n or any(a < b for a, b in zip(hs, hs[1:])) or hs[-1] < 1):
            raise InvalidObjectError(f"{hs} is not a valid column-height list")
        steps = []
        y = n
        for c, h in enumerate(hs, start=1):
            steps.append("S" * (y - h))
            steps.append("E")
            y = h
        steps.append("S" * y)
        return cls(DyckPath("".join(steps)))

    @cached_property
    def column_heights(self) -> tuple[int, ...]:
        out = []
        y = self.n
        for ch in self.border.steps:
            if ch == "E":
                out.append(y)
            else:
                y -= 1
        return tuple(out)


@dataclass(frozen=True)
class RookPlacement:
    """A full rook placement: one rook in each row and column of the board.

    rook_rows[c-1] is the row of the rook in column c.
    """

    board: FerrersBoard
    rook_rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rook_rows", tuple(self.rook_rows))
        n = self.board.n
        if sorted(self.rook_rows) != list(range(1, n + 1)):
            raise InvalidObjectError(
                f"rook rows {self.rook_rows} are not a permutation of 1..{n}"
            )
        heights = self.board.column_heights
        for c, r in enumerate(self.rook_rows, start=1):
            if r > heights[c - 1]:
                raise InvalidObjectError(
                    f"rook ({c},{r}) lies outside column of height {heights[c - 1]}"
                )

    @property
    def n(self) -> int:
        return self.board.n

    def rook_row(self, col: int) -> int:
        return self.rook_rows[col - 1]

    def to_text(self) -> str:
        rooks = ",".join(str(r) for r in self.rook_rows)
        return f"border:{self.board.border.steps};rooks:{rooks}"

    @classmethod
    def from_text(cls, text: str) -> "RookPlacement":
        parts = text.strip().split(";")
        if len(parts) != 2 or not parts[0].startswith("border:") or not parts[1].startswith("rooks:"):
            raise ParseError(f"bad placement encoding {text!r}")
        border = DyckPath.from_text(parts[0][len("border:"):])
        rook_part = parts[1][len("rooks:"):]
        rooks = parse_int_list(rook_part, f"rook list {rook_part!r}", empty=True)
        return _decoded(cls, FerrersBoard(border), rooks)


@dataclass(frozen=True)
class Matching:
    """A matching of [2n + k] given by n arcs (opener, closer) and k fixed
    points (vertices of degree 0); perfect when fixed_points is empty."""

    arcs: tuple[tuple[int, int], ...]
    fixed_points: tuple[int, ...] = ()

    def __post_init__(self):
        arcs = tuple(sorted((int(i), int(j)) for i, j in self.arcs))
        fps = tuple(sorted(int(v) for v in self.fixed_points))
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "fixed_points", fps)
        size = 2 * len(arcs) + len(fps)
        seen = list(fps)
        for i, j in arcs:
            if not i < j:
                raise InvalidObjectError(f"arc ({i},{j}) must have opener < closer")
            seen.extend((i, j))
        if sorted(seen) != list(range(1, size + 1)):
            raise InvalidObjectError(
                f"arcs {arcs} and fixed points {fps} do not partition [{size}]"
            )

    @property
    def n(self) -> int:
        return len(self.arcs)

    @property
    def size(self) -> int:
        return 2 * len(self.arcs) + len(self.fixed_points)

    @cached_property
    def shape(self) -> DyckPath:
        """Border path read off the opener/closer word, fixed points skipped."""
        fixed = set(self.fixed_points)
        openers = {i for i, _ in self.arcs}
        steps = [
            "E" if v in openers else "S"
            for v in range(1, self.size + 1)
            if v not in fixed
        ]
        return DyckPath("".join(steps))

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


@dataclass(frozen=True)
class SetPartition:
    """A partition of [n] into blocks, with arcs joining consecutive
    elements inside each block."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(
            sorted((tuple(sorted(int(v) for v in b)) for b in self.blocks if b))
        )
        object.__setattr__(self, "blocks", blocks)
        elems = sorted(v for b in blocks for v in b)
        if elems != list(range(1, len(elems) + 1)):
            raise InvalidObjectError(f"blocks {blocks} do not partition [{len(elems)}]")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @cached_property
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


@dataclass(frozen=True)
class LabeledDyckPath:
    """A Dyck path whose vertices carry integer labels that change by at
    most one along each step, rising weakly on E and falling weakly on S."""

    path: DyckPath
    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(map(int, self.labels))
        object.__setattr__(self, "labels", labels)
        steps = self.path.steps
        if len(labels) != len(steps) + 1:
            raise InvalidObjectError(
                f"expected {len(steps) + 1} labels, got {len(labels)}"
            )
        if _JUMPS.issuperset(zip(steps, map(sub, labels[1:], labels))):
            return
        for idx, (ch, a, b) in enumerate(zip(steps, labels, labels[1:])):
            if (ch, b - a) not in _JUMPS:
                raise InvalidObjectError(f"label jump {a}->{b} on {ch} step {idx}")

    def to_text(self) -> str:
        return self.path.steps + ";" + ",".join(str(a) for a in self.labels)

    @classmethod
    def from_text(cls, text: str) -> "LabeledDyckPath":
        steps, sep, label_part = text.strip().partition(";")
        if not sep:
            raise ParseError(f"bad labeled path encoding {text!r}")
        labels = parse_int_list(label_part, f"label list {label_part!r}")
        return _decoded(cls, DyckPath.from_text(steps), labels)


@dataclass(frozen=True)
class PathStats:
    valleys: int
    peaks: int
    returns: int
    height: int
    eta: int


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
    openers = sorted(i for i, _ in m.arcs)
    closers = sorted(j for _, j in m.arcs)
    col_of = {v: a for a, v in enumerate(openers, start=1)}
    row_of = {v: n + 1 - k for k, v in enumerate(closers, start=1)}
    rook_rows = [0] * n
    for i, j in m.arcs:
        rook_rows[col_of[i] - 1] = row_of[j]
    return RookPlacement(FerrersBoard(m.shape), tuple(rook_rows))


def kappa_inv(p: RookPlacement) -> Matching:
    """Inverse of kappa: read openers and closers off the border steps."""
    n = p.n
    openers = [idx + 1 for idx, ch in enumerate(p.board.border.steps) if ch == "E"]
    closers = [idx + 1 for idx, ch in enumerate(p.board.border.steps) if ch == "S"]
    arcs = []
    for a in range(1, n + 1):
        r = p.rook_row(a)
        arcs.append((openers[a - 1], closers[n - r]))
    return Matching(tuple(arcs))


def partition_to_matching(p: SetPartition) -> Matching:
    """Drop singletons and split every interior block element into a closer
    followed by an opener; a partition of [n] with b blocks maps to a
    perfect matching with n - b arcs, with arc occurrences preserved."""
    opener_idx: dict[int, int] = {}
    closer_idx: dict[int, int] = {}
    first = {b[0] for b in p.blocks if len(b) >= 2}
    last = {b[-1] for b in p.blocks if len(b) >= 2}
    pos = 0
    for v in range(1, p.n + 1):
        is_first, is_last = v in first, v in last
        if is_first:
            pos += 1
            opener_idx[v] = pos
        elif is_last:
            pos += 1
            closer_idx[v] = pos
        elif any(v in b for b in p.blocks if len(b) >= 2):
            pos += 1
            closer_idx[v] = pos
            pos += 1
            opener_idx[v] = pos
    arcs = tuple((opener_idx[a], closer_idx[b]) for a, b in p.arcs)
    return Matching(arcs)


def gamma_restriction(p: RookPlacement, v: int) -> tuple[int, ...]:
    """Permutation induced by the rooks inside the rectangle spanned by the
    origin and border vertex V_v, empty rows and columns disregarded."""
    vertices = p.board.border.vertices
    if not 0 <= v < len(vertices):
        raise InvalidObjectError(f"vertex index {v} out of range 0..{2 * p.n}")
    x, y = vertices[v]
    inside = [r for r in p.rook_rows[:x] if r <= y]
    rank = {r: i for i, r in enumerate(sorted(inside), start=1)}
    return tuple(map(rank.__getitem__, inside))
