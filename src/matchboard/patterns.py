"""Pattern containment for permutations, placements, matchings, and
partitions, plus the increasing-subsequence labels used downstream.

Arc-diagram containment: a matching or partition contains a pattern t of
length k when 2k distinct vertices x_1 < ... < x_2k carry the arcs
(x_a, x_{2k+1-t(a)}) for all a.  The first k chosen vertices are then
necessarily openers and the last k closers.
"""

from __future__ import annotations

import bisect
from functools import lru_cache
from math import inf

from .errors import InvalidObjectError, ParseError, Value, _decoded, _ints

__all__ = [
    "Pattern",
    "S3_PATTERNS",
    "as_patterns",
    "perm_contains",
    "placement_avoids",
    "offending_vertex",
    "find_arc_occurrence",
    "lis_labels",
    "lis_length",
    "parse_pattern_set",
]


class Pattern(Value):
    """A permutation of [k] in one-line notation.  It is immutable, and two
    patterns are equal when their entries are."""

    _fields = ("perm",)
    __slots__ = _fields

    def __init__(self, perm):
        perm = _ints(perm, "pattern entry")
        if not perm:
            raise InvalidObjectError("a pattern has at least one entry")
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise InvalidObjectError(f"{perm} is not a permutation of [k]")
        object.__setattr__(self, "perm", perm)

    def __len__(self):
        return len(self.perm)

    def to_text(self) -> str:
        return "".join(str(v) for v in self.perm)

    @classmethod
    def from_text(cls, text: str) -> "Pattern":
        text = text.strip()
        # str.isdigit alone accepts digits such as "²" that int() refuses
        if not (text.isascii() and text.isdigit()):
            raise ParseError(f"bad pattern {text!r}")
        return _decoded(cls, tuple(int(ch) for ch in text))


S3_PATTERNS = tuple(
    Pattern(p) for p in [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
)


def as_patterns(avoid) -> tuple[Pattern, ...]:
    """The distinct patterns of a pattern argument, sorted by their entries:
    a Pattern, its text, or an iterable of either.  Every request that takes
    patterns reads them here once; the per-object tests below take them as
    they are."""
    if isinstance(avoid, (str, Pattern)):
        avoid = (avoid,)
    pats = {Pattern.from_text(t) if isinstance(t, str) else t for t in avoid}
    return tuple(sorted(pats, key=lambda p: p.perm))


def parse_pattern_set(text: str) -> frozenset[Pattern]:
    """Parse a comma-separated pattern list such as '123,321'; an empty
    item, as in '123,,321' or '123,', is refused."""
    items = [tok.strip() for tok in text.split(",")]
    if not any(items):
        raise ParseError(f"empty pattern set {text!r}")
    if not all(items):
        raise ParseError(f"empty item in pattern list {text!r}")
    return frozenset(map(Pattern.from_text, items))


@lru_cache(maxsize=None)
def _plan(tv: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Per entry of the pattern: the earlier entries holding its nearest lower
    and nearest higher values (slots k and k + 1 of the value list, which hold
    bounds, when there is none), and minus the number of entries after it."""
    k = len(tv)
    plan = []
    for a, v in enumerate(tv):
        lower = [b for b in range(a) if tv[b] < v]
        higher = [b for b in range(a) if tv[b] > v]
        plan.append((max(lower, key=tv.__getitem__, default=k),
                     min(higher, key=tv.__getitem__, default=k + 1), a + 1 - k))
    return tuple(plan)


def perm_contains(p, t) -> bool:
    """True when some subsequence of p is order-isomorphic to t."""
    return _contains(_values(p), _plan(_values(t)))


def _values(t) -> tuple[int, ...]:
    return t.perm if isinstance(t, Pattern) else tuple(t)


def _contains(pv, plan) -> bool:
    """Whether the distinct values pv contain the planned pattern."""
    k = len(plan)
    if k == 0:
        return True
    if k > len(pv):
        return False
    return _extend(pv, plan, [0] * k + [-inf, inf], 0, 0)


def _extend(pv, plan, vals, a: int, start: int) -> bool:
    """Whether positions from start on extend the values vals[:a], chosen
    from pv, to an occurrence of the planned pattern."""
    below, above, after = plan[a]
    for pos in range(start, len(pv) + after):
        val = pv[pos]
        if vals[below] < val < vals[above]:
            vals[a] = val
            if not after or _extend(pv, plan, vals, a + 1, pos + 1):
                return True
    return False


def placement_avoids(p, t, all_vertices: bool = False) -> bool:
    """True when no border-vertex restriction of the rook placement p
    contains any of the patterns.  By default only peak vertices are tested,
    since every other restriction embeds in a peak's; all_vertices=True
    forces the direct definition."""
    return offending_vertex(p, t, all_vertices) is None


def offending_vertex(p, t, all_vertices: bool = False) -> int | None:
    """Index of the first border vertex of the rook placement p (a peak,
    unless all_vertices) whose restriction contains one of the patterns, or
    None when there is none.  The rook rows under each vertex are tested
    as they stand: containment depends only on their relative order, so the
    ranking that ``gamma_restriction`` applies would change nothing."""
    pats = (t,) if isinstance(t, Pattern) else t
    plans = [_plan(_values(pat)) for pat in pats]
    vertices = p.border.vertices
    rows = p.rook_rows
    for v in range(len(vertices)) if all_vertices else p.border.peak_indices():
        x, y = vertices[v]
        inside = [r for r in rows[:x] if r <= y]
        for plan in plans:
            if _contains(inside, plan):
                return v
    return None


def find_arc_occurrence(arcs, t: Pattern):
    """Return the 2k vertices of an occurrence of t among the arcs, or None.

    Vertices must be distinct, every chosen opener must precede every chosen
    closer, and opener rank a must be matched to closer rank k + 1 - t(a).
    """
    k = len(t.perm)
    arcs = sorted(arcs)
    if len(arcs) < k:
        return None
    # the closers, in opener order, form t's complement: an entry below
    # another in t closes after it, so slot k bounds from above, k + 1 below
    opens, vals = [0] * k, [0] * k + [inf, -inf]
    if _arc_search(arcs, _plan(t.perm), vals, opens, 0, 0, -inf, inf):
        return tuple(opens) + tuple(sorted(vals[:k]))
    return None


def _arc_search(arcs, plan, vals, opens, a, start, prev, low) -> bool:
    """Whether arcs from index start on extend the chosen arcs (openers
    opens[:a], the last prev; closers vals[:a], the smallest low) to an
    occurrence, searched depth first in the order of ``itertools.combinations``."""
    below, above, after = plan[a]
    for i in range(start, len(arcs) + after):
        o, c = arcs[i]
        if o >= low:
            return False  # the later openers are no smaller
        if prev < o < c and vals[above] < c < vals[below]:
            vals[a] = c
            opens[a] = o
            if not after or _arc_search(arcs, plan, vals, opens, a + 1, i + 1, o, min(low, c)):
                return True
    return False


def lis_length(perm) -> int:
    """Longest increasing subsequence length via patience sorting."""
    tails: list[int] = []
    for v in perm:
        i = bisect.bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def lis_labels(p) -> tuple[int, ...]:
    """For each border vertex V_i = (x, y) of the rook placement p, the
    length of the longest increasing rook sequence inside the rectangle
    under V_i, read from the rook rows as they stand (``gamma_restriction``
    ranks them, which keeps every increasing run).  One patience sort reads
    a column at each E step: once it has read x columns, tails[l] is the
    lowest row at which an increasing run of length l + 1 among them ends,
    so the longest run with every row <= y is as long as the number of
    tails <= y."""
    rows = p.rook_rows
    tails: list[int] = []
    labels = []
    read = 0
    for x, y in p.border.vertices:
        if x > read:  # the E step into V_i brings in column x
            r = rows[read]
            i = bisect.bisect_left(tails, r)
            tails[i:i + 1] = (r,)
            read = x
        labels.append(bisect.bisect_right(tails, y))
    return tuple(labels)
