"""Pattern containment for permutations, placements, matchings, and
partitions, plus the increasing-subsequence labels used downstream, read
off one RSK walk along the border that also meets the first 321.

Arc-diagram containment: a matching or partition contains a pattern t of
length k when 2k distinct vertices x_1 < ... < x_2k carry the arcs
(x_a, x_{2k+1-t(a)}) for all a.  The first k chosen vertices are then
necessarily openers and the last k closers.
"""

from __future__ import annotations

import bisect
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


class Pattern(Value):
    """A permutation of [k] in one-line notation.  It is immutable, and two
    patterns are equal when their entries are.  ``plan`` holds its search
    plan (``_plan``), made once here; it is not a field."""

    _fields = ("perm",)
    __slots__ = _fields + ("plan",)

    def __init__(self, perm):
        perm = _ints(perm, "pattern entry")
        if not perm:
            raise InvalidObjectError("a pattern has at least one entry")
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise InvalidObjectError(f"{perm} is not a permutation of [k]")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "plan", _plan(perm))

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


def perm_contains(p, t) -> bool:
    """True when some subsequence of p is order-isomorphic to t."""
    pv, plan = tuple(p), t.plan if isinstance(t, Pattern) else _plan(tuple(t))
    return not plan or _search(pv, (inf,) * len(pv), plan)


def _search(pv, ceiling, plan, vals=None, a: int = 0, start: int = 0, high=-inf) -> bool:
    """Whether positions from start on extend vals[:a], chosen from the
    distinct values pv with the largest high, to an occurrence of the plan
    with every value at most the ceiling at its last position.  The ceiling
    does not rise and holds pv, so one below high ends the search."""
    vals = vals or [0] * len(plan) + [-inf, inf]
    below, above, after = plan[a]
    for pos in range(start, len(pv) + after):
        val = pv[pos]
        if vals[below] < val < vals[above]:
            if ceiling[pos] < high:
                return False
            vals[a] = val
            hi = val if val > high else high
            if not after or _search(pv, ceiling, plan, vals, a + 1, pos + 1, hi):
                return True
    return False


def _insertion_plans(pats) -> tuple[tuple[tuple, int], ...]:
    """Per pattern, the plan of the pattern with its largest entry deleted,
    and the index of that entry."""
    out = []
    for p in pats:
        top = p.perm.index(len(p.perm))
        out.append((_plan(p.perm[:top] + p.perm[top + 1:]), top))
    return tuple(out)


def _inserting_max_forms(pv, site: int, plans) -> bool:
    """Whether a value above all of pv's, inserted at position site, forms
    an occurrence of one of the patterns (planned by ``_insertion_plans``).
    It plays the pattern's largest entry, which bounds no other from below,
    so the occurrence is the rest of the pattern in pv split at the site:
    the entries before its largest left of the site, the others right."""
    for plan, top in plans:
        k = len(plan)
        if not k:
            return True
        if k <= len(pv) and _extend_split(pv, plan, [0] * k + [-inf, inf], 0, 0, top, site):
            return True
    return False


def _extend_split(pv, plan, vals, a: int, start: int, top: int, site: int) -> bool:
    """``_search`` under no ceiling, with entries 0..top - 1 chosen left of
    position site and the others from it on."""
    below, above, after = plan[a]
    if a < top:
        positions = range(start, site + a - top + 1)
    else:
        positions = range(site if a == top else start, len(pv) + after)
    for pos in positions:
        val = pv[pos]
        if vals[below] < val < vals[above]:
            vals[a] = val
            if not after or _extend_split(pv, plan, vals, a + 1, pos + 1, top, site):
                return True
    return False


def placement_avoids(p, t) -> bool:
    """True when no border-vertex restriction of the rook placement p
    contains any of the patterns.  The board is the union of the rectangles
    under its peaks, and column c is as high as the first peak from it on,
    so a restriction contains t exactly when an occurrence in the rook rows
    has its top-right corner in the board (its highest row at most the
    height of its last column): one search, under the column heights."""
    return not _in_board(p.rook_rows, p.border.column_heights, t)


def offending_vertex(p, t) -> int | None:
    """Index of the first peak of the rook placement p whose restriction
    contains one of the patterns, or None: the first peak at or right of
    column e, where columns 1..e are the fewest holding an occurrence.
    Column e's E step follows n - h_e S steps, so that peak is the first S
    step from vertex e + n - h_e on."""
    rows, ceiling = p.rook_rows, p.border.column_heights
    t = t if isinstance(t, Pattern) else tuple(t)  # several searches read it
    if not _in_board(rows, ceiling, t):
        return None
    e = bisect.bisect(range(len(rows)), False, key=lambda e: _in_board(rows[:e], ceiling, t))
    return p.border.steps.index("S", e + len(rows) - ceiling[e - 1])


def _in_board(rows, ceiling, t) -> bool:
    for pat in (t,) if isinstance(t, Pattern) else t:
        if _search(rows, ceiling, pat.plan):
            return True
    return False


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
    if _arc_search(arcs, t.plan, vals, opens, 0, 0, -inf, inf):
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
    ranks them, which keeps every increasing run)."""
    return _tableau_walk(p)[0]


def _tableau_walk(p) -> tuple[tuple[int, ...], int | None]:
    """``lis_labels`` of the rook placement p and the first peak whose
    restriction contains 321, or None: one walk along the border with rows 1
    and 2 of the RSK tableau of the rooks read so far, into which each E
    step row-inserts its column's rook.  Its entries at most y are the
    tableau of the rooks at most y (Schensted, Canad. J. Math. 1961), so
    V_i = (x, y) is labeled with the number of row-1 entries at most y and
    has a 321 under it once a value at most y leaves row 2 (row 3's least
    entry and y only fall); the first S step from there is a peak."""
    steps, cols = p.border.steps, iter(p.rook_rows)
    row1, row2, labels, peak, y = [], [], [0], None, len(p.rook_rows)
    for i, step in enumerate(steps, start=1):
        if step == "S":
            y -= 1
        else:
            r = next(cols)
            for row in row1, row2:
                k = bisect.bisect(row, r)
                if k == len(row):
                    row.append(r)
                    break
                r, row[k] = row[k], r
            else:
                if peak is None and r <= y:
                    peak = steps.index("S", i)
        labels.append(bisect.bisect(row1, y))
    return tuple(labels), peak
