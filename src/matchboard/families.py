"""Exhaustive generators and counting oracles for every object family.

Matchings, placements and partitions avoiding length-3 patterns, and the
fixed-point classes of matchings with fixed points, are counted by
``_scan``, which reads the arc diagram from left to right and keeps, for
each pair of open arcs, where the arcs that closed over both of them had
opened (and whether a fixed point forbids one of them to close first).
Arc avoidance and the border ignore fixed points, so the matchings with k
fixed points that avoid length-3 patterns are the scan's matchings times
the C(2n + k, k) places of the fixed points.
Per-board counts come from the border words it reports, and valley
histograms from the valleys it counts in its state keys.  Permutations
that avoid patterns grow from the avoiders one size down
(``_avoiding_permutations``).  Every other count enumerates the family;
the generators, the avoidance tests in ``patterns`` and
``bijections.check_fixed_point_class`` remain the brute-force oracles.
Only the generators load the object model (``model`` and ``bijections``).
A count reads no object of the path, pair and labeled families: it sums
the lengths of the suffix lists that the step-word walk groups by prefix
(``_word_groups`` and ``_pair_groups``) and counts the label tuples
(``_labelings``), from which the generators build their validated objects.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, combinations, permutations as iter_permutations, product
from math import comb

from .errors import InvalidObjectError, ResourceCapError, _ints
from .patterns import (
    Pattern,
    _inserting_max_forms,
    _insertion_plans,
    as_patterns,
    find_arc_occurrence,
    placement_avoids,
)

__all__ = [
    "CountTable",
    "FAMILY_NAMES",
    "CLASS_PAIRS",
    "check_cap",
    "count",
    "dyck_paths",
    "boards",
    "matchings",
    "matchings_with_fixed_points",
    "set_partitions",
    "placements_on_board",
    "placements",
    "minimal_placements",
    "permutations",
    "noncrossing_pairs",
    "pairs_ending_south",
    "labeled_paths",
    "e2_pairs",
    "a2_pairs",
    "b2_pairs",
    "count_fixed_point_class",
    "pair_count_ending_south",
]


# ---------------------------------------------------------------------------
# generators


def _word_groups(ceiling, end=0):
    """Groups (prefix, suffixes) of the step words, E before S, of the paths
    from height 0 that stay weakly below ``ceiling`` (a border path's first
    heights) and reach height ``end`` at its last vertex, closed by ``end`` S steps."""
    mid = (len(ceiling) - 1) // 2
    # suffixes[d]: the words from height d at vertex mid to the closed end,
    # built from the last vertex back, where only height end has a word; the
    # two empty lists padded on stand for the heights above the ceiling and,
    # as suffixes[-1], below 0
    suffixes = [[]] * end + [["S" * end]]
    for top in reversed(ceiling[mid:-1]):
        suffixes += [], []
        suffixes = [
            ["E" + w for w in suffixes[d + 1]] + ["S" + w for w in suffixes[d - 1]]
            for d in range(top + 1)
        ]
    # the words up to vertex mid grow depth first from an explicit stack
    stack = [("", 0)]
    while stack:
        word, d = stack.pop()
        i = len(word)
        if i == mid:
            yield word, suffixes[d]
            continue
        if d:
            stack.append((word + "S", d - 1))
        if d < ceiling[i + 1]:
            stack.append((word + "E", d + 1))


def _words_under(ceiling, end=0):
    """The words of ``_word_groups``, joined in order."""
    for prefix, suffixes in _word_groups(ceiling, end):
        yield from map(prefix.__add__, suffixes)


def _dyck_ceiling(n: int) -> list[int]:
    _refuse_negative(n)
    return [min(i, 2 * n - i) for i in range(2 * n + 1)]  # the heights of E^n S^n


def _pair_groups(n: int, k: int = 0):
    """Groups ((prefix, top), suffixes) of the (bottom, top) words of the
    noncrossing pairs of semilength n + k whose paths both end in k S steps:
    per top, the bottoms below it, grown to height k at vertex 2n + k and closed."""
    _refuse_negative(n, k)
    last = 2 * n + k
    for top in _words_under(_dyck_ceiling(n + k)[:last + 1], k):
        heights = tuple(accumulate((1 if c == "E" else -1 for c in top[:last]), initial=0))
        for prefix, suffixes in _word_groups(heights, k):
            yield (prefix, top), suffixes


def dyck_paths(n: int):
    """All border paths of semilength n."""
    from .model import DyckPath

    yield from map(DyckPath, _words_under(_dyck_ceiling(n)))


def boards(n: int):
    """The boards of F_n, each given by its border path."""
    return dyck_paths(n)


def matchings(n: int):
    """All perfect matchings of [2n]."""
    return matchings_with_fixed_points(n, 0)


def matchings_with_fixed_points(n: int, k: int):
    """All matchings of [2n + k] with exactly k fixed points."""
    from .model import Matching

    _refuse_negative(n, k)
    ground = tuple(range(1, 2 * n + k + 1))
    for fps in combinations(ground, k):
        rest = tuple(v for v in ground if v not in fps)
        for arcs in _pairings(rest):
            yield Matching(arcs, fps)


def _pairings(free: tuple[int, ...]):
    """The perfect matchings of the vertices in free, as arc tuples, by the
    partner of the first vertex ascending."""
    if not free:
        yield ()
        return
    v = free[0]
    for idx in range(1, len(free)):
        for tail in _pairings(free[1:idx] + free[idx + 1:]):
            yield ((v, free[idx]),) + tail


def set_partitions(n: int):
    """All partitions of [n], by restricted-growth assignment."""
    from .model import SetPartition

    _refuse_negative(n)
    yield from map(SetPartition, _growth(1, n, []))


def _growth(v: int, n: int, blocks: list[list[int]]):
    """The block tuples of the partitions that put v..n into the blocks or
    new ones after them."""
    if v > n:
        yield tuple(tuple(b) for b in blocks)
        return
    for b in blocks:
        b.append(v)
        yield from _growth(v + 1, n, blocks)
        b.pop()
    blocks.append([v])
    yield from _growth(v + 1, n, blocks)
    blocks.pop()


def placements_on_board(border):
    """All full rook placements on the Ferrers board under the border path."""
    from .model import RookPlacement

    # the columns are filled right to left, the shortest first: the n - c
    # columns right of column c use rows no higher than it, so it has
    # h_c - (n - c) >= 1 free rows and every partial placement extends.
    # Each level lists its row tuples lexicographically: a new column's row
    # ascending, then the sorted tuples that leave that row free
    level = [()]
    for h in reversed(border.column_heights):
        level = [(r,) + rows for r in range(1, h + 1) for rows in level if r not in rows]
    for rows in level:
        yield RookPlacement(border, rows)


def placements(n: int):
    for border in boards(n):
        yield from placements_on_board(border)


def minimal_placements(n: int):
    """Board-minimal placements, one per permutation of [n]."""
    from .bijections import chi

    _refuse_negative(n)
    for perm in iter_permutations(range(1, n + 1)):
        yield chi(perm)


def permutations(n: int):
    _refuse_negative(n)
    yield from iter_permutations(range(1, n + 1))


def _avoiding_permutations(n: int, pats):
    """The permutations of [n] that avoid the patterns, grown depth first
    by inserting the maximum (West's generating tree): m goes into each of
    the m sites of an avoider of [m - 1], and the child is kept when no
    pattern occurs with m as its largest entry.  That test is complete,
    since the parent avoids every pattern, and the tree reaches every
    avoider, since deleting the maximum keeps a permutation avoiding."""
    plans = _insertion_plans(pats)
    stack = [()]
    while stack:
        perm = stack.pop()
        m = len(perm) + 1
        if m > n:
            yield perm
            continue
        for site in range(m):
            if not _inserting_max_forms(perm, site, plans):
                stack.append(perm[:site] + (m,) + perm[site:])


def noncrossing_pairs(n: int):
    """Pairs (bottom, top) of borders with bottom pointwise below top."""
    return pairs_ending_south(n, 0)


def pairs_ending_south(n: int, k: int):
    """Pairs of semilength n + k whose paths both end with k south steps:
    each word of ``_pair_groups`` read as the one validated path spelling it."""
    from .bijections import NoncrossingPathPair

    paths = {d.steps: d for d in dyck_paths(n + k)}
    for (prefix, top), suffixes in _pair_groups(n, k):
        for suffix in suffixes:
            yield NoncrossingPathPair(paths[prefix + suffix], paths[top])


def labeled_paths(n: int, cls):
    """Labeled borders of semilength n in the ``LabeledPathClass`` cls: per
    path, start labels ascending, then at each step the label kept before
    the label changed."""
    from .model import LabeledDyckPath

    for path in dyck_paths(n):
        for labels in _labelings(path, cls):
            yield LabeledDyckPath(path, labels)


def _labelings(path, cls, starts=None):
    """The label tuples of the path's labelings in the class whose start
    label is in starts (ascending; by default every start the class allows,
    which is only 0 for an L class), in the order of ``labeled_paths``.
    Each label is chosen within the class's rules, so every finished tuple
    is in the class."""
    n, steps = path.n, path.steps
    if starts is None:
        starts = range(1 if cls.zero_on_diagonal else min(n, cls.max_label) + 1)
    # a label never exceeds the south steps left, nor the class's cap
    bound = [min(steps.count("S", i), cls.max_label) for i in range(2 * n + 1)]
    # the L zero rule: at least 1 off the diagonal (at a diagonal vertex the
    # aligned partners keep the start's 0)
    lo = [min(h, 1) if cls.zero_on_diagonal else 0 for h in path.heights]
    # the aligned partner of each S step's endpoint, whose label bounds it
    partner = [None] * (2 * n + 1)
    for i, j in path.aligned_pairs():
        partner[j] = i
    # moves[i]: the label changes on the step to vertex i, the change first;
    # the peak rule changes the label on the step up to a peak, and the
    # peak's aligned partners then change it on the step down
    moves = [None] + [(1, 0) if c == "E" else (-1, 0) for c in steps]
    if cls.peak_rule:
        for i in path.peak_indices():
            moves[i] = (1,)
    # popped in order: start labels ascending, the kept label first
    stack = [(a,) for a in reversed(starts)]
    while stack:
        labels = stack.pop()
        i = len(labels)
        if i > 2 * n:
            yield labels
            continue
        a = labels[-1]
        j = partner[i]
        hi = bound[i] if j is None else min(bound[i], labels[j])
        for d in moves[i]:
            if lo[i] <= a + d <= hi:
                stack.append(labels + (a + d,))


def e2_pairs(border):
    """Pairs over the border path whose bottom heights follow the
    height-below-5 forcing rules; empty when the border reaches height 5."""
    from .bijections import NoncrossingPathPair
    from .model import DyckPath

    hs = border.heights
    if max(hs) >= 5:
        return
    slots = [i for i, h in enumerate(hs) if h == 2]
    base = [0] * len(hs)
    for i, h in enumerate(hs):
        if h in (1, 3):
            base[i] = 1
    for bits in product((0, 2), repeat=len(slots)):
        js = list(base)
        for i, b in zip(slots, bits):
            js[i] = b
        yield NoncrossingPathPair(DyckPath.from_heights(js), border)


def a2_pairs(n: int):
    from .bijections import a2_member

    for pair in noncrossing_pairs(n):
        if a2_member(pair):
            yield pair


def b2_pairs(n: int):
    """Pairs (L0, L1, h, eps) of south-east paths from the origin staying
    above y = -x: L1 has n steps, L0 runs weakly below with the same final
    x, has no peak strictly southwest of an L1 vertex, and ends with a south
    step only when both paths end at the same level."""
    _refuse_negative(n)
    for word in product("ES", repeat=n):
        # level of the j-th east step of L1 (1-indexed)
        e1_level = []
        bs = 0
        for ch in word:
            if ch == "E":
                e1_level.append(-bs)
            elif bs < len(e1_level):
                bs += 1
            else:
                break  # L1 would cross y = -x
        else:
            l1, a = "".join(word), len(e1_level)
            # popped in order: L0 itself, then its extensions by E, then by S
            stack = [("", 0, 0)]
            while stack:
                l0, j, s = stack.pop()
                if j == a and s >= bs and (not l0 or l0[-1] == "E" or s == bs):
                    yield l0, l1, a - bs, s - bs
                # an S after an E forms a peak at (j, -s), refused when some
                # L1 vertex lies strictly northeast
                if s < j and s + 1 <= a and not (
                    l0[-1:] == "E" and j < a and e1_level[j] > -s
                ):
                    stack.append((l0 + "S", j, s + 1))
                if j < a and -s <= e1_level[j]:
                    stack.append((l0 + "E", j + 1, s))


# ---------------------------------------------------------------------------
# counting


# _FORMED[x_first][p]: the pattern formed when open arc x closes while open
# arc y stays open, by an arc that closed while both were open and whose
# opener sat before (p=0), between (p=1) or after (p=2) their openers;
# x_first says that x opened before y.
_FORMED = {
    True: ((3, 2, 1), (2, 3, 1), (2, 1, 3)),
    False: ((3, 1, 2), (1, 3, 2), (1, 2, 3)),
}

# The fixed-point class of tau forbids five vertices, two arcs and a fixed
# point f (``bijections._FP_CONFIGS``).  The scan gives a pair of open arcs
# the bit _FIXED when f is placed for it, and _FIXED_POINT_RULES[tau] =
# (x_first, at_open) says when: f under both arcs, or, with at_open, f under
# the earlier arc before the later one opens.  The pair is then refused when
# its arc x closes while the other stays open, x_first saying that x opened
# first.
_FIXED = 8
_FIXED_POINT_RULES = {
    (1, 2, 3): (False, False),  # a1 b1 f b2 a2
    (2, 1, 3): (False, True),  # a1 f b1 b2 a2
    (3, 2, 1): (True, False),  # a1 b1 f a2 b2
}


def _scan(
    n: int,
    pats,
    partition: bool = False,
    by_border: bool = False,
    fixed_points: int = 0,
    valleys: bool = False,
) -> dict:
    """Number of matchings of [2n], or partitions of [n], whose arcs avoid
    the length-3 patterns, by border word (E at an opener, S at a closer;
    the only key is "" without by_border and for partitions), or, with
    valleys, by the number of valleys (an S then an E) of the border.  With
    fixed_points = k > 0 it counts the matchings of [2n + k] with k fixed
    points in the fixed-point class of the one pattern in pats.

    The vertices are read left to right, and every state key is (state,
    fixed points left, m, last letter, valleys so far).  A state is one row
    per open arc, in opener order; row j holds, for each i < j, the set of
    positions p of the arcs that closed while i and j were both open, less
    the positions that can complete no avoided pattern, so that equal
    states merge, and perhaps the bit _FIXED.  The first m open arcs opened
    before the last fixed point.  One move rule serves every key; without
    fixed points m stays 0 and no F move is made, and without valleys the
    last letter stays "" and the valleys 0.
    """
    if any(len(p.perm) != 3 for p in pats):
        raise InvalidObjectError("the scan counts length-3 patterns only")
    avoided = {p.perm for p in pats}
    refused = {
        first: sum(1 << p for p, t in enumerate(row) if t in avoided)
        for first, row in _FORMED.items()
    }
    keep = refused[True] | refused[False]
    before, between, after = 1 & keep, 2 & keep, 4 & keep
    spread = mark = 0
    if fixed_points:
        (tau,) = avoided
        x_first, at_open = _FIXED_POINT_RULES[tau]
        refused[x_first] |= _FIXED
        spread, mark = (0, _FIXED) if at_open else (_FIXED, 0)

    def close(state, a):
        """The state once arc a closes, or None if that forms an avoided
        pattern."""
        for y, row in enumerate(state):
            if y < a and state[a][y] & refused[False] or y > a and row[a] & refused[True]:
                return None
        return tuple(
            tuple(b | after for b in row) if j < a
            else tuple(b | between for b in row[:a]) + tuple(b | before for b in row[a + 1:])
            for j, row in enumerate(state)
            if j != a
        )

    # the letters a key records: none without valleys, so that keys which
    # differ only in their last letter merge
    up, down = ("E", "S") if valleys else ("", "")

    def moves(key):
        """Each key one more vertex leads to, with its border letter."""
        state, f, m, last, v = key
        closed = [
            (s, f, m - (a < m), down, v)
            for a, s in enumerate(close(state, a) for a in range(len(state)))
            if s is not None
        ]
        if partition:
            # a vertex closes at most one arc, then may open one
            for s, f, m, last, v in [key] + closed:
                yield "", (s, f, m, last, v)
                yield "", (s + ((0,) * len(s),), f, m, last, v)
        else:
            # an E after an S ends a valley
            opened = state + ((mark,) * m + (0,) * (len(state) - m),)
            yield "E", (opened, f, m, up, v + (last == "S"))
            for k in closed:
                yield "S", k
            if f:
                placed = tuple(tuple(b | spread for b in row) for row in state)
                yield "F", (placed, f - 1, len(state), last, v)

    out: dict = {}
    # depth first, so that only the unread siblings of each level are held
    start = ((), fixed_points, 0, up, 0)
    stack = [("", {start: 1}, n if partition else 2 * n + fixed_points)]
    while stack:
        word, states, left = stack.pop()
        if not left:
            # no key left has an open arc or a fixed point to place
            for key, c in states.items():
                at = key[4] if valleys else word
                out[at] = out.get(at, 0) + c
            continue
        buckets: dict[str, dict] = {}
        for key, c in states.items():
            for letter, s in moves(key):
                # each open arc, and each fixed point left, needs a vertex
                if len(s[0]) + s[1] < left:
                    bucket = buckets.setdefault(letter if by_border else "", {})
                    bucket[s] = bucket.get(s, 0) + c
        for letter in reversed(buckets):
            stack.append((word + letter, buckets[letter], left - 1))
    return out


class CountTable(namedtuple("CountTable", "total by_valleys by_shape", defaults=(None, None))):
    """A count, and its histograms by valleys and by border word when asked
    for (else None)."""

    __slots__ = ()


def _arcs_avoid(obj, pats) -> bool:
    arcs = obj.arcs
    return all(find_arc_occurrence(arcs, p) is None for p in pats)


class _Family(
    namedtuple(
        "_Family",
        "cap label generate takes_k scan avoids border avoiders grouped",
        defaults=(False, None, None, None, None, False),
    )
):
    """What ``count`` knows of one family.  The callables look the layer
    functions up by name when called, so a wrapper bound over a module
    attribute (the benchmark's layer trace) sees every call.

    - cap: the largest n, or n + k for a family with k, it enumerates;
    - label: what the cap error calls the objects;
    - generate: (n, k) -> the objects; a row with neither avoids nor border
      may yield any one item per object, or, grouped, (head, objects) pairs;
    - takes_k: whether the family takes k;
    - scan: the _scan that counts length-3 pattern sets: "matching",
      "partition", or "matching-fp", the matching scan of the arcs times
      C(2n + k, k): arc avoidance and the border ignore where the k fixed
      points sit;
    - avoids: (object, patterns) -> bool, if filterable;
    - border: object -> its board border, for breakdowns;
    - avoiders: (n, patterns) -> the objects that avoid the patterns, grown
      without the others, in place of avoids.
    """

    __slots__ = ()


def _labeled(member: str) -> _Family:
    """The family of a ``LabeledPathClass`` member, named so that the table
    loads no object model."""

    def generate(n, k):
        from .bijections import LabeledPathClass

        cls = LabeledPathClass[member]
        return (labels for path in dyck_paths(n) for labels in _labelings(path, cls))

    return _Family(7, "labeled path", generate)


_FAMILIES = {
    "matching": _Family(
        8, "matching", lambda n, k: matchings(n),
        scan="matching", avoids=_arcs_avoid, border=lambda m: m.shape,
    ),
    "partition": _Family(
        11, "partition", lambda n, k: set_partitions(n),
        scan="partition", avoids=_arcs_avoid,
    ),
    "permutation": _Family(
        9, "permutation", lambda n, k: permutations(n),
        avoiders=lambda n, pats: _avoiding_permutations(n, pats),
    ),
    # a count reads no object of the path, pair and labeled rows: they
    # yield groups of step words and label tuples
    "dyck": _Family(12, "path", lambda n, k: _word_groups(_dyck_ceiling(n)), grouped=True),
    "board": _Family(12, "board", lambda n, k: _word_groups(_dyck_ceiling(n)), grouped=True),
    # placements on the boards of F_n correspond to matchings shape by shape
    "placement": _Family(
        8, "placement", lambda n, k: placements(n), scan="matching",
        avoids=lambda p, pats: placement_avoids(p, pats),
        border=lambda p: p.border,
    ),
    "placement-minimal": _Family(
        9, "permutation", lambda n, k: minimal_placements(n),
        avoids=lambda p, pats: placement_avoids(p, pats),
        border=lambda p: p.border,
    ),
    "pair": _Family(9, "path pair", lambda n, k: _pair_groups(n), grouped=True),
    "pair-nk": _Family(9, "path pair", lambda n, k: _pair_groups(n, k), takes_k=True, grouped=True),
    "matching-fp": _Family(
        8, "matching", lambda n, k: matchings_with_fixed_points(n, k),
        takes_k=True, scan="matching-fp", avoids=_arcs_avoid,
        border=lambda m: m.shape,
    ),
    "pair-a2": _Family(9, "path pair", lambda n, k: a2_pairs(n)),
    "pair-b2": _Family(14, "lattice path", lambda n, k: b2_pairs(n)),
    "labeled-L": _labeled("L"),
    "labeled-K": _labeled("K"),
    "labeled-K-lt2": _labeled("K_LT2"),
    "labeled-L-lt3": _labeled("L_LT3"),
    "labeled-K-peak": _labeled("K_PEAK"),
    "labeled-L-peak": _labeled("L_PEAK"),
}

FAMILY_NAMES = tuple(_FAMILIES)

# the largest n each scan counts: the last n of the published rows that
# check it (``reference.TABLE_MATCHINGS`` and ``TABLE_PARTITIONS``); with
# fixed points, the enumeration cap on n + k, which checks it
_SCAN_CAPS = {"matching": 10, "partition": 11, "matching-fp": 8}


def _refuse_negative(n: int, k: int = 0) -> None:
    for name, value in zip("nk", _ints((n, k), "size")):
        if value < 0:
            raise InvalidObjectError(f"{name} must be nonnegative, got {value}")


def check_cap(family: str, n: int, k: int | None = None, scan: bool = False) -> None:
    """Refuse to count the family at n (and k) before anything runs: a
    negative n or k is an InvalidObjectError, and an n (n + k for a family
    with k) past the cap of the route a ResourceCapError.  The route is the
    family's scan when ``scan`` is set, else enumeration."""
    row = _FAMILIES[family]
    k = k or 0
    _refuse_negative(n, k)
    limit = _SCAN_CAPS[row.scan] if scan else row.cap
    if n + k > limit:
        raise ResourceCapError(f"{row.label} size {n + k} exceeds the cap {limit}")


def count(
    family: str,
    n: int,
    k: int | None = None,
    avoid=(),
    stats: bool = False,
    by_shape: bool = False,
) -> CountTable:
    """Exact count of a family, optionally filtered by a pattern set and
    broken down by valley statistic or board shape; only the families whose
    objects carry a board border have a breakdown."""
    row = _FAMILIES.get(family)
    if row is None:
        raise InvalidObjectError(f"unknown family {family!r}")
    if k is not None and not row.takes_k:
        raise InvalidObjectError(f"family {family!r} takes no k")
    if (stats or by_shape) and row.border is None:
        raise InvalidObjectError(
            f"family {family!r} has no board border to break down by"
        )
    pats = as_patterns(avoid)
    if row.takes_k and k is None:
        raise InvalidObjectError(f"family {family!r} needs a value for k")
    if pats and row.avoids is None and row.avoiders is None:
        raise InvalidObjectError(
            f"family {family!r} does not support pattern filtering"
        )
    scanned = bool(row.scan and pats) and all(len(p.perm) == 3 for p in pats)
    check_cap(family, n, k, scan=scanned)

    if scanned:
        # the scan counts the valleys in its keys; with by_shape they are
        # read off the border words it reports instead
        counts = _scan(
            n, pats, partition=row.scan == "partition", by_border=by_shape,
            valleys=stats and not by_shape,
        )
        if k:
            places = comb(2 * n + k, k)
            counts = {key: c * places for key, c in counts.items()}
        if not by_shape:
            by_valleys = dict(sorted(counts.items())) if stats else None
            return CountTable(sum(counts.values()), by_valleys=by_valleys)
        shapes = counts
    else:
        if not pats:
            objs = row.generate(n, k)
        elif row.avoiders:
            objs = row.avoiders(n, pats)
        else:
            objs = (obj for obj in row.generate(n, k) if row.avoids(obj, pats))
        if not (stats or by_shape):
            return CountTable(sum(len(g) for _, g in objs) if row.grouped else sum(1 for _ in objs))
        shapes = {}
        for obj in objs:
            border = row.border(obj).steps
            shapes[border] = shapes.get(border, 0) + 1
    valleys: dict[int, int] = {}
    if stats:
        for border, c in shapes.items():
            v = border.count("SE")  # a valley is an S step then an E step
            valleys[v] = valleys.get(v, 0) + c
    return CountTable(
        sum(shapes.values()),
        by_valleys=dict(sorted(valleys.items())) if stats else None,
        by_shape=dict(sorted(shapes.items())) if by_shape else None,
    )


def count_fixed_point_class(n: int, k: int, tau) -> int:
    """Number of matchings with k fixed points in the fixed-point class of
    tau (reduction avoids tau and no forbidden five-vertex configuration),
    by the scan over 2n + k vertices; ``matchings_with_fixed_points``
    filtered by ``bijections.check_fixed_point_class`` is its oracle."""
    pats = as_patterns(tau)
    check_cap("matching-fp", n, k)
    if len(pats) != 1 or pats[0].perm not in _FIXED_POINT_RULES:
        text = ",".join(map(Pattern.to_text, pats))
        raise InvalidObjectError(f"no fixed-point class for pattern {text}")
    return sum(_scan(n, pats, fixed_points=k).values())


def _pair_walk(steps: int):
    """Noncrossing pairs read one synchronized step at a time: the dicts
    from (bottom height, top height) to the number of pairs of prefixes,
    after 0, 1, ..., steps steps."""
    states = {(0, 0): 1}
    yield states
    for _ in range(steps):
        nxt: dict[tuple[int, int], int] = {}
        for (j, h), c in states.items():
            for dj in (1, -1):
                jj = j + dj
                if jj < 0:
                    continue
                for dh in (1, -1):
                    hh = h + dh
                    if hh < 0 or jj > hh:
                        continue
                    key = (jj, hh)
                    nxt[key] = nxt.get(key, 0) + c
        states = nxt
        yield states


def pair_count_ending_south(n: int, k: int) -> int:
    """Number of noncrossing pairs of semilength n + k with both paths
    ending in k south steps: the pairs of prefixes at heights (k, k) after
    2n + k steps of ``_pair_walk`` (no enumeration, so no cap applies)."""
    _refuse_negative(n, k)
    for states in _pair_walk(2 * n + k):
        pass
    return states.get((k, k), 0)


# ---------------------------------------------------------------------------
# the shape-Wilf classes of pairs of length-3 patterns

CLASS_PAIRS: dict[str, tuple[frozenset[str], ...]] = {
    "I": tuple(
        frozenset(p)
        for p in (
            {"123", "213"}, {"132", "213"}, {"132", "231"},
            {"132", "312"}, {"213", "231"}, {"213", "312"},
            {"231", "312"}, {"231", "321"}, {"312", "321"},
        )
    ),
    "II": (frozenset({"123", "231"}),),
    "III": (frozenset({"123", "312"}),),
    "IV": (frozenset({"123", "321"}),),
    "V": (frozenset({"213", "321"}),),
    "VI": (frozenset({"123", "132"}),),
    "VII": (frozenset({"132", "321"}),),
}
