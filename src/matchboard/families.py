"""Exhaustive generators and counting oracles for every object family.

Matchings, placements and partitions avoiding length-3 patterns are counted
by ``_scan``, which reads the arc diagram from left to right and keeps, for
each pair of open arcs, where the arcs that closed over both of them had
opened.  Per-board counts and valley histograms come from the border words
it reports.  Every other count enumerates the family; the generators and the
avoidance tests in ``patterns`` remain the brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations as iter_permutations, product
from math import comb

from .bijections import (
    LabeledPathClass,
    NoncrossingPathPair,
    a2_member,
    board_minimal,
    check_fixed_point_class,
    chi,
)
from .errors import InvalidObjectError, PatternViolationError, ResourceCapError
from .model import (
    DyckPath,
    FerrersBoard,
    LabeledDyckPath,
    Matching,
    RookPlacement,
    SetPartition,
    statistics,
)
from .patterns import (
    Pattern,
    matching_avoids,
    partition_avoids,
    perm_contains,
    placement_avoids,
)

__all__ = [
    "Caps",
    "DEFAULT_CAPS",
    "CountTable",
    "ShapeWilfVerdict",
    "BoardFormulaVerdict",
    "FAMILY_NAMES",
    "CLASS_PAIRS",
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
    "valley_histogram",
    "count_fixed_point_class",
    "pair_count_ending_south",
    "partition_count_via_matchings",
    "shape_wilf_check",
    "classI_board_formula_check",
    "classIV_board_formula_check",
]


@dataclass(frozen=True)
class Caps:
    """Desk-scale enumeration limits; exceeding one raises, never truncates."""

    matching: int = 8
    partition: int = 11
    permutation: int = 9
    dyck: int = 12
    pair: int = 9
    labeled: int = 7
    b2_steps: int = 14


DEFAULT_CAPS = Caps()


def _check_cap(kind: str, value: int, limit: int) -> None:
    if value < 0:
        raise InvalidObjectError(f"negative size {value}")
    if value > limit:
        raise ResourceCapError(
            f"{kind} size {value} exceeds the configured cap {limit}"
        )


# ---------------------------------------------------------------------------
# generators


def dyck_paths(n: int):
    """All border paths of semilength n."""

    def rec(prefix: list[str], e_left: int, d: int):
        if e_left == 0 and d == 0:
            yield "".join(prefix)
            return
        if e_left > 0:
            prefix.append("E")
            yield from rec(prefix, e_left - 1, d + 1)
            prefix.pop()
        if d > 0:
            prefix.append("S")
            yield from rec(prefix, e_left, d - 1)
            prefix.pop()

    for steps in rec([], n, 0):
        yield DyckPath(steps)


def boards(n: int):
    for d in dyck_paths(n):
        yield FerrersBoard(d)


def _matching_arcs(n: int):
    """Arc tuples of all perfect matchings of [2n], openers increasing."""

    def rec(free: tuple[int, ...]):
        if not free:
            yield ()
            return
        v = free[0]
        for idx in range(1, len(free)):
            arc = (v, free[idx])
            rest = free[1:idx] + free[idx + 1:]
            for tail in rec(rest):
                yield (arc,) + tail

    yield from rec(tuple(range(1, 2 * n + 1)))


def matchings(n: int):
    for arcs in _matching_arcs(n):
        yield Matching(arcs)


def matchings_with_fixed_points(n: int, k: int):
    """All matchings of [2n + k] with exactly k fixed points."""
    ground = tuple(range(1, 2 * n + k + 1))
    for fps in combinations(ground, k):
        rest = tuple(v for v in ground if v not in fps)

        def rec(free: tuple[int, ...]):
            if not free:
                yield ()
                return
            v = free[0]
            for idx in range(1, len(free)):
                for tail in rec(free[1:idx] + free[idx + 1:]):
                    yield ((v, free[idx]),) + tail

        for arcs in rec(rest):
            yield Matching(arcs, fps)


def set_partitions(n: int):
    """All partitions of [n], by restricted-growth assignment."""

    def rec(v: int, blocks: list[list[int]]):
        if v > n:
            yield SetPartition(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(v)
            yield from rec(v + 1, blocks)
            b.pop()
        blocks.append([v])
        yield from rec(v + 1, blocks)
        blocks.pop()

    yield from rec(1, [])


def placements_on_board(board: FerrersBoard):
    """All full rook placements on the board."""
    n = board.n
    heights = board.column_heights

    def rec(c: int, used: set[int], rows: list[int]):
        if c > n:
            yield RookPlacement(board, tuple(rows))
            return
        for r in range(1, heights[c - 1] + 1):
            if r not in used:
                used.add(r)
                rows.append(r)
                yield from rec(c + 1, used, rows)
                rows.pop()
                used.remove(r)

    yield from rec(1, set(), [])


def placements(n: int):
    for board in boards(n):
        yield from placements_on_board(board)


def minimal_placements(n: int):
    """Board-minimal placements, one per permutation of [n]."""
    for perm in iter_permutations(range(1, n + 1)):
        yield chi(perm)


def permutations(n: int):
    yield from iter_permutations(range(1, n + 1))


def noncrossing_pairs(n: int):
    """Pairs (bottom, top) of borders with bottom pointwise below top."""
    for top in dyck_paths(n):
        th = top.heights

        def rec(prefix: list[str], i: int, d: int):
            if i == 2 * n:
                yield "".join(prefix)
                return
            if d + 1 <= th[i + 1]:
                prefix.append("E")
                yield from rec(prefix, i + 1, d + 1)
                prefix.pop()
            if d > 0:
                prefix.append("S")
                yield from rec(prefix, i + 1, d - 1)
                prefix.pop()

        for steps in rec([], 0, 0):
            yield NoncrossingPathPair(DyckPath(steps), top)


def pairs_ending_south(n: int, k: int):
    """Pairs of semilength n + k whose paths both end with k south steps."""
    for pair in noncrossing_pairs(n + k):
        if pair.ends_with_south(k):
            yield pair


_MAX_LABEL = {
    LabeledPathClass.K_LT2: 1,
    LabeledPathClass.L_LT3: 2,
}


def labeled_paths(n: int, cls: LabeledPathClass):
    """Labeled borders of semilength n in the given class."""
    cap = _MAX_LABEL.get(cls)
    for path in dyck_paths(n):
        steps = path.steps
        # aligned partner of each S step's endpoint, for incremental pruning
        partner = {}
        stack: list[int] = []
        for idx, ch in enumerate(steps):
            if ch == "E":
                stack.append(idx)
            else:
                partner[idx + 1] = stack.pop()
        remaining_s = [steps[i:].count("S") for i in range(2 * n + 1)]

        def rec(labels: list[int]):
            i = len(labels) - 1
            if i == 2 * n:
                lp = LabeledDyckPath(path, tuple(labels))
                if cls.contains(lp):
                    yield lp
                return
            a = labels[-1]
            choices = (a, a + 1) if steps[i] == "E" else (a, a - 1)
            for b in choices:
                if b < 0 or b > remaining_s[i + 1]:
                    continue
                if cap is not None and b > cap:
                    continue
                if i + 1 in partner and labels[partner[i + 1]] < b:
                    continue
                labels.append(b)
                yield from rec(labels)
                labels.pop()

        start_max = 0 if cls in (LabeledPathClass.L, LabeledPathClass.L_LT3, LabeledPathClass.L_PEAK) else n
        if cap is not None:
            start_max = min(start_max, cap)
        for a0 in range(start_max + 1):
            yield from rec([a0])


def e2_pairs(board: FerrersBoard):
    """Pairs over the board whose bottom heights follow the height-below-5
    forcing rules; empty when the board has height 5 or more."""
    hs = board.border.heights
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
        yield NoncrossingPathPair(DyckPath.from_heights(js), board.border)


def a2_pairs(n: int):
    for pair in noncrossing_pairs(n):
        if a2_member(pair):
            yield pair


def b2_pairs(n: int):
    """Pairs (L0, L1, h, eps) of south-east paths from the origin staying
    above y = -x: L1 has n steps, L0 runs weakly below with the same final
    x, has no peak strictly southwest of an L1 vertex, and ends with a south
    step only when both paths end at the same level."""

    def l1_rec(prefix: list[str], e: int, s: int):
        if e + s == n:
            yield "".join(prefix), e, s
            return
        prefix.append("E")
        yield from l1_rec(prefix, e + 1, s)
        prefix.pop()
        if s < e:
            prefix.append("S")
            yield from l1_rec(prefix, e, s + 1)
            prefix.pop()

    for l1, a, bs in l1_rec([], 0, 0):
        # level of the j-th east step of L1 (1-indexed)
        e1_level = []
        s_seen = 0
        for ch in l1:
            if ch == "E":
                e1_level.append(-s_seen)
            else:
                s_seen += 1

        def l0_rec(prefix: list[str], j: int, s: int):
            if j == a and s >= bs and (not prefix or prefix[-1] == "E" or s == bs):
                yield "".join(prefix), s
            if j < a and -s <= e1_level[j]:
                prefix.append("E")
                yield from l0_rec(prefix, j + 1, s)
                prefix.pop()
            if s < j and s + 1 <= a:
                if prefix and prefix[-1] == "E":
                    # adding S forms a peak at (j, -s); reject it when some
                    # L1 vertex lies strictly northeast
                    if j < a and e1_level[j] > -s:
                        return
                prefix.append("S")
                yield from l0_rec(prefix, j, s + 1)
                prefix.pop()

        for l0, s0 in l0_rec([], 0, 0):
            yield l0, l1, a - bs, s0 - bs


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


def _scan(n: int, pats, partition: bool = False, by_border: bool = False) -> dict[str, int]:
    """Number of matchings of [2n], or partitions of [n], whose arcs avoid
    the length-3 patterns, by border word (E at an opener, S at a closer;
    the only key is "" without by_border and for partitions).

    The vertices are read left to right.  A state is one row per open arc,
    in opener order; row j holds, for each i < j, the set of positions p of
    the arcs that closed while i and j were both open, less the positions
    that can complete no avoided pattern, so that equal states merge.
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

    def moves(state):
        closed = [s for s in (close(state, a) for a in range(len(state))) if s is not None]
        if partition:
            # a vertex closes at most one arc, then may open one
            for s in [state] + closed:
                yield "", s
                yield "", s + ((0,) * len(s),)
        else:
            yield "E", state + ((0,) * len(state),)
            for s in closed:
                yield "S", s

    out: dict[str, int] = {}

    def walk(word: str, states: dict, left: int) -> None:
        if not left:
            if () in states:
                out[word] = states[()]
            return
        buckets: dict[str, dict] = {}
        for state, c in states.items():
            for letter, s in moves(state):
                # each open arc still needs a vertex of its own to close at
                if len(s) < left:
                    bucket = buckets.setdefault(letter if by_border else "", {})
                    bucket[s] = bucket.get(s, 0) + c
        for letter in list(buckets):
            walk(word + letter, buckets.pop(letter), left - 1)

    walk("", {(): 1}, n if partition else 2 * n)
    return out


def _as_patterns(avoid) -> tuple[Pattern, ...]:
    out = []
    for item in avoid:
        out.append(Pattern.from_text(item) if isinstance(item, str) else item)
    return tuple(sorted(out, key=lambda p: p.perm))


@dataclass(frozen=True)
class CountTable:
    family: str
    n: int
    k: int | None
    avoid: tuple[str, ...]
    total: int
    by_valleys: dict[int, int] | None = None
    by_shape: dict[str, int] | None = None


FAMILY_NAMES = (
    "matching",
    "partition",
    "permutation",
    "dyck",
    "board",
    "placement",
    "placement-minimal",
    "pair",
    "pair-nk",
    "matching-fp",
    "pair-a2",
    "pair-b2",
    "labeled-L",
    "labeled-K",
    "labeled-K-lt2",
    "labeled-L-lt3",
    "labeled-K-peak",
    "labeled-L-peak",
)

# the families that take a number k of fixed points or final south steps
_K_FAMILIES = ("pair-nk", "matching-fp")
# the families whose objects carry a board border, which valleys and shapes
# are read from
_BORDER_FAMILIES = ("matching", "matching-fp", "placement", "placement-minimal")

_LABELED = {
    "labeled-L": LabeledPathClass.L,
    "labeled-K": LabeledPathClass.K,
    "labeled-K-lt2": LabeledPathClass.K_LT2,
    "labeled-L-lt3": LabeledPathClass.L_LT3,
    "labeled-K-peak": LabeledPathClass.K_PEAK,
    "labeled-L-peak": LabeledPathClass.L_PEAK,
}


def _generate(family: str, n: int, k: int | None, caps: Caps):
    if family == "matching":
        _check_cap("matching", n, caps.matching)
        return matchings(n)
    if family == "partition":
        _check_cap("partition", n, caps.partition)
        return set_partitions(n)
    if family == "permutation":
        _check_cap("permutation", n, caps.permutation)
        return permutations(n)
    if family == "dyck":
        _check_cap("path", n, caps.dyck)
        return dyck_paths(n)
    if family == "board":
        _check_cap("board", n, caps.dyck)
        return boards(n)
    if family == "placement":
        _check_cap("placement", n, caps.matching)
        return placements(n)
    if family == "placement-minimal":
        _check_cap("permutation", n, caps.permutation)
        return minimal_placements(n)
    if family == "pair":
        _check_cap("path pair", n, caps.pair)
        return noncrossing_pairs(n)
    if family == "pair-nk":
        if k is None:
            raise InvalidObjectError("family pair-nk needs a value for k")
        _check_cap("path pair", n + k, caps.pair)
        return pairs_ending_south(n, k)
    if family == "matching-fp":
        if k is None:
            raise InvalidObjectError("family matching-fp needs a value for k")
        _check_cap("matching", n + k, caps.matching)
        return matchings_with_fixed_points(n, k)
    if family == "pair-a2":
        _check_cap("path pair", n, caps.pair)
        return a2_pairs(n)
    if family == "pair-b2":
        _check_cap("lattice path", n, caps.b2_steps)
        return b2_pairs(n)
    if family in _LABELED:
        _check_cap("labeled path", n, caps.labeled)
        return labeled_paths(n, _LABELED[family])
    raise InvalidObjectError(f"unknown family {family!r}")


def count(
    family: str,
    n: int,
    k: int | None = None,
    avoid=(),
    stats: bool = False,
    by_shape: bool = False,
    caps: Caps = DEFAULT_CAPS,
) -> CountTable:
    """Exact count of a family, optionally filtered by a pattern set and
    broken down by valley statistic or board shape; only the families in
    ``_BORDER_FAMILIES`` have a breakdown."""
    if k is not None:
        if family not in _K_FAMILIES:
            raise InvalidObjectError(f"family {family!r} takes no k")
        if k < 0:
            raise InvalidObjectError(f"k must be nonnegative, got {k}")
    if (stats or by_shape) and family not in _BORDER_FAMILIES:
        raise InvalidObjectError(
            f"family {family!r} has no board border to break down by"
        )
    pats = _as_patterns(avoid)
    avoid_texts = tuple(p.to_text() for p in pats)
    all_len3 = bool(pats) and all(len(p.perm) == 3 for p in pats)

    if all_len3 and family in ("matching", "placement", "partition"):
        if family == "partition":
            _check_cap("partition", n, caps.partition)
            total = sum(_scan(n, pats, partition=True).values())
            return CountTable(family, n, k, avoid_texts, total)
        # placements on the boards of F_n correspond to matchings shape by shape
        _check_cap("matching", n, caps.matching)
        shapes = _scan(n, pats, by_border=stats or by_shape)
        valleys: dict[int, int] = {}
        for border, c in shapes.items():
            v = statistics(DyckPath(border)).valleys
            valleys[v] = valleys.get(v, 0) + c
        return CountTable(
            family, n, k, avoid_texts, sum(shapes.values()),
            by_valleys=dict(sorted(valleys.items())) if stats else None,
            by_shape=dict(sorted(shapes.items())) if by_shape else None,
        )

    # generic route
    items = _generate(family, n, k, caps)
    total = 0
    valleys: dict[int, int] = {}
    shapes: dict[str, int] = {}
    for obj in items:
        if pats:
            if isinstance(obj, Matching):
                ok = matching_avoids(obj, pats)
            elif isinstance(obj, SetPartition):
                ok = partition_avoids(obj, pats)
            elif isinstance(obj, RookPlacement):
                ok = placement_avoids(obj, pats)
            elif isinstance(obj, tuple) and family == "permutation":
                ok = not any(perm_contains(obj, p) for p in pats)
            else:
                raise InvalidObjectError(
                    f"family {family!r} does not support pattern filtering"
                )
            if not ok:
                continue
        total += 1
        if stats or by_shape:
            path = obj.shape if isinstance(obj, Matching) else obj.board.border
            if stats:
                v = statistics(path).valleys
                valleys[v] = valleys.get(v, 0) + 1
            if by_shape:
                shapes[path.steps] = shapes.get(path.steps, 0) + 1
    return CountTable(
        family, n, k, avoid_texts, total,
        by_valleys=dict(sorted(valleys.items())) if stats else None,
        by_shape=dict(sorted(shapes.items())) if by_shape else None,
    )


def valley_histogram(n: int, avoid, caps: Caps = DEFAULT_CAPS) -> dict[int, int]:
    """Valley histogram of avoiding matchings: valleys -> count."""
    table = count("matching", n, avoid=avoid, stats=True, caps=caps)
    return table.by_valleys or {}


def count_fixed_point_class(n: int, k: int, tau, caps: Caps = DEFAULT_CAPS) -> int:
    """Number of matchings with k fixed points in the fixed-point class of
    tau (reduction avoids tau and no forbidden five-vertex configuration)."""
    tau = Pattern.from_text(tau) if isinstance(tau, str) else tau
    _check_cap("matching", n + k, caps.matching)
    total = 0
    for m in matchings_with_fixed_points(n, k):
        try:
            check_fixed_point_class(m, tau)
        except PatternViolationError:
            continue
        total += 1
    return total


def pair_count_ending_south(n: int, k: int) -> int:
    """Number of noncrossing pairs of semilength n + k with both paths
    ending in k south steps, by dynamic programming over synchronized
    height states (no enumeration, so no cap applies)."""
    m = n + k
    steps = 2 * m - k
    states = {(0, 0): 1}
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
    return states.get((k, k), 0)


def partition_count_via_matchings(n: int, avoid, caps: Caps = DEFAULT_CAPS) -> int:
    """Rebuild the number of avoiding partitions of [n] from the valley
    histograms of avoiding matchings: each valley may merge into a
    transitory vertex, then singletons are inserted in all positions."""
    total = 0
    for m in range(0, max(n, 1)):
        hist = valley_histogram(m, avoid, caps=caps)
        for v, cnt in hist.items():
            for j in range(v + 1):
                s = n - 2 * m + j
                if s < 0:
                    continue
                total += cnt * comb(v, j) * comb(n, s)
    return total


# ---------------------------------------------------------------------------
# shape-Wilf checks

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


@dataclass(frozen=True)
class ShapeWilfVerdict:
    equivalent: bool
    n: int | None = None
    border: str | None = None
    count1: int | None = None
    count2: int | None = None


def _board_counts(n: int, pats: tuple[Pattern, ...], caps: Caps) -> dict[str, int]:
    """border -> number of placements on that board avoiding the patterns."""
    _check_cap("matching", n, caps.matching)
    counts = _scan(n, pats, by_border=True)
    return {d.steps: counts.get(d.steps, 0) for d in dyck_paths(n)}


def shape_wilf_check(tau1, tau2, n_max: int, caps: Caps = DEFAULT_CAPS) -> ShapeWilfVerdict:
    """Compare per-board avoidance counts of two pattern sets for all boards
    up to semilength n_max; report the minimal differing board."""
    p1 = _as_patterns(tau1 if not isinstance(tau1, str) else [tau1])
    p2 = _as_patterns(tau2 if not isinstance(tau2, str) else [tau2])
    for n in range(1, n_max + 1):
        c1 = _board_counts(n, p1, caps)
        c2 = _board_counts(n, p2, caps)
        for border in sorted(c1):
            if c1[border] != c2[border]:
                return ShapeWilfVerdict(False, n, border, c1[border], c2[border])
    return ShapeWilfVerdict(True)


@dataclass(frozen=True)
class BoardFormulaVerdict:
    ok: bool
    failures: tuple[tuple[str, str, int, int], ...] = ()


def classI_board_formula_check(n_max: int, caps: Caps = DEFAULT_CAPS) -> BoardFormulaVerdict:
    """For every class-I pair and board, the avoidance count must be
    2^(n - returns)."""
    failures = []
    for n in range(1, n_max + 1):
        for pair in CLASS_PAIRS["I"]:
            pats = _as_patterns(pair)
            for border, got in _board_counts(n, pats, caps).items():
                want = 2 ** (n - statistics(DyckPath(border)).returns)
                if got != want:
                    failures.append((",".join(sorted(pair)), border, got, want))
    return BoardFormulaVerdict(not failures, tuple(failures))


def classIV_board_formula_check(n_max: int, caps: Caps = DEFAULT_CAPS) -> BoardFormulaVerdict:
    """Per board, the {123,321} count is 2^eta below height 5 and 0 above."""
    pats = _as_patterns(("123", "321"))
    failures = []
    for n in range(1, n_max + 1):
        counts = _board_counts(n, pats, caps)
        for border, got in counts.items():
            st = statistics(DyckPath(border))
            want = 2 ** st.eta if st.height < 5 else 0
            if got != want:
                failures.append(("123,321", border, got, want))
    return BoardFormulaVerdict(not failures, tuple(failures))
