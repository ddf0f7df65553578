"""Bijections between pattern-avoiding placements and structured path sets.

A 321-avoiding placement maps to a pair of noncrossing paths through the
sequence j_i = 2*lis - height, its lis labels read off the RSK walk of
``patterns`` that also meets any 321, and the growth diagram read back
along the border inverts the map; a 213-avoiding placement maps through
the minimal board containing its rooks, whose column heights also meet
any 213.  312-avoiding placements map to labeled Dyck paths carrying
increasing-subsequence lengths.  Matchings with fixed points and
permutations enter through kappa_prime and chi.
"""

from __future__ import annotations

from bisect import bisect, bisect_left, insort
from enum import Enum
from itertools import accumulate
from math import inf
from operator import gt

from .errors import InvalidObjectError, ParseError, PatternViolationError, Value, _decoded, _ints
from .model import (
    DyckPath,
    LabeledDyckPath,
    Matching,
    RookPlacement,
    kappa,
)
from .patterns import Pattern, as_patterns, find_arc_occurrence, lis_labels, offending_vertex
from .patterns import _tableau_walk

__all__ = [
    "NoncrossingPathPair",
    "LabeledPathClass",
    "delta321",
    "delta321_by_switch",
    "delta321_inv",
    "delta213",
    "delta213_inv",
    "pi_labeling",
    "kappa_prime",
    "chi",
    "board_minimal",
    "minimal_board",
    "j_sequence",
    "diagonal_property",
    "zero_condition",
    "peak_property",
    "a2_member",
    "check_fixed_point_class",
]

# the constructor fills slots past the refusing __setattr__ of Value
_set = object.__setattr__
# the patterns the maps require their placements to avoid
_P321, _P213, _P312 = Pattern((3, 2, 1)), Pattern((2, 1, 3)), Pattern((3, 1, 2))


class NoncrossingPathPair(Value):
    """A pair of equal-length border paths with the bottom one never rising
    above the top one."""

    _fields = ("bottom", "top")
    __slots__ = _fields

    def __init__(self, bottom: DyckPath, top: DyckPath):
        if len(bottom.steps) != len(top.steps):
            raise InvalidObjectError("paths in a pair must have equal semilength")
        if any(map(gt, bottom.heights, top.heights)):
            raise InvalidObjectError(f"bottom path {bottom.steps} rises above top {top.steps}")
        _set(self, "bottom", bottom)
        _set(self, "top", top)

    @property
    def n(self) -> int:
        return self.top.n

    def to_text(self) -> str:
        return f"bottom:{self.bottom.steps};top:{self.top.steps}"

    @classmethod
    def from_text(cls, text: str) -> "NoncrossingPathPair":
        parts = text.strip().split(";")
        if len(parts) != 2 or not parts[0].startswith("bottom:") or not parts[1].startswith("top:"):
            raise ParseError(f"bad path-pair encoding {text!r}")
        return _decoded(
            cls,
            DyckPath.from_text(parts[0][len("bottom:"):]),
            DyckPath.from_text(parts[1][len("top:"):]),
        )


def _refuse(map_name: str, pattern: Pattern, v: int | None) -> None:
    if v is not None:
        raise PatternViolationError(
            f"{map_name} needs a {pattern.to_text()}-avoiding placement; "
            f"the restriction at border vertex V_{v} contains it", vertices=(v,)
        )


def j_sequence(p: RookPlacement) -> tuple[int, ...]:
    """The sequence 2*lis_i - h_i along the border."""
    hs = p.border.heights
    return tuple(2 * l - h for l, h in zip(lis_labels(p), hs))


def delta321(p: RookPlacement) -> NoncrossingPathPair:
    """Bottom path of heights 2*lis_i - h_i, the lis read off an RSK walk (Schensted)."""
    labels, peak = _tableau_walk(p)
    _refuse("delta321", _P321, peak)
    bottom = DyckPath.from_heights([2 * l - h for l, h in zip(labels, p.border.heights)])
    return NoncrossingPathPair(bottom, p.border)


def delta321_by_switch(p: RookPlacement) -> NoncrossingPathPair:
    """Same map as delta321, described by flipping every border step whose
    two endpoints carry the same lis label."""
    labels, peak = _tableau_walk(p)
    _refuse("delta321_by_switch", _P321, peak)
    flipped = (("S" if ch == "E" else "E") if a == b else ch
               for ch, a, b in zip(p.border.steps, labels, labels[1:]))
    return NoncrossingPathPair(DyckPath("".join(flipped)), p.border)


def delta321_inv(pair: NoncrossingPathPair) -> RookPlacement:
    """Inverse of delta321: the growth diagram read along the border from
    V_2n back (Krattenthaler, Adv. Appl. Math. 2006), with the rooks under
    each vertex held as their two-row RSK insertion tableau.  The rooks
    under V_i have shape (l, h - l), l = (h + j)/2 for path heights h and
    j: a step on which the paths agree changes row 1, one on which they
    part row 2.  A reversed S step appends row y to that row; a
    reversed E step takes its last box; from row 2 it bumps back into row 1,
    where the largest entry below it comes out: the column's rook."""
    row1, row2, rook_rows, y = [], [], [], 0  # the rooks right to left
    for step, low in zip(reversed(pair.top.steps), reversed(pair.bottom.steps)):
        if step == "S":
            y += 1
            (row1 if low == "S" else row2).append(y)
        elif low == "E":
            rook_rows.append(row1.pop())
        else:
            k = bisect_left(row1, row2[-1]) - 1
            rook_rows.append(row1[k])
            row1[k] = row2.pop()
    return RookPlacement(pair.top, rook_rows[::-1])


def minimal_board(rook_rows) -> DyckPath:
    """Border of the smallest Ferrers board containing rooks at
    (c, rook_rows[c-1]): column c is as high as the highest rook from c on."""
    rows = tuple(rook_rows)
    steps = []
    y = len(rows)
    for h in reversed(tuple(accumulate(reversed(rows), max))):
        steps.append("S" * (y - h) + "E")
        y = h
    return DyckPath("".join(steps) + "S" * y)


def delta213(p: RookPlacement) -> NoncrossingPathPair:
    """Bottom path given by the border of the smallest board containing the
    rooks.  A 213 ends in its largest entry, so the board holds one when the
    rows do: column c's rook is its 1 when the nearest higher row before c is
    below c's height in that board, and only then is the vertex sought."""
    bottom = minimal_board(p.rook_rows)
    earlier: list[int] = []  # the rows before column c, sorted
    for r, h in zip(p.rook_rows, bottom.column_heights):
        k = bisect(earlier, r)
        if k < len(earlier) and earlier[k] < h:
            _refuse("delta213", _P213, offending_vertex(p, _P213))
        insort(earlier, r)
    return NoncrossingPathPair(bottom, p.border)


def delta213_inv(pair: NoncrossingPathPair) -> RookPlacement:
    """Rebuild the rooks from the bottom board, filling rows top to bottom
    with a rook in the rightmost unused column, then embed in the top board.
    The bottom board's columns do not rise to the right, so the columns as
    high as row r are a prefix, longer for each lower row: each is pushed
    when row r reaches it, and the top of the stack is the rightmost unused."""
    n = pair.n
    heights = pair.bottom.column_heights
    rook_rows = [0] * n
    tall: list[int] = []  # the unused columns as high as row r, left to right
    c = 0
    for r in range(n, 0, -1):
        while c < n and heights[c] >= r:
            tall.append(c)
            c += 1
        rook_rows[tall.pop()] = r
    return RookPlacement(pair.top, tuple(rook_rows))


def pi_labeling(p: RookPlacement) -> LabeledDyckPath:
    """Label each border vertex with its increasing-subsequence length."""
    _refuse("pi_labeling", _P312, offending_vertex(p, _P312))
    return LabeledDyckPath(p.border, lis_labels(p))


_FP_CONFIGS = {
    # pattern -> the forbidden order of arcs (a1, a2), (b1, b2) and fixed
    # point f, as the five vertices from left to right
    (1, 2, 3): lambda a1, a2, b1, b2, f: (a1, b1, f, b2, a2),
    (2, 1, 3): lambda a1, a2, b1, b2, f: (a1, f, b1, b2, a2),
    (3, 2, 1): lambda a1, a2, b1, b2, f: (a1, b1, f, a2, b2),
}


def check_fixed_point_class(m: Matching, tau: Pattern) -> None:
    """Raise unless m belongs to the fixed-point class of tau: removing the
    fixed points leaves a tau-avoiding matching, and no five vertices place
    a fixed point in the forbidden slot between two specific arcs."""
    if tau.perm not in _FP_CONFIGS:
        raise InvalidObjectError(f"no fixed-point class for pattern {tau.to_text()}")
    occ = find_arc_occurrence(m.arcs, tau)
    if occ is not None:
        raise PatternViolationError(
            f"matching contains {tau.to_text()} at vertices {occ}", vertices=occ
        )
    order = _FP_CONFIGS[tau.perm]
    for a1, a2 in m.arcs:
        for b1, b2 in m.arcs:
            for f in m.fixed_points:
                xs = order(a1, a2, b1, b2, f)
                if xs[0] < xs[1] < xs[2] < xs[3] < xs[4]:
                    raise PatternViolationError(
                        f"forbidden fixed point {f} between arcs ({a1},{a2}) and "
                        f"({b1},{b2}) for pattern {tau.to_text()}",
                        vertices=xs,
                    )


def kappa_prime(m: Matching, tau) -> RookPlacement:
    """Close up the k fixed points with k new pairwise-crossing arcs to the
    new top vertices, then apply kappa.  Defined on the fixed-point class of
    tau for tau in {321, 213}."""
    pats = as_patterns(tau)
    if pats not in ((_P321,), (_P213,)):
        raise InvalidObjectError("kappa_prime is defined for patterns 321 and 213")
    check_fixed_point_class(m, pats[0])
    n, k = m.n, len(m.fixed_points)
    size = 2 * n + 2 * k
    new_arcs = tuple(
        (x, size + 1 - i) for i, x in enumerate(m.fixed_points, start=1)
    )
    return kappa(Matching(m.arcs + new_arcs))


def board_minimal(p: RookPlacement) -> bool:
    """True when the board is the smallest one containing the rooks, i.e.
    every peak corner square holds a rook."""
    verts = p.border.vertices
    return all(
        p.rook_row(verts[i][0]) == verts[i][1]
        for i in p.border.peak_indices()
    )


def chi(perm) -> RookPlacement:
    """Place rooks at (i, perm(i)) on the smallest board containing them."""
    rows = _ints(perm, "permutation entry")
    if sorted(rows) != list(range(1, len(rows) + 1)):
        raise InvalidObjectError(f"{rows} is not a permutation")
    return RookPlacement(minimal_board(rows), rows)


def diagonal_property(lp: LabeledDyckPath) -> bool:
    """Labels weakly decrease along every aligned vertex pair."""
    labels = lp.labels
    return all(labels[i] >= labels[j] for i, j in lp.path.aligned_pairs())


def zero_condition(lp: LabeledDyckPath) -> bool:
    """Labels vanish exactly at the diagonal-touching vertices."""
    return list(map(bool, lp.labels)) == list(map(bool, lp.path.heights))


def peak_property(lp: LabeledDyckPath) -> bool:
    """Around every peak the labels read a-1, a, a-1."""
    labels = lp.labels
    return all(
        labels[i - 1] == labels[i] - 1 == labels[i + 1]
        for i in lp.path.peak_indices()
    )


class LabeledPathClass(Enum):
    """The structured labeled-path families.  Each member states its rule:
    whether its labels vanish exactly at the diagonal-touching vertices (the
    L classes) or only at the end (the K classes), its largest label (inf
    for no cap), and whether the peak rule holds."""

    L = (True, inf, False)
    K = (False, inf, False)
    K_LT2 = (False, 1, False)
    L_LT3 = (True, 2, False)
    K_PEAK = (False, inf, True)
    L_PEAK = (True, inf, True)

    def __init__(self, zero_on_diagonal: bool, max_label: float, peak_rule: bool):
        self.zero_on_diagonal = zero_on_diagonal
        self.max_label = max_label
        self.peak_rule = peak_rule

    def contains(self, lp: LabeledDyckPath) -> bool:
        labels = lp.labels
        return (
            0 <= min(labels)
            and max(labels) <= self.max_label
            and (zero_condition(lp) if self.zero_on_diagonal else labels[-1] == 0)
            and diagonal_property(lp)
            and (not self.peak_rule or peak_property(lp))
        )


def a2_member(pair: NoncrossingPathPair) -> bool:
    """No bottom-path peak lies strictly south and strictly west of a vertex
    of the top path."""
    n = pair.n
    top_heights = pair.top.column_heights
    verts = pair.bottom.vertices
    for i in pair.bottom.peak_indices():
        x, y = verts[i]
        if x < n and top_heights[x] > y:
            return False
    return True
