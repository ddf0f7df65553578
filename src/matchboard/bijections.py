"""Bijections between pattern-avoiding placements and structured path sets.

A 321-avoiding placement maps to a pair of noncrossing paths through the
sequence j_i = 2*lis - height; a 213-avoiding placement maps through the
minimal board containing its rooks.  312-avoiding placements map to labeled
Dyck paths carrying increasing-subsequence lengths.  Matchings with fixed
points and permutations enter through kappa_prime and chi.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate
from math import inf
from operator import gt

from .errors import InvalidObjectError, ParseError, PatternViolationError, Value, _decoded
from .model import (
    DyckPath,
    LabeledDyckPath,
    Matching,
    RookPlacement,
    kappa,
)
from .patterns import Pattern, as_patterns, find_arc_occurrence, lis_labels, offending_vertex

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

    def ends_with_south(self, k: int) -> bool:
        suffix = "S" * k
        return self.bottom.steps.endswith(suffix) and self.top.steps.endswith(suffix)

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


def _require_avoiding(p: RookPlacement, pattern: Pattern, map_name: str) -> None:
    v = offending_vertex(p, pattern)
    if v is not None:
        raise PatternViolationError(
            f"{map_name} needs a {pattern.to_text()}-avoiding placement; "
            f"the restriction at border vertex V_{v} contains it",
            vertices=(v,),
        )


def j_sequence(p: RookPlacement) -> tuple[int, ...]:
    """The sequence 2*lis_i - h_i along the border."""
    hs = p.border.heights
    return tuple(2 * l - h for l, h in zip(lis_labels(p), hs))


def delta321(p: RookPlacement) -> NoncrossingPathPair:
    """Bottom path with height sequence 2*lis_i - h_i under the board border."""
    _require_avoiding(p, Pattern((3, 2, 1)), "delta321")
    bottom = DyckPath.from_heights(j_sequence(p))
    return NoncrossingPathPair(bottom, p.border)


def delta321_by_switch(p: RookPlacement) -> NoncrossingPathPair:
    """Same map as delta321, described by flipping every border step whose
    two endpoints carry the same lis label."""
    _require_avoiding(p, Pattern((3, 2, 1)), "delta321_by_switch")
    labels = lis_labels(p)
    flipped = []
    for idx, ch in enumerate(p.border.steps):
        if labels[idx] == labels[idx + 1]:
            flipped.append("S" if ch == "E" else "E")
        else:
            flipped.append(ch)
    return NoncrossingPathPair(DyckPath("".join(flipped)), p.border)


def delta321_inv(pair: NoncrossingPathPair) -> RookPlacement:
    """Inverse of delta321 by Fomin's backward local rules for growth
    diagrams (see Krattenthaler, Adv. Appl. Math. 2006).

    The h rooks under border vertex V_i have RSK shape (l, h - l): their
    longest increasing sequence is l = (h + j)/2, where h and j are the
    heights of the top and bottom paths at V_i, and two rows suffice because
    the rooks avoid 321.  The cells are visited by column from right to
    left, each column from top to bottom, so the shapes lam, mu, nu at the
    NE, NW and SE corners of a cell are known and fix the shape rho at its
    SW corner and whether the cell holds a rook.
    """
    shape = {}
    for v, h, j in zip(pair.top.vertices, pair.top.heights, pair.bottom.heights):
        l = (h + j) // 2
        shape[v] = (l, h - l)
    n = pair.n
    rook_rows = [0] * n
    for c in range(n, 0, -1):
        for r in range(pair.top.column_heights[c - 1], 0, -1):
            lam, mu, nu = shape[c, r], shape[c - 1, r], shape[c, r - 1]
            if mu != nu:
                rho = (min(mu[0], nu[0]), min(mu[1], nu[1]))
            elif lam == mu:
                rho = mu
            elif lam[0] > mu[0]:
                # lam adds a box in row 1: the cell holds a rook
                rook_rows[c - 1] = r
                rho = mu
            else:
                rho = (mu[0] - 1, mu[1])
            shape[c - 1, r - 1] = rho
    return RookPlacement(pair.top, tuple(rook_rows))


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
    rooks."""
    _require_avoiding(p, Pattern((2, 1, 3)), "delta213")
    return NoncrossingPathPair(minimal_board(p.rook_rows), p.border)


def delta213_inv(pair: NoncrossingPathPair) -> RookPlacement:
    """Rebuild the rooks from the bottom board, filling rows top to bottom
    with a rook in the rightmost unused column, then embed in the top board."""
    n = pair.n
    heights = pair.bottom.column_heights
    used: set[int] = set()
    rook_rows = [0] * n
    for r in range(n, 0, -1):
        col = max(c for c in range(1, n + 1) if heights[c - 1] >= r and c not in used)
        used.add(col)
        rook_rows[col - 1] = r
    return RookPlacement(pair.top, tuple(rook_rows))


def pi_labeling(p: RookPlacement) -> LabeledDyckPath:
    """Label each border vertex with its increasing-subsequence length."""
    _require_avoiding(p, Pattern((3, 1, 2)), "pi_labeling")
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
    if pats not in ((Pattern((3, 2, 1)),), (Pattern((2, 1, 3)),)):
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
    rows = tuple(int(v) for v in perm)
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
