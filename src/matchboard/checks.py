"""The verification suites: each check compares computed values against the
reference tables, a shape-Wilf claim, a bijection property or a per-board
closed form, and reports a structured result with a ``pass`` flag.

``run`` is shared by the ``verify`` command and the acceptance tests, and
``board_difference`` is the per-board comparison behind every shape-Wilf
claim.
"""

from __future__ import annotations

from . import families
from .bijections import (
    delta213,
    delta213_inv,
    delta321,
    delta321_by_switch,
    delta321_inv,
)
from .errors import MatchboardError
from .model import kappa, kappa_inv, statistics
from .patterns import Pattern, placement_avoids
from .reference import TABLE_MATCHINGS, TABLE_PAIR_CLASSES, TABLE_PARTITIONS

__all__ = ["SUITES", "board_difference", "run"]


def _table_check(name: str, family: str, avoid, row, first: int, max_n: int) -> dict:
    """Counts from n = first to max_n, or to the end of the published row,
    against that row; the scan that counts the rows reaches their last n.
    A check clipped at the end of the row says so in ``published_to``."""
    last = first + len(row) - 1
    top = min(max_n, last)
    got = [families.count(family, n, avoid=avoid).total for n in range(first, top + 1)]
    want = list(row[: top + 1 - first])
    check = {"name": name, "pass": got == want, "got": got, "want": want}
    if max_n > last:
        check["published_to"] = last
    return check


def _suite_tables(max_n: int) -> list[dict]:
    checks = [
        _table_check(f"matchings-{tau}", "matching", (tau,), row, 1, max_n)
        for tau, row in TABLE_MATCHINGS.items()
    ]
    checks += [
        _table_check(f"partitions-{tau}", "partition", (tau,), row, 0, max_n)
        for tau, row in TABLE_PARTITIONS.items()
    ]
    for cls, row in TABLE_PAIR_CLASSES.items():
        pair = tuple(sorted(families.CLASS_PAIRS[cls.split("_")[0]][0]))
        checks.append(
            _table_check(f"pair-class-{cls}", "matching", pair, row, 1, max_n)
        )
    return checks


def board_difference(avoid_a, avoid_b, n_max: int):
    """The first board, for n = 1..n_max and borders in sorted order, on
    which the matchings avoiding the two pattern sets differ in number, as
    (n, border, count_a, count_b); None when every board agrees."""
    for n in range(1, n_max + 1):
        a = families.count("matching", n, avoid=avoid_a, by_shape=True).by_shape
        b = families.count("matching", n, avoid=avoid_b, by_shape=True).by_shape
        for border in sorted(a.keys() | b.keys()):
            if a.get(border, 0) != b.get(border, 0):
                return n, border, a.get(border, 0), b.get(border, 0)
    return None


def _suite_shape_wilf(max_n: int) -> list[dict]:
    n_eq = min(max_n, 4)
    first = sorted(families.CLASS_PAIRS["I"][0])
    claims = [
        (f"singleton-{a}~{b}", (a,), (b,))
        for a, b in (("123", "321"), ("123", "213"), ("231", "312"))
    ] + [
        (f"classI-{','.join(sorted(other))}", first, sorted(other))
        for other in families.CLASS_PAIRS["I"][1:]
    ]
    checks = [
        {"name": name, "pass": board_difference(a, b, n_eq) is None}
        for name, a, b in claims
    ]
    if max_n >= 5:
        found = board_difference(("123", "231"), ("123", "312"), 5)
        totals_equal = all(
            families.count("matching", m, avoid=("123", "231")).total
            == families.count("matching", m, avoid=("123", "312")).total
            for m in range(1, 6)
        )
        n, border, a, b = found or (None, None, None, None)
        checks.append(
            {
                "name": "II-vs-III-separated-per-board",
                "pass": n == 5 and totals_equal,
                "board": border,
                "counts": [a, b],
            }
        )
    return checks


def _suite_bijections(max_n: int) -> list[dict]:
    top = min(max_n, 4)
    checks = []
    ok_round = True
    for n in range(1, top + 1):
        for m in families.matchings(n):
            if kappa_inv(kappa(m)) != m:
                ok_round = False
    checks.append({"name": "kappa-roundtrip", "pass": ok_round})
    ok_switch = ok_inv = ok_image = True
    for n in range(1, top + 1):
        for board in families.boards(n):
            below = set(families._words_under(board.border.heights))
            img321 = set()
            img213 = set()
            for p in families.placements_on_board(board):
                if placement_avoids(p, (Pattern((3, 2, 1)),)):
                    pair = delta321(p)
                    if delta321_by_switch(p) != pair:
                        ok_switch = False
                    if delta321_inv(pair).rook_rows != p.rook_rows:
                        ok_inv = False
                    img321.add(pair.bottom.steps)
                if placement_avoids(p, (Pattern((2, 1, 3)),)):
                    pair = delta213(p)
                    if delta213_inv(pair).rook_rows != p.rook_rows:
                        ok_inv = False
                    img213.add(pair.bottom.steps)
            if img321 != below or img213 != below:
                ok_image = False
    checks.append({"name": "delta321-equals-switch", "pass": ok_switch})
    checks.append({"name": "delta-inverses", "pass": ok_inv})
    checks.append({"name": "delta-images-cover-pairs", "pass": ok_image})
    ok_fp = True
    for tau in ("321", "213"):
        for n in range(0, top + 1):
            for k in range(0, top + 1):
                if n + k > top + 1:
                    continue
                if families.count_fixed_point_class(
                    n, k, tau
                ) != families.pair_count_ending_south(n, k):
                    ok_fp = False
    checks.append({"name": "fixed-point-classes", "pass": ok_fp})
    return checks


# board suite -> (pattern pairs, the count on a board of semilength n with
# the given statistics)
_BOARD_RULES = {
    "classI": (families.CLASS_PAIRS["I"], lambda st, n: 2 ** (n - st.returns)),
    "classIV": (
        families.CLASS_PAIRS["IV"],
        lambda st, n: 2**st.eta if st.height < 5 else 0,
    ),
}


def _suite_boards(suite: str, max_n: int) -> list[dict]:
    pairs, rule = _BOARD_RULES[suite]
    failures = []
    for n in range(1, min(max_n, 5) + 1):
        for pair in pairs:
            avoid = sorted(pair)
            got = families.count("matching", n, avoid=avoid, by_shape=True).by_shape
            for d in families.dyck_paths(n):
                have, want = got.get(d.steps, 0), rule(statistics(d), n)
                if have != want:
                    failures.append([",".join(avoid), d.steps, have, want])
    return [
        {
            "name": f"{suite}-board-formula",
            "pass": not failures,
            "failures": failures[:5],
        }
    ]


SUITES = {
    "tables": _suite_tables,
    "shape-wilf": _suite_shape_wilf,
    "bijections": _suite_bijections,
    "classI": lambda max_n: _suite_boards("classI", max_n),
    "classIV": lambda max_n: _suite_boards("classIV", max_n),
}


def run(suite: str, max_n: int) -> list[dict]:
    """Checks of one suite, or of every suite for ``"all"``, each tagged
    with its suite name."""
    if suite != "all" and suite not in SUITES:
        raise MatchboardError(f"unknown suite {suite!r}")
    if max_n < 1:
        raise MatchboardError(f"max-n must be at least 1, got {max_n}")
    names = list(SUITES) if suite == "all" else [suite]
    results = []
    for name in names:
        for check in SUITES[name](max_n):
            check["suite"] = name
            results.append(check)
    return results
