"""The paper's claims as one table, ``CLAIMS``.  Each row names its suite,
its check, and the first and last size it is checked at; the check takes
the sizes range(first, top + 1) and returns its verdict, ``pass`` first.
``run``, shared by the ``verify`` command and the acceptance tests, is the
one place that limits the sizes.  ``board_difference`` is the per-board
comparison behind every shape-Wilf claim.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

from . import families
from .bijections import delta213, delta213_inv, delta321, delta321_by_switch, delta321_inv
from .errors import MatchboardError, _ints
from .model import kappa, kappa_inv, statistics
from .patterns import Pattern, placement_avoids
from .reference import TABLE_MATCHINGS, TABLE_PAIR_CLASSES, TABLE_PARTITIONS

__all__ = ["CLAIMS", "SUITES", "board_difference", "run"]


Claim = namedtuple("Claim", "suite name first last check")


def _table(family: str, avoid, row, sizes) -> dict:
    """Counts at the sizes against the row, which starts at the first size."""
    got = [families.count(family, n, avoid=avoid).total for n in sizes]
    want = list(row[: len(sizes)])
    return {"pass": got == want, "got": got, "want": want}


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


def _equivalent(avoid_a, avoid_b, sizes) -> dict:
    return {"pass": board_difference(avoid_a, avoid_b, sizes[-1]) is None}


def _separated(avoid_a, avoid_b, sizes) -> dict:
    """Equal totals up to the last size, and a first unequal board there."""
    top = sizes[-1]
    n, border, a, b = board_difference(avoid_a, avoid_b, top) or (None,) * 4
    totals_equal = all(
        families.count("matching", m, avoid=avoid_a).total
        == families.count("matching", m, avoid=avoid_b).total
        for m in range(1, top + 1)
    )
    return {"pass": n == top and totals_equal, "board": border, "counts": [a, b]}


def _kappa_roundtrip(sizes) -> dict:
    return {"pass": all(kappa_inv(kappa(m)) == m for n in sizes for m in families.matchings(n))}


def _avoiders(sizes, perm):
    """Each border of each size, with its placements that avoid perm."""
    pats = (Pattern(perm),)
    for n in sizes:
        for border in families.boards(n):
            ps = families.placements_on_board(border)
            yield border, [p for p in ps if placement_avoids(p, pats)]


def _delta321_switch(sizes) -> dict:
    ps = (p for _, ps in _avoiders(sizes, (3, 2, 1)) for p in ps)
    return {"pass": all(delta321_by_switch(p) == delta321(p) for p in ps)}


def _deltas():
    """Each delta map's pattern, the map and its inverse, read when called."""
    return ((3, 2, 1), delta321, delta321_inv), ((2, 1, 3), delta213, delta213_inv)


def _delta_inverses(sizes) -> dict:
    ok = all(
        inv(delta(p)).rook_rows == p.rook_rows
        for perm, delta, inv in _deltas()
        for _, ps in _avoiders(sizes, perm)
        for p in ps
    )
    return {"pass": ok}


def _delta_images(sizes) -> dict:
    ok = all(
        {delta(p).bottom.steps for p in ps} == set(families._words_under(border.heights))
        for perm, delta, _ in _deltas()
        for border, ps in _avoiders(sizes, perm)
    )
    return {"pass": ok}


def _fixed_point_classes(sizes) -> dict:
    ok = all(
        families.count_fixed_point_class(n, s - n, tau)
        == families.pair_count_ending_south(n, s - n)
        for tau in ("321", "213")
        for s in sizes
        for n in range(s + 1)
    )
    return {"pass": ok}


def _board_formula(sizes, pairs, rule) -> dict:
    """Each pair's count on every board against the rule's value there."""
    failures = []
    for n in sizes:
        for pair in pairs:
            avoid = sorted(pair)
            got = families.count("matching", n, avoid=avoid, by_shape=True).by_shape
            for d in families.dyck_paths(n):
                have, want = got.get(d.steps, 0), rule(statistics(d), n)
                if have != want:
                    failures.append([",".join(avoid), d.steps, have, want])
    return {"pass": not failures, "failures": failures[:5]}


def _tables(prefix: str, family: str, first: int, table: dict, avoid) -> tuple:
    """A claim for each published row, from n = first to the row's end."""
    return tuple(
        Claim("tables", f"{prefix}-{key}", first, first + len(row) - 1,
              partial(_table, family, avoid(key), row))
        for key, row in table.items()
    )


def _pair(cls: str) -> list[str]:
    """The first pair of a class, sorted."""
    return sorted(families.CLASS_PAIRS[cls.split("_")[0]][0])


CLAIMS = (
    # The tables: matchings and partitions avoiding one pattern, and the
    # matchings avoiding the first pair of each class, to each row's end.
    *_tables("matchings", "matching", 1, TABLE_MATCHINGS, lambda tau: (tau,)),
    *_tables("partitions", "partition", 0, TABLE_PARTITIONS, lambda tau: (tau,)),
    *_tables("pair-class", "matching", 1, TABLE_PAIR_CLASSES, _pair),
    # Shape-Wilf: 123 ~ 321 ~ 213, 231 ~ 312, and the pairs of class I agree
    # on every board; classes II and III agree in total, and first differ on
    # a board of size 5.
    *(
        Claim("shape-wilf", f"singleton-{a}~{b}", 1, 5, partial(_equivalent, (a,), (b,)))
        for a, b in (("123", "321"), ("123", "213"), ("231", "312"))
    ),
    *(
        Claim("shape-wilf", f"classI-{','.join(b)}", 1, 5, partial(_equivalent, _pair("I"), b))
        for b in map(sorted, families.CLASS_PAIRS["I"][1:])
    ),
    Claim("shape-wilf", "II-vs-III-separated-per-board", 5, 5,
          partial(_separated, ("123", "231"), ("123", "312"))),
    # The bijections: kappa, and delta321 and delta213 from the placements on
    # a board onto the pairs under it.  The pairs ending in k south steps
    # count the fixed-point classes of 321 and 213 at each size n + k.
    Claim("bijections", "kappa-roundtrip", 1, 4, _kappa_roundtrip),
    Claim("bijections", "delta321-equals-switch", 1, 4, _delta321_switch),
    Claim("bijections", "delta-inverses", 1, 4, _delta_inverses),
    Claim("bijections", "delta-images-cover-pairs", 1, 4, _delta_images),
    Claim("bijections", "fixed-point-classes", 0, 5, _fixed_point_classes),
    # Per board of semilength n: 2^(n - returns) matchings avoid a class I
    # pair, and 2^eta below height 5 (none from 5 on) avoid a class IV pair.
    Claim("classI", "classI-board-formula", 1, 5,
          partial(_board_formula, pairs=families.CLASS_PAIRS["I"],
                  rule=lambda st, n: 2 ** (n - st.returns))),
    Claim("classIV", "classIV-board-formula", 1, 5,
          partial(_board_formula, pairs=families.CLASS_PAIRS["IV"],
                  rule=lambda st, n: 2**st.eta if st.height < 5 else 0)),
)

SUITES = tuple(dict.fromkeys(claim.suite for claim in CLAIMS))


def run(suite: str, max_n: int) -> list[dict]:
    """The claims of one suite, or of every suite for ``"all"``, tagged with
    their suite, each from its first size to max_n or its last, whichever is
    smaller; a claim that starts past max_n is left out.  A table claim cut
    at its row's end before max_n names that n in ``published_to``."""
    if suite != "all" and suite not in SUITES:
        raise MatchboardError(f"unknown suite {suite!r}")
    (max_n,) = _ints((max_n,), "max-n")
    if max_n < 1:
        raise MatchboardError(f"max-n must be at least 1, got {max_n}")
    results = []
    for claim in CLAIMS:
        if suite in ("all", claim.suite) and claim.first <= max_n:
            sizes = range(claim.first, min(max_n, claim.last) + 1)
            check = {"name": claim.name, **claim.check(sizes)}
            if claim.suite == "tables" and max_n > claim.last:
                check["published_to"] = claim.last
            results.append({**check, "suite": claim.suite})
    return results
