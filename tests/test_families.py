"""Enumeration of object families, counting tables, and per-board checks."""

import inspect
from functools import partial
from itertools import accumulate, combinations, permutations as iter_permutations, product
from math import comb, prod

import pytest

from matchboard import bijections, checks, families, model
from matchboard.bijections import LabeledPathClass
from matchboard.checks import board_difference, run
from matchboard.errors import InvalidObjectError, MatchboardError, ResourceCapError
from matchboard.families import (
    FAMILY_NAMES,
    _pair_groups,
    _pair_walk,
    _word_groups,
    _words_under,
    b2_pairs,
    count,
    count_fixed_point_class,
    dyck_paths,
    labeled_paths,
    matchings,
    matchings_with_fixed_points,
    minimal_placements,
    noncrossing_pairs,
    pair_count_ending_south,
    pairs_ending_south,
    permutations,
    placements,
    placements_on_board,
    set_partitions,
)
from matchboard.formulas import _gouyou_determinant, coefficients, secondary_coefficients
from matchboard.model import DyckPath, LabeledDyckPath, statistics
from matchboard.patterns import S3_PATTERNS, Pattern, as_patterns, perm_contains
from matchboard.reference import TABLE_MATCHINGS, TABLE_PAIR_CLASSES, TABLE_PARTITIONS
from matchboard.series import fe_iterate

# count(family, 3) for every family, with k = 1 for the two that take k
TOTALS_AT_3 = {
    ("matching", None): 15,
    ("partition", None): 5,
    ("permutation", None): 6,
    ("dyck", None): 5,
    ("board", None): 5,
    ("placement", None): 15,
    ("placement-minimal", None): 6,
    ("pair", None): 14,
    ("pair-nk", 1): 84,
    ("matching-fp", 1): 105,
    ("pair-a2", None): 13,
    ("pair-b2", None): 7,
    ("labeled-L", None): 14,
    ("labeled-K", None): 154,
    ("labeled-K-lt2", None): 64,
    ("labeled-L-lt3", None): 13,
    ("labeled-K-peak", None): 20,
    ("labeled-L-peak", None): 6,
}


class TestGen:
    def test_deterministic_order(self):
        first = [m.to_text() for m in matchings(3)]
        second = [m.to_text() for m in matchings(3)]
        assert first == second == sorted(first)
        assert len(first) == 15

    def test_sizes(self):
        assert sum(1 for _ in dyck_paths(4)) == 14
        assert sum(1 for _ in set_partitions(4)) == 15
        assert sum(1 for _ in permutations(4)) == 24
        assert sum(1 for _ in placements(3)) == 15
        assert sum(1 for _ in noncrossing_pairs(3)) == 14
        assert sum(1 for _ in minimal_placements(4)) == 24

    def test_unknown_family(self):
        with pytest.raises(InvalidObjectError):
            count("widget", 3)

    def test_k_required(self):
        with pytest.raises(InvalidObjectError):
            count("pair-nk", 3)

    def test_every_family_at_n_3(self):
        assert tuple(name for name, _ in TOTALS_AT_3) == FAMILY_NAMES
        for (name, k), total in TOTALS_AT_3.items():
            assert count(name, 3, k=k).total == total, name

    def test_caps(self):
        # enumeration stops at n = 8; the scan of length-3 patterns at 10
        with pytest.raises(ResourceCapError):
            count("matching", 9)
        with pytest.raises(ResourceCapError):
            count("matching", 9, avoid=("1234",))
        assert count("matching", 10, avoid=("132",)).total == 40835749
        with pytest.raises(ResourceCapError):
            count("matching", 11, avoid=("132",))

    def test_path_families_against_formulas(self):
        # the labeled and pair families share no code with the formula
        # routes, nor with the scan behind the matching oracles
        for family, fid, top in (
            ("labeled-L", "m312", 7),
            ("labeled-L-lt3", "classII_III_m", 7),
            ("labeled-L-peak", "s1342", 7),
            ("pair-a2", "classV_m", 7),
        ):
            want = coefficients(fid, top)
            for n in range(top + 1):
                assert count(family, n).total == want[n], (family, n)


def _sized_functions():
    """(name, size) for each function of ``families.__all__`` whose first
    parameter is n, and each size it takes: n, and k if it has one."""
    for name in families.__all__:
        f = getattr(families, name)
        if inspect.isfunction(f):
            params = list(inspect.signature(f).parameters)
            if params[:1] == ["n"]:
                yield from ((name, size) for size in ("n", "k") if size in params)


@pytest.mark.parametrize("name, size", list(_sized_functions()))
def test_generators_refuse_negative_sizes(name, size):
    f = getattr(families, name)
    args = {"n": 1, "k": 1, "cls": LabeledPathClass.K, "tau": "321", size: -1}
    params = inspect.signature(f).parameters
    with pytest.raises(InvalidObjectError, match=f"{size} must be nonnegative"):
        # a count refuses when called, a generator on its first step
        next(iter(f(**{p: args[p] for p in params})))


@pytest.mark.parametrize(
    "call",
    [
        partial(count, "matching", 2.5, avoid="123"),
        partial(count, "dyck", 2.5),
        partial(count, "matching-fp", 2, 0.5),
        lambda: next(dyck_paths(1.5)),
        partial(pair_count_ending_south, 1.5, 0),
        partial(coefficients, "m312", 3.0),
        partial(coefficients, "m312", 2.0),
        partial(secondary_coefficients, "m312", 2.0),
        partial(run, "all", 2.5),
    ],
    ids=["scan", "dyck", "k", "generator", "walk", "order", "memo", "route-1", "max-n"],
)
def test_non_integer_sizes_refused(call):
    # with order 2 in _route's memo, 2.0 (which hashes as 2) must not read it
    coefficients("m312", 2)
    with pytest.raises(MatchboardError):
        call()


def _dyck_words(n):
    """(word, heights) for every {E,S} word of length 2n that never goes
    below height 0 and ends at 0, E before S."""
    out = []
    for letters in product("ES", repeat=2 * n):
        hs = tuple(accumulate((1 if c == "E" else -1 for c in letters), initial=0))
        if min(hs) >= 0 and hs[-1] == 0:
            out.append(("".join(letters), hs))
    return out


def _labelings(n):
    """Every labeled path of semilength n whose start label is at most n
    (no path of a class starts higher): per path, start labels ascending,
    then at each step the label kept before the label changed."""
    out = []
    for word, _ in _dyck_words(n):
        path = DyckPath(word)
        for a0 in range(n + 1):
            for moves in product((0, 1), repeat=2 * n):
                labels = [a0]
                for c, move in zip(word, moves):
                    labels.append(labels[-1] + (move if c == "E" else -move))
                out.append(LabeledDyckPath(path, labels))
    return out


class TestGeneratorsAgainstBruteForce:
    """The iterative generators yield exactly what a filter over all words
    yields, in the same order."""

    def test_dyck_paths(self):
        for n in range(6):
            got = list(dyck_paths(n))
            assert all(isinstance(d, DyckPath) for d in got)
            assert [d.steps for d in got] == [w for w, _ in _dyck_words(n)]

    def test_noncrossing_pairs(self):
        for n in range(6):
            words = _dyck_words(n)
            want = [
                (bottom, top)
                for top, th in words
                for bottom, bh in words
                if all(b <= t for b, t in zip(bh, th))
            ]
            got = [(pr.bottom.steps, pr.top.steps) for pr in noncrossing_pairs(n)]
            assert got == want, n

    def test_labeled_paths(self):
        for n in range(5):
            candidates = _labelings(n)
            for cls in LabeledPathClass:
                want = [lp for lp in candidates if cls.contains(lp)]
                assert list(labeled_paths(n, cls)) == want, (cls, n)

    def test_labeled_classes_are_the_K_paths_they_contain(self):
        # every class is a subset of K; contains states each rule apart from
        # the walk that grows the labels
        for n in range(6):
            k_paths = list(labeled_paths(n, LabeledPathClass.K))
            for cls in LabeledPathClass:
                want = [lp for lp in k_paths if cls.contains(lp)]
                assert list(labeled_paths(n, cls)) == want, (cls, n)

    def test_matchings_with_fixed_points(self):
        # fixed points, then arcs, lexicographically
        for n in range(4):
            for k in range(4):
                got = [(m.fixed_points, m.arcs) for m in matchings_with_fixed_points(n, k)]
                assert got == sorted(set(got)), (n, k)
                assert len(got) == comb(2 * n + k, k) * prod(range(1, 2 * n, 2)), (n, k)

    def test_set_partitions(self):
        # restricted-growth words, lexicographically
        for n in range(7):
            want = []
            for word in product(range(n), repeat=n):
                if all(a <= max(word[:i], default=-1) + 1 for i, a in enumerate(word)):
                    want.append(tuple(
                        tuple(v for v, a in enumerate(word, 1) if a == b)
                        for b in range(max(word, default=-1) + 1)
                    ))
            assert [p.blocks for p in set_partitions(n)] == want, n

    def test_placements_on_board(self):
        # rook rows column by column, lexicographically
        for n in range(7):
            for d in dyck_paths(n):
                want = [
                    perm for perm in permutations(n)
                    if all(r <= h for r, h in zip(perm, d.column_heights))
                ]
                assert [p.rook_rows for p in placements_on_board(d)] == want, d

    def test_b2_pairs(self):
        for n in range(10):
            assert list(b2_pairs(n)) == list(_b2_pairs_by_closures(n)), n

    def test_b2_pairs_counted_by_class_V_equation(self):
        # G_classV(1, 1, z) counts the pairs by n; its solver shares no code
        # with the generator
        g = fe_iterate("G_classV", 12).subs("t", 1).subs("u", 1)
        assert tuple(count("pair-b2", n).total for n in range(13)) == tuple(g)


def _pair_words(n, k=0):
    """The (bottom, top) words of ``_pair_groups``, joined."""
    return [(prefix + s, top) for (prefix, top), suffixes in _pair_groups(n, k) for s in suffixes]


class TestStepWordCounts:
    """The path and pair families are counted by the groups of their step
    words, and the pair generators build their objects from the same words."""

    def test_words_under_every_ceiling(self):
        # every border of semilength n <= 6 as a ceiling: the walk's words,
        # and the sum of its suffix lists, against a filter of all words
        for n in range(7):
            words = _dyck_words(n)
            for _, ceiling in words:
                want = [w for w, hs in words if all(map(int.__le__, hs, ceiling))]
                assert list(_words_under(ceiling)) == want, ceiling
                assert sum(len(s) for _, s in _word_groups(ceiling)) == len(want), ceiling

    def test_pair_words_are_the_pairs(self):
        for n in range(7):
            want = [(pr.bottom.steps, pr.top.steps) for pr in noncrossing_pairs(n)]
            assert list(_pair_words(n)) == want, n

    def test_pair_words_ending_south_filter_the_pair_words(self):
        for m in range(8):
            words = list(_pair_words(m))
            for k in range(m + 1):
                want = [w for w in words if all(x.endswith("S" * k) for x in w)]
                assert list(_pair_words(m - k, k)) == want, (m - k, k)

    def test_pairs_ending_south_filter_the_pairs(self):
        for n in range(6):
            for k in range(6 - n):
                want = [
                    pr for pr in noncrossing_pairs(n + k)
                    if pr.bottom.steps.endswith("S" * k) and pr.top.steps.endswith("S" * k)
                ]
                assert list(pairs_ending_south(n, k)) == want, (n, k)

    def test_pairs_equal_the_walk_origin(self):
        origin = [states.get((0, 0), 0) for states in _pair_walk(16)][::2]
        assert [count("pair", n).total for n in range(9)] == origin

    def test_pairs_ending_south_equal_the_walk(self):
        for n in range(9):
            for k in range(9 - n):
                assert count("pair-nk", n, k).total == pair_count_ending_south(n, k), (n, k)

    def test_paths_and_boards_are_catalan(self):
        for n in range(13):
            catalan = comb(2 * n, n) // (n + 1)
            assert count("dyck", n).total == count("board", n).total == catalan, n


class TestCount:
    def test_matches_reference_tables(self):
        for pat, seq in TABLE_MATCHINGS.items():
            for n in range(1, 7):
                assert count("matching", n, avoid=[pat]).total == seq[n - 1]

    def test_partition_reference(self):
        for pat, seq in TABLE_PARTITIONS.items():
            for n in range(0, 9):
                assert count("partition", n, avoid=[pat]).total == seq[n]

    def test_profile_route_equals_generic(self):
        # the scan must agree with direct filtering
        for avoid in (["123"], ["132"], ["213", "321"], ["123", "231"]):
            fast = count("matching", 4, avoid=avoid)
            slow_total = sum(
                1
                for m in matchings(4)
                if _matching_ok(m, avoid)
            )
            assert fast.total == slow_total

    def test_by_shape(self):
        table = count("matching", 2, avoid=["321"], by_shape=True)
        assert table.by_shape == {"EESS": 2, "ESES": 1}
        assert table.total == 3

    def test_by_valleys(self):
        table = count("matching", 3, avoid=["312"], stats=True)
        assert sum(table.by_valleys.values()) == table.total == 14
        assert table.by_valleys[0] == 5  # the noncrossing shapes

    def test_placement_matches_matching(self):
        a = count("matching", 4, avoid=["213"]).total
        b = count("placement", 4, avoid=["213"]).total
        assert a == b

    def test_pair_classes_reference(self):
        pairs = {
            "I": ["123", "213"],
            "II_III": ["123", "231"],
            "IV": ["123", "321"],
            "V": ["213", "321"],
            "VI": ["123", "132"],
            "VII": ["132", "321"],
        }
        for cls, avoid in pairs.items():
            for n in range(1, 6):
                want = TABLE_PAIR_CLASSES[cls][n - 1]
                assert count("matching", n, avoid=avoid).total == want
        for n in range(1, 6):
            want = TABLE_PAIR_CLASSES["II_III"][n - 1]
            assert count("matching", n, avoid=["123", "312"]).total == want

    @pytest.mark.parametrize("pat", ["1234", "4321"])
    def test_length_4_pattern_filters_the_enumeration(self, pat):
        # no scan counts a length-4 pattern, so every object is tested; an
        # occurrence takes four arcs on eight vertices, openers first, and
        # the one matching, and the one partition, of [8] that has it is
        # four nested arcs (1234) or four mutually crossing arcs (4321)
        bell = (1, 1, 2, 5, 15, 52, 203, 877, 4140)
        for n in range(4):
            assert count("matching", n, avoid=(pat,)).total == prod(range(1, 2 * n, 2))
        assert count("matching", 4, avoid=(pat,)).total == 105 - 1
        for n in range(8):
            assert count("partition", n, avoid=(pat,)).total == bell[n]
        assert count("partition", 8, avoid=(pat,)).total == bell[8] - 1
        # two arcs hold no occurrence, wherever the two fixed points sit
        assert count("matching-fp", 2, 2, avoid=(pat,)).total == comb(6, 2) * 3


class TestPermutationAvoiders:
    """count("permutation", n, avoid=...) grows the avoiders by inserting
    the maximum; the filter of every permutation by perm_contains is its
    oracle."""

    SINGLES = [
        "".join(map(str, t)) for k in (3, 4) for t in iter_permutations(range(1, k + 1))
    ]
    MIXED = [
        ("1",), ("12",), ("123", "4321"), ("1342", "2413"), ("132", "4123"),
        ("1234", "2143", "3412"),
    ]

    def test_grown_avoiders_are_the_filtered_permutations(self):
        for n in range(8):
            perms = list(permutations(n))
            contains = {}
            for t in self.SINGLES + [t for ps in self.MIXED for t in ps]:
                pat = Pattern.from_text(t)
                contains[t] = {p for p in perms if perm_contains(p, pat)}
            for ps in [(t,) for t in self.SINGLES] + self.MIXED:
                want = [p for p in perms if not any(p in contains[t] for t in ps)]
                got = families._avoiding_permutations(n, as_patterns(ps))
                assert sorted(got) == want, (n, ps)
                assert count("permutation", n, avoid=ps).total == len(want), (n, ps)

    @pytest.mark.parametrize("pat", ["1342", "3124", "1324"])
    def test_counts_at_the_cap(self, pat):
        # Bona's formula, the s1342 tuple, counts the 1342- and the
        # 3124-avoiders; 94776 counts the 1324-avoiders of [9] (OEIS A061552)
        bona = coefficients("s1342", 9)[9]
        assert bona == 91245
        want = 94776 if pat == "1324" else bona
        assert count("permutation", 9, avoid=pat).total == want


class TestAvoidingWithFixedPoints:
    def test_scan_times_binomial_equals_enumeration(self):
        for avoid in (["123"], ["321"], ["231"], ["132", "213"]):
            for n in range(4):
                for k in range(7 - n):
                    shapes: dict[str, int] = {}
                    for m in matchings_with_fixed_points(n, k):
                        if _matching_ok(m, avoid):
                            border = m.shape.steps
                            shapes[border] = shapes.get(border, 0) + 1
                    valleys: dict[int, int] = {}
                    for border, c in shapes.items():
                        v = statistics(DyckPath(border)).valleys
                        valleys[v] = valleys.get(v, 0) + c
                    table = count(
                        "matching-fp", n, k, avoid=avoid, stats=True, by_shape=True
                    )
                    assert table.by_shape == dict(sorted(shapes.items())), (avoid, n, k)
                    assert table.by_valleys == dict(sorted(valleys.items()))
                    assert table.total == sum(shapes.values())
                    # without by_shape the valleys come from the scan's keys
                    keyed = count("matching-fp", n, k, avoid=avoid, stats=True)
                    assert keyed.by_valleys == table.by_valleys, (avoid, n, k)
                    assert keyed.by_shape is None

    def test_counted_without_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(families, "matchings_with_fixed_points", refuse)
        assert count("matching-fp", 4, 4, avoid=("321",)).total == 41580
        # the cap on n + k stays the enumeration's
        with pytest.raises(ResourceCapError):
            count("matching-fp", 5, 4, avoid=("321",))
        # length-4 patterns and the unfiltered count still enumerate
        with pytest.raises(AssertionError):
            count("matching-fp", 1, 1, avoid=("1234",))
        with pytest.raises(AssertionError):
            count("matching-fp", 1, 1)


def _matching_ok(m, avoid):
    from matchboard.patterns import Pattern, find_arc_occurrence

    return all(find_arc_occurrence(m.arcs, Pattern.from_text(t)) is None for t in avoid)


class TestOrdering:
    def test_per_board_count_ordering(self):
        # on every board the 231 count is at most the 123 count, which is at
        # most the 132 count
        for n in range(1, 6):
            c231, c123, c132 = (
                count("matching", n, avoid=[t], by_shape=True).by_shape
                for t in ("231", "123", "132")
            )
            for d in dyck_paths(n):
                b = d.steps
                assert c231.get(b, 0) <= c123.get(b, 0) <= c132.get(b, 0)


class TestShapeWilf:
    def test_singleton_classes(self):
        assert board_difference(["123"], ["321"], 5) is None
        assert board_difference(["123"], ["213"], 5) is None
        assert board_difference(["231"], ["312"], 5) is None

    def test_singleton_separations(self):
        found = board_difference(["123"], ["231"], 5)
        assert found is not None and found[0] == 4
        found = board_difference(["123"], ["132"], 5)
        assert found is not None and found[0] == 5

    def test_class_I_internal(self):
        pairs = [["123", "213"], ["132", "213"], ["231", "321"]]
        for a in pairs:
            for b in pairs:
                assert board_difference(a, b, 4) is None

    def test_II_vs_III_counterexample(self):
        found = board_difference(["123", "231"], ["123", "312"], 5)
        assert found is not None
        n, border, a, b = found
        assert n == 5
        assert border == "EEEESSESSS"
        assert {a, b} == {14, 15}
        # yet the totals over all boards agree through n = 5
        for n in range(1, 6):
            assert (
                count("matching", n, avoid=["123", "231"]).total
                == count("matching", n, avoid=["123", "312"]).total
            )

    def test_specific_board_difference(self):
        # the board with column heights (5,5,5,4,4) also separates II from III
        from matchboard.families import placements_on_board
        from matchboard.patterns import Pattern, placement_avoids

        board = DyckPath("EEESEESSSS")
        assert board.column_heights == (5, 5, 5, 4, 4)
        counts = {}
        for key in ("231", "312"):
            pats = (Pattern((1, 2, 3)), Pattern.from_text(key))
            counts[key] = sum(
                1
                for p in placements_on_board(board)
                if placement_avoids(p, pats)
            )
        assert counts == {"231": 14, "312": 15}


class TestBoardFormulas:
    def test_class_I(self):
        assert run("classI", 4) == [
            {"name": "classI-board-formula", "pass": True, "failures": [], "suite": "classI"}
        ]

    def test_class_IV(self):
        assert run("classIV", 4) == [
            {"name": "classIV-board-formula", "pass": True, "failures": [], "suite": "classIV"}
        ]


def _with_rule(name, rule):
    """A patch that gives the named board-formula claim another rule."""
    return lambda mp: mp.setattr(
        checks,
        "CLAIMS",
        tuple(c._replace(check=partial(c.check, rule=rule)) if c.name == name else c
              for c in checks.CLAIMS),
    )


def _miscount_at_3(mp):
    """A patch that makes every total at n = 3 one too many."""
    real = families.count

    def count(family, n, **kw):
        table = real(family, n, **kw)
        return table._replace(total=table.total + (n == 3))

    mp.setattr(families, "count", count)


# a patch that makes one count, map or rule of the verify suites wrong, the
# suite, and the check that must then fail
BROKEN_CHECKS = [
    (_miscount_at_3, "tables", "matchings-123"),
    (
        lambda mp: mp.setattr(checks, "board_difference", lambda a, b, n: (1, "ES", 1, 0)),
        "shape-wilf",
        "singleton-123~321",
    ),
    (
        lambda mp: mp.setattr(checks, "board_difference", lambda a, b, n: None),
        "shape-wilf",
        "II-vs-III-separated-per-board",
    ),
    (lambda mp: mp.setattr(checks, "kappa_inv", lambda p: None), "bijections", "kappa-roundtrip"),
    (
        lambda mp: mp.setattr(checks, "delta321_by_switch", lambda p: None),
        "bijections",
        "delta321-equals-switch",
    ),
    (
        lambda mp: mp.setattr(checks, "delta213_inv", bijections.delta321_inv),
        "bijections",
        "delta-inverses",
    ),
    (
        lambda mp: mp.setattr(
            checks,
            "delta213",
            lambda p: bijections.NoncrossingPathPair(p.border, p.border),
        ),
        "bijections",
        "delta-images-cover-pairs",
    ),
    (
        lambda mp: mp.setattr(families, "pair_count_ending_south", lambda n, k: 0),
        "bijections",
        "fixed-point-classes",
    ),
    (_with_rule("classI-board-formula", lambda st, n: 0), "classI", "classI-board-formula"),
    # the class IV rule without its cut at height 5 is wrong only at n = 5
    (
        _with_rule("classIV-board-formula", lambda st, n: 2**st.eta),
        "classIV",
        "classIV-board-formula",
    ),
]


@pytest.mark.parametrize("patch, suite, name", BROKEN_CHECKS, ids=[n for *_, n in BROKEN_CHECKS])
def test_each_check_can_fail(monkeypatch, patch, suite, name):
    patch(monkeypatch)
    verdicts = {c["name"]: c["pass"] for c in run(suite, 5)}
    assert verdicts[name] is False


class TestFixedPointClasses:
    def test_scan_equals_pair_walk(self):
        # the classes of 321 and 213 are equinumerous with the pairs ending
        # in k south steps, and so, at every n + k <= 8, is the class of 123
        for tau in ("123", "213", "321"):
            for n in range(9):
                for k in range(9 - n):
                    counted = count_fixed_point_class(n, k, tau)
                    assert counted == pair_count_ending_south(n, k), (tau, n, k)

    def test_dp_agrees_with_enumeration(self):
        for tau in ("321", "213"):
            for n in range(0, 4):
                for k in range(0, 4 - n):
                    assert count_fixed_point_class(n, k, tau) == pair_count_ending_south(n, k)

    def test_123_class_differs(self):
        # the 123 class is checkable but counted by the same pair numbers
        assert count_fixed_point_class(1, 1, "123") == pair_count_ending_south(1, 1)

    def test_counted_without_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(families, "matchings_with_fixed_points", refuse)
        # the generator reads Matching from the model when it runs
        monkeypatch.setattr(model, "Matching", refuse)
        monkeypatch.setattr(families, "check_fixed_point_class", refuse, raising=False)
        monkeypatch.setattr(bijections, "check_fixed_point_class", refuse)
        assert count_fixed_point_class(4, 2, "213") == pair_count_ending_south(4, 2)

    def test_negative_sizes_refused(self):
        # n + k = 2 is within the cap, but n itself is negative
        with pytest.raises(InvalidObjectError):
            count_fixed_point_class(-1, 3, "321")
        with pytest.raises(InvalidObjectError):
            count_fixed_point_class(1, -1, "321")
        # the walk refuses what the class count refuses, with the same message
        for n, k in ((-1, 0), (-1, 2), (0, -1)):
            with pytest.raises(InvalidObjectError) as walk:
                pair_count_ending_south(n, k)
            with pytest.raises(InvalidObjectError) as counted:
                count_fixed_point_class(n, k, "321")
            assert str(walk.value) == str(counted.value), (n, k)

    def test_refused_before_the_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scanned")

        monkeypatch.setattr(families, "_scan", refuse)
        # the sizes are checked first, then the pattern
        for n, k, tau, message in (
            (5, 4, "321", "matching size 9 exceeds the cap 8"),
            (5, 4, "231", "matching size 9 exceeds the cap 8"),
            (-1, 0, "231", "n must be nonnegative, got -1"),
            (0, 0, "231", "no fixed-point class for pattern 231"),
            (3, 2, "1234", "no fixed-point class for pattern 1234"),
        ):
            with pytest.raises((InvalidObjectError, ResourceCapError), match=f"^{message}$"):
                count_fixed_point_class(n, k, tau)

    def test_pair_dp_base_cases(self):
        assert pair_count_ending_south(0, 0) == 1
        assert pair_count_ending_south(1, 0) == 1
        assert pair_count_ending_south(2, 0) == 3
        assert pair_count_ending_south(0, 1) == 1

    def test_walk_equals_per_count_dp(self):
        for n in range(9):
            for k in range(9):
                assert pair_count_ending_south(n, k) == _pair_count_by_own_dp(n, k), (n, k)

    def test_walk_origin_equals_gouyou_determinant(self):
        # the determinant shares no code with the walk
        origin = [states.get((0, 0), 0) for states in _pair_walk(120)][::2]
        assert tuple(origin) == _gouyou_determinant(60)


def _pair_count_by_own_dp(n: int, k: int) -> int:
    """The per-count dynamic program that the shared walk replaced, kept as
    its oracle."""
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


def partition_count_via_matchings(n: int, hists) -> int:
    """Rebuild the number of avoiding partitions of [n] from hists[m], the
    valley histograms of the avoiding matchings of [2m] for m < n: each
    valley may merge into a transitory vertex, then singletons are inserted
    in all positions."""
    total = 0
    for m in range(0, max(n, 1)):
        for v, cnt in hists[m].items():
            for j in range(v + 1):
                s = n - 2 * m + j
                if s < 0:
                    continue
                total += cnt * comb(v, j) * comb(n, s)
    return total


class TestPartitionReconstruction:
    def test_rebuild_from_valley_histograms(self):
        # every singleton and every pair of length-3 patterns, classes V-VII
        # included, up to the matching scan's cap
        texts = [t.to_text() for t in S3_PATTERNS]
        avoids = [[t] for t in texts] + [list(pair) for pair in combinations(texts, 2)]
        assert len(avoids) == 21
        for avoid in avoids:
            hists = [count("matching", m, avoid=avoid, stats=True).by_valleys for m in range(10)]
            for n in range(0, 11):
                want = count("partition", n, avoid=avoid).total
                assert partition_count_via_matchings(n, hists) == want, (avoid, n)


class TestValleyHistogram:
    def test_total(self):
        hist = count("matching", 3, avoid=["312"], stats=True).by_valleys
        assert sum(hist.values()) == 14

    def test_b2_histogram_shape(self):
        seen = set()
        for l0, l1, h, eps in b2_pairs(3):
            assert isinstance(l0, str) and isinstance(l1, str)
            assert h >= 0 and eps >= 0
            seen.add((l0, l1))
        assert len(seen) == len(list(b2_pairs(3)))


def _b2_pairs_by_closures(n: int):
    """The recursive b2 generator that the explicit stack replaced, kept as
    its oracle."""

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
