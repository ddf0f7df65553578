"""Enumeration of object families, counting tables, and per-board checks."""

import pytest

from matchboard.errors import InvalidObjectError, ResourceCapError
from matchboard.families import (
    FAMILY_NAMES,
    Caps,
    b2_pairs,
    classI_board_formula_check,
    classIV_board_formula_check,
    count,
    count_fixed_point_class,
    dyck_paths,
    matchings,
    minimal_placements,
    noncrossing_pairs,
    pair_count_ending_south,
    partition_count_via_matchings,
    permutations,
    placements,
    set_partitions,
    shape_wilf_check,
    valley_histogram,
)
from matchboard.reference import TABLE_MATCHINGS, TABLE_PAIR_CLASSES, TABLE_PARTITIONS

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
        tight = Caps(matching=4)
        with pytest.raises(ResourceCapError):
            count("matching", 5, caps=tight)
        assert count("matching", 4, caps=tight).total == 105


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


def _matching_ok(m, avoid):
    from matchboard.patterns import Pattern, matching_avoids

    return matching_avoids(m, [Pattern.from_text(t) for t in avoid])


class TestOrdering:
    def test_per_board_count_ordering(self):
        # on every board the 231 count is at most the 123 count, which is at
        # most the 132 count
        from matchboard.families import _board_counts
        from matchboard.patterns import Pattern

        for n in range(1, 6):
            c231 = _board_counts(n, (Pattern((2, 3, 1)),), Caps())
            c123 = _board_counts(n, (Pattern((1, 2, 3)),), Caps())
            c132 = _board_counts(n, (Pattern((1, 3, 2)),), Caps())
            for border in c123:
                assert c231[border] <= c123[border] <= c132[border]


class TestShapeWilf:
    def test_singleton_classes(self):
        assert shape_wilf_check("123", "321", 5).equivalent
        assert shape_wilf_check("123", "213", 5).equivalent
        assert shape_wilf_check("231", "312", 5).equivalent

    def test_singleton_separations(self):
        v = shape_wilf_check("123", "231", 5)
        assert not v.equivalent and v.n == 4
        v = shape_wilf_check("123", "132", 5)
        assert not v.equivalent and v.n == 5

    def test_class_I_internal(self):
        pairs = [["123", "213"], ["132", "213"], ["231", "321"]]
        for a in pairs:
            for b in pairs:
                assert shape_wilf_check(a, b, 4).equivalent

    def test_II_vs_III_counterexample(self):
        v = shape_wilf_check(["123", "231"], ["123", "312"], 5)
        assert not v.equivalent
        assert v.n == 5
        assert v.border == "EEEESSESSS"
        assert {v.count1, v.count2} == {14, 15}
        # yet the totals over all boards agree through n = 5
        for n in range(1, 6):
            assert (
                count("matching", n, avoid=["123", "231"]).total
                == count("matching", n, avoid=["123", "312"]).total
            )

    def test_specific_board_difference(self):
        # the board with column heights (5,5,5,4,4) also separates II from III
        from matchboard.families import placements_on_board
        from matchboard.model import FerrersBoard
        from matchboard.patterns import Pattern, placement_avoids

        board = FerrersBoard.from_column_heights((5, 5, 5, 4, 4))
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
        assert classI_board_formula_check(4).ok

    def test_class_IV(self):
        assert classIV_board_formula_check(4).ok


class TestFixedPointClasses:
    def test_dp_agrees_with_enumeration(self):
        for tau in ("321", "213"):
            for n in range(0, 4):
                for k in range(0, 4 - n):
                    assert count_fixed_point_class(n, k, tau) == pair_count_ending_south(n, k)

    def test_123_class_differs(self):
        # the 123 class is checkable but counted by the same pair numbers
        assert count_fixed_point_class(1, 1, "123") == pair_count_ending_south(1, 1)

    def test_pair_dp_base_cases(self):
        assert pair_count_ending_south(0, 0) == 1
        assert pair_count_ending_south(1, 0) == 1
        assert pair_count_ending_south(2, 0) == 3
        assert pair_count_ending_south(0, 1) == 1


class TestPartitionReconstruction:
    def test_rebuild_from_valley_histograms(self):
        avoids = [["312"], ["123"], ["132"]] + [
            ["123", "213"], ["123", "231"], ["123", "312"], ["123", "321"], ["213", "321"],
        ]
        for avoid in avoids:
            for n in range(0, 9):
                want = count("partition", n, avoid=avoid).total
                assert partition_count_via_matchings(n, avoid) == want, (avoid, n)


class TestValleyHistogram:
    def test_total(self):
        hist = valley_histogram(3, ["312"])
        assert sum(hist.values()) == 14

    def test_b2_histogram_shape(self):
        seen = set()
        for l0, l1, h, eps in b2_pairs(3):
            assert isinstance(l0, str) and isinstance(l1, str)
            assert h >= 0 and eps >= 0
            seen.add((l0, l1))
        assert len(seen) == len(list(b2_pairs(3)))
