"""Pattern containment on permutations, placements, and arc diagrams."""

import random
from collections import Counter
from itertools import combinations

import pytest

from matchboard.errors import InvalidObjectError, ParseError
from matchboard.families import count, matchings, set_partitions
from matchboard.model import Matching, RookPlacement, SetPartition, statistics
from matchboard.patterns import (
    S3_PATTERNS,
    Pattern,
    find_arc_occurrence,
    lis_labels,
    lis_length,
    parse_pattern_set,
    perm_contains,
    placement_avoids,
)


class TestPattern:
    def test_parse(self):
        assert Pattern.from_text("312").perm == (3, 1, 2)
        with pytest.raises(ParseError):
            Pattern.from_text("3x2")
        with pytest.raises(ParseError):
            Pattern.from_text("311")
        with pytest.raises(InvalidObjectError):
            Pattern((1, 3))

    def test_parse_set(self):
        s = parse_pattern_set("123, 321")
        assert s == frozenset({Pattern((1, 2, 3)), Pattern((3, 2, 1))})
        with pytest.raises(ParseError):
            parse_pattern_set(" , ")


class TestPermContains:
    def test_basic(self):
        assert perm_contains((2, 4, 1, 3), Pattern((2, 1)))
        assert perm_contains((2, 4, 1, 3), Pattern((3, 1, 2)))
        assert not perm_contains((2, 4, 1, 3), Pattern((1, 2, 3)))
        assert not perm_contains((2, 4, 1, 3), Pattern((3, 2, 1)))
        assert not perm_contains((1, 2), Pattern((1, 2, 3)))
        assert perm_contains((1,), Pattern(()))

    def test_matches_brute_force(self):
        rng = random.Random(7)
        from itertools import combinations

        def brute(p, t):
            return any(
                all(
                    (t[a] < t[b]) == (sub[a] < sub[b])
                    for a in range(len(t))
                    for b in range(len(t))
                )
                for sub in combinations(p, len(t))
            )

        for _ in range(50):
            n = rng.randrange(1, 8)
            p = list(range(1, n + 1))
            rng.shuffle(p)
            for t in S3_PATTERNS:
                assert perm_contains(p, t) == brute(tuple(p), t.perm)


class TestArcOccurrence:
    def test_nesting_is_123(self):
        arcs = ((1, 6), (2, 5), (3, 4))
        occ = find_arc_occurrence(arcs, Pattern((1, 2, 3)))
        assert occ == (1, 2, 3, 4, 5, 6)
        assert find_arc_occurrence(arcs, Pattern((3, 2, 1))) is None

    def test_crossing_is_321(self):
        arcs = ((1, 4), (2, 5), (3, 6))
        assert find_arc_occurrence(arcs, Pattern((3, 2, 1))) == (1, 2, 3, 4, 5, 6)
        assert find_arc_occurrence(arcs, Pattern((1, 2, 3))) is None

    def test_openers_before_closers(self):
        # (1,2) and (3,4) are disjoint in time, so no length-2 pattern fits
        arcs = ((1, 2), (3, 4))
        for t in ((1, 2), (2, 1)):
            assert find_arc_occurrence(arcs, Pattern(t)) is None

    def test_alignment_is_21(self):
        arcs = ((1, 3), (2, 4))
        assert find_arc_occurrence(arcs, Pattern((2, 1))) == (1, 2, 3, 4)
        assert find_arc_occurrence(arcs, Pattern((1, 2))) is None

    def test_matching_and_partition_arcs(self):
        m = Matching(((1, 4), (2, 5), (3, 6)))
        assert find_arc_occurrence(m.arcs, Pattern((3, 2, 1))) is not None
        assert find_arc_occurrence(m.arcs, Pattern((1, 2, 3))) is None
        p = SetPartition.from_text("{1,3,5}{2,4}")
        assert find_arc_occurrence(p.arcs, Pattern((1, 2, 3))) is None
        assert find_arc_occurrence(p.arcs, Pattern((2, 1))) is not None

    def test_fixed_points_ignored(self):
        # the two arcs cross, giving 21 but not 12; the fixed points at 2
        # and 5 never join in
        m = Matching(((1, 4), (3, 6)), (2, 5))
        assert find_arc_occurrence(m.arcs, Pattern((1, 2))) is None
        assert find_arc_occurrence(m.arcs, Pattern((2, 1))) is not None


class TestScanAgainstBruteForce:
    """The counting scan against enumeration and direct search, for every
    nonempty set of length-3 patterns."""

    SUBSETS = [
        frozenset(sub)
        for r in range(1, 7)
        for sub in combinations([t.to_text() for t in S3_PATTERNS], r)
    ]

    @staticmethod
    def _contained(arcs) -> frozenset[str]:
        return frozenset(
            t.to_text() for t in S3_PATTERNS if find_arc_occurrence(arcs, t) is not None
        )

    def test_matchings_per_board_and_valleys(self):
        for n in range(0, 7):
            # (contained patterns, border, valleys) -> number of matchings
            seen = Counter(
                (self._contained(m.arcs), m.shape.steps, statistics(m).valleys)
                for m in matchings(n)
            )
            for avoid in self.SUBSETS:
                shapes, valleys = Counter(), Counter()
                for (found, border, v), c in seen.items():
                    if not found & avoid:
                        shapes[border] += c
                        valleys[v] += c
                table = count("matching", n, avoid=sorted(avoid), by_shape=True, stats=True)
                assert table.by_shape == dict(shapes), (n, avoid)
                assert table.by_valleys == dict(valleys), (n, avoid)
                assert table.total == sum(shapes.values())

    def test_partitions(self):
        for n in range(0, 9):
            seen = Counter(self._contained(p.arcs) for p in set_partitions(n))
            for avoid in self.SUBSETS:
                want = sum(c for found, c in seen.items() if not found & avoid)
                assert count("partition", n, avoid=sorted(avoid)).total == want, (n, avoid)


class TestPlacementAvoids:
    def test_peak_scan_equals_full_scan(self):
        from matchboard.families import placements

        for p in placements(4):
            for t in S3_PATTERNS:
                assert placement_avoids(p, t) == placement_avoids(
                    p, t, all_vertices=True
                )

    def test_square_board(self):
        p = RookPlacement.from_text("border:EEESSS;rooks:1,2,3")
        assert not placement_avoids(p, Pattern((1, 2, 3)))
        assert placement_avoids(p, Pattern((2, 1)))


class TestLis:
    def test_lis_length(self):
        assert lis_length((3, 1, 4, 1, 5, 9, 2, 6)) == 4
        assert lis_length(()) == 0

    def test_labels_monotone_step(self):
        # labels change by at most one along the border and match the path
        p = RookPlacement.from_text("border:EESESS;rooks:2,3,1")
        labels = lis_labels(p)
        assert labels[0] == 0 and labels[-1] == 0
        assert all(abs(a - b) <= 1 for a, b in zip(labels, labels[1:]))
