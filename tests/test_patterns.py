"""Pattern containment on permutations, placements, and arc diagrams."""

import gc
import pickle
import random
from collections import Counter
from itertools import combinations, permutations
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchboard.errors import InvalidObjectError, ParseError
from matchboard.families import (
    b2_pairs,
    boards,
    count,
    matchings,
    matchings_with_fixed_points,
    placements,
    placements_on_board,
    set_partitions,
)
from matchboard.model import Matching, RookPlacement, SetPartition, gamma_restriction, statistics
from matchboard.patterns import (
    S3_PATTERNS,
    Pattern,
    find_arc_occurrence,
    lis_labels,
    lis_length,
    offending_vertex,
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

    def test_value_semantics(self):
        p = Pattern([1, 3, 2])
        assert p == Pattern((1, 3, 2)) and hash(p) == hash(Pattern((1, 3, 2)))
        assert p != Pattern((1, 2, 3)) and p != (1, 3, 2)
        assert repr(p) == "Pattern(perm=(1, 3, 2))"
        assert pickle.loads(pickle.dumps(p)) == p
        with pytest.raises(AttributeError):
            p.perm = (1, 2, 3)
        with pytest.raises(AttributeError):
            p.extra = 1
        with pytest.raises(AttributeError):
            del p.perm
        assert p.perm == (1, 3, 2)

    def test_parse_set(self):
        s = parse_pattern_set("123, 321")
        assert s == frozenset({Pattern((1, 2, 3)), Pattern((3, 2, 1))})
        with pytest.raises(ParseError):
            parse_pattern_set(" , ")
        # an empty item is refused, not dropped
        for text in ("", ",123", "123,,321", "1,,", "123,", "123, ,321"):
            with pytest.raises(ParseError):
                parse_pattern_set(text)


class TestPermContains:
    def test_basic(self):
        assert perm_contains((2, 4, 1, 3), Pattern((2, 1)))
        assert perm_contains((2, 4, 1, 3), Pattern((3, 1, 2)))
        assert not perm_contains((2, 4, 1, 3), Pattern((1, 2, 3)))
        assert not perm_contains((2, 4, 1, 3), Pattern((3, 2, 1)))
        assert not perm_contains((1, 2), Pattern((1, 2, 3)))
        with pytest.raises(InvalidObjectError, match="^a pattern has at least one entry$"):
            Pattern(())

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

    def test_shared_vertex_is_no_occurrence(self):
        # chosen vertices must be distinct, even for arcs given by hand
        assert find_arc_occurrence(((1, 3), (1, 4)), Pattern((2, 1))) is None
        assert find_arc_occurrence(((1, 3), (3, 4)), Pattern((2, 1))) is None

    def test_fixed_points_ignored(self):
        # the two arcs cross, giving 21 but not 12; the fixed points at 2
        # and 5 never join in
        m = Matching(((1, 4), (3, 6)), (2, 5))
        assert find_arc_occurrence(m.arcs, Pattern((1, 2))) is None
        assert find_arc_occurrence(m.arcs, Pattern((2, 1))) is not None


def _perm_contains_by_entries(p, t):
    """The search that compared each candidate with every chosen entry, kept
    as the oracle of perm_contains."""
    pv, tv = tuple(p), tuple(t)
    k = len(tv)
    if k == 0:
        return True
    if k > len(pv):
        return False

    def extend(chosen, start):
        a = len(chosen)
        if a == k:
            return True
        for pos in range(start, len(pv) - (k - a) + 1):
            val = pv[pos]
            if all((tv[b] < tv[a]) == (pv[prev] < val) for b, prev in enumerate(chosen)):
                if extend(chosen + (pos,), pos + 1):
                    return True
        return False

    return extend((), 0)


def _find_arc_occurrence_by_combinations(arcs, t):
    """The search over every k-combination of the opener-sorted arcs, kept
    as the oracle of find_arc_occurrence."""
    k = len(t.perm)
    arcs = sorted(arcs)
    if k == 0 or len(arcs) < k:
        return None
    by_closer = sorted(range(k), key=t.perm.__getitem__, reverse=True)
    for combo in combinations(arcs, k):
        rights = [combo[a][1] for a in by_closer]
        if combo[-1][0] < rights[0] and all(map(lt, rights, rights[1:])):
            lefts = [a for a, _ in combo]
            if all(map(lt, lefts, lefts[1:])):
                return tuple(lefts + rights)
    return None


class TestSearchOracles:
    """The planned searches against the searches they replaced."""

    def test_perm_contains_exhaustive(self):
        # every permutation with n <= 6 against every pattern with k <= 4,
        # so k = 0 and k > n are both reached
        for n in range(7):
            for p in permutations(range(1, n + 1)):
                for k in range(5):
                    for t in permutations(range(1, k + 1)):
                        assert perm_contains(p, t) == _perm_contains_by_entries(p, t), (p, t)

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.integers(-30, 30), unique=True, max_size=9),
        st.lists(st.integers(-9, 99), unique=True, max_size=5),
    )
    def test_perm_contains_distinct_values(self, p, t):
        assert perm_contains(p, t) == _perm_contains_by_entries(p, t)

    def test_arc_occurrence(self):
        # partition arcs can share a vertex: one arc closes where the next opens
        diagrams = {
            "matching": [m.arcs for n in range(6) for m in matchings(n)],
            "partition": [q.arcs for n in range(8) for q in set_partitions(n)],
        }
        patterns = [Pattern(t) for k in (3, 4) for t in permutations(range(1, k + 1))]
        for kind, arcs_list in diagrams.items():
            found = 0
            for arcs in arcs_list:
                for t in patterns:
                    got = find_arc_occurrence(arcs, t)
                    assert got == _find_arc_occurrence_by_combinations(arcs, t), (arcs, t)
                    found += got is not None
            assert found, kind


def test_no_reference_cycles():
    """The scan, the pattern searches and the generators are freed by
    reference counting alone, so what they hold does not wait for the
    cyclic collector."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        count("matching", 4, avoid=("132",), by_shape=True)
        count("partition", 6, avoid=("123", "321"))
        count("permutation", 5, avoid=("1342",))
        count("placement", 3, avoid=("1234",))
        list(matchings_with_fixed_points(2, 1))
        list(set_partitions(4))
        list(placements_on_board(next(boards(3))))
        list(b2_pairs(4))
        perm_contains((2, 4, 1, 3), Pattern((3, 1, 2)))
        find_arc_occurrence(((1, 4), (2, 5), (3, 6)), Pattern((3, 2, 1)))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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
                (self._contained(m.arcs), m.shape.steps, statistics(m.shape).valleys)
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
                # without by_shape the scan counts the valleys in its keys
                keyed = count("matching", n, avoid=sorted(avoid), stats=True)
                assert keyed.by_valleys == dict(valleys), (n, avoid)
                assert keyed.total == table.total

    def test_partitions(self):
        for n in range(0, 9):
            seen = Counter(self._contained(p.arcs) for p in set_partitions(n))
            for avoid in self.SUBSETS:
                want = sum(c for found, c in seen.items() if not found & avoid)
                assert count("partition", n, avoid=sorted(avoid)).total == want, (n, avoid)


class TestPlacementAvoids:
    def test_peak_scan_equals_full_scan(self):
        # the direct definition tests the ranked restriction at every vertex
        for p in placements(4):
            for t in S3_PATTERNS:
                full = not any(perm_contains(gamma_restriction(p, v), t) for v in range(9))
                assert placement_avoids(p, t) == full, (p, t)

    def test_square_board(self):
        p = RookPlacement.from_text("border:EEESSS;rooks:1,2,3")
        assert not placement_avoids(p, Pattern((1, 2, 3)))
        assert placement_avoids(p, Pattern((2, 1)))


class TestRestrictionsInPlace:
    """offending_vertex and lis_labels read the rook rows under each border
    vertex as they stand; the ranked restriction ``gamma_restriction`` is
    the definition they must agree with.  Every placement with n <= 5 is
    tested against every length-3 pattern, every pair of them and every
    length-4 pattern, and n = 6, where the calls would take seconds more,
    against every length-3 pattern.  Each is tested at the peaks, the
    setting every caller uses, and shown to contain a pattern at some
    vertex only when it does at a peak."""

    SETS = (
        [(t,) for t in S3_PATTERNS]
        + list(combinations(S3_PATTERNS, 2))
        + [(Pattern(t),) for t in permutations(range(1, 5))]
    )

    def test_against_ranked_restrictions(self):
        bit = {t: 1 << i for i, t in enumerate({t for pats in self.SETS for t in pats})}
        masks = [sum(map(bit.__getitem__, pats)) for pats in self.SETS]
        contained, lis = {}, {}  # per ranked restriction: pattern bits, lis
        offended = Counter()
        for n in range(7):
            for p in placements(n):
                restrictions = [gamma_restriction(p, v) for v in range(2 * n + 1)]
                for r in restrictions:
                    if r not in contained:
                        contained[r] = sum(b for t, b in bit.items() if perm_contains(r, t))
                        lis[r] = lis_length(r)
                assert lis_labels(p) == tuple(map(lis.__getitem__, restrictions)), p
                found = list(map(contained.__getitem__, restrictions))
                peaks = p.border.peak_indices()
                for pats, mask in zip(self.SETS[:6] if n == 6 else self.SETS, masks):
                    first_peak = next((v for v in peaks if found[v] & mask), None)
                    assert offending_vertex(p, pats) == first_peak, (p, pats)
                    offended[n] += first_peak is not None
                    # the peaks suffice: a placement that avoids at its peaks
                    # avoids at every vertex
                    first = next((v for v, f in enumerate(found) if f & mask), None)
                    assert (first_peak is None) == (first is None), (p, pats)
        assert all(offended[n] for n in range(3, 7)), offended


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
