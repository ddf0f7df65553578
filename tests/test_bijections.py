"""Bijections between restricted placements and path families."""

from collections import Counter
from itertools import combinations, permutations
from operator import le

import pytest

from matchboard.bijections import (
    LabeledPathClass,
    a2_member,
    board_minimal,
    check_fixed_point_class,
    chi,
    delta213,
    delta213_inv,
    delta321,
    delta321_by_switch,
    delta321_inv,
    diagonal_property,
    j_sequence,
    kappa_prime,
    minimal_board,
    peak_property,
    pi_labeling,
    zero_condition,
)
from matchboard.errors import InvalidObjectError, PatternViolationError
from matchboard.families import (
    boards,
    count,
    count_fixed_point_class,
    dyck_paths,
    labeled_paths,
    matchings_with_fixed_points,
    noncrossing_pairs,
    pairs_ending_south,
    placements_on_board,
)
from matchboard.model import (
    DyckPath,
    LabeledDyckPath,
    Matching,
    RookPlacement,
)
from matchboard.patterns import (
    S3_PATTERNS,
    Pattern,
    find_arc_occurrence,
    placement_avoids,
)


def _avoiding(border, pattern):
    return [
        p for p in placements_on_board(border) if placement_avoids(p, pattern)
    ]


def _pairs_under(border):
    return {pr.to_text() for pr in noncrossing_pairs(border.n) if pr.top == border}


def _delta321_lookup(border):
    """Bottom path -> placement over the forward images of every 321-avoiding
    placement on the board: the per-board lookup that delta321_inv replaced,
    kept as its oracle."""
    return {delta321(p).bottom.steps: p for p in _avoiding(border, Pattern((3, 2, 1)))}


class TestDelta321:
    def test_worked_example(self):
        p = RookPlacement.from_text("border:EEESESSEESSS;rooks:5,1,6,4,3,2")
        pair = delta321(p)
        assert pair.bottom.steps == "ESESEESESESS"
        assert pair.top == p.border
        assert j_sequence(p) == pair.bottom.heights

    def test_switch_description_agrees(self):
        for n in range(1, 5):
            for board in boards(n):
                for p in _avoiding(board, Pattern((3, 2, 1))):
                    assert delta321_by_switch(p) == delta321(p)

    def test_rejects_non_avoiding(self):
        p = RookPlacement.from_text("border:EEESSS;rooks:3,2,1")
        with pytest.raises(PatternViolationError) as info:
            delta321(p)
        assert info.value.vertices == (3,)  # the peak of the square board

    def test_bijection_onto_pairs(self):
        # injective on each board, image exactly the pairs below its border
        for n in range(1, 5):
            for board in boards(n):
                images = {}
                for p in _avoiding(board, Pattern((3, 2, 1))):
                    pair = delta321(p)
                    assert pair.to_text() not in images
                    images[pair.to_text()] = p
                    assert delta321_inv(pair) == p
                assert set(images) == _pairs_under(board)

    def test_inverse_equals_lookup_oracle(self):
        # every pair under a board is an image, and the growth rules rebuild
        # the placement the lookup finds
        for n in range(0, 6):
            for top in dyck_paths(n):
                lookup = _delta321_lookup(top)
                pairs = [pr for pr in noncrossing_pairs(n) if pr.top == top]
                assert sorted(lookup) == sorted(pr.bottom.steps for pr in pairs)
                for pair in pairs:
                    p = delta321_inv(pair)
                    assert p == lookup[pair.bottom.steps]
                    assert delta321(p) == pair


class TestDelta213:
    def test_worked_example(self):
        p = RookPlacement.from_text("border:EEESESSEESSS;rooks:6,5,1,4,3,2")
        pair = delta213(p)
        assert pair.bottom.column_heights == (6, 5, 4, 4, 3, 2)

    def test_minimal_board(self):
        assert minimal_board((2, 1)).steps == "ESES"
        assert minimal_board((1, 2)).steps == "EESS"
        assert minimal_board((1,)).steps == "ES"

    def test_bijection_onto_pairs(self):
        for n in range(1, 5):
            for board in boards(n):
                images = set()
                for p in _avoiding(board, Pattern((2, 1, 3))):
                    pair = delta213(p)
                    assert pair.to_text() not in images
                    images.add(pair.to_text())
                    assert delta213_inv(pair) == p
                assert images == _pairs_under(board)

    def test_rejects_non_avoiding(self):
        p = RookPlacement.from_text("border:EEESSS;rooks:2,1,3")
        with pytest.raises(PatternViolationError):
            delta213(p)


class TestPiLabeling:
    def test_image_is_labeled_class(self):
        for n in range(1, 5):
            for board in boards(n):
                images = set()
                for p in _avoiding(board, Pattern((3, 1, 2))):
                    lp = pi_labeling(p)
                    assert lp.path == board
                    assert LabeledPathClass.L.contains(lp)
                    assert lp.to_text() not in images
                    images.add(lp.to_text())
                expected = {
                    lp.to_text()
                    for lp in labeled_paths(n, LabeledPathClass.L)
                    if lp.path == board
                }
                assert images == expected

    def test_label_properties(self):
        lp = LabeledDyckPath(DyckPath("EESS"), (0, 1, 2, 1, 0))
        assert diagonal_property(lp)
        assert zero_condition(lp)
        assert peak_property(lp)
        lp2 = LabeledDyckPath(DyckPath("EESS"), (0, 1, 1, 1, 0))
        assert not peak_property(lp2)
        # a positive label at a diagonal touch breaks the zero condition
        lp3 = LabeledDyckPath(DyckPath("ESES"), (0, 1, 1, 2, 1))
        assert not zero_condition(lp3)


class TestRestrictedImages:
    def test_e2_images(self):
        # {123,321}-avoiding placements map onto the forced-height pairs
        for n in range(1, 6):
            for board in boards(n):
                pats = (Pattern((1, 2, 3)), Pattern((3, 2, 1)))
                ps = [
                    p
                    for p in placements_on_board(board)
                    if placement_avoids(p, pats)
                ]
                images = {delta321(p).to_text() for p in ps}
                assert len(images) == len(ps)
                expected = {pr.to_text() for pr in _e2_of(board)}
                assert images == expected
                from matchboard.model import statistics

                st = statistics(board)
                if st.height >= 5:
                    assert len(ps) == 0
                else:
                    assert len(ps) == 2 ** st.eta

    def test_a2_images(self):
        # {213,321}-avoiding placements map onto the peak-clear pairs
        for n in range(1, 5):
            for board in boards(n):
                pats = (Pattern((2, 1, 3)), Pattern((3, 2, 1)))
                ps = [
                    p
                    for p in placements_on_board(board)
                    if placement_avoids(p, pats)
                ]
                images = {delta321(p).to_text() for p in ps}
                assert len(images) == len(ps)
                expected = {
                    pr.to_text()
                    for pr in noncrossing_pairs(n)
                    if pr.top == board and a2_member(pr)
                }
                assert images == expected


def _e2_of(board):
    from matchboard.families import e2_pairs

    return e2_pairs(board)


def _find_arc_occurrence_by_ranks(arcs, t):
    """The arc search that sorted the chosen closers of every combination
    and read off their ranks, kept as the oracle of find_arc_occurrence."""
    k = len(t.perm)
    arcs = sorted(arcs)
    if k == 0 or len(arcs) < k:
        return None
    for combo in combinations(arcs, k):
        lefts = [a for a, _ in combo]
        rights = [b for _, b in combo]
        if max(lefts) >= min(rights) or len(set(lefts)) < k or len(set(rights)) < k:
            continue
        rights_sorted = sorted(rights)
        ok = True
        for a_rank, (_, b) in enumerate(combo, start=1):
            j = rights_sorted.index(b) + 1
            if t.perm[a_rank - 1] != k + 1 - j:
                ok = False
                break
        if ok:
            return tuple(sorted(lefts) + rights_sorted)
    return None


# pattern -> (arc slots, fixed slot) among x1 < ... < x5
_FP_SLOTS = {
    (1, 2, 3): (((1, 5), (2, 4)), 3),
    (2, 1, 3): (((1, 5), (3, 4)), 2),
    (3, 2, 1): (((1, 4), (2, 5)), 3),
}


def _check_fixed_point_class_by_positions(m, tau):
    """The fixed-point class test that sorted every arc-arc-fixed-point
    triple and compared the positions with slot tables, kept as the oracle
    of check_fixed_point_class."""
    occ = _find_arc_occurrence_by_ranks(m.arcs, tau)
    if occ is not None:
        raise PatternViolationError(
            f"matching contains {tau.to_text()} at vertices {occ}", vertices=occ
        )
    (slots_a, slots_b), fixed_slot = _FP_SLOTS[tau.perm]
    for a1, a2 in m.arcs:
        for b1, b2 in m.arcs:
            for f in m.fixed_points:
                xs = sorted((a1, a2, b1, b2, f))
                if len(set(xs)) != 5:
                    continue
                pos = {v: i + 1 for i, v in enumerate(xs)}
                if (
                    pos[f] == fixed_slot
                    and (pos[a1], pos[a2]) == slots_a
                    and (pos[b1], pos[b2]) == slots_b
                ):
                    raise PatternViolationError(
                        f"forbidden fixed point {f} between arcs ({a1},{a2}) and "
                        f"({b1},{b2}) for pattern {tau.to_text()}",
                        vertices=tuple(xs),
                    )


def _verdict(check, m, tau):
    try:
        check(m, tau)
    except PatternViolationError as e:
        return str(e), e.vertices
    return None


@pytest.fixture(scope="module")
def fp_matchings():
    """Every matching of [2n + k] with k fixed points and n + k <= 6."""
    return [m for n in range(7) for k in range(7 - n) for m in matchings_with_fixed_points(n, k)]


FP_PATTERNS = (Pattern((1, 2, 3)), Pattern((2, 1, 3)), Pattern((3, 2, 1)))


@pytest.fixture(scope="module")
def fp_verdicts(fp_matchings):
    """check_fixed_point_class's verdict on each of fp_matchings, per pattern
    of a fixed-point class."""
    return {
        tau: [_verdict(check_fixed_point_class, m, tau) for m in fp_matchings]
        for tau in FP_PATTERNS
    }


class TestPatternOracles:
    """The comparison chains against the sorting tests they replaced."""

    def test_arc_occurrence(self, fp_matchings):
        for t in S3_PATTERNS:
            for m in fp_matchings:
                assert find_arc_occurrence(m.arcs, t) == _find_arc_occurrence_by_ranks(
                    m.arcs, t
                ), (m, t)

    def test_fixed_point_class(self, fp_matchings, fp_verdicts):
        found = 0
        for tau in FP_PATTERNS:
            for m, got in zip(fp_matchings, fp_verdicts[tau]):
                assert got == _verdict(_check_fixed_point_class_by_positions, m, tau), (m, tau)
                found += got is not None and "forbidden" in got[0]
        assert found  # the five-vertex configurations are reached


class TestFixedPointClasses:
    def test_forbidden_configuration(self):
        # fixed point between nested arcs is forbidden for 123
        m = Matching(((1, 5), (2, 4)), (3,))
        with pytest.raises(PatternViolationError):
            check_fixed_point_class(m, Pattern((1, 2, 3)))
        check_fixed_point_class(m, Pattern((3, 2, 1)))

    def test_pattern_occurrence_rejected(self):
        m = Matching(((1, 4), (2, 5), (3, 6)))
        with pytest.raises(PatternViolationError):
            check_fixed_point_class(m, Pattern((3, 2, 1)))

    def test_unknown_pattern(self):
        with pytest.raises(InvalidObjectError):
            check_fixed_point_class(Matching(()), Pattern((2, 3, 1)))

    def test_scan_equals_enumeration(self, fp_matchings, fp_verdicts):
        # the class members among every matching with n + k <= 6, counted
        # by check_fixed_point_class, against the scan
        for tau in FP_PATTERNS:
            members = Counter(
                (m.n, len(m.fixed_points))
                for m, got in zip(fp_matchings, fp_verdicts[tau])
                if got is None
            )
            for n in range(7):
                for k in range(7 - n):
                    assert count_fixed_point_class(n, k, tau) == members[n, k], (tau, n, k)
            # the five-vertex rule refuses 1 of the 15 tau-avoiders with
            # n = 2 and k = 1, so the scan applies more than avoidance
            assert count_fixed_point_class(2, 1, tau) < count(
                "matching-fp", 2, 1, avoid=(tau,)
            ).total

    def test_unknown_pattern_refused_by_count(self):
        with pytest.raises(InvalidObjectError) as checked:
            check_fixed_point_class(Matching(()), Pattern((2, 3, 1)))
        with pytest.raises(InvalidObjectError) as counted:
            count_fixed_point_class(0, 0, "231")
        assert str(counted.value) == str(checked.value)

    def test_kappa_prime_counts(self):
        # the fixed-point classes biject with pairs ending in k souths
        for tau in ("321", "213"):
            for n in range(0, 5):
                for k in range(0, 5 - n):
                    images = set()
                    for m in matchings_with_fixed_points(n, k):
                        try:
                            check_fixed_point_class(m, Pattern.from_text(tau))
                        except PatternViolationError:
                            continue
                        p = kappa_prime(m, tau)
                        pair = delta321(p) if tau == "321" else delta213(p)
                        assert pair.ends_with_south(k)
                        images.add(pair.to_text())
                    expected = {
                        pr.to_text() for pr in pairs_ending_south(n, k)
                    }
                    assert images == expected

    def test_kappa_prime_example(self):
        m = Matching(((1, 4), (3, 6)), (2, 5))
        p = kappa_prime(m, "321")
        assert p.n == 4
        assert find_arc_occurrence(m.arcs, Pattern((3, 2, 1))) is None


class TestChi:
    def test_minimal_board_is_the_least_board_holding_the_rooks(self):
        # chi puts every permutation on a minimal board, and every board of
        # F_n that holds the rooks is at least as high in every column
        for n in range(8):
            least = {}
            for perm in permutations(range(1, n + 1)):
                assert board_minimal(chi(perm)), perm
                least[perm] = minimal_board(perm).column_heights
            for border in dyck_paths(n):
                for p in placements_on_board(border):
                    assert all(map(le, least[p.rook_rows], border.column_heights)), p

    def test_minimal_placement(self):
        p = chi((6, 5, 1, 4, 3, 2))
        assert board_minimal(p)
        assert p.border.column_heights == (6, 5, 4, 4, 3, 2)

    def test_identity(self):
        # the identity needs the full square: column c holds a rook no lower
        # than the rooks to its right
        p = chi((1, 2, 3))
        assert p.border.steps == "EEESSS"
        assert board_minimal(p)

    def test_not_minimal_when_embedded(self):
        p = RookPlacement.from_text("border:EESS;rooks:2,1")
        assert not board_minimal(p)

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidObjectError):
            chi((1, 1))
