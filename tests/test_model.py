"""Core object model: paths, boards, placements, matchings, partitions."""

import copy
import pickle

import pytest

from matchboard.bijections import NoncrossingPathPair, kappa_prime
from matchboard.errors import InvalidObjectError, ParseError
from matchboard.families import count_fixed_point_class, dyck_paths
from matchboard.model import (
    DyckPath,
    LabeledDyckPath,
    Matching,
    PathStats,
    RookPlacement,
    SetPartition,
    gamma_restriction,
    kappa,
    kappa_inv,
    partition_to_matching,
    statistics,
)
from matchboard.patterns import Pattern


class TestDyckPath:
    def test_heights(self):
        d = DyckPath("EESS")
        assert d.n == 2
        assert d.heights == (0, 1, 2, 1, 0)

    def test_invalid(self):
        with pytest.raises(InvalidObjectError):
            DyckPath("SE")
        with pytest.raises(InvalidObjectError):
            DyckPath("EES")
        with pytest.raises(InvalidObjectError):
            DyckPath("EX")

    def test_round_trip(self):
        d = DyckPath.from_text("ESEESS")
        assert d.to_text() == "ESEESS"
        assert DyckPath.from_heights(d.heights) == d

    def test_peaks_valleys(self):
        d = DyckPath("ESEESS")
        s = statistics(d)
        assert s.peaks == 2
        assert s.valleys == 1
        assert s.returns == 2
        assert s.height == 2
        assert s.eta == 1

    def test_aligned_pairs(self):
        # each east step pairs with the south step closing its arch
        d = DyckPath("EESS")
        assert d.aligned_pairs() == ((0, 4), (1, 3))
        d2 = DyckPath("ESES")
        assert d2.aligned_pairs() == ((0, 2), (2, 4))


class TestFerrersBoard:
    """A board in F_n is given by its border path."""

    def test_column_heights(self):
        assert DyckPath("EEESESSEESSS").column_heights == (6, 6, 6, 5, 3, 3)

    def test_column_heights_follow_the_border(self):
        # walking the border from (0, n), each E step tops a column as high
        # as the walk stands, and each S step lowers the walk by one
        for n in range(7):
            for d in dyck_paths(n):
                want, y = [], n
                for ch in d.steps:
                    if ch == "E":
                        want.append(y)
                    else:
                        y -= 1
                assert d.column_heights == tuple(want), d


class TestRookPlacement:
    def test_parse_round_trip(self):
        p = RookPlacement.from_text("border:EESS;rooks:2,1")
        assert p.rook_rows == (2, 1)
        assert p.to_text() == "border:EESS;rooks:2,1"

    def test_rook_outside_board(self):
        with pytest.raises(InvalidObjectError):
            RookPlacement(DyckPath("ESES"), (1, 2))  # column 2 has height 1

    def test_not_a_permutation(self):
        with pytest.raises(InvalidObjectError):
            RookPlacement(DyckPath("EESS"), (1, 1))

    def test_bad_text(self):
        with pytest.raises(ParseError):
            RookPlacement.from_text("EESS;2,1")


class TestMatching:
    def test_shape(self):
        m = Matching(((1, 3), (2, 4)))
        assert m.shape.steps == "EESS"

    def test_fixed_points(self):
        m = Matching(((1, 4), (3, 7), (6, 8)), (2, 5))
        assert m.size == 8
        assert m.shape.steps == "EESESS"

    def test_text_round_trip(self):
        m = Matching.from_text("(1,4)(3,7)(6,8);fp:2,5")
        assert m.to_text() == "(1,4)(3,7)(6,8);fp:2,5"
        assert Matching.from_text("(1,2)").arcs == ((1, 2),)

    def test_invalid(self):
        with pytest.raises(InvalidObjectError):
            Matching(((1, 2), (2, 3)))
        with pytest.raises(InvalidObjectError):
            Matching(((2, 1),))
        with pytest.raises(InvalidObjectError):
            Matching(((1, 3),))  # vertex 2 missing

    @pytest.mark.parametrize("text", ["(1,2)fp:3", "(1,2);;;fp:3", ";fp:3"])
    def test_fixed_points_follow_one_separator(self, text):
        # to_text writes "(1,2);fp:3", or "fp:3" when there are no arcs
        with pytest.raises(ParseError):
            Matching.from_text(text)


class TestSetPartition:
    def test_arcs(self):
        p = SetPartition.from_text("{1,3,5}{2}{4,7}{6,8}")
        assert p.arcs == ((1, 3), (3, 5), (4, 7), (6, 8))
        assert p.to_text() == "{1,3,5}{2}{4,7}{6,8}"

    def test_invalid(self):
        with pytest.raises(InvalidObjectError):
            SetPartition(((1, 2), (2, 3)))
        with pytest.raises(InvalidObjectError):
            SetPartition(((1, 3),))


class TestLabeledDyckPath:
    def test_valid(self):
        lp = LabeledDyckPath(DyckPath("ES"), (0, 1, 0))
        assert lp.to_text() == "ES;0,1,0"

    def test_monotonicity(self):
        with pytest.raises(InvalidObjectError):
            LabeledDyckPath(DyckPath("ES"), (0, 2, 0))
        with pytest.raises(InvalidObjectError):
            LabeledDyckPath(DyckPath("ES"), (0, 1))


class TestKappa:
    def test_figure_example(self):
        m = Matching(((1, 6), (2, 12), (3, 4), (5, 7), (8, 10), (9, 11)))
        p = kappa(m)
        assert p.border.steps == "EEESESSEESSS"
        assert p.rook_rows == (5, 1, 6, 4, 3, 2)
        assert kappa_inv(p) == m

    def test_smallest(self):
        p = kappa(Matching(((1, 2),)))
        assert p.to_text() == "border:ES;rooks:1"

    def test_rejects_fixed_points(self):
        with pytest.raises(InvalidObjectError):
            kappa(Matching(((1, 3),), (2,)))

    def test_m2(self):
        placements = {kappa(Matching(a)).to_text() for a in
                      (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))}
        assert placements == {
            "border:ESES;rooks:2,1",
            "border:EESS;rooks:2,1",
            "border:EESS;rooks:1,2",
        }


class TestPartitionToMatching:
    def test_figure_example(self):
        p = SetPartition.from_text("{1,3,5}{2}{4,7}{6,8}")
        m = partition_to_matching(p)
        assert m.arcs == ((1, 2), (3, 5), (4, 7), (6, 8))

    def test_all_singletons(self):
        p = SetPartition.from_text("{1}{2}{3}")
        assert partition_to_matching(p).arcs == ()

    def test_one_block(self):
        p = SetPartition.from_text("{1,2,3}")
        assert partition_to_matching(p).arcs == ((1, 2), (3, 4))


class TestGammaRestriction:
    def test_figure_example(self):
        p = RookPlacement.from_text(
            "border:EEESESESEESESSSS;rooks:1,7,8,6,3,2,5,4"
        )
        assert gamma_restriction(p, 7) == (1, 3, 2)

    def test_origin_empty(self):
        p = RookPlacement.from_text("border:EESS;rooks:2,1")
        assert gamma_restriction(p, 0) == ()

    def test_full_square(self):
        # the top-right corner of a square board spans the whole board
        p = RookPlacement.from_text("border:EESS;rooks:2,1")
        assert gamma_restriction(p, 2) == (2, 1)

    def test_bottom_corner_empty(self):
        p = RookPlacement.from_text("border:EESS;rooks:2,1")
        assert gamma_restriction(p, 2 * p.n) == ()


def _placement():
    return RookPlacement.from_text("border:EESS;rooks:2,1")


# constructor or call -> the exact message it must raise; these reach the
# CLI's stderr, and each check runs in the order listed for its type
VALIDATOR_MESSAGES = [
    (lambda: DyckPath("EX"), "bad step characters in 'EX'"),
    (lambda: DyckPath("SEX"), "bad step characters in 'SEX'"),
    (lambda: DyckPath("SE"), "path 'SE' crosses the diagonal"),
    (lambda: DyckPath("SEE"), "path 'SEE' crosses the diagonal"),
    (lambda: DyckPath("EES"), "path 'EES' is unbalanced"),
    (
        lambda: NoncrossingPathPair(DyckPath("ES"), DyckPath("EESS")),
        "paths in a pair must have equal semilength",
    ),
    (
        lambda: NoncrossingPathPair(DyckPath("EESS"), DyckPath("ESES")),
        "bottom path EESS rises above top ESES",
    ),
    (lambda: LabeledDyckPath(DyckPath("ES"), (0, 1)), "expected 3 labels, got 2"),
    (lambda: LabeledDyckPath(DyckPath("ES"), (0, 2, 1)), "label jump 0->2 on E step 0"),
    (lambda: LabeledDyckPath(DyckPath("ES"), (1, 0, 0)), "label jump 1->0 on E step 0"),
    (lambda: LabeledDyckPath(DyckPath("ES"), (0, 1, 3)), "label jump 1->3 on S step 1"),
    (lambda: LabeledDyckPath(DyckPath("ES"), (0, 0, -2)), "label jump 0->-2 on S step 1"),
    # the first bad step is named
    (
        lambda: LabeledDyckPath(DyckPath("EESS"), (0, 1, 1, 3, 0)),
        "label jump 1->3 on S step 2",
    ),
    (
        lambda: LabeledDyckPath(DyckPath("ESES"), (0, 0, 2, 5, 5)),
        "label jump 0->2 on S step 1",
    ),
    (lambda: gamma_restriction(_placement(), 5), "vertex index 5 out of range 0..4"),
    (lambda: gamma_restriction(_placement(), -1), "vertex index -1 out of range 0..4"),
    (
        lambda: DyckPath.from_heights([0, 1]),
        "height sequence [0, 1] must start and end at 0",
    ),
    (
        lambda: DyckPath.from_heights([0, 2, 0]),
        "height sequence [0, 2, 0] has a jump of 2",
    ),
    (
        lambda: kappa_prime(Matching(()), "123"),
        "kappa_prime is defined for patterns 321 and 213",
    ),
    # several patterns where one is expected
    (
        lambda: kappa_prime(Matching(()), ("321", "213")),
        "kappa_prime is defined for patterns 321 and 213",
    ),
    (
        lambda: count_fixed_point_class(1, 1, ("321", "213")),
        "no fixed-point class for pattern 213,321",
    ),
    # integer fields are read with operator.index: nothing is truncated,
    # parsed or unpacked into a ValueError
    (lambda: Matching(((1.5, 2),)), "arc (1.5, 2) is not a pair of integers"),
    (lambda: Matching((("a", 2),)), "arc ('a', 2) is not a pair of integers"),
    (lambda: Matching(((1, 2, 3),)), "arc (1, 2, 3) is not a pair of integers"),
    (lambda: SetPartition(((1, 2.0),)), "block element 2.0 is not an integer"),
    (lambda: LabeledDyckPath(DyckPath("ES"), (0, 1.0, 0)), "label 1.0 is not an integer"),
    (lambda: DyckPath(["E", "S"]), "steps ['E', 'S'] are not a string"),
    (lambda: RookPlacement(DyckPath("EESS"), (2.0, 1)), "rook row 2.0 is not an integer"),
    (lambda: Pattern((1.5, 2)), "pattern entry 1.5 is not an integer"),
    (lambda: Pattern((True, 2.9)), "pattern entry 2.9 is not an integer"),
    (lambda: Pattern(("2", "1")), "pattern entry '2' is not an integer"),
]

# the same for the parsers, which raise ParseError
PARSER_MESSAGES = [
    (lambda: Matching.from_text("(1,2,3)"), "bad arc (1,2,3) in '(1,2,3)'"),
]

MESSAGES = [(InvalidObjectError, *row) for row in VALIDATOR_MESSAGES] + [
    (ParseError, *row) for row in PARSER_MESSAGES
]


@pytest.mark.parametrize("error, build, message", MESSAGES, ids=[m for *_, m in MESSAGES])
def test_validator_messages(error, build, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


# one object of each value class, its fields by name, and its repr as it
# was printed before the classes shared Value: by the frozen dataclasses of
# the model types and by the hand-written protocol of Pattern.  The
# RookPlacement repr is the one printed since a board is its border path.
_D = DyckPath("EESESS")
VALUES = [
    (_D, {"steps": "EESESS"}, "DyckPath(steps='EESESS')"),
    (
        RookPlacement(_D, (3, 1, 2)),
        {"border": _D, "rook_rows": (3, 1, 2)},
        "RookPlacement(border=DyckPath(steps='EESESS'), rook_rows=(3, 1, 2))",
    ),
    (
        Matching(((1, 6), (3, 4)), (2, 5)),
        {"arcs": ((1, 6), (3, 4)), "fixed_points": (2, 5)},
        "Matching(arcs=((1, 6), (3, 4)), fixed_points=(2, 5))",
    ),
    (
        SetPartition(((1, 3), (2,), (4,))),
        {"blocks": ((1, 3), (2,), (4,))},
        "SetPartition(blocks=((1, 3), (2,), (4,)))",
    ),
    (
        LabeledDyckPath(DyckPath("ES"), (0, 1, 0)),
        {"path": DyckPath("ES"), "labels": (0, 1, 0)},
        "LabeledDyckPath(path=DyckPath(steps='ES'), labels=(0, 1, 0))",
    ),
    (
        statistics(_D),
        {"valleys": 1, "peaks": 2, "returns": 1, "height": 2, "eta": 2},
        "PathStats(valleys=1, peaks=2, returns=1, height=2, eta=2)",
    ),
    (
        NoncrossingPathPair(DyckPath("ESESES"), _D),
        {"bottom": DyckPath("ESESES"), "top": _D},
        "NoncrossingPathPair(bottom=DyckPath(steps='ESESES'), top=DyckPath(steps='EESESS'))",
    ),
    (Pattern((2, 1, 3)), {"perm": (2, 1, 3)}, "Pattern(perm=(2, 1, 3))"),
]


@pytest.mark.parametrize("obj, fields, text", VALUES, ids=[type(v[0]).__name__ for v in VALUES])
class TestValueClass:
    def test_equality_and_hash_read_the_fields(self, obj, fields, text):
        values = tuple(fields.values())
        for twin in (type(obj)(*values), type(obj)(**fields)):
            assert twin == obj and not twin != obj
            assert hash(twin) == hash(obj) == hash(values)
        # same class only: never equal to its fields or to another class
        assert obj != values and obj != values[0]
        assert all(obj != other for other, *_ in VALUES if other is not obj)

    def test_repr(self, obj, fields, text):
        assert repr(obj) == text

    def test_fields_cannot_be_assigned_or_deleted(self, obj, fields, text):
        for name in [*fields, "other"]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert [getattr(obj, name) for name in fields] == list(fields.values())

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal(self, obj, fields, text, clone):
        got = clone(obj)
        assert type(got) is type(obj) and got == obj and repr(got) == text


def test_path_equality_ignores_heights_and_lazy_attributes():
    a, b = DyckPath("EESESS"), DyckPath("EESESS")
    a.vertices, a.peak_indices(), a.aligned_pairs(), a.column_heights
    assert a == b and hash(a) == hash(b) == hash(("EESESS",))
    assert Matching(((1, 2),)) != ((1, 2),)
    assert PathStats(0, 1, 1, 1, 0) == statistics(DyckPath("ES"))
