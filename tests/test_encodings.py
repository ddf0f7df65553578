"""Text encodings: every parser fails only with ParseError, and every
encoding reads back the object it was written from."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchboard.bijections import LabeledPathClass, NoncrossingPathPair
from matchboard.cli import _parse_permutation
from matchboard.errors import ParseError
from matchboard.families import (
    dyck_paths,
    labeled_paths,
    matchings_with_fixed_points,
    noncrossing_pairs,
    placements,
    set_partitions,
)
from matchboard.model import (
    DyckPath,
    LabeledDyckPath,
    Matching,
    RookPlacement,
    SetPartition,
)
from matchboard.patterns import Pattern, parse_pattern_set

PARSERS = {
    "DyckPath": DyckPath.from_text,
    "RookPlacement": RookPlacement.from_text,
    "Matching": Matching.from_text,
    "SetPartition": SetPartition.from_text,
    "LabeledDyckPath": LabeledDyckPath.from_text,
    "NoncrossingPathPair": NoncrossingPathPair.from_text,
    "Pattern": Pattern.from_text,
    "parse_pattern_set": parse_pattern_set,
    "permutation": _parse_permutation,
}

# the pieces the encodings are written in, plus a sign, a space and a
# non-ASCII digit that str.isdigit accepts and int() refuses
TOKENS = [
    "border:", "rooks:", "bottom:", "top:", "fp:",
    "E", "S", ";", ",", "(", ")", "{", "}", "-", " ", "²",
    *"0123456789",
]
# token strings, and arbitrary text and bytes read as latin-1
texts = (
    st.lists(st.sampled_from(TOKENS), max_size=24).map("".join)
    | st.text(max_size=40)
    | st.binary(max_size=40).map(lambda b: b.decode("latin-1"))
)


@pytest.mark.parametrize("name", sorted(PARSERS))
@given(text=texts)
@settings(max_examples=300, deadline=None)
def test_parser_raises_only_parse_error(name, text):
    try:
        PARSERS[name](text)
    except ParseError:
        pass


def _matchings_of_size(size):
    for k in range(size + 1):
        yield from matchings_with_fixed_points(size - k, k)


def _labeled_paths(n):
    for cls in LabeledPathClass:
        yield from labeled_paths(n, cls)


# class -> objects of size n, read from the generators
ENCODED = [
    (DyckPath, dyck_paths),
    (RookPlacement, placements),
    (Matching, _matchings_of_size),
    (SetPartition, set_partitions),
    (NoncrossingPathPair, noncrossing_pairs),
    (LabeledDyckPath, _labeled_paths),
]


@pytest.mark.parametrize("cls, objects", ENCODED, ids=[c.__name__ for c, _ in ENCODED])
def test_round_trip(cls, objects):
    seen = 0
    for n in range(5):
        for x in objects(n):
            assert cls.from_text(x.to_text()) == x
            seen += 1
    assert seen > 10
