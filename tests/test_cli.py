"""Command-line interface behavior: output shape and exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchboard.checks import SUITES
from matchboard.cli import _map_names, main
from matchboard.families import FAMILY_NAMES
from matchboard.formulas import FORMULA_IDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_basic_count(self, capsys):
        code, out, err = run(
            capsys, "count", "--family", "matching", "--n", "3", "--avoid", "132"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == "14"
        assert payload["avoid"] == ["132"]
        manifest = json.loads(err)
        assert manifest["command"] == "count"

    def test_spaces_around_items_accepted(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "matching", "--n", "3", "--avoid", "123, 321"
        )
        assert code == 0
        assert json.loads(out)["avoid"] == ["123", "321"]

    def test_by_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--family", "matching", "--n", "2",
            "--avoid", "321", "--by-shape",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["by_shape"] == [
            {"border": "EESS", "count": "2"},
            {"border": "ESES", "count": "1"},
        ]

    def test_stat_valleys(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--family", "matching", "--n", "3",
            "--avoid", "312", "--stat", "valleys",
        )
        payload = json.loads(out)
        assert code == 0
        assert sum(int(v) for v in payload["by_valleys"].values()) == 14

    def test_numbers_are_strings(self, capsys):
        _, out, _ = run(capsys, "count", "--family", "dyck", "--n", "4")
        payload = json.loads(out)
        assert payload["total"] == "14"
        assert isinstance(payload["total"], str)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "count", "--family", "partition", "--n", "5")
        _, out2, _ = run(capsys, "count", "--family", "partition", "--n", "5")
        assert out1 == out2

    def test_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "count", "--family", "matching", "--n", "99")
        assert code == 3
        assert "error" in err

    def test_usage_exit_code(self, capsys):
        code, _, _ = run(capsys, "count", "--family", "widget", "--n", "3")
        assert code == 2

    def test_bad_pattern_exit_code(self, capsys):
        code, _, err = run(
            capsys, "count", "--family", "matching", "--n", "3", "--avoid", "xx"
        )
        assert code == 2


class TestSeries:
    def test_m312(self, capsys):
        code, out, _ = run(capsys, "series", "--formula", "m312", "--order", "5")
        payload = json.loads(out)
        assert code == 0
        assert payload["coefficients"] == ["1", "1", "3", "14", "83", "570"]

    def test_classIV_exact(self, capsys):
        code, out, _ = run(
            capsys, "series", "--formula", "classIV_exact", "--order", "7"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["coefficients"][-1] == "7813"

    def test_order_cap(self, capsys):
        code, _, _ = run(capsys, "series", "--formula", "m312", "--order", "99")
        assert code == 3


class TestCrossCheck:
    def test_pass(self, capsys):
        code, out, _ = run(
            capsys, "cross-check", "--formula", "classV_m", "--max-n", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert all(r["equal"] is True for r in payload["results"])

    def test_negative_max_n_names_the_option(self, capsys):
        code, out, err = run(capsys, "cross-check", "--formula", "m312", "--max-n", "-1")
        assert (code, out) == (2, "")
        assert err == "error: max-n must be nonnegative, got -1\n"

    def test_max_n_past_the_order_cap_names_the_option(self, capsys):
        code, out, err = run(capsys, "cross-check", "--formula", "catalan_v", "--max-n", "31")
        assert (code, out) == (3, "")
        assert err == "error: max-n 31 exceeds the cap 30\n"


class TestVerify:
    def test_tables_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tables", "--max-n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert not any("published_to" in c for c in payload["checks"])

    def test_tables_reach_the_published_length(self, capsys):
        # the matching rows run to n=10, the scan's cap and past the
        # enumeration cap of 8; the pair-class rows end at 7 and say so
        code, out, _ = run(capsys, "verify", "--suite", "tables", "--max-n", "10")
        assert code == 0
        checks = json.loads(out)["checks"]
        matching = [c for c in checks if c["name"].startswith("matchings-")]
        assert len(matching) == 3
        for check in matching:
            assert len(check["got"]) == len(check["want"]) == 10, check["name"]
            assert check["pass"] is True
        for check in checks:
            clipped = check["name"].startswith("pair-class-")
            assert check.get("published_to") == ("7" if clipped else None), check["name"]

    def test_board_suites(self, capsys):
        for suite in ("classI", "classIV"):
            code, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", "4")
            assert code == 0
            assert json.loads(out)["pass"] is True


class TestApply:
    def test_kappa(self, capsys):
        code, out, _ = run(
            capsys, "apply", "--map", "kappa",
            "--input", "(1,6)(2,12)(3,4)(5,7)(8,10)(9,11)",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["output"] == "border:EEESESSEESSS;rooks:5,1,6,4,3,2"

    def test_round_trip_through_cli(self, capsys):
        _, out, _ = run(
            capsys, "apply", "--map", "kappa", "--input", "(1,3)(2,4)"
        )
        placement = json.loads(out)["output"]
        _, out2, _ = run(capsys, "apply", "--map", "kappa-inv", "--input", placement)
        assert json.loads(out2)["output"] == "(1,3)(2,4)"

    def test_delta321(self, capsys):
        code, out, _ = run(
            capsys, "apply", "--map", "delta321",
            "--input", "border:EEESESSEESSS;rooks:5,1,6,4,3,2",
        )
        assert code == 0
        assert json.loads(out)["output"] == (
            "bottom:ESESEESESESS;top:EEESESSEESSS"
        )

    def test_chi(self, capsys):
        code, out, _ = run(capsys, "apply", "--map", "chi", "--input", "6,5,1,4,3,2")
        assert code == 0
        assert json.loads(out)["output"].startswith("border:")

    def test_kappa_prime_needs_pattern(self, capsys):
        code, _, err = run(
            capsys, "apply", "--map", "kappa-prime", "--input", "(1,4)(3,6);fp:2,5"
        )
        assert code == 2
        code, out, _ = run(
            capsys,
            "apply", "--map", "kappa-prime",
            "--input", "(1,4)(3,6);fp:2,5", "--pattern", "321",
        )
        assert code == 0

    def test_pattern_refused_for_other_maps(self, capsys):
        code, out, err = run(capsys, "apply", "--map", "chi", "--input", "2,1", "--pattern", "321")
        assert (code, out) == (2, "")
        assert err == "error: --pattern applies to kappa-prime only, not chi\n"

    def test_bad_input_exit_code(self, capsys):
        code, _, _ = run(capsys, "apply", "--map", "kappa", "--input", "garbage")
        assert code == 2


class TestCsvFormat:
    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "count", "--family", "matching", "--n", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert any(line == "total,15" for line in lines)


# malformed argv that must give a usage error, never a traceback or a
# silently ignored option
MALFORMED = [
    ("apply", "--map", "chi", "--input", "a,b"),
    ("apply", "--map", "chi", "--input", "1,,2"),
    ("apply", "--map", "chi", "--input="),
    ("count", "--family", "matching", "--n", "3", "--k", "1"),
    ("count", "--family", "matching-fp", "--n", "3", "--k", "-1"),
    ("count", "--family", "pair-nk", "--n", "2", "--k", "-1"),
    # n is negative though n + k is not
    ("count", "--family", "pair-nk", "--n", "-2", "--k", "3"),
    ("count", "--family", "matching-fp", "--n", "-1", "--k", "3"),
    ("count", "--family", "partition", "--n", "3", "--avoid", "123", "--stat", "valleys"),
    ("count", "--family", "partition", "--n", "3", "--avoid", "1234", "--by-shape"),
    ("count", "--family", "pair-nk", "--n", "2", "--k", "1", "--stat", "valleys"),
    ("count", "--family", "matching", "--n", "3", "--avoid", "1²3"),
    # an empty item in the pattern list, or an empty list
    ("count", "--family", "matching", "--n", "3", "--avoid", ",123"),
    ("count", "--family", "matching", "--n", "3", "--avoid", "123,,321"),
    ("count", "--family", "matching", "--n", "3", "--avoid", "1,,"),
    ("count", "--family", "matching", "--n", "3", "--avoid", ""),
    ("apply", "--map", "delta321-inv", "--input", "bottom:EESS;top:ESES"),
    # integer fields read only what to_text writes
    ("apply", "--map", "kappa", "--input", "(\u0661,\u0662)"),
    ("apply", "--map", "kappa-inv", "--input", "border:EESS;rooks:2,,1"),
    ("apply", "--map", "partition-to-matching", "--input", "{1,,2}"),
    ("apply", "--map", "kappa-prime", "--input", "(1,4)(3,6);fp:2,,5", "--pattern", "321"),
    # fp: opens the text or follows the arcs and exactly one ";"
    ("apply", "--map", "kappa", "--input", "(1,2)fp:3"),
    ("apply", "--map", "kappa-prime", "--input", "(1,2)fp:3", "--pattern", "321"),
    ("apply", "--map", "kappa-prime", "--input", "(1,2);;;fp:3", "--pattern", "321"),
    # a family without a pattern test
    ("count", "--family", "dyck", "--n", "3", "--avoid", "123"),
    # the same request past the family's cap is still a usage error
    ("count", "--family", "dyck", "--n", "13", "--avoid", "12"),
    ("verify", "--suite", "tables", "--max-n", "0"),
    ("verify", "--suite", "all", "--max-n", "-3"),
]


@pytest.mark.parametrize("argv", MALFORMED, ids="_".join)
def test_malformed_argv_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert any(line.startswith("error:") for line in err.splitlines())


# the --family, --formula, --suite and --map choices are read from their
# modules only when argparse first tests or lists them; what it prints must
# not change
MAP_NAMES = (
    "chi", "delta213", "delta213-inv", "delta321", "delta321-inv", "delta321-switch",
    "kappa", "kappa-inv", "kappa-prime", "partition-to-matching", "pi",
)
CHOICES = {
    "count": FAMILY_NAMES,
    "series": FORMULA_IDS,
    "cross-check": FORMULA_IDS,
    "verify": (*SUITES, "all"),
    "apply": MAP_NAMES,
}
BAD_CHOICE = [
    ("count", "--family", "x", "--n", "3"),
    ("series", "--formula", "x", "--order", "3"),
    ("cross-check", "--formula", "x", "--max-n", "3"),
    ("verify", "--suite", "x"),
    ("apply", "--map", "x", "--input", "1"),
]


@pytest.mark.parametrize("argv", BAD_CHOICE, ids="_".join)
def test_invalid_choice_lists_every_choice(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    listed = ", ".join(map(repr, CHOICES[argv[0]]))
    assert f"invalid choice: 'x' (choose from {listed})" in err


@pytest.mark.parametrize("command", CHOICES)
def test_help_lists_every_choice(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert "{" + ",".join(CHOICES[command]) + "}" in out


# requests past the cap of their route, which must raise rather than run on:
# enumeration, or the scan for sets of length-3 patterns
OVER_CAP = [
    ("cross-check", "--formula", "maps", "--max-n", "8"),
    ("cross-check", "--formula", "catalan_v", "--max-n", "13"),
    ("cross-check", "--formula", "catalan_v", "--max-n", "31"),  # past the order cap
    ("series", "--formula", "m312", "--order", "31"),
    ("count", "--family", "matching", "--n", "11", "--avoid", "132"),
    ("count", "--family", "matching", "--n", "9", "--avoid", "1234"),
    ("count", "--family", "partition", "--n", "12", "--avoid", "123"),
    ("count", "--family", "pair-nk", "--n", "8", "--k", "3"),  # the cap is on n + k
    ("count", "--family", "placement", "--n", "11", "--avoid", "123"),
]


@pytest.mark.parametrize("argv", OVER_CAP, ids="_".join)
def test_over_cap_is_resource_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert any(line.startswith("error:") for line in err.splitlines())


# sizes that are small, negative, or far past every cap; the cap check runs
# before any enumeration, so the huge ones return at once
SIZES = st.one_of(st.integers(0, 3), st.integers(-10**9, -1), st.integers(10**6, 10**12))
INPUTS = st.lists(
    st.sampled_from(["border:", "rooks:", "bottom:", "top:", "fp:", "E", "S", ";", ",",
                     "(", ")", "{", "}", *"0123456"]),
    max_size=16,
).map("".join)


@st.composite
def argvs(draw):
    def size():
        return str(draw(SIZES))

    argv = draw(st.sampled_from([[], ["--format", "csv"]]))
    command = draw(st.sampled_from(["count", "series", "cross-check", "verify", "apply"]))
    if command == "count":
        argv += ["count", "--family", draw(st.sampled_from(FAMILY_NAMES)), "--n", size()]
        if draw(st.booleans()):
            argv += ["--k", size()]
        if draw(st.booleans()):
            avoid = ["123", "213,321", "1342", "21", "x", "", "123,"]
            argv += ["--avoid", draw(st.sampled_from(avoid))]
        argv += draw(st.sampled_from([[], ["--by-shape"], ["--stat", "valleys"]]))
    elif command in ("series", "cross-check"):
        flag = "--order" if command == "series" else "--max-n"
        argv += [command, "--formula", draw(st.sampled_from(FORMULA_IDS)), flag, size()]
    elif command == "verify":
        argv += ["verify", "--suite", draw(st.sampled_from([*SUITES, "all"])), "--max-n", size()]
    else:
        argv += ["apply", "--map", draw(st.sampled_from(_map_names()))]
        argv += ["--input", draw(INPUTS)]
        if draw(st.booleans()):
            argv += ["--pattern", draw(st.sampled_from(["321", "213", "123", "x"]))]
    return argv


@given(argv=argvs())
@settings(max_examples=200, deadline=None)
def test_every_command_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
