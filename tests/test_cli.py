"""Command-line interface behavior: output shape and exit codes."""

import json

import pytest

from matchboard.cli import main


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
        assert code == 2


class TestCrossCheck:
    def test_pass(self, capsys):
        code, out, _ = run(
            capsys, "cross-check", "--formula", "classV_m", "--max-n", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert all(r["equal"] is True for r in payload["results"])


class TestVerify:
    def test_tables_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tables", "--max-n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert not any("published_to" in c for c in payload["checks"])

    def test_tables_reach_the_published_length(self, capsys):
        # the matching rows run to n=10, past the default matching cap of 8;
        # the pair-class rows end at 7 and say so
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
    ("count", "--family", "partition", "--n", "3", "--avoid", "123", "--stat", "valleys"),
    ("count", "--family", "partition", "--n", "3", "--avoid", "1234", "--by-shape"),
    ("count", "--family", "pair-nk", "--n", "2", "--k", "1", "--stat", "valleys"),
    ("count", "--family", "matching", "--n", "3", "--avoid", "1²3"),
    ("apply", "--map", "delta321-inv", "--input", "bottom:EESS;top:ESES"),
    # integer fields read only what to_text writes
    ("apply", "--map", "kappa", "--input", "(\u0661,\u0662)"),
    ("apply", "--map", "kappa-inv", "--input", "border:EESS;rooks:2,,1"),
    ("apply", "--map", "partition-to-matching", "--input", "{1,,2}"),
    ("apply", "--map", "kappa-prime", "--input", "(1,4)(3,6);fp:2,,5", "--pattern", "321"),
    # a family without a pattern test
    ("count", "--family", "dyck", "--n", "3", "--avoid", "123"),
    ("verify", "--suite", "tables", "--max-n", "0"),
    ("verify", "--suite", "all", "--max-n", "-3"),
]


@pytest.mark.parametrize("argv", MALFORMED, ids="_".join)
def test_malformed_argv_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert any(line.startswith("error:") for line in err.splitlines())


# requests past an enumeration cap, which must raise rather than run on
OVER_CAP = [
    ("cross-check", "--formula", "maps", "--max-n", "8"),
    ("cross-check", "--formula", "catalan_v", "--max-n", "13"),
    ("count", "--family", "matching", "--n", "9", "--avoid", "132"),
    ("count", "--family", "partition", "--n", "12", "--avoid", "123"),
    ("count", "--family", "pair-nk", "--n", "8", "--k", "3"),  # the cap is on n + k
    ("count", "--family", "placement", "--n", "9", "--avoid", "123"),
]


@pytest.mark.parametrize("argv", OVER_CAP, ids="_".join)
def test_over_cap_is_resource_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert any(line.startswith("error:") for line in err.splitlines())
