"""Workload definitions for the matchboard benchmark: the ops each workload
runs, drawn from fixed pools by a seed, and the check each op's stdout must
pass.

An op is one fresh Python process.  ``argv`` is handed to ``child.py``:
either ``cli ...`` (the matchboard command line) or ``lib <name> ...`` (a
library round trip defined in ``child.py``).  Expected values come, in this
order of preference, from ``matchboard.reference`` (source ``reference``), a
closed form written here and not taken from the code under test
(``closed-form``), or the stdout of the seed commit, recorded once under
``golden/`` by ``record.py`` (``seed-stdout``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("count", "series", "verify")

# Published tables, copied from the paper (they also live in
# matchboard.reference; the bench keeps its own copy so that an edit there
# cannot silently move the oracle).
M7 = {"231": 35068, "123": 40898, "132": 41541}
P_N = {
    "231": {10: 94712, 11: 493834},
    "123": {10: 97566, 11: 520257},
    "132": {10: 97593, 11: 520694},
}
PAIR7 = {"I": 14589, "IV": 7813, "V": 16916, "VI": 18625, "VII": 12407}
M6 = {"231": 4318, "123": 4719}

SINGLETON_POOL = ("123", "132", "231")
# pattern-pair classes of the paper; class I has nine members, V-VII one each.
# Class IV ({123,321}) is counted by the --by-shape op, which checks its total.
PAIR_POOLS = {
    "I": (
        "123,213", "132,213", "132,231", "132,312", "213,231",
        "213,312", "231,312", "231,321", "312,321",
    ),
    "V": ("213,321",),
    "VI": ("123,132",),
    "VII": ("132,321",),
}
FORMULA_IDS = (
    "m312", "p312", "maps", "s1342", "s3124", "classI_m", "classI_p",
    "classII_III_m", "classII_III_p", "classIV_m", "classIV_p",
    "classIV_exact", "classV_m", "catalan_v", "dyck_rv", "gouyou_m123",
    "dnk_pairs",
)
FE_NAMES = ("K_Ll", "K_Llv", "K_lt2", "K_peak", "G_classV")
SERIES_ORDER = 30
# K_Llv at order 30 costs 12-18 s (solve plus residual), too long for the run
# budget; the p312 secondary route still solves it at order 30.
FE_ORDER = {"K_Llv": 25}
# CLI series ops drawn per pass, by stratum: the three ids whose primary route
# takes about 1 s at the seed commit, and the rest (0.1-0.3 s), so that the
# draw moves a pass's length by well under 1 s
CLI_SERIES_DRAWS = (
    (("dyck_rv", "classII_III_m", "classII_III_p"), 1),
    (tuple(f for f in FORMULA_IDS if f not in ("dyck_rv", "classII_III_m", "classII_III_p")), 2),
)
CROSS_CHECKS = (("maps", 6), ("s1342", 8), ("dnk_pairs", 8), ("classV_m", 7), ("p312", 10))
ROUND_TRIP_N = 6


@dataclass(frozen=True)
class Op:
    """One process to run, and how to judge its stdout."""

    name: str
    argv: tuple[str, ...]
    check: str  # key of CHECKS
    want: object  # argument of the check; hashable data only
    source: str  # reference | closed-form | seed-stdout

    @property
    def is_cli(self) -> bool:
        return self.argv[0] == "cli"


# ---------------------------------------------------------------------------
# closed forms (independent of the code under test)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def double_factorial_odd(n: int) -> int:
    """(2n-1)!!, the number of perfect matchings of [2n]."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def classIV_board_rule(border: str) -> int:
    """Per-board {123,321} count: 2^eta when the border stays below distance
    5 from the diagonal, else 0; eta counts vertices at distance exactly 2."""
    d, heights = 0, [0]
    for ch in border:
        d += 1 if ch == "E" else -1
        heights.append(d)
    return 2 ** heights.count(2) if max(heights) < 5 else 0


CLOSED_SERIES = {
    "maps": lambda n: 2 * 3**n * factorial(2 * n) // (factorial(n) * factorial(n + 2)),
    "catalan_v": catalan,
    "dyck_rv": catalan,
    "classIV_m": lambda n: 1 if n == 0 else (5 ** (n - 1) + 1) // 2,
    "classIV_exact": lambda n: 1 if n == 0 else (5 ** (n - 1) + 1) // 2,
    "gouyou_m123": lambda n: catalan(n) * catalan(n + 2) - catalan(n + 1) ** 2,
    "dnk_pairs": lambda n: catalan(n) * catalan(n + 2) - catalan(n + 1) ** 2,
}


# ---------------------------------------------------------------------------
# checks: each takes (stdout bytes, want) and returns an error or None


def _json(out: bytes):
    return json.loads(out.decode())


def check_total(out: bytes, want) -> str | None:
    total = int(_json(out)["total"])
    return None if total == want else f"total {total} != {want}"


def check_by_shape(out: bytes, want) -> str | None:
    doc = _json(out)
    boards = {row["border"]: int(row["count"]) for row in doc["by_shape"]}
    bad = [b for b, c in boards.items() if c != classIV_board_rule(b)]
    if bad:
        return f"{len(bad)} boards break the 2^eta/0 rule, first {bad[0]}"
    if sum(boards.values()) != want or int(doc["total"]) != want:
        return f"board sum {sum(boards.values())} / total {doc['total']} != {want}"
    return None


def check_series(out: bytes, want) -> str | None:
    formula, order = want
    doc = _json(out)
    got = [int(c) for c in doc.get("coefficients", doc.get("primary", []))]
    expect = [CLOSED_SERIES[formula](n) for n in range(order + 1)]
    if got != expect:
        return f"{formula} coefficients differ from the closed form"
    if doc.get("routes_agree", True) is not True:
        return f"{formula} primary and secondary routes disagree"
    return None


def check_exact(out: bytes, want) -> str | None:
    expect = json.dumps(dict(want), sort_keys=True).encode() + b"\n"
    return None if out == expect else f"stdout {out[:120]!r} != {expect!r}"


def check_golden(out: bytes, want) -> str | None:
    path = GOLDEN_DIR / f"{want}.out"
    if not path.is_file():
        return f"no recorded seed stdout {path.name}"
    return None if out == path.read_bytes() else f"stdout differs from golden/{path.name}"


CHECKS = {
    "total": check_total,
    "by_shape": check_by_shape,
    "series": check_series,
    "exact": check_exact,
    "golden": check_golden,
}


def judge(op: Op, out: bytes) -> str | None:
    """Error text when the op's stdout is wrong, else None."""
    try:
        return CHECKS[op.check](out, op.want)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable stdout: {exc!r}"


# ---------------------------------------------------------------------------
# op builders


def _golden(name: str, argv) -> Op:
    return Op(name, tuple(argv), "golden", name, "seed-stdout")


def _series_op(name: str, argv, formula: str) -> Op:
    if formula in CLOSED_SERIES:
        return Op(name, tuple(argv), "series", (formula, SERIES_ORDER), "closed-form")
    return _golden(name, argv)


def cli_series_op(formula: str) -> Op:
    return _series_op(
        f"cli-series.{formula}",
        ("cli", "series", "--formula", formula, "--order", str(SERIES_ORDER)),
        formula,
    )


def routes_op(formula: str) -> Op:
    return _series_op(
        f"routes.{formula}", ("lib", "routes", formula, str(SERIES_ORDER)), formula
    )


def fe_op(name: str) -> Op:
    return _golden(f"fe.{name}", ("lib", "fe", name, str(FE_ORDER.get(name, SERIES_ORDER))))


def count_ops(rng: random.Random) -> list[Op]:
    def count(name, extra, want, check="total", source="reference"):
        argv = ("cli", "count", "--family") + tuple(extra)
        return Op(name, argv, check, want, source)

    ops = [
        count(f"count.m7.{tau}", ("matching", "--n", "7", "--avoid", tau), M7[tau])
        for tau in ("231", "123", "132")
    ]
    for cls, pool in PAIR_POOLS.items():
        pair = rng.choice(pool)
        ops.append(
            count(f"count.m7.pair{cls}", ("matching", "--n", "7", "--avoid", pair), PAIR7[cls])
        )
    ops.append(
        count(
            "count.m7.by-shape",
            ("matching", "--n", "7", "--avoid", "123,321", "--by-shape"),
            PAIR7["IV"],
            check="by_shape",
            source="closed-form",
        )
    )
    ops.append(
        _golden(
            "count.m7.valleys-312",
            ("cli", "count", "--family", "matching", "--n", "7", "--avoid", "312", "--stat", "valleys"),
        )
    )
    for n in (10, 11):
        tau = rng.choice(SINGLETON_POOL)
        ops.append(
            count(f"count.p{n}", ("partition", "--n", str(n), "--avoid", tau), P_N[tau][n])
        )
    return ops


def series_ops(rng: random.Random) -> list[Op]:
    ops = [routes_op(f) for f in FORMULA_IDS]
    ops += [fe_op(name) for name in FE_NAMES]
    for pool, k in CLI_SERIES_DRAWS:
        ops += [cli_series_op(f) for f in rng.sample(pool, k)]
    return ops


def cross_check_op(formula: str, max_n: int) -> Op:
    return _golden(
        f"cross-check.{formula}.{max_n}",
        ("cli", "cross-check", "--formula", formula, "--max-n", str(max_n)),
    )


def verify_ops(rng: random.Random) -> list[Op]:
    n = ROUND_TRIP_N
    ops = [_golden("verify.all.7", ("cli", "verify", "--suite", "all", "--max-n", "7"))]
    ops += [cross_check_op(f, m) for f, m in CROSS_CHECKS]
    ops += [
        Op(f"rt.kappa.{n}", ("lib", "kappa", str(n)), "exact",
           (("matchings", double_factorial_odd(n)), ("mismatch", 0)), "closed-form"),
        Op(f"rt.delta321.{n}", ("lib", "delta321", str(n)), "exact",
           (("avoiders", M6["123"]), ("inverse_mismatch", 0), ("switch_mismatch", 0)),
           "reference"),
        Op(f"rt.delta213.{n}", ("lib", "delta213", str(n)), "exact",
           (("avoiders", M6["123"]), ("inverse_mismatch", 0)), "reference"),
        Op(f"rt.pi.{n}", ("lib", "pi", str(n)), "exact",
           (("avoiders", M6["231"]), ("distinct_images", M6["231"])), "reference"),
        _golden(f"rt.fixed-point.{n}", ("lib", "fixed-point", str(n))),
    ]
    return ops


_BUILDERS = {"count": count_ops, "series": series_ops, "verify": verify_ops}


def build_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one pass: pool draws and order both follow the seed."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    rng.shuffle(ops)
    return ops


def golden_ops() -> list[Op]:
    """Every op whose expected stdout is recorded from the seed commit, over
    the whole of each pool, so that any seed finds its golden file."""
    ops = [cli_series_op(f) for f in FORMULA_IDS] + [routes_op(f) for f in FORMULA_IDS]
    ops += [fe_op(name) for name in FE_NAMES]
    ops += count_ops(random.Random(0)) + verify_ops(random.Random(0))
    return [op for op in ops if op.check == "golden"]
