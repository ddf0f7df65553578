"""Acceptance gate: nine top-level criteria, each reported on one line,
and the invariants of the claims table in ``checks``.

Every comparison is exact integer equality; there are no tolerances.  The
criteria read the table's rows from one ``run`` at their full ranges.  What
is not a row is checked here only, since as a row it would add a check name
or work to ``verify``, whose output stays as it is: criteria 4, 5, 6 and 9,
the other pairs of each class in 3, the pi-labelling and E2 loops of 7, and
the inequivalences of 8.
"""

import time
from itertools import groupby

import pytest

from matchboard import checks, families, formulas
from matchboard.bijections import LabeledPathClass, delta321, pi_labeling
from matchboard.families import CLASS_PAIRS, boards, count, e2_pairs, placements_on_board
from matchboard.formulas import coefficients, cross_check
from matchboard.model import statistics
from matchboard.patterns import Pattern, placement_avoids
from matchboard.reference import TABLE_PAIR_CLASSES
from matchboard.series import FE_NAMES, Series, fe_iterate, residual


def _report(num: int, ok: bool, budget_s: float | None, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.1f}s)" if budget_s else ""
    print(f"criterion {num}: {verdict}{timing}")
    assert ok, f"criterion {num} failed"
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s"


@pytest.fixture(scope="module")
def claims():
    """The results of one ``run`` that takes every claim of the table to its
    last size, and the seconds it took; a criterion that reads them counts
    those seconds against its budget."""
    start = time.monotonic()
    results = checks.run("all", max(c.last for c in checks.CLAIMS))
    return results, time.monotonic() - start


def _passed(results, keep) -> bool:
    """Some result is kept, and every kept one passed."""
    kept = [c for c in results if keep(c)]
    return bool(kept) and all(c["pass"] for c in kept)


def test_claims_table(claims):
    results, _ = claims
    names = [c.name for c in checks.CLAIMS]
    assert all(c.first <= c.last for c in checks.CLAIMS)
    assert len(set(names)) == len(names)
    # each suite's rows are adjacent, so "all" runs them suite by suite
    assert [suite for suite, _ in groupby(c.suite for c in checks.CLAIMS)] == list(checks.SUITES)
    assert [c["name"] for c in results] == names
    assert all(c["pass"] for c in results)


def test_criterion_1_matching_table(claims):
    results, run_s = claims
    start = time.monotonic() - run_s
    ok = _passed(results, lambda c: c["name"].startswith("matchings-"))
    spot = [c["got"][6] for c in results if c["name"] in ("matchings-123", "matchings-132")]
    ok &= spot == [40898, 41541]
    _report(1, ok, 120.0, time.monotonic() - start)


def test_criterion_2_partition_table(claims):
    results, run_s = claims
    start = time.monotonic() - run_s
    ok = _passed(results, lambda c: c["name"].startswith("partitions-"))
    spot = [c["got"][10] for c in results if c["name"] in ("partitions-231", "partitions-132")]
    ok &= spot == [94712, 97593]
    _report(2, ok, 300.0, time.monotonic() - start)


def test_criterion_3_pair_class_table(claims):
    results, run_s = claims
    start = time.monotonic() - run_s
    ok = _passed(results, lambda c: c["name"].startswith("pair-class-"))
    # the table counts the first pair of each class; every other pair of the
    # class must give the same row
    for cls, row in TABLE_PAIR_CLASSES.items():
        pairs = [pair for name in cls.split("_") for pair in CLASS_PAIRS[name]]
        for pair in pairs[1:]:
            for n in range(1, 8):
                ok &= count("matching", n, avoid=tuple(sorted(pair))).total == row[n - 1]
    ok &= count("matching", 7, avoid=("123", "213")).total == 14589
    ok &= count("matching", 7, avoid=("213", "321")).total == 16916
    ok &= count("matching", 7, avoid=("123", "132")).total == 18625
    ok &= count("matching", 7, avoid=("132", "321")).total == 12407
    _report(3, ok, 300.0, time.monotonic() - start)


def test_criterion_4_formula_oracle_agreement():
    start = time.monotonic()
    ok = True
    matching_ids = ("m312", "classI_m", "classII_III_m", "classIV_m", "classV_m")
    partition_ids = ("p312", "classI_p", "classII_III_p", "classIV_p")
    # past the enumeration cap of 8 the oracle is the scan, which shares no
    # code with the formula routes
    for fid in matching_ids:
        report = cross_check(fid, 10)
        ok &= all(r["equal"] for r in report["results"])
    for fid in partition_ids:
        report = cross_check(fid, 10)
        ok &= all(r["equal"] for r in report["results"])
    _report(4, ok, 600.0, time.monotonic() - start)


def test_criterion_5_series_identities():
    start = time.monotonic()
    ok = True
    N = 25
    # 1/(1 - zK(0,z)) equals 54z / (1 + 36z - (1-12z)^(3/2))
    k0 = Series.from_coeffs(coefficients("maps", N), N)
    lhs = (1 - k0.shift(1)).inverse()
    s = Series.from_coeffs([1, -12], N + 1)
    den = Series.from_coeffs([1, 36], N + 1) - s * s.sqrt()
    rhs = 54 * den.unshift(1).inverse()
    ok &= tuple(lhs) == tuple(rhs)
    # closed product formula for the column series
    from math import factorial

    ok &= coefficients("maps", N) == tuple(
        2 * 3**n * factorial(2 * n) // (factorial(n) * factorial(n + 2))
        for n in range(N + 1)
    )
    # rational form for the {123,321} counts
    seq = coefficients("classIV_exact", N)
    ok &= seq[0] == 1
    ok &= all(seq[n] == (5 ** (n - 1) + 1) // 2 for n in range(1, N + 1))
    # every functional equation solves exactly through z^25
    for name in FE_NAMES:
        ok &= residual(name, fe_iterate(name, N)).is_zero()
    _report(5, ok, None, time.monotonic() - start)


def test_criterion_6_permutation_checks():
    start = time.monotonic()
    ok = True
    for n in range(0, 7):
        brute = families.count("permutation", n, avoid=("1342",)).total
        ok &= coefficients("s1342", 6)[n] == brute
    from matchboard.bijections import chi

    for n in range(1, 7):
        c312 = c132 = 0
        for p in families.permutations(n):
            q = chi(p)
            if placement_avoids(q, (Pattern((3, 1, 2)),)):
                c312 += 1
            if placement_avoids(q, (Pattern((1, 3, 2)),)):
                c132 += 1
        ok &= c312 == families.count("permutation", n, avoid=("3124",)).total
        ok &= c132 == families.count("permutation", n, avoid=("1324",)).total
    _report(6, ok, None, time.monotonic() - start)


def test_criterion_7_bijection_suites(claims):
    results, run_s = claims
    start = time.monotonic() - run_s
    ok = _passed(results, lambda c: c["suite"] == "bijections")
    # pi labels the 312-avoiding placements of a board onto its L-paths
    p321, p312 = Pattern((3, 2, 1)), Pattern((3, 1, 2))
    for n in range(1, 5):
        for board in boards(n):
            imgL = {
                pi_labeling(p).to_text()
                for p in placements_on_board(board)
                if placement_avoids(p, (p312,))
            }
            wantL = {
                lp.to_text()
                for lp in families.labeled_paths(n, LabeledPathClass.L)
                if lp.path == board
            }
            ok &= imgL == wantL
    # doubly restricted images: {123,321} placements and the forced pairs;
    # the placements, enumerated rather than scanned, obey the class IV rule
    (row,) = [c for c in checks.CLAIMS if c.name == "classIV-board-formula"]
    rule = row.check.keywords["rule"]
    for n in range(1, 6):
        for board in boards(n):
            ps = [
                p
                for p in placements_on_board(board)
                if placement_avoids(p, (Pattern((1, 2, 3)), p321))
            ]
            images = {delta321(p).to_text() for p in ps}
            ok &= images == {pr.to_text() for pr in e2_pairs(board)}
            ok &= len(ps) == rule(statistics(board), n)
    _report(7, ok, 180.0, time.monotonic() - start)


def test_criterion_8_shape_wilf(claims):
    results, run_s = claims
    start = time.monotonic() - run_s
    ok = _passed(results, lambda c: c["suite"] == "shape-wilf")
    separated = next(c for c in results if c["name"] == "II-vs-III-separated-per-board")
    ok &= sorted(separated["counts"]) == [14, 15]
    # singletons that are not even Wilf-equivalent differ on some board
    for a, b in (("123", "231"), ("123", "132"), ("132", "231")):
        ok &= checks.board_difference((a,), (b,), 5) is not None
    _report(8, ok, None, time.monotonic() - start)


def test_criterion_9_exact_coefficient_substitutes():
    # growth-rate asymptotics are out of scope; exact coefficient facts
    # stand in for them
    start = time.monotonic()
    ok = True
    ok &= all(len(f.routes) >= 2 for f in formulas.FORMULAS.values())
    for fid, f in formulas.FORMULAS.items():
        ok &= len(set(f.routes)) == len(f.routes)
    # ids that name one sequence list one route tuple: compare each once
    for routes, fid in {f.routes: fid for fid, f in formulas.FORMULAS.items()}.items():
        for i in range(1, len(routes)):
            ok &= formulas._route(fid, i, 20) == coefficients(fid, 20)
    seq = coefficients("classIV_exact", 25)
    ok &= all(5 * seq[n] - seq[n + 1] in (2, 4) for n in range(1, 24))
    _report(9, ok, None, time.monotonic() - start)
