"""Acceptance gate: nine top-level criteria, each reported on one line.

Every comparison is exact integer equality; there are no tolerances.
"""

import time

from matchboard import checks, families, formulas
from matchboard.bijections import LabeledPathClass, delta321, pi_labeling
from matchboard.families import (
    CLASS_PAIRS,
    boards,
    count,
    count_fixed_point_class,
    e2_pairs,
    pair_count_ending_south,
    placements_on_board,
    shape_wilf_check,
)
from matchboard.formulas import coefficients, cross_check, secondary_coefficients
from matchboard.model import statistics
from matchboard.patterns import Pattern, placement_avoids
from matchboard.reference import TABLE_MATCHINGS, TABLE_PAIR_CLASSES, TABLE_PARTITIONS
from matchboard.series import FE_NAMES, Series, fe_iterate, residual


def _report(num: int, ok: bool, budget_s: float | None, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.1f}s)" if budget_s else ""
    print(f"criterion {num}: {verdict}{timing}")
    assert ok, f"criterion {num} failed"
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s"


def _verify(suite: str, max_n: int) -> dict[str, dict]:
    """The checks the verify command makes for a suite, by name."""
    return {c["name"]: c for c in checks.run(suite, max_n)}


def test_criterion_1_matching_table():
    start = time.monotonic()
    ok = True
    caps = families.Caps(matching=10)
    for tau, row in TABLE_MATCHINGS.items():
        for n in range(1, 11):
            ok &= count("matching", n, avoid=(tau,), caps=caps).total == row[n - 1]
    ok &= count("matching", 7, avoid=("123",)).total == 40898
    ok &= count("matching", 7, avoid=("132",)).total == 41541
    _report(1, ok, 120.0, time.monotonic() - start)


def test_criterion_2_partition_table():
    start = time.monotonic()
    ok = True
    for tau, row in TABLE_PARTITIONS.items():
        for n in range(0, 12):
            ok &= count("partition", n, avoid=(tau,)).total == row[n]
    ok &= count("partition", 10, avoid=("231",)).total == 94712
    ok &= count("partition", 10, avoid=("132",)).total == 97593
    _report(2, ok, 300.0, time.monotonic() - start)


def test_criterion_3_pair_class_table():
    start = time.monotonic()
    found = _verify("tables", 7)
    ok = all(c["pass"] for c in found.values())
    ok &= {f"pair-class-{cls}" for cls in TABLE_PAIR_CLASSES} <= found.keys()
    # verify counts the first pair of each class; every other pair of the
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
    for fid in matching_ids:
        report = cross_check(fid, 7)
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
    lhs = (1 - k0.shift(1).trunc(N)).inverse()
    s = Series.from_coeffs([1, -12], N + 1)
    den = Series.from_coeffs([1, 36], N + 1) - s * s.sqrt()
    rhs = (54 * den.unshift(1).inverse()).trunc(N)
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


def test_criterion_7_bijection_suites():
    start = time.monotonic()
    # verify checks the kappa round trip, delta321 against the switch
    # description, both delta inverses and images for n <= 4, and the
    # fixed-point classes for n, k <= 4 with n + k <= 5
    found = _verify("bijections", 4)
    ok = all(c["pass"] for c in found.values())
    ok &= {
        "kappa-roundtrip",
        "delta321-equals-switch",
        "delta-inverses",
        "delta-images-cover-pairs",
        "fixed-point-classes",
    } <= found.keys()
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
                if lp.path == board.border
            }
            ok &= imgL == wantL
    # doubly restricted images: {123,321} placements and the forced pairs
    for n in range(1, 6):
        for board in boards(n):
            ps = [
                p
                for p in placements_on_board(board)
                if placement_avoids(p, (Pattern((1, 2, 3)), p321))
            ]
            images = {delta321(p).to_text() for p in ps}
            ok &= images == {pr.to_text() for pr in e2_pairs(board)}
            st = statistics(board.border)
            want = 2**st.eta if st.height < 5 else 0
            ok &= len(ps) == want
    # the fixed-point classes with n + k = 5 that verify leaves out
    for tau in ("321", "213"):
        for n, k in ((5, 0), (0, 5)):
            ok &= count_fixed_point_class(n, k, tau) == pair_count_ending_south(n, k)
    _report(7, ok, 180.0, time.monotonic() - start)


def test_criterion_8_shape_wilf():
    start = time.monotonic()
    # verify checks the equivalences for n <= 4, and that classes II and
    # III differ on a board of size 5 while their totals agree for n <= 5
    found = _verify("shape-wilf", 5)
    ok = all(c["pass"] for c in found.values())
    separated = found.get("II-vs-III-separated-per-board")
    ok &= separated is not None and sorted(separated["counts"]) == [14, 15]
    first = CLASS_PAIRS["I"][0]
    equivalent = [("123", "321"), ("123", "213"), ("231", "312")] + [
        (tuple(sorted(first)), tuple(sorted(other))) for other in CLASS_PAIRS["I"][1:]
    ]
    for a, b in equivalent:
        ok &= shape_wilf_check(a, b, 5).equivalent
    for a, b in (("123", "231"), ("123", "132"), ("132", "231")):
        ok &= not shape_wilf_check(a, b, 5).equivalent
    _report(8, ok, None, time.monotonic() - start)


def test_criterion_9_exact_coefficient_substitutes():
    # growth-rate asymptotics are out of scope; exact coefficient facts
    # stand in for them
    start = time.monotonic()
    ok = True
    two_routes = [fid for fid, f in formulas.FORMULAS.items() if f.secondary is not None]
    # classV_m is covered by criteria 4 and 5 instead
    ok &= set(formulas.FORMULA_IDS) - set(two_routes) == {"classV_m"}
    for fid in two_routes:
        ok &= coefficients(fid, 20) == secondary_coefficients(fid, 20)
    seq = coefficients("classIV_exact", 25)
    ok &= all(5 * seq[n] - seq[n + 1] in (2, 4) for n in range(1, 24))
    _report(9, ok, None, time.monotonic() - start)
