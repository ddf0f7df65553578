"""Generating-function routes, closed forms, and oracle cross-checks."""

import os
import sys
from functools import cache
from itertools import combinations
from math import comb
from types import CodeType

import pytest

# imported before any trace, so that no trace holds their import-time code
from matchboard import bijections, families, formulas, series  # noqa: F401
from matchboard.errors import ResourceCapError, SeriesError
from matchboard.formulas import (
    FORMULA_IDS,
    FORMULAS,
    ORDER_CAP,
    classII_III_cubic,
    coefficients,
    cross_check,
    oracle_value,
    returns_valleys_series,
)
from matchboard.reference import TABLE_MATCHINGS, TABLE_PAIR_CLASSES, TABLE_PARTITIONS
from matchboard.series import Series, algebraic_solve, catalan_series, poly_eval


def p312_cubic(order: int) -> list[Series]:
    """The cubic (ascending in B) satisfied by the 312-avoiding partition
    series."""
    p3 = (
        Series.from_coeffs([-1, 1], order)
        * Series.from_coeffs([1, -2, 5], order) ** 2
    )
    return [
        Series.from_coeffs([1, -4, 23, -9], order),
        Series.from_coeffs([-3, 13, -64, 60, -9], order),
        Series.from_coeffs([3, -14, 59, -85, 54, -9], order),
        p3,
    ]


class TestPrimaryRoutes:
    def test_known_prefixes(self):
        assert coefficients("m312", 8) == (1, 1, 3, 14, 83, 570, 4318, 35068, 299907)
        assert coefficients("p312", 8) == (1, 1, 2, 5, 15, 52, 202, 858, 3909)
        assert coefficients("maps", 8) == (1, 2, 9, 54, 378, 2916, 24057, 208494, 1876446)
        assert coefficients("s1342", 8) == (1, 1, 2, 6, 23, 103, 512, 2740, 15485)
        assert coefficients("s3124", 8) == coefficients("s1342", 8)
        assert coefficients("classI_m", 8) == (1, 1, 3, 13, 67, 381, 2307, 14589, 95235)
        assert coefficients("classI_p", 8) == (1, 1, 2, 5, 15, 52, 201, 841, 3726)
        assert coefficients("classII_III_m", 8) == (1, 1, 3, 13, 66, 364, 2112, 12688, 78208)
        assert coefficients("classII_III_p", 8) == (1, 1, 2, 5, 15, 52, 201, 841, 3725)
        assert coefficients("classIV_m", 8) == (1, 1, 3, 13, 63, 313, 1563, 7813, 39063)
        assert coefficients("classIV_p", 8) == (1, 1, 2, 5, 15, 52, 201, 841, 3722)
        assert coefficients("classV_m", 8) == (1, 1, 3, 13, 68, 399, 2528, 16916, 117893)
        assert coefficients("catalan_v", 7) == (1, 1, 2, 5, 14, 42, 132, 429)
        assert coefficients("gouyou_m123", 7) == (1, 1, 3, 14, 84, 594, 4719, 40898)
        assert coefficients("dnk_pairs", 7) == coefficients("gouyou_m123", 7)

    def test_classIV_exact_form(self):
        seq = coefficients("classIV_exact", 10)
        assert seq[0] == 1
        for n in range(1, 11):
            assert seq[n] == (5 ** (n - 1) + 1) // 2

    def test_reference_tables(self):
        assert coefficients("m312", 10)[1:] == TABLE_MATCHINGS["231"]
        assert coefficients("gouyou_m123", 10)[1:] == TABLE_MATCHINGS["123"]
        assert coefficients("p312", 11) == TABLE_PARTITIONS["231"]
        assert coefficients("classI_m", 7)[1:] == TABLE_PAIR_CLASSES["I"]
        assert coefficients("classII_III_m", 7)[1:] == TABLE_PAIR_CLASSES["II_III"]
        assert coefficients("classIV_m", 7)[1:] == TABLE_PAIR_CLASSES["IV"]
        assert coefficients("classV_m", 7)[1:] == TABLE_PAIR_CLASSES["V"]

    def test_order_cap(self):
        with pytest.raises(ResourceCapError):
            coefficients("m312", ORDER_CAP + 1)
        with pytest.raises(SeriesError):
            coefficients("m312", -1)


def one_id_per_route_tuple() -> dict:
    """Each distinct route tuple, with one id that lists it."""
    return {f.routes: fid for fid, f in FORMULAS.items()}


# What the routes and the oracles share, read off a call trace.  Tracing
# keys on code objects, not names: two routes of classII_III_m are lambdas
# with one name, and Python 3.10 has no co_qualname.

PACKAGE = os.path.dirname(formulas.__file__)


def _codes(*objs) -> frozenset:
    """The code objects of functions and of the methods of classes, with
    every code object nested in them (lambdas, comprehensions)."""
    codes, todo = set(), []
    for obj in objs:
        for f in vars(obj).values() if isinstance(obj, type) else (obj,):
            f = getattr(f, "__func__", getattr(f, "__wrapped__", f))
            todo += [f.__code__] if hasattr(f, "__code__") else []
    while todo:
        code = todo.pop()
        codes.add(code)
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return frozenset(codes)


def _trace(call, arg) -> frozenset:
    """The matchboard code objects that call(arg) enters.  The profiler in
    place before, if any, is put back."""
    seen = set()

    def profile(frame, event, _):
        if event == "call":
            seen.add(frame.f_code)

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        call(arg)
    finally:
        if saved is None or callable(saved):
            sys.setprofile(saved)
        else:  # cProfile's profiler is not callable, but re-enables itself
            saved.enable()
    return frozenset(c for c in seen if os.path.dirname(c.co_filename) == PACKAGE)


def _names(codes) -> list[str]:
    return sorted(f"{c.co_name}:{c.co_firstlineno}" for c in codes)


# the series arithmetic that any two routes may share: the packed product,
# the Newton loop and every Series method but the square root
KERNEL = _codes(
    series._norm, series._pacc, series._pack, series._unpack, series._aligned,
    series._strides, series._Operand, series._grid, series._convolve,
    series._pshift, series._pdown, series._pscale, series._newton, Series,
) - _codes(Series.sqrt)

# Table 1: one row per route tuple, named by its first id, with what two of
# its routes share beyond the kernel, exactly; an unlisted pair shares
# nothing more
SHARED = {
    "m312": {},
    # two different cubics, each solved and checked by algebraic_solve
    "p312": {(0, 1): (series.algebraic_solve, series.poly_eval)},
    "maps": {},
    "s1342": {(0, 2): (Series.sqrt,), (1, 2): (formulas._sequence,)},
    "classI_m": {},
    "classI_p": {},
    "classII_III_m": {},
    "classII_III_p": {(0, 1): (series.substitution_sum,)},
    "classIV_m": {},
    "classIV_p": {},
    "classV_m": {},
    "catalan_v": {},
    "gouyou_m123": {},
}

# Table 2: what no route of the listed ids calls
BARRED = (
    # no route reads another id
    (FORMULA_IDS, (formulas.coefficients, formulas.secondary_coefficients,
                   formulas._route)),
    # both p312 routes solve cubics, with no functional equation
    (("p312",), (series.fe_iterate,)),
)


@cache
def _route_traces() -> dict:
    """The trace of every route of each distinct route tuple, at order 12."""
    return {rs: [_trace(r, 12) for r in rs] for rs in one_id_per_route_tuple()}


def _check_row(fid: str) -> None:
    """Every two routes of fid's tuple share the kernel and exactly the
    allowance of its Table 1 row."""
    allowances = SHARED[fid]
    routes = _route_traces()[FORMULAS[fid].routes]
    assert all(routes), fid
    pairs = list(combinations(range(len(routes)), 2))
    assert set(allowances) <= set(pairs), fid
    for i, j in pairs:
        shared = (routes[i] & routes[j]) - KERNEL
        allowed = _codes(*allowances.get((i, j), ()))
        assert shared == allowed, (fid, i, j, _names(shared ^ allowed))


def _check_barred(fids, barred) -> None:
    """No route of the ids fids calls any of barred (a Table 2 row)."""
    barred = _codes(*barred)
    for fid in fids:
        for i, trace in enumerate(_route_traces()[FORMULAS[fid].routes]):
            assert not trace & barred, (fid, i, _names(trace & barred))


class TestSecondaryRoutes:
    def test_agreement_at_order_cap(self):
        # every route equals route 0, so every two routes agree
        for routes, fid in one_id_per_route_tuple().items():
            for i in range(1, len(routes)):
                assert formulas._route(fid, i, ORDER_CAP) == coefficients(
                    fid, ORDER_CAP
                ), (fid, i)

    def test_equal_sequences_share_one_route_tuple(self):
        # the 17 ids name 13 sequences, and the ids of one sequence list
        # one tuple object
        groups: dict = {}
        for fid, f in FORMULAS.items():
            groups.setdefault(coefficients(fid, ORDER_CAP), set()).add(id(f.routes))
        assert len(groups) == 13
        assert all(len(tuples) == 1 for tuples in groups.values()), groups

    def test_p312_routes_agree_past_the_cap(self):
        # the route functions themselves, since _route enforces ORDER_CAP
        closed, kernel = FORMULAS["p312"].routes[:2]
        assert tuple(kernel(60)) == tuple(closed(60))

    def test_no_id_lists_a_route_twice(self):
        # a route compared with itself would pass vacuously
        for fid, f in FORMULAS.items():
            assert len(set(f.routes)) == len(f.routes), fid

    def test_only_classV_lacks_a_second_route(self):
        single = {fid for fid, f in FORMULAS.items() if len(f.routes) < 2}
        assert single == {"classV_m"}

    # the refusal tests these names come from each pinned one or two rows of
    # the tables, now checked from the trace; the last test checks them all
    # and the oracles
    def test_1342_routes_share_no_code(self):
        _check_row("s1342")

    def test_classII_III_m_routes_share_no_code(self):
        _check_row("classII_III_m")

    def test_classII_III_p_routes_share_no_code(self):
        _check_row("classII_III_p")

    def test_p312_routes_share_no_code(self):
        _check_row("p312")
        _check_barred(*BARRED[1])

    def test_no_route_reads_another_id(self):
        _check_barred(*BARRED[0])

    def test_catalan_second_routes_skip_narayana(self):
        _check_row("catalan_v")

    def test_routes_and_oracles_share_only_what_the_tables_name(self):
        traces = _route_traces()
        # every route tuple has its row, so a new one must say what it shares
        rows = [FORMULAS[fid].routes for fid in SHARED]
        assert len(set(rows)) == len(rows) and set(rows) == set(traces)
        for fid in SHARED:
            _check_row(fid)
        for fids, barred in BARRED:
            _check_barred(fids, barred)
        for fid, f in FORMULAS.items():
            oracle = _trace(f.oracle, 5)
            shared = oracle & frozenset().union(*traces[f.routes])
            assert oracle and not shared, (fid, _names(shared))


class TestClosedFormIdentities:
    def test_maps_closed_form(self):
        # 1/(1 - zK(0,z)) equals 54z / (1 + 36z - (1-12z)^(3/2))
        N = 25
        k0 = Series.from_coeffs(coefficients("maps", N), N)
        lhs = (1 - k0.shift(1)).inverse()
        s = Series.from_coeffs([1, -12], N + 1)
        den = Series.from_coeffs([1, 36], N + 1) - s * s.sqrt()
        rhs = 54 * den.unshift(1).inverse()
        assert tuple(lhs) == tuple(rhs)

    def test_classI_binomial(self):
        # the binomial sum at n equals the series coefficient at z^(n+1)
        seq = coefficients("classI_m", 12)
        for n in range(0, 11):
            want = sum(
                comb(2 * n + 2, n - k) * comb(n + k, k) for k in range(n + 1)
            ) // (n + 1)
            assert seq[n + 1] == want

    def test_classI_sqrt_form(self):
        # 4 / (3 + sqrt(1-8z)) equals 1 / (1 - zC(2z))
        N = 20
        lhs = Series.from_coeffs(coefficients("classI_m", N), N)
        c2z = catalan_series(N).scale_z(2)
        rhs = (1 - c2z.shift(1)).inverse()
        assert tuple(lhs) == tuple(rhs)

    def test_p312_cubic_residual(self):
        # the partition series satisfies the degenerate cubic even though it
        # cannot be solved directly from the seed
        N = 15
        b = Series.from_coeffs(coefficients("p312", N), N)
        assert poly_eval(p312_cubic(N), b).is_zero()

    def test_triple_root_cubic_rejected(self):
        # the cubic for the 312-avoiding partition series degenerates to
        # -(B-1)^3 at z = 0, so direct solving from seed 1 must refuse
        for order in range(31):
            with pytest.raises(SeriesError):
                algebraic_solve(p312_cubic(order), 1)

    def test_classII_III_cubic_residual(self):
        # the cubic root is the column series; 1/(1 - zH) gives the counts
        N = 15
        h = algebraic_solve(classII_III_cubic(N, 1), 1)
        assert poly_eval(classII_III_cubic(N, 1), h).is_zero()
        full = (1 - h.shift(1)).inverse()
        assert tuple(full) == coefficients("classII_III_m", N)


class TestStatisticsSeries:
    def test_returns_valleys_specialization(self):
        rv = returns_valleys_series(10)
        cat = rv.subs("v", 1).subs("t", 1)
        assert tuple(cat) == tuple(catalan_series(10))

    def test_returns_valleys_against_paths(self):
        from matchboard.families import dyck_paths
        from matchboard.model import statistics

        rv = returns_valleys_series(6)
        for n in range(0, 7):
            hist = {}
            for d in dyck_paths(n):
                st = statistics(d)
                key = (st.returns, st.valleys)
                hist[key] = hist.get(key, 0) + 1
            for (r, v), cnt in hist.items():
                assert rv.coefficient(n, (r, v)) == cnt


class TestOracles:
    def test_cross_check_all(self):
        for fid in FORMULA_IDS:
            if fid in ("s1342", "s3124"):
                n_max = 6
            elif fid.endswith("_p") or fid == "p312":
                n_max = 7
            else:
                n_max = 5
            report = cross_check(fid, n_max)
            assert all(r["equal"] for r in report["results"]), fid

    def test_maps_oracle_counts_start_label_zero(self):
        from matchboard.bijections import LabeledPathClass
        from matchboard.families import labeled_paths
        from matchboard.formulas import _maps_oracle

        for n in range(6):
            kept = [lp for lp in labeled_paths(n, LabeledPathClass.K) if lp.labels[0] == 0]
            assert _maps_oracle(n) == len(kept), n

    def test_oracle_unknown(self):
        with pytest.raises(SeriesError):
            oracle_value("nope", 3)

    def test_minimal_placements(self):
        # full placements on minimal boards match pattern-restricted
        # permutation counts
        from matchboard.bijections import chi
        from matchboard.families import permutations
        from matchboard.patterns import Pattern, placement_avoids

        for n in range(1, 7):
            c312 = sum(
                1
                for p in permutations(n)
                if placement_avoids(chi(p), Pattern((3, 1, 2)))
            )
            c132 = sum(
                1
                for p in permutations(n)
                if placement_avoids(chi(p), Pattern((1, 3, 2)))
            )
            s3124 = oracle_value("s3124", n)
            s1324 = sum(
                1
                for p in permutations(n)
                if not _contains(p, (1, 3, 2, 4))
            )
            assert c312 == s3124
            assert c132 == s1324


def _contains(p, t):
    from matchboard.patterns import perm_contains

    return perm_contains(p, t)
