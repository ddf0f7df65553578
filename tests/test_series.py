"""Truncated exact-rational power series and functional-equation solvers."""

import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchboard.errors import DivisibilityError, SeriesError
from matchboard.series import (
    FE_NAMES,
    Series,
    _convolve,
    algebraic_solve,
    catalan_series,
    fe_iterate,
    narayana_series,
    partition_transform,
    poly_eval,
    residual,
    substitution_sum,
)


class TestArithmetic:
    def test_mul(self):
        one, z = Series.one(6), Series.z(6)
        assert tuple((one + z) * (one - z)) == (1, 0, -1, 0, 0, 0, 0)

    def test_geometric(self):
        inv = (1 - Series.z(5)).inverse()
        assert tuple(inv) == (1, 1, 1, 1, 1, 1)
        assert tuple(inv * (1 - Series.z(5))) == (1, 0, 0, 0, 0, 0)

    def test_inverse_needs_unit(self):
        with pytest.raises(SeriesError):
            Series.z(4).inverse()

    def test_sqrt(self):
        s = (1 - Series.z(3) * 8).sqrt()
        assert tuple(s) == (1, -4, -8, -32)

    def test_sqrt_needs_one(self):
        with pytest.raises(SeriesError):
            (Series.constant(4, 3)).sqrt()

    def test_shift_unshift(self):
        z = Series.z(5)
        assert tuple(z.shift(2)) == (0, 0, 0, 1, 0, 0, 0, 0)
        assert tuple(z.shift(2).unshift(3)) == (1, 0, 0, 0, 0)
        with pytest.raises(DivisibilityError):
            (1 + z).unshift(1)

    def test_fractions_kept_exact(self):
        s = Series.from_coeffs((1, Fraction(1, 3)))
        assert tuple(s * 3) == (3, 1)

    def test_sqrt_round_trip_random(self):
        rng = random.Random(12)
        for _ in range(100):
            num = [1] + [rng.randint(-5, 5) for _ in range(3)]
            den = [1] + [rng.randint(-5, 5) for _ in range(3)]
            s = Series.from_coeffs(num, 12) * Series.from_coeffs(den, 12).inverse()
            assert (s.sqrt() ** 2 - s).is_zero()


def _pmul_oracle(a: dict, b: dict) -> dict:
    """The dict double loop that the packed product replaced."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(map(add, ka, kb))
            v = out.get(k, 0) + ca * cb
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


def _convolve_oracle(xs, ys, lo, hi):
    out = []
    for m in range(lo, hi + 1):
        acc: dict = {}
        for i, x in enumerate(xs):
            if 0 <= m - i < len(ys):
                for k, c in _pmul_oracle(x, ys[m - i]).items():
                    acc[k] = acc.get(k, 0) + c
        out.append({k: c for k, c in acc.items() if c})
    return out


def _polys(nvars: int):
    """Polynomials in nvars variables: small, huge (past 2^128), negative
    and rational coefficients, and the empty polynomial."""
    value = (
        st.integers(-3, 3)
        | st.integers(-(2**140), 2**140)
        | st.fractions(min_value=-5, max_value=5, max_denominator=12)
    ).filter(bool)
    key = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(key, value, max_size=6)


def _assert_normalized(poly: dict) -> None:
    # a cancelled key is absent, and an integral value is an int
    for c in poly.values():
        assert c != 0
        assert type(c) is int or c.denominator != 1


class TestPackedProduct:
    @given(st.integers(0, 3).flatmap(lambda v: st.tuples(_polys(v), _polys(v))))
    @settings(max_examples=150, deadline=None)
    def test_product_matches_double_loop(self, ab):
        a, b = ab
        (got,) = _convolve([a], [b], 0, 0)
        assert got == _pmul_oracle(a, b)
        _assert_normalized(got)

    @given(
        st.integers(0, 3).flatmap(
            lambda v: st.tuples(
                st.lists(_polys(v), max_size=4), st.lists(_polys(v), max_size=4)
            )
        ),
        st.integers(0, 4),
        st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_convolution_matches_double_loop(self, xy, lo, span):
        xs, ys = xy
        got = _convolve(xs, ys, lo, lo + span)
        assert got == _convolve_oracle(xs, ys, lo, lo + span)
        for poly in got:
            _assert_normalized(poly)

    def test_slot_holds_a_sum_of_many_products(self):
        # the middle slot sums eight products of 2^126: three bits more than
        # one product needs
        a = {(i,): 2**63 for i in range(8)}
        b = {(i,): -(2**63) for i in range(8)}
        (got,) = _convolve([a], [b], 0, 0)
        assert got == _pmul_oracle(a, b)
        assert got[(7,)] == -(2**129)

    def test_cancellation_leaves_no_key(self):
        # (1 + u)(1 - u) = 1 - u^2, and a*b - a*b summed in one band is 0
        one_plus = {(0,): 1, (1,): 1}
        one_minus = {(0,): 1, (1,): -1}
        assert _convolve([one_plus], [one_minus], 0, 0) == [{(0,): 1, (2,): -1}]
        a = {(0, 1): Fraction(1, 3), (2, 0): -(2**130)}
        b = {(1, 1): 7, (0, 0): Fraction(-5, 2)}
        neg_b = {k: -c for k, c in b.items()}
        assert _convolve([a, a], [b, neg_b], 1, 1) == [{}]
        # 2/3 times 3/2 is the int 1
        (unit,) = _convolve([{(): Fraction(2, 3)}], [{(): Fraction(3, 2)}], 0, 0)
        assert unit == {(): 1} and type(unit[()]) is int


class TestAlgebraProperties:
    coeff = st.integers(min_value=-9, max_value=9)
    plain = st.lists(coeff, min_size=1, max_size=8).map(
        lambda cs: Series.from_coeffs(cs, 10)
    )
    # polynomial coefficients in u and v of degree at most 2 in each
    poly = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), coeff, max_size=3
    )
    over_uv = st.lists(poly, min_size=1, max_size=5).map(
        lambda ds: Series(("u", "v"), 6, ds)
    )
    series = plain | over_uv

    @given(series, series, series)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert ((a * b) * c - a * (b * c)).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()
        assert (a * b - b * a).is_zero()

    @given(series)
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, a):
        unit = 1 + a.shift(1).trunc(a.order)  # force constant term 1
        assert (unit * unit.inverse() - 1).is_zero()
        assert ((unit * unit).sqrt() - unit).is_zero()


class TestAlgebraicSolve:
    def test_catalan_equation(self):
        # F = z + F^2 with F(0) = 0
        z = Series.z(8)
        f = algebraic_solve([z, Series.constant(-1, 8), Series.one(8)], 0)
        assert tuple(f)[:5] == (0, 1, 1, 2, 5)
        assert poly_eval([z, -Series.one(8), Series.one(8)], f).is_zero()

    def test_seed_must_be_root(self):
        z = Series.z(5)
        with pytest.raises(SeriesError):
            algebraic_solve([z, Series.constant(-1, 5), Series.one(5)], 2)

    def test_simple_root_required(self):
        # (F - 1)^2 = z has a double root at the seed
        one = Series.one(5)
        z = Series.z(5)
        polys = [one - z, -2 * one, one]
        with pytest.raises(SeriesError):
            algebraic_solve(polys, 1)

    def test_valley_marked_cubic_at_v1(self):
        # at v = 1 the valley-marked cubic collapses to a quadratic in S
        one = Series.one(10)
        z = Series.z(10)
        polys = [-z, one - 6 * z, -9 * z, Series.zero(10)]
        s = algebraic_solve(polys, 0)
        assert s[0] == 0 and s[1] == 1
        assert poly_eval(polys, s).is_zero()


class TestNarayana:
    def test_specializes_to_catalan(self):
        c = narayana_series(10).subs("v", 1).drop_variable("v")
        assert tuple(c) == tuple(catalan_series(10))
        assert tuple(c)[:7] == (1, 1, 2, 5, 14, 42, 132)

    def test_quadratic(self):
        # v z C^2 + (z - v z - 1) C + 1 = 0
        N = 10
        C = narayana_series(N)
        v = Series.var("v", ("v",), N)
        z = Series.constant(1, N, ("v",)).shift(1)
        res = v * z * C * C + (z - v * z - 1) * C + 1
        assert res.is_zero()

    def test_valley_coefficients(self):
        C = narayana_series(6)
        # z^4: 1 + 6v + 6v^2 + v^3
        assert C.coefficient(4, (0,)) == 1
        assert C.coefficient(4, (1,)) == 6
        assert C.coefficient(4, (2,)) == 6
        assert C.coefficient(4, (3,)) == 1


class TestAuxSeries:
    def test_divide_by_one_minus(self):
        N = 6
        u = Series.var("u", ("u",), N)
        one = Series.constant(1, N, ("u",))
        assert (one - u).divide_by_one_minus("u").is_zero() is False
        assert ((one - u).divide_by_one_minus("u") - one).is_zero()
        assert ((one - u * u).divide_by_one_minus("u") - (one + u)).is_zero()

    def test_subs_prod(self):
        N = 5
        t = Series.var("t", ("t", "u"), N)
        u = Series.var("u", ("t", "u"), N)
        assert (t.subs_prod("t", "u") - t * u).is_zero()

    def test_widen(self):
        N = 4
        t = Series.var("t", ("t",), N)
        assert (t.widen(("u", "t")) - Series.var("t", ("u", "t"), N)).is_zero()
        # a plain operand takes the variables of the other
        assert (Series.z(N) * t).variables == ("t",)
        with pytest.raises(SeriesError):
            t + Series.var("u", ("u",), N)
        with pytest.raises(SeriesError):
            t.widen(("u",))

    def test_divide_by_var(self):
        N = 5
        u = Series.var("u", ("u",), N)
        assert ((u * u).divide_by_var("u") - u).is_zero()
        with pytest.raises(SeriesError):
            (1 + u).divide_by_var("u")


class TestFunctionalEquations:
    def test_all_residuals_vanish(self):
        for name in FE_NAMES:
            sol = fe_iterate(name, 12)
            assert residual(name, sol).is_zero(), name

    def test_unknown_name(self):
        with pytest.raises(SeriesError):
            fe_iterate("K_bogus", 5)
        with pytest.raises(SeriesError):
            fe_iterate("K_Ll", -1)

    def test_K0_column(self):
        K = fe_iterate("K_Ll", 5).subs_zero("u").drop_variable("u")
        assert tuple(K) == (1, 2, 9, 54, 378, 2916)


class TestSubstitution:
    def test_constant_gives_geometric(self):
        out = partition_transform(Series.one(0).extend(7), 8)
        assert tuple(out) == (1,) * 9

    def test_known_partition_series(self):
        # transform of the valley-marked column series gives the
        # 312-avoiding partition numbers
        from matchboard.formulas import coefficients

        assert coefficients("p312", 8) == (1, 1, 2, 5, 15, 52, 202, 858, 3909)

    def test_valley_bound_checked(self):
        a = Series(("v",), 1, [{(0,): 1}, {(1,): 1}])
        with pytest.raises(SeriesError):
            substitution_sum(a, 3)

    def test_order_guard(self):
        with pytest.raises(SeriesError):
            substitution_sum(Series.one(2), 9)
