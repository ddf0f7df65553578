"""Truncated exact-rational power series and functional-equation solvers."""

import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchboard.errors import DivisibilityError, SeriesError
from matchboard.formulas import classII_III_cubic
from matchboard.series import (
    FE_NAMES,
    Series,
    _convolve,
    _pacc,
    _pshift,
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
        one, z = Series.constant(1, 6), Series.z(6)
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
        # a negative k would drop the low coefficients, not divide by z^-k
        with pytest.raises(SeriesError):
            Series.from_coeffs([1, 2, 3, 4]).shift(-2)

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

    @given(series, st.sampled_from("uv"), st.sampled_from([0, 1, Fraction(-3, 2)]))
    @settings(max_examples=100, deadline=None)
    def test_subs_equals_substitute_then_drop(self, a, name, value):
        try:
            want = _subs_then_drop(a, name, value)
        except SeriesError:
            with pytest.raises(SeriesError):
                a.subs(name, value)
            return
        got = a.subs(name, value)
        assert (got.variables, got.order) == (want.variables, want.order)
        assert got.dicts() == want.dicts()

    @given(series)
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, a):
        unit = 1 + a.shift(1).trunc(a.order)  # force constant term 1
        assert (unit * unit.inverse() - 1).is_zero()
        assert ((unit * unit).sqrt() - unit).is_zero()


def _subs_then_drop(s: Series, name: str, value) -> Series:
    """The two steps that ``subs`` replaced: substitute value for the
    variable and keep it at degree 0, then drop it from the variables."""
    axis = s._axis(name)
    out = []
    for poly in s.coeffs:
        d: dict = {}
        for k, c in poly.items():
            key = k[:axis] + (0,) + k[axis + 1:]
            d[key] = d.get(key, 0) + c * value ** k[axis]
        out.append(d)
    kept = Series(s.variables, s.order, out)
    dropped = []
    for n, poly in enumerate(kept.coeffs):
        d = {}
        for k, c in poly.items():
            if k[axis] != 0:
                raise SeriesError(f"z^{n} coefficient still depends on {name}")
            d[k[:axis] + k[axis + 1:]] = c
        dropped.append(d)
    variables = s.variables[:axis] + s.variables[axis + 1:]
    return Series(variables, s.order, dropped)


class TestAlgebraicSolve:
    def test_catalan_equation(self):
        # F = z + F^2 with F(0) = 0
        z = Series.z(8)
        one = Series.constant(1, 8)
        f = algebraic_solve([z, -one, one], 0)
        assert tuple(f)[:5] == (0, 1, 1, 2, 5)
        assert poly_eval([z, -one, one], f).is_zero()

    def test_seed_must_be_root(self):
        z = Series.z(5)
        with pytest.raises(SeriesError):
            algebraic_solve([z, Series.constant(-1, 5), Series.constant(1, 5)], 2)

    def test_simple_root_required(self):
        # (F - 1)^2 = z has a double root at the seed
        one = Series.constant(1, 5)
        z = Series.z(5)
        polys = [one - z, -2 * one, one]
        with pytest.raises(SeriesError):
            algebraic_solve(polys, 1)

    def test_order_above_inputs_refused(self):
        # coefficients known through z^5 say nothing of z^6 on; read as
        # zeros they gave 7014, 42619, 264812 at z^6..z^8 for 7000, 42535,
        # 264356
        with pytest.raises(SeriesError):
            algebraic_solve(classII_III_cubic(5, 1), 1, 10)
        assert tuple(algebraic_solve(classII_III_cubic(10, 1), 1, 10))[6:9] == (
            7000, 42535, 264356,
        )

    def test_valley_marked_cubic_at_v1(self):
        # at v = 1 the valley-marked cubic collapses to a quadratic in S
        one = Series.constant(1, 10)
        z = Series.z(10)
        polys = [-z, one - 6 * z, -9 * z, Series((), 10)]
        s = algebraic_solve(polys, 0)
        assert s[0] == 0 and s[1] == 1
        assert poly_eval(polys, s).is_zero()


def _sqrt_by_own_loop(s: Series) -> Series:
    """The square-root loop that the shared Newton loop replaced, kept as
    its oracle."""
    y = Series.constant(1, 0, s.variables)
    prec = 0
    while prec < s.order:
        prec = min(2 * prec + 1, s.order)
        padded = Series(y.variables, prec, y.coeffs)
        y = (padded + s.trunc(prec) / padded) * Fraction(1, 2)
    return y


def _algebraic_solve_at_full_order(polys, seed, order: int) -> Series:
    """The full-order Newton loop that the shared Newton loop replaced,
    kept as its oracle."""
    seed = Fraction(seed)
    if sum(p[0] * seed**i for i, p in enumerate(polys)) != 0:
        raise SeriesError(f"seed {seed} is not a root at z = 0")
    if sum(i * p[0] * seed ** (i - 1) for i, p in enumerate(polys) if i) == 0:
        raise SeriesError(f"seed {seed} is not a simple root at z = 0")
    dpolys = [p * i for i, p in enumerate(polys) if i]
    f = Series.constant(seed, order)
    for _ in range(order + 2):
        val = poly_eval(polys, f)
        if val.is_zero():
            return f
        f = (f - val / poly_eval(dpolys, f)).trunc(order)
    if poly_eval(polys, f).is_zero():
        return f
    raise SeriesError("Newton iteration did not converge")


def _p312_root_cubic(order: int) -> list[Series]:
    """The cubic 4z^2 R^3 + (3z^2 - 4z) R^2 + (3z^2 - 6z + 1) R - z^2 that
    the p312 closed form solves from seed 0."""
    return [
        Series.from_coeffs(cs, order)
        for cs in ([0, 0, -1], [1, -6, 3], [0, -4, 3], [0, 0, 4])
    ]


class TestNewton:
    unit = TestAlgebraProperties.series.map(
        lambda a: 1 + a.shift(1).trunc(a.order)
    )

    @given(unit)
    @settings(max_examples=80, deadline=None)
    def test_sqrt_equals_own_loop(self, s):
        got, want = s.sqrt(), _sqrt_by_own_loop(s)
        assert (got.variables, got.order) == (want.variables, want.order)
        assert got.dicts() == want.dicts()

    @given(st.lists(TestAlgebraProperties.plain, min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_solve_equals_full_order_loop(self, ps):
        # seed 0 is a simple root when p_0(0) = 0 and p_1(0) = 1
        ps[0] = ps[0].shift(1).trunc(10)
        ps[1] = 1 + ps[1].shift(1).trunc(10)
        got = algebraic_solve(ps, 0)
        assert got.dicts() == _algebraic_solve_at_full_order(ps, 0, 10).dicts()

    def test_cubics_equal_full_order_loop(self):
        for order in range(31):
            for polys, seed in (
                (classII_III_cubic(order, 1), 1),
                (_p312_root_cubic(order), 0),
            ):
                got = algebraic_solve(polys, seed, order)
                want = _algebraic_solve_at_full_order(polys, seed, order)
                assert got.order == want.order == order
                assert got.dicts() == want.dicts()


class TestNarayana:
    def test_specializes_to_catalan(self):
        c = narayana_series(10).subs("v", 1)
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
        # so does any operand whose variables the other's contain
        tu = Series.var("u", ("t", "u"), N)
        for got in (t * tu, tu * t, t + tu, tu - t):
            assert got.variables == ("t", "u")
        assert ((t * tu).subs("t", 1) - Series.var("u", ("u",), N)).is_zero()
        # and one over the same variables in another order
        vu, uv = Series.var("v", ("v", "u"), N), Series.var("u", ("u", "v"), N)
        assert (vu * uv).variables == ("v", "u")
        assert (vu * uv).coefficient(0, (1, 1)) == 1
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

    def test_residual_catches_each_moved_coefficient(self):
        # moving one coefficient of a solution by 1 leaves the equation
        # unsolved: at up to three support keys and one key past the degree
        # caps of each z^n
        for name in FE_NAMES:
            sol = fe_iterate(name, 12)
            for n, poly in enumerate(sol.coeffs):
                keys = sorted(poly)
                off = (n + 1,) * len(sol.variables)
                for key in {keys[0], keys[len(keys) // 2], keys[-1], off}:
                    moved = sol.dicts()
                    moved[n][key] = moved[n].get(key, 0) + 1
                    try:
                        res = residual(name, Series(sol.variables, sol.order, moved))
                    except SeriesError:
                        continue
                    assert not res.is_zero(), (name, n, key)

    def test_unknown_name(self):
        with pytest.raises(SeriesError):
            fe_iterate("K_bogus", 5)
        with pytest.raises(SeriesError):
            fe_iterate("K_Ll", -1)

    def test_G_classV_equals_own_loop(self):
        got = fe_iterate("G_classV", 40)
        want = _G_classV_by_own_loop(40)
        assert (got.variables, got.order) == (want.variables, want.order)
        assert got.dicts() == want.dicts()

    def test_K0_column(self):
        K = fe_iterate("K_Ll", 5).subs("u", 0)
        assert tuple(K) == (1, 2, 9, 54, 378, 2916)


def _G_classV_by_own_loop(order: int) -> Series:
    """The class V equation's own per-order loop, which the shared solver
    replaced, kept as its oracle."""
    G = [{(0, 0): 1}]
    for n in range(1, order + 1):
        p = G[n - 1]
        pt0 = {k: c for k, c in p.items() if k[1] == 0}
        gn: dict = {}
        _pacc(gn, _pshift(p, 0))
        for (dt, du), c in p.items():
            if du > 0:
                if dt == 0:
                    raise DivisibilityError(
                        "term with positive u-degree and zero t-degree"
                    )
                _pacc(gn, {(dt - 1, du - 1): c})
        for (dt, _), c in pt0.items():
            if dt > 0:
                _pacc(gn, {(dt - 1, 0): c})
        for (i, _), c in pt0.items():
            if i > 0:
                for m in range(1, i + 1):
                    _pacc(gn, {(i + 1, m): c})
        G.append(gn)
    return Series(("t", "u"), order, G)


class TestSubstitution:
    def test_constant_gives_geometric(self):
        out = partition_transform(Series.constant(1, 7), 8)
        assert tuple(out) == (1,) * 9
        assert tuple(partition_transform(Series.constant(1, 0), 0)) == (1,)

    def test_known_partition_series(self):
        # transform of the valley-marked column series gives the
        # 312-avoiding partition numbers
        from matchboard.formulas import coefficients

        assert coefficients("p312", 8) == (1, 1, 2, 5, 15, 52, 202, 858, 3909)

    def test_valley_bound_checked(self):
        a = Series(("v",), 1, [{(0,): 1}, {(1,): 1}])
        with pytest.raises(SeriesError):
            substitution_sum(a, 3)
        # v^k at z^0 would give z^(-k)
        with pytest.raises(SeriesError):
            partition_transform(Series.var("v", ("v",), 5), 5)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_binomial_sums_equal_series_products(self, data):
        order = data.draw(st.integers(0, 15))
        extra = data.draw(st.sampled_from([-1, 0, 1, 2]))
        a_order = data.draw(st.integers(max(0, order - 1), order + 2))
        value = st.integers(-50, 50) | st.fractions(
            min_value=-5, max_value=5, max_denominator=12
        )
        # valley-bounded: v^k at z^n has k <= n - 1, and k = 0 at z^0
        polys = [
            data.draw(
                st.dictionaries(st.tuples(st.integers(0, max(n - 1, 0))), value, max_size=3)
            )
            for n in range(a_order + 1)
        ]
        a = Series(("v",), a_order, polys)
        got = substitution_sum(a, order, extra)
        want = _substitution_sum_by_products(a, order, extra)
        assert (got.variables, got.order) == (want.variables, want.order)
        assert got.dicts() == want.dicts()

    def test_order_guard(self):
        with pytest.raises(SeriesError):
            substitution_sum(Series.constant(1, 2), 9)


def _substitution_sum_by_products(a, order: int, extra_denominator: int = 1) -> Series:
    """The transform by series products and shifts that the binomial sums
    replaced, kept as their oracle."""
    a = a.widen(("v",))
    if a.order < max(0, order - 1):
        raise SeriesError(
            f"input order {a.order} too small for output order {order}"
        )
    geom = (1 - Series.z(order)).inverse()
    geom2 = geom * geom
    power = geom**extra_denominator
    result = Series((), order)
    for n, poly in enumerate(a.coeffs):
        for (k,), c in poly.items():
            if n >= 1 and k >= n:
                raise SeriesError(
                    f"valley bound violated: v^{k} at z^{n}"
                )
            if 2 * n - k <= order:
                result = result + (power * c).shift(2 * n - k).trunc(order)
        power = (power * geom2).trunc(order)
        if 2 * (n + 1) - n > order:
            break
    return result
