"""Named coefficient-sequence producers, one per counting sequence.

``FORMULAS`` maps each formula id to a tuple of routes, every two of which
must agree, and a brute-force oracle from the families module.  The 17 ids
name 13 sequences: ids that name one sequence list one route tuple, the same
object, rather than read each other, and each keeps its own oracle.
``coefficients`` reads route 0 and ``secondary_coefficients`` route 1
(route 0 for ``classV_m``, its only route).  ``cross_check`` compares
formula output against the oracle for every n up to the cap that
``families`` sets on the oracle's route: the scan's for the matching and
partition ids, the family's enumeration cap for the rest.  Only the oracles
and the pair walk import ``families``, so a series route loads no
enumeration code.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, factorial
from operator import index

from .errors import MatchboardError, ResourceCapError, SeriesError
from .series import (
    Series,
    algebraic_solve,
    catalan_series,
    fe_iterate,
    narayana_series,
    partition_transform,
    substitution_sum,
)

__all__ = [
    "FORMULAS",
    "FORMULA_IDS",
    "Formula",
    "ORDER_CAP",
    "coefficients",
    "secondary_coefficients",
    "cross_check",
    "oracle_value",
    "valley_marked_m312",
    "m312_kernel_cubic",
    "valley_marked_classI",
    "valley_marked_classII_III",
    "valley_marked_classIV",
    "classII_III_cubic",
    "returns_valleys_series",
]

ORDER_CAP = 30


def _check_order(n: int) -> int:
    """n as an int; a non-integer, negative n or n past ORDER_CAP is refused."""
    try:
        n = index(n)
    except TypeError:
        raise SeriesError(f"order {n!r} is not an integer") from None
    if n < 0:
        raise SeriesError("order must be nonnegative")
    if n > ORDER_CAP:
        raise ResourceCapError(f"order {n} exceeds the cap {ORDER_CAP}")
    return n


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _sequence(s: Series) -> Series:
    """1 / (1 - z s): sequences of blocks counted by s."""
    return (1 - s.shift(1)).inverse()


# ---------------------------------------------------------------------------
# closed forms and derived series


def _m312_closed(order: int) -> Series:
    # 54z / (1 + 36z - (1-12z)^(3/2))
    s = Series.from_coeffs([1, -12], order + 1)
    den = Series.from_coeffs([1, 36], order + 1) - s * s.sqrt()
    return den.unshift(1).inverse() * 54


def _at_u0(name: str, order: int) -> Series:
    """K(u=0) of a functional equation, as a series without u."""
    return fe_iterate(name, order).subs("u", 0)


def _returns(x: Series) -> Series:
    """1 + x / (1 - vx): paths cut at their returns into blocks counted by
    x, with v marking the valley between two blocks."""
    return 1 + x * (1 - x.times_var("v")).inverse()


def m312_kernel_cubic(order: int) -> list[Series]:
    """Coefficients (ascending in K0, over ("v",)) of the cubic satisfied by
    the valley-marked kernel K0 = K_Llv(0; v, z), whose root is K0(0) = 1.

    Derived by Brown's quadratic method from the functional equation
    K = 1 + z(vK - v + 1)(2K + uK + (K - K0)/u): times u it is a quadratic
    in K, and its discriminant in K has a double root in u, so the
    discriminant in u of that discriminant vanishes.  It factors as
    -256 v^2 z^4 (vzK0 - 1)^2 times this cubic, and vzK0 - 1 is -1 at
    z = 0.  Row i lists the z^0, z^1, ... coefficients of the K0^i
    coefficient, each as its v^0, v^1, ... coefficients:
    c0 = -1 + 8z(1+v) - 16z^2(1-v)^2,
    c1 = 1 - 2z(5+4v) + 8z^2(1-v)(4-v) - 32z^3(1-v)^3,
    c2 = z^2(8v^2+20v-1) + 8z^3(1-v)^2(1-4v) - 16z^4(1-v)^4,
    c3 = -16vz^4(1-v)^3.
    """
    rows = (
        ((-1,), (8, 8), (-16, 32, -16)),
        ((1,), (-10, -8), (32, -40, 8), (-32, 96, -96, 32)),
        ((), (), (-1, 20, 8), (8, -48, 72, -32), (-16, 64, -96, 64, -16)),
        ((), (), (), (), (0, -16, 48, -48, 16)),
    )
    return [
        Series(("v",), order, [{(k,): c for k, c in enumerate(p)} for p in row])
        for row in rows
    ]


def valley_marked_m312(order: int) -> Series:
    """L(v,z) = 1 + zK0 / (1 - vzK0): 312-avoiding matchings by size (z)
    and valleys (v), with K0 the root of ``m312_kernel_cubic``."""
    return _returns(algebraic_solve(m312_kernel_cubic(order), 1).shift(1))


def _p312_closed(order: int) -> Series:
    # R is the simple-root branch of 4z^2 R^3 + (3z^2-4z) R^2
    # + (3z^2-6z+1) R - z^2; the partition series is a rational
    # expression in R
    R = algebraic_solve(
        [
            Series.from_coeffs([0, 0, -1], order),
            Series.from_coeffs([1, -6, 3], order),
            Series.from_coeffs([0, -4, 3], order),
            Series.from_coeffs([0, 0, 4], order),
        ],
        0,
    )
    c2 = Series.from_coeffs([12, -104, 28, 48], order).shift(3)
    c1 = Series.from_coeffs([-12, 81, 50, -179, 48], order).shift(2)
    c0 = Series.from_coeffs([3, -19, 73, -168, 270, -211, 48], order)
    den = (
        Series.from_coeffs([1, -1], order)
        * Series.from_coeffs([3, -7], order)
        * Series.from_coeffs([1, -2, 5], order) ** 2
    )
    return (c2 * R * R + c1 * R + c0) / den


def _classI_m_closed(order: int) -> Series:
    s = Series.from_coeffs([1, -8], order).sqrt()
    return (s + 3).inverse() * 4


def valley_marked_classI(order: int) -> Series:
    """A1(v,z) = 1 + zC(v,2z) / (1 - vzC(v,2z))."""
    return _returns(narayana_series(order).scale_z(2).shift(1))


def _classI_p_closed(order: int) -> Series:
    s = Series.from_coeffs([1, -6, 1], order).sqrt()
    num = Series.from_coeffs([2, -3, 1], order) - s.shift(1)
    den = Series.from_coeffs([1, -3, 3], order) * 2
    return num / den


def valley_marked_classII_III(order: int) -> Series:
    """A2(v,z): {123,231}-avoiding matchings by size and valleys."""
    return _returns(_at_u0("K_lt2", order).shift(1))


def _narayana_root(v: Series) -> Series:
    """The Narayana series C(v, z) to v's order: the root of
    vzC^2 + ((1-v)z - 1)C + 1 = 0 from C(0) = 1."""
    return algebraic_solve([Series.constant(1, v.order), (1 - v).shift(1) - 1, v.shift(1)], 1)


def classII_III_cubic(order: int, v) -> list[Series]:
    """Coefficients (ascending in H) of the cubic satisfied by the
    valley-marked height-below-2 kernel H = K_lt2(0; v, z).  v is a
    rational value, or ``Series.var("v", ("v",), order)`` to keep v free.

    Derived by the kernel method from the functional equation: with
    W = 1-v+vH and D = 1-z+vz(1-C-H), setting u = zW/D kills the kernel
    and leaves 0 = D + z(1-v)C*D + z^2*W^2*C - H*D^2.  C is the Narayana
    series (``_narayana_root``).
    """
    v = Series((), order) + v  # a series, also when v is given as a value
    u = 1 - v
    C = _narayana_root(v)
    zC = C.shift(1)
    a = 1 - (u + v * C).shift(1)
    d0 = a + (u * (C * a + u * zC)).shift(1)
    d1 = (u * v * zC - v).shift(1) - a * a
    d2 = (v * (v * zC + 2 * a)).shift(1)
    d3 = -(v * v).shift(2)
    return [d0, d1, d2, d3]


def _classII_III_p_closed(order: int) -> Series:
    # 1 + z(1-z) / ((1-z)^2 - z*Hsub), with Hsub the diagonal substitution
    # of the valley-marked kernel H, the root of its cubic with v free
    H = algebraic_solve(classII_III_cubic(order, Series.var("v", ("v",), order)), 1)
    Hsub = substitution_sum(H, order, extra_denominator=0)
    den = Series.from_coeffs([1, -2, 1], order) - Hsub.shift(1)
    return 1 + Series.from_coeffs([0, 1, -1], order) / den


def valley_marked_classIV(order: int) -> Series:
    """Q at u = 2: boards of height below 5 weighted 2^eta, by size and
    valleys, via four nested return decompositions: each block is z times
    the next level's paths, weighted 2, 2 and 1 from the bottom up."""
    x = Series.z(order).widen(("v",))
    for weight in (2, 2, 1):
        x = _returns(x).shift(1) * weight
    return _returns(x)


def _classV_series(order: int) -> Series:
    g = fe_iterate("G_classV", 2 * order).subs("t", 0).subs("u", 0)
    for m in range(1, 2 * order + 1, 2):
        if g[m] != 0:
            raise SeriesError(f"odd coefficient z^{m} of G(0,0,z) is nonzero")
    return Series.from_coeffs([g[2 * n] for n in range(order + 1)], order)


def _s1342_closed(order: int) -> Series:
    s = Series.from_coeffs([1, -8], order + 1)
    den = Series.from_coeffs([1, 20, -8], order + 1) - s * s.sqrt()
    return den.unshift(1).inverse() * 32


def _kx0_closed(order: int) -> Series:
    s = Series.from_coeffs([1, -8], order + 2)
    num = Series.from_coeffs([-1, 12, 8], order + 2) + s * s.sqrt()
    return num.unshift(2) / 32


def _s3124_series(order: int) -> Series:
    return _sequence(_at_u0("K_peak", order))


def returns_valleys_series(order: int) -> Series:
    """Border paths counted by returns (t) and valleys (v):
    1 + tzC(v,z) / (1 - tvzC(v,z))."""
    zC = _narayana_root(Series.var("v", ("v",), order)).shift(1)
    return _returns(zC.widen(("t", "v")).times_var("t"))


# ---------------------------------------------------------------------------
# the id table


def _ints(seq) -> tuple[int, ...]:
    """The coefficients of a series, or a sequence, as a tuple of ints."""
    coeffs = tuple(seq)
    for c in coeffs:
        if isinstance(c, Fraction):
            raise SeriesError(f"non-integer coefficient {c}")
    return coeffs


def _maps_product(order: int) -> tuple[int, ...]:
    return tuple(
        2 * 3**n * factorial(2 * n) // (factorial(n) * factorial(n + 2))
        for n in range(order + 1)
    )


def _classIV_p_closed(order: int) -> Series:
    den = Series.from_coeffs([1, -1], order) * Series.from_coeffs(
        [1, -10, 31, -30, 1], order
    )
    return Series.from_coeffs([1, -10, 32, -37, 12], order) / den


def _classIV_closed(order: int) -> tuple[int, ...]:
    return (1,) + tuple((5 ** (n - 1) + 1) // 2 for n in range(1, order + 1))


def _catalan_closed(order: int) -> Series:
    # (1 - sqrt(1 - 4z)) / 2z
    s = Series.from_coeffs([1, -4], order + 1).sqrt()
    return (1 - s).unshift(1) / 2


def _gouyou_determinant(order: int) -> tuple[int, ...]:
    return tuple(
        _catalan(n) * _catalan(n + 2) - _catalan(n + 1) ** 2
        for n in range(order + 1)
    )


def _counted(family: str, *avoid: str):
    """Oracle: brute-force count of the family avoiding the patterns."""

    def oracle(n: int) -> int:
        from . import families

        return families.count(family, n, avoid=avoid).total

    return oracle


def _maps_oracle(n: int) -> int:
    from . import families
    from .bijections import LabeledPathClass

    families.check_cap("labeled-K", n)
    return sum(
        1
        for path in families.dyck_paths(n)
        for _ in families._labelings(path, LabeledPathClass.K, (0,))
    )


def _dnk_pairs_walk(order: int) -> tuple[int, ...]:
    from . import families

    # the walk's origin after 2n steps counts the pairs of semilength n
    return tuple(
        states.get((0, 0), 0)
        for states in islice(families._pair_walk(2 * order), 0, None, 2)
    )


def _partitions(valley_marked):
    """Route: the partition transform of a valley-marked matching series."""
    return lambda order: partition_transform(valley_marked(order), order)


def _classIV_rational(order: int) -> Series:
    return Series.from_coeffs([1, -5, 2], order) / Series.from_coeffs([1, -6, 5], order)


def _classIV_valleys(order: int) -> Series:
    return valley_marked_classIV(order).subs("v", 1)


def _catalan_returns_valleys(order: int) -> Series:
    return returns_valleys_series(order).subs("t", 1).subs("v", 1)


class Formula(namedtuple("Formula", "routes oracle")):
    """The routes to one sequence.  Each of ``routes`` maps an order to
    c_0..c_order, as a series or a sequence, and every two of them agree;
    ``oracle(n)`` gives c_n by brute force.  Route 0 is the one
    ``coefficients`` reads."""

    __slots__ = ()


# the route tuples of the sequences that two ids name; each id keeps its own
# oracle.  Routes share the series kernel, and tests/test_formulas.py names
# all else they share.  1342 pairs Bona's closed form with the kernel route
# of the 3124 labeled paths, 123 Gouyou-Beauchamps's determinant with the
# pair walk, and route 2 of _CATALAN solves the Narayana quadratic that
# route 0 iterates as a functional equation.
_S1342 = (
    _s1342_closed,
    _s3124_series,
    lambda order: _sequence(_kx0_closed(order)),
)
_CLASS_IV = (_classIV_closed, _classIV_rational, _classIV_valleys)
_CATALAN = (catalan_series, _catalan_closed, _catalan_returns_valleys)
_GOUYOU = (_gouyou_determinant, _dnk_pairs_walk)

FORMULAS: dict[str, Formula] = {
    "m312": Formula(
        (_m312_closed, lambda order: _sequence(_at_u0("K_Ll", order))),
        _counted("matching", "312"),
    ),
    "p312": Formula(
        (_p312_closed, _partitions(valley_marked_m312)), _counted("partition", "312")
    ),
    "maps": Formula((_maps_product, lambda order: _at_u0("K_Ll", order)), _maps_oracle),
    "s1342": Formula(_S1342, _counted("permutation", "1342")),
    "s3124": Formula(_S1342, _counted("permutation", "3124")),
    "classI_m": Formula(
        (_classI_m_closed, lambda order: valley_marked_classI(order).subs("v", 1)),
        _counted("matching", "123", "213"),
    ),
    "classI_p": Formula(
        (_classI_p_closed, _partitions(valley_marked_classI)),
        _counted("partition", "123", "213"),
    ),
    "classII_III_m": Formula(
        (
            lambda order: valley_marked_classII_III(order).subs("v", 1),
            lambda order: _sequence(algebraic_solve(classII_III_cubic(order, 1), 1)),
        ),
        _counted("matching", "123", "231"),
    ),
    "classII_III_p": Formula(
        (_partitions(valley_marked_classII_III), _classII_III_p_closed),
        _counted("partition", "123", "231"),
    ),
    "classIV_m": Formula(_CLASS_IV, _counted("matching", "123", "321")),
    "classIV_p": Formula(
        (_classIV_p_closed, _partitions(valley_marked_classIV)),
        _counted("partition", "123", "321"),
    ),
    "classIV_exact": Formula(_CLASS_IV, _counted("matching", "123", "321")),
    # no second closed route; the residual of the functional equation is
    # the independent check
    "classV_m": Formula((_classV_series,), _counted("matching", "213", "321")),
    "catalan_v": Formula(_CATALAN, _counted("dyck")),
    "dyck_rv": Formula(_CATALAN, _counted("dyck")),
    "gouyou_m123": Formula(_GOUYOU, _counted("matching", "123")),
    "dnk_pairs": Formula(_GOUYOU, _counted("pair")),
}

FORMULA_IDS = tuple(FORMULAS)


def _formula(formula_id: str) -> Formula:
    try:
        return FORMULAS[formula_id]
    except KeyError:
        raise SeriesError(f"unknown formula id {formula_id!r}") from None


@lru_cache(maxsize=None)
def _route(formula_id: str, index: int, order: int) -> tuple[int, ...]:
    """c_0..c_order of a formula id by its route ``index``.  The only memo
    in ``series`` and ``formulas``: ``classV_m`` has one route, so a caller
    that compares ``coefficients`` with ``secondary_coefficients`` reads it
    twice, and the memo keeps that from solving G_classV twice.  Its
    callers check the order first, so the memo keys only checked ints."""
    return _ints(_formula(formula_id).routes[index](order))


def coefficients(formula_id: str, order: int) -> tuple[int, ...]:
    """Coefficient sequence c_0..c_order of a formula id, by route 0."""
    return _route(formula_id, 0, _check_order(order))


def secondary_coefficients(formula_id: str, order: int) -> tuple[int, ...]:
    """Route 1 of a formula id, for route-agreement checks.  ``classV_m``
    has one route, so for it this reads route 0 and a comparison with
    ``coefficients`` is vacuous."""
    routes = _formula(formula_id).routes
    return _route(formula_id, min(1, len(routes) - 1), _check_order(order))


def oracle_value(formula_id: str, n: int) -> int:
    """Brute-force value matching coefficient n of the formula."""
    return _formula(formula_id).oracle(n)


def cross_check(formula_id: str, n_max: int) -> dict:
    """Compare the formula against its oracle for n = 0..n_max."""
    if n_max < 0:
        raise MatchboardError(f"max-n must be nonnegative, got {n_max}")
    if n_max > ORDER_CAP:
        raise ResourceCapError(f"max-n {n_max} exceeds the cap {ORDER_CAP}")
    seq = coefficients(formula_id, n_max)
    # largest n first, so that a request past a cap fails before any of the
    # smaller enumerations run
    oracle = {n: oracle_value(formula_id, n) for n in range(n_max, -1, -1)}
    results = []
    for n in range(n_max + 1):
        got = oracle[n]
        results.append(
            {
                "n": n,
                "formula": seq[n],
                "oracle": got,
                "equal": seq[n] == got,
            }
        )
    return {"id": formula_id, "results": results}
