"""Named coefficient-sequence producers, one per counting sequence.

``FORMULAS`` maps each formula id to its routes: a primary computation, an
independent secondary route where one exists, and a brute-force oracle from
the families module.  ``cross_check`` compares formula output against the
oracle for every n within the enumeration caps.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import families
from .bijections import LabeledPathClass
from .errors import ResourceCapError, SeriesError
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
    "valley_marked_classI",
    "valley_marked_classII_III",
    "valley_marked_classIV",
    "classII_III_cubic",
    "returns_valleys_series",
]

ORDER_CAP = 30


def _check_order(n: int) -> None:
    if n < 0:
        raise SeriesError("order must be nonnegative")
    if n > ORDER_CAP:
        raise SeriesError(f"order {n} exceeds the cap {ORDER_CAP}")


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _rational(num_coeffs, den_coeffs, order: int) -> Series:
    num = Series.from_coeffs(num_coeffs, order)
    den = Series.from_coeffs(den_coeffs, order)
    return num / den


def _sequence(s: Series, order: int) -> Series:
    """1 / (1 - z s): sequences of blocks counted by s."""
    return (1 - s.shift(1).trunc(order)).inverse()


# ---------------------------------------------------------------------------
# closed forms and derived series


def _m312_closed(order: int) -> Series:
    # 54z / (1 + 36z - (1-12z)^(3/2))
    s = Series.from_coeffs([1, -12], order + 1)
    den = 1 + Series.z(order + 1) * 36 - s * s.sqrt()
    num = Series.z(order + 1) * 54
    return (num.unshift(1)) / (den.unshift(1))


def _at_u0(name: str, order: int) -> Series:
    """K(u=0) of a functional equation, as a series without u."""
    return fe_iterate(name, order).subs_zero("u").drop_variable("u")


def _valley_marked(name: str, order: int) -> Series:
    """1 + zK0 / (1 - vzK0), with K0 = K(u=0) of the equation."""
    K0 = _at_u0(name, order)
    v = Series.var("v", ("v",), order)
    zK0 = K0.shift(1).trunc(order)
    return 1 + zK0 * (1 - v * zK0).inverse()


def valley_marked_m312(order: int) -> Series:
    """L(v,z): 312-avoiding matchings by size (z) and valleys (v)."""
    return _valley_marked("K_Llv", order)


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
        order,
    )
    z3 = Series.z(order) ** 3
    c2 = z3 * Series.from_coeffs([3, -26, 7, 12], order) * 4
    c1 = (Series.z(order) ** 2) * Series.from_coeffs(
        [-12, 81, 50, -179, 48], order
    )
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
    """A1(v,z) = (1 + z(1-v)C(v,2z)) / (1 - vzC(v,2z))."""
    C2 = narayana_series(order).scale_z(2)
    v = Series.var("v", ("v",), order)
    zC2 = C2.shift(1).trunc(order)
    return (1 + (1 - v) * zC2) * (1 - v * zC2).inverse()


def _classI_p_closed(order: int) -> Series:
    s = Series.from_coeffs([1, -6, 1], order).sqrt()
    num = Series.from_coeffs([2, -3, 1], order) - Series.z(order) * s
    den = Series.from_coeffs([1, -3, 3], order) * 2
    return num / den


def valley_marked_classII_III(order: int) -> Series:
    """A2(v,z): {123,231}-avoiding matchings by size and valleys."""
    return _valley_marked("K_lt2", order)


def classII_III_cubic(order: int, v_value) -> list[Series]:
    """Coefficients (ascending in H) of the cubic satisfied by the
    valley-marked height-below-2 kernel, at a fixed rational v.

    Derived by the kernel method from the functional equation: with
    W = 1-v+vH and D = 1-z+vz(1-C-H), setting u = zW/D kills the kernel
    and leaves 0 = D + z(1-v)C*D + z^2*W^2*C - H*D^2.
    """
    v = Fraction(v_value)
    C = narayana_series(order).subs("v", v).drop_variable("v")
    z = Series.z(order)
    a = 1 - z + z * v - z * v * C
    b = -v
    d0 = a + z * (1 - v) * C * a + z * z * ((1 - v) ** 2) * C
    d1 = z * b + z * (1 - v) * C * z * b + z * z * (2 * v * (1 - v)) * C - a * a
    d2 = z * z * (v**2) * C - 2 * a * z * b
    d3 = -(z * z) * v**2
    return [d0, d1, d2, d3]


def _classII_III_p_closed(order: int) -> Series:
    # 1 + z(1-z) / ((1-z)^2 - z*Hsub), with Hsub the diagonal substitution
    # of the valley-marked kernel
    H = _at_u0("K_lt2", order)
    Hsub = substitution_sum(H, order, extra_denominator=0)
    z = Series.z(order)
    one_minus = Series.from_coeffs([1, -1], order)
    return 1 + (z * one_minus) / (one_minus * one_minus - z * Hsub)


def valley_marked_classIV(order: int, u_value: int = 2) -> Series:
    """Q at the given u: boards of height below 5 weighted u^eta, by size
    and valleys, via four nested return decompositions."""
    v = Series.var("v", ("v",), order)
    z = Series.z(order)

    def T(x: Series) -> Series:
        return 1 + x * (1 - v.trunc(x.order) * x).inverse()

    t1 = T(z)
    t2 = T((z * t1).trunc(order) * u_value)
    t3 = T((z * t2).trunc(order) * u_value)
    return T((z * t3).trunc(order))


def _classV_series(order: int) -> Series:
    g = fe_iterate("G_classV", 2 * order).subs_zero("t").subs_zero("u")
    g = g.drop_variable("t").drop_variable("u")
    for m in range(1, 2 * order + 1, 2):
        if g[m] != 0:
            raise SeriesError(f"odd coefficient z^{m} of G(0,0,z) is nonzero")
    return Series.from_coeffs([g[2 * n] for n in range(order + 1)], order)


def _s1342_closed(order: int) -> Series:
    s = Series.from_coeffs([1, -8], order + 1)
    den = Series.from_coeffs([1, 20, -8], order + 1) - s * s.sqrt()
    num = Series.z(order + 1) * 32
    return num.unshift(1) / den.unshift(1)


def _kx0_closed(order: int) -> Series:
    s = Series.from_coeffs([1, -8], order + 2)
    num = Series.from_coeffs([-1, 12, 8], order + 2) + s * s.sqrt()
    return num.unshift(2) / 32


def _s3124_series(order: int) -> Series:
    return _sequence(_at_u0("K_peak", order), order)


def returns_valleys_series(order: int) -> Series:
    """Border paths counted by returns (t) and valleys (v):
    (1 + t(1-v)zC(v,z)) / (1 - tvzC(v,z))."""
    C = narayana_series(order).widen(("t", "v"))
    t = Series.var("t", ("t", "v"), order)
    v = Series.var("v", ("t", "v"), order)
    zC = C.shift(1).trunc(order)
    return (1 + t * (1 - v) * zC) * (1 - t * v * zC).inverse()


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
    return lambda n, caps: families.count(family, n, avoid=avoid, caps=caps).total


def _maps_oracle(n: int, caps) -> int:
    if n > caps.labeled:
        raise ResourceCapError(
            f"labeled path size {n} exceeds the configured cap {caps.labeled}"
        )
    return sum(
        1
        for lp in families.labeled_paths(n, LabeledPathClass.K)
        if lp.labels[0] == 0
    )


@dataclass(frozen=True)
class Formula:
    """The routes to one sequence.  ``primary(order)`` and
    ``secondary(order)`` give c_0..c_order, as a series or a sequence;
    ``oracle(n, caps)`` gives c_n by brute force.  ``secondary`` is None
    when no independent second route exists."""

    primary: Callable[[int], Series | tuple[int, ...]]
    secondary: Callable[[int], Series | tuple[int, ...]] | None
    oracle: Callable[[int, families.Caps], int]


FORMULAS: dict[str, Formula] = {
    "m312": Formula(
        _m312_closed,
        lambda order: _sequence(_at_u0("K_Ll", order), order),
        _counted("matching", "312"),
    ),
    "p312": Formula(
        _p312_closed,
        lambda order: partition_transform(valley_marked_m312(order), order),
        _counted("partition", "312"),
    ),
    "maps": Formula(_maps_product, lambda order: _at_u0("K_Ll", order), _maps_oracle),
    "s1342": Formula(
        _s1342_closed,
        lambda order: _sequence(_kx0_closed(order), order),
        _counted("permutation", "1342"),
    ),
    "s3124": Formula(_s3124_series, _s1342_closed, _counted("permutation", "3124")),
    "classI_m": Formula(
        _classI_m_closed,
        lambda order: valley_marked_classI(order).subs("v", 1).drop_variable("v"),
        _counted("matching", "123", "213"),
    ),
    "classI_p": Formula(
        _classI_p_closed,
        lambda order: partition_transform(valley_marked_classI(order), order),
        _counted("partition", "123", "213"),
    ),
    "classII_III_m": Formula(
        lambda order: valley_marked_classII_III(order).subs("v", 1).drop_variable("v"),
        lambda order: _sequence(
            algebraic_solve(classII_III_cubic(order, 1), 1, order), order
        ),
        _counted("matching", "123", "231"),
    ),
    "classII_III_p": Formula(
        lambda order: partition_transform(valley_marked_classII_III(order), order),
        _classII_III_p_closed,
        _counted("partition", "123", "231"),
    ),
    "classIV_m": Formula(
        lambda order: _rational([1, -5, 2], [1, -6, 5], order),
        lambda order: valley_marked_classIV(order).subs("v", 1).drop_variable("v"),
        _counted("matching", "123", "321"),
    ),
    "classIV_p": Formula(
        _classIV_p_closed,
        lambda order: partition_transform(valley_marked_classIV(order), order),
        _counted("partition", "123", "321"),
    ),
    "classIV_exact": Formula(
        _classIV_closed,
        lambda order: coefficients("classIV_m", order),
        _counted("matching", "123", "321"),
    ),
    # no second closed route; the residual of the functional equation is
    # the independent check
    "classV_m": Formula(_classV_series, None, _counted("matching", "213", "321")),
    "catalan_v": Formula(catalan_series, _catalan_closed, _counted("dyck")),
    "dyck_rv": Formula(
        lambda order: (
            returns_valleys_series(order)
            .subs("t", 1).drop_variable("t")
            .subs("v", 1).drop_variable("v")
        ),
        catalan_series,
        _counted("dyck"),
    ),
    "gouyou_m123": Formula(
        _gouyou_determinant,
        lambda order: coefficients("dnk_pairs", order),
        _counted("matching", "123"),
    ),
    "dnk_pairs": Formula(
        lambda order: tuple(
            families.pair_count_ending_south(n, 0) for n in range(order + 1)
        ),
        lambda order: coefficients("gouyou_m123", order),
        _counted("pair"),
    ),
}

FORMULA_IDS = tuple(FORMULAS)


def _formula(formula_id: str) -> Formula:
    try:
        return FORMULAS[formula_id]
    except KeyError:
        raise SeriesError(f"unknown formula id {formula_id!r}") from None


@lru_cache(maxsize=None)
def coefficients(formula_id: str, order: int) -> tuple[int, ...]:
    """Primary-route coefficient sequence c_0..c_order for a formula id."""
    _check_order(order)
    return _ints(_formula(formula_id).primary(order))


@lru_cache(maxsize=None)
def secondary_coefficients(formula_id: str, order: int) -> tuple[int, ...]:
    """Second route for each id, used for route-agreement checks; an id
    without one returns its primary sequence."""
    _check_order(order)
    secondary = _formula(formula_id).secondary
    if secondary is None:
        return coefficients(formula_id, order)
    return _ints(secondary(order))


def oracle_value(formula_id: str, n: int, caps=families.DEFAULT_CAPS) -> int:
    """Brute-force value matching coefficient n of the formula."""
    return _formula(formula_id).oracle(n, caps)


def cross_check(formula_id: str, n_max: int, caps=families.DEFAULT_CAPS) -> dict:
    """Compare the formula against its oracle for n = 0..n_max."""
    seq = coefficients(formula_id, n_max)
    # largest n first, so that a request past a cap fails before any of the
    # smaller enumerations run
    oracle = {n: oracle_value(formula_id, n, caps=caps) for n in range(n_max, -1, -1)}
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
