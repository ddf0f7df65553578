"""Truncated power series over exact rationals.

``Series`` is a power series in z known exactly through z^order.  Its
coefficients are polynomials in a declared tuple of variables (a subset of
u, v, t), each a dict from exponent tuple to nonzero value.  A plain series
has no variables, so its only key is ().  Every operation serves both cases,
and a series combined with one over more variables is widened to them;
substituting a value for a variable gives the series over the others.  On
top of this the module provides square roots and roots of algebraic
equations through one Newton loop that doubles the known orders at each
step (no input is padded with zeros), one per-order solver for the
functional equations used by the counting formulas, residual checks for
those equations (G_classV's multiplied through by 1 - u), and the
substitution that turns a valley-marked matching series into a
set-partition series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import comb, lcm, prod
from operator import add, mul

from .errors import DivisibilityError, SeriesError

__all__ = [
    "Series",
    "catalan_series",
    "narayana_series",
    "poly_eval",
    "algebraic_solve",
    "fe_iterate",
    "residual",
    "partition_transform",
    "substitution_sum",
    "FE_NAMES",
]


def _norm(x):
    """An exact value, as an int when it is integral."""
    if isinstance(x, int):
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# polynomial coefficient helpers (dicts exponent-tuple -> rational)


def _pacc(target: dict, src: dict, scale=1) -> None:
    for k, c in src.items():
        v = target.get(k, 0) + c * scale
        if v:
            target[k] = v
        elif k in target:
            del target[k]


# Products go through Kronecker substitution.  Each polynomial is packed into
# one int: the coefficient of an exponent tuple fills a fixed-width slot of a
# mixed-radix grid whose axes are long enough that no sum of exponents carries
# into the next axis, so one big-int multiply does a whole polynomial product
# and a sum of products is a sum of ints.  A slot is wide enough for the
# largest coefficient the products can give, plus a sign bit; unpacking adds
# 2^(w-1) to every slot so that each reads back as an unsigned field.
# Rational coefficients are scaled to integers by the lcm of their
# denominators.  A coefficient with no variables is the grid with no axes:
# one slot, and the product is one scalar multiply.


def _pack(p: dict, strides, width: int, den: int) -> int:
    """den * p as one int: the coefficient of key k in the slot at
    sum(k * strides), each slot ``width`` bytes wide."""
    size = width * (sum(map(mul, map(max, zip(*p)), strides)) + 1) if p else 0
    pos = bytearray(size)
    neg = bytearray(size)
    for k, c in p.items():
        at = width * sum(map(mul, k, strides))
        c = c.numerator * (den // c.denominator)
        if c > 0:
            pos[at : at + width] = c.to_bytes(width, "little")
        else:
            neg[at : at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(x: int, dims, width: int, den: int) -> dict:
    """The polynomial packed in x over the grid ``dims``, divided by den;
    each slot holds a value of absolute value below 2^(8*width - 1)."""
    # |x| >= 2^(8*width*s - 1) when s is the highest nonzero slot
    slots = min(prod(dims), x.bit_length() // (8 * width) + 1)
    zero = bytes(width - 1) + b"\x80"  # the bias 2^(8*width - 1)
    half = 1 << (8 * width - 1)
    buf = (x + int.from_bytes(zero * slots, "little")).to_bytes(
        width * slots, "little"
    )
    out = {}
    for at, k in zip(range(0, width * slots, width), product(*map(range, dims))):
        digit = buf[at : at + width]
        if digit != zero:
            c = int.from_bytes(digit, "little") - half
            out[k] = c if den == 1 else _norm(Fraction(c, den))
    return out


def _aligned(xs: list, ys: list, lo: int, hi: int):
    """For m = lo .. hi, the xs[i] and the ys[m - i] over the valid i, as
    two aligned lists."""
    rys = ys[::-1]
    top = len(ys) - 1
    for m in range(lo, hi + 1):
        a, b = max(0, m - top), min(m + 1, len(xs))
        yield xs[a:b], rys[top - m + a : top - m + b]


def _convolve(xs, ys, lo: int, hi: int) -> list[dict]:
    """The z^lo .. z^hi coefficients of (sum xs[i] z^i) * (sum ys[j] z^j),
    for coefficient polynomials over one variable set; each polynomial is
    packed once, onto one grid."""
    xs, ys = list(xs[: hi + 1]), list(ys[: hi + 1])
    if not any(xs) or not any(ys):
        return [{} for _ in range(lo, hi + 1)]
    dx = lcm(*(c.denominator for p in xs for c in p.values()))
    dy = lcm(*(c.denominator for p in ys for c in p.values()))
    mx = [int(max(map(abs, p.values()), default=0) * dx) for p in xs]
    my = [int(max(map(abs, p.values()), default=0) * dy) for p in ys]
    # an output slot sums at most min(len x, len y) terms of each product;
    # every operand is packed too, whether an output uses it or not
    lx, ly = list(map(len, xs)), list(map(len, ys))
    bands = (
        sum(map(mul, map(mul, a, b), map(min, la, lb)))
        for (a, b), (la, lb) in zip(_aligned(mx, my, lo, hi), _aligned(lx, ly, lo, hi))
    )
    width = max(*mx, *my, *bands).bit_length() // 8 + 1  # room for a sign bit
    # per axis, the grid holds the degree of each xs[i] plus the highest
    # degree among ys[0 .. hi - i]
    nvars = len(next(iter(next(p for p in xs if p))))

    def degrees(p: dict) -> tuple:
        return tuple(map(max, zip(*p))) if p else (0,) * nvars

    def widest(a, b) -> tuple:
        return tuple(map(max, a, b))

    rising = list(accumulate(map(degrees, ys), widest))
    top = (0,) * nvars
    for i, p in enumerate(xs):
        if p:
            top = widest(top, map(add, degrees(p), rising[min(hi - i, len(ys) - 1)]))
    dims = [t + 1 for t in top]
    strides = [prod(dims[a + 1 :]) for a in range(nvars)]
    px = [_pack(p, strides, width, dx) for p in xs]
    py = [_pack(p, strides, width, dy) for p in ys]
    return [
        _unpack(sum(map(mul, a, b)), dims, width, dx * dy)
        for a, b in _aligned(px, py, lo, hi)
    ]


def _pshift(p: dict, axis: int, k: int = 1) -> dict:
    return {
        tuple(e + k if i == axis else e for i, e in enumerate(key)): c
        for key, c in p.items()
    }


def _pdown(p: dict, axis: int) -> dict:
    """(p - p|var=0) / var for the variable on the given axis; always exact."""
    return {
        tuple(e - 1 if i == axis else e for i, e in enumerate(key)): c
        for key, c in p.items()
        if key[axis] > 0
    }


def _pscale(p: dict, c) -> dict:
    return {k: v * c for k, v in p.items()} if c else {}


# ---------------------------------------------------------------------------
# the series type


class Series:
    """Power series in z known exactly through z^order, whose coefficients
    are polynomials in ``variables``."""

    __slots__ = ("variables", "order", "coeffs")

    def __init__(self, variables, order: int, coeffs=()):
        """``coeffs`` gives the coefficients of z^0, z^1, ... as dicts from
        exponent tuple to value; missing ones are zero, and those past
        ``order`` are dropped."""
        if order < 0:
            raise SeriesError("order must be nonnegative")
        polys = [
            {k: _norm(c) for k, c in p.items() if c}
            for p in tuple(coeffs)[: order + 1]
        ]
        polys += [{} for _ in range(order + 1 - len(polys))]
        self.variables = tuple(variables)
        self.order = order
        self.coeffs = tuple(polys)

    # construction -----------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> "Series":
        """A plain series with the given coefficients of z^0, z^1, ..."""
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        return cls((), order, [{(): c} for c in cs])

    @classmethod
    def constant(cls, value, order: int, variables=()) -> "Series":
        return cls(variables, order, [{(0,) * len(variables): value}])

    @classmethod
    def z(cls, order: int) -> "Series":
        return cls.from_coeffs([0, 1], order)

    @classmethod
    def var(cls, name: str, variables, order: int) -> "Series":
        variables = tuple(variables)
        if name not in variables:
            raise SeriesError(f"unknown variable {name!r}")
        key = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, order, [{key: 1}])

    def widen(self, variables) -> "Series":
        """The same series over a variable set that contains its own."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        if not set(self.variables) <= set(variables):
            raise SeriesError(
                f"cannot widen a series in {self.variables} to {variables}"
            )
        # index -1 picks the 0 padded onto each key, for the new variables
        src = [
            self.variables.index(x) if x in self.variables else -1
            for x in variables
        ]
        out = []
        for poly in self.coeffs:
            d = {}
            for k, c in poly.items():
                padded = k + (0,)
                d[tuple(padded[i] for i in src)] = c
            out.append(d)
        return Series(variables, self.order, out)

    # views ------------------------------------------------------------

    def dicts(self) -> list[dict]:
        return [dict(poly) for poly in self.coeffs]

    def _axis(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise SeriesError(f"unknown variable {name!r}") from None

    def coefficient(self, n: int, exponents) -> int | Fraction:
        """Coefficient of z^n times the given variable exponents."""
        return self.coeffs[n].get(tuple(exponents), 0)

    def __getitem__(self, n: int) -> int | Fraction:
        """Coefficient of z^n of a plain series."""
        if self.variables:
            raise SeriesError(f"series depends on {self.variables}")
        return self.coeffs[n].get((), 0)

    def __iter__(self):
        return (self[n] for n in range(self.order + 1))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def trunc(self, order: int) -> "Series":
        if order >= self.order:
            return self
        return Series(self.variables, order, self.coeffs)

    # arithmetic -------------------------------------------------------

    def _operands(self, other):
        """self and other over one variable set, or None for an unknown
        operand."""
        if isinstance(other, (int, Fraction)):
            return self, Series.constant(other, self.order, self.variables)
        if not isinstance(other, Series):
            return None
        if set(other.variables) <= set(self.variables):
            return self, other.widen(self.variables)
        if set(self.variables) <= set(other.variables):
            return self.widen(other.variables), other
        raise SeriesError("mismatched auxiliary variable sets")

    def __add__(self, other):
        pair = self._operands(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        n = min(a.order, b.order)
        out = []
        for pa, pb in zip(a.coeffs[: n + 1], b.coeffs[: n + 1]):
            d = dict(pa)
            _pacc(d, pb)
            out.append(d)
        return Series(a.variables, n, out)

    __radd__ = __add__

    def __neg__(self):
        return Series(
            self.variables, self.order, [_pscale(p, -1) for p in self.coeffs]
        )

    def __sub__(self, other):
        pair = self._operands(other)
        if pair is None:
            return NotImplemented
        return pair[0] + (-pair[1])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series(
                self.variables, self.order, [_pscale(p, other) for p in self.coeffs]
            )
        pair = self._operands(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        n = min(a.order, b.order)
        return Series(a.variables, n, _convolve(a.coeffs, b.coeffs, 0, n))

    __rmul__ = __mul__

    def inverse(self) -> "Series":
        zero = (0,) * len(self.variables)
        c0 = self.coeffs[0]
        if list(c0) != [zero]:
            raise SeriesError(
                "inverse requires a constant (variable-free) nonzero z^0 term"
            )
        # Newton iteration y <- y - y(self*y - 1) doubles the known orders;
        # self*y - 1 vanishes below them, so only the new orders are formed
        y = [{zero: _norm(Fraction(1, 1) / c0[zero])}]
        while len(y) <= self.order:
            known, new = len(y), min(2 * len(y) - 1, self.order)
            err = [{}] * known + _convolve(self.coeffs, y, known, new)
            y += [_pscale(p, -1) for p in _convolve(y, err, known, new)]
        return Series(self.variables, self.order, y)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise SeriesError("division by zero")
            return self * (Fraction(1, 1) / other)
        pair = self._operands(other)
        if pair is None:
            return NotImplemented
        return pair[0] * pair[1].inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Series.constant(1, self.order, self.variables)
        for _ in range(k):
            out = out * self
        return out

    def sqrt(self) -> "Series":
        """Square root with constant term 1, by Newton iteration."""
        if self.coeffs[0] != {(0,) * len(self.variables): 1}:
            raise SeriesError("sqrt requires constant term 1")
        return _newton(lambda y: (y + self / y) / 2, 1, self)

    def scale_z(self, factor) -> "Series":
        """Substitute factor*z for z."""
        return Series(
            self.variables,
            self.order,
            [_pscale(p, factor**n) for n, p in enumerate(self.coeffs)],
        )

    def shift(self, k: int) -> "Series":
        """Multiply by z^k."""
        if k < 0:
            raise SeriesError("shift needs k >= 0; unshift divides by z^k")
        return Series(self.variables, self.order + k, ({},) * k + self.coeffs)

    def unshift(self, k: int) -> "Series":
        """Divide by z^k; the low-order coefficients must vanish."""
        if any(self.coeffs[:k]):
            raise DivisibilityError(f"series is not divisible by z^{k}")
        return Series(self.variables, self.order - k, self.coeffs[k:])

    # substitutions ----------------------------------------------------

    def subs(self, name: str, value) -> "Series":
        """Substitute value for a variable: the series over the others."""
        axis = self._axis(name)
        out = []
        for poly in self.coeffs:
            d: dict = {}
            for k, c in poly.items():
                key = k[:axis] + k[axis + 1:]
                d[key] = d.get(key, 0) + c * value ** k[axis]
            out.append(d)
        variables = self.variables[:axis] + self.variables[axis + 1:]
        return Series(variables, self.order, out)

    def subs_prod(self, name: str, other: str) -> "Series":
        """Substitute name -> name*other (e.g. t -> t*u)."""
        a = self._axis(name)
        b = self._axis(other)
        out = []
        for poly in self.coeffs:
            d: dict = {}
            for k, c in poly.items():
                key = tuple(e + k[a] if i == b else e for i, e in enumerate(k))
                d[key] = d.get(key, 0) + c
            out.append(d)
        return Series(self.variables, self.order, out)

    def divide_by_var(self, name: str) -> "Series":
        axis = self._axis(name)
        for n, poly in enumerate(self.coeffs):
            if any(k[axis] == 0 for k in poly):
                raise DivisibilityError(f"z^{n} coefficient is not divisible by {name}")
        return Series(
            self.variables, self.order, [_pdown(p, axis) for p in self.coeffs]
        )


# The benchmark's layer trace (perfbench/tracer.py, SERIES_CLASSES) finds the
# series methods it wraps under the two former class names; both stay bound
# until the trace names Series.
TruncSeries = AuxSeries = Series


# ---------------------------------------------------------------------------
# Catalan and Narayana series


@lru_cache(maxsize=None)
def narayana_series(order: int) -> Series:
    """Border paths counted by semilength (z) and valleys (v): the series
    C(v,z) with C = 1 + zC + vzC(C-1) = 1 + zC(vC - v + 1)."""
    return _solve(("u", "v"), [(_same, _marked)], order).subs("u", 0)


def catalan_series(order: int) -> Series:
    return narayana_series(order).subs("v", 1)


# ---------------------------------------------------------------------------
# algebraic equations


def poly_eval(polys, s: Series) -> Series:
    """Evaluate sum p_i * s^i by Horner's rule."""
    res = Series((), min(s.order, min(p.order for p in polys)))
    for p in reversed(polys):
        res = res * s + p
    return res


def _newton(step, seed, like: Series) -> Series:
    """Newton iteration y <- step(y) from the constant seed, to the order of
    ``like`` and over its variables.  Each step gets y correct through z^p
    and padded with zeros to z^(2p + 1), and must return it correct through
    z^(2p + 1)."""
    y, prec = Series.constant(seed, 0, like.variables), 0
    while prec < like.order:
        prec = min(2 * prec + 1, like.order)
        y = step(Series(y.variables, prec, y.coeffs))
    return y


def algebraic_solve(polys, seed, order: int | None = None) -> Series:
    """Power-series root of sum p_i(z) F^i with F(0) = seed, by Newton
    iteration; the seed must be a simple root of the z = 0 polynomial, and
    ``order`` (by default the lowest) may not exceed the order of any p_i."""
    known = min(p.order for p in polys)
    if order is None:
        order = known
    if order > known:
        raise SeriesError(f"order {order} exceeds the coefficients' order {known}")
    seed = _norm(Fraction(seed))
    value = sum(p[0] * seed**i for i, p in enumerate(polys))
    if value != 0:
        raise SeriesError(f"seed {seed} is not a root at z = 0")
    deriv = sum(i * p[0] * seed ** (i - 1) for i, p in enumerate(polys) if i)
    if deriv == 0:
        raise SeriesError(f"seed {seed} is not a simple root at z = 0")
    dpolys = [p * i for i, p in enumerate(polys) if i]
    f = _newton(
        lambda f: f - poly_eval(polys, f) / poly_eval(dpolys, f),
        seed,
        Series((), order),
    )
    if poly_eval(polys, f).is_zero():
        return f
    raise SeriesError("Newton iteration did not converge")


# ---------------------------------------------------------------------------
# functional equation solvers (one new z-order per pass)


def _solve(variables, terms, order: int) -> Series:
    """K through z^order from K_0 = 1 and K_n = the sum over the terms
    (f, g) of [z^(n-1)] F*G, where F_j = f(K_j, j) and G_j = g(K_j, j).
    A term (f, None) has G = 1: it adds F_(n-1) alone, and keeps no F_j."""
    K = [{(0,) * len(variables): 1}]
    sides = [(f, g, [], []) for f, g in terms]
    for n in range(1, order + 1):
        kj, kn = K[-1], {}
        for f, g, xs, ys in sides:
            if g is None:
                _pacc(kn, f(kj, n - 1))
            else:
                xs.append(f(kj, n - 1))
                ys.append(g(kj, n - 1))
                _pacc(kn, _convolve(xs, ys, n - 1, n - 1)[0])
        K.append(kn)
    return Series(variables, order, K)


def _same(kj: dict, j: int) -> dict:
    return kj


def _bracket(kj: dict, j: int) -> dict:
    """z^j coefficient of 2K + uK + (K - K|u=0)/u, with u on axis 0."""
    out = _pscale(kj, 2)
    _pacc(out, _pshift(kj, 0))
    _pacc(out, _pdown(kj, 0))
    return out


def _marked(kj: dict, j: int) -> dict:
    """z^j coefficient of vK - v + 1, with v on axis 1."""
    out = _pshift(kj, 1)
    if j == 0:
        _pacc(out, {(0, 0): 1, (0, 1): -1})
    return out


def _peak_bracket(kj: dict, j: int) -> dict:
    """z^j coefficient of K + u(K - 1) + (K - 1) + (K - K|u=0)/u."""
    out = dict(kj)
    km1 = dict(kj)
    if j == 0:
        _pacc(km1, {(0,): 1}, -1)
    _pacc(out, _pshift(km1, 0))
    _pacc(out, km1)
    _pacc(out, _pdown(kj, 0))
    return out


def _classV_step(gj: dict, j: int) -> dict:
    """z^j coefficient of tG + (G - G0)/(tu) + (G0 - G0|t=0)/t
    + tu(G0 - G0|t->tu)/(1 - u), G0 = G|u=0, over the axes (t, u)."""
    out = _pshift(gj, 0)
    for (dt, du), c in gj.items():
        if du > 0:
            if dt == 0:
                raise DivisibilityError(
                    "term with positive u-degree and zero t-degree"
                )
            _pacc(out, {(dt - 1, du - 1): c})
        elif dt > 0:
            # a term of G0 gives t^(dt-1) and t^(dt+1) (u + ... + u^dt)
            _pacc(out, {(dt - 1, 0): c})
            _pacc(out, {(dt + 1, m): c for m in range(1, dt + 1)})
    return out


def _lt2_terms(order: int):
    """The terms of K = 1 + zC(vK - v + 1) + z(K + (K - K0)/u + uC)(vK0 - v + 1),
    with C the Narayana series and K0 = K|u=0."""
    C = narayana_series(order).widen(("u", "v")).coeffs

    def middle(kj: dict, j: int) -> dict:
        out = dict(kj)
        _pacc(out, _pdown(kj, 0))
        _pacc(out, _pshift(C[j], 0))
        return out

    def marked_at_u0(kj: dict, j: int) -> dict:
        return _marked({k: c for k, c in kj.items() if k[0] == 0}, j)

    return [(lambda kj, j: C[j], _marked), (middle, marked_at_u0)]


# name -> (solver of order, degree bound): within(n, k) holds for every
# exponent tuple k of the z^n coefficient
_FE = {
    "K_Ll": (
        lambda order: _solve(("u",), [(_same, _bracket)], order),
        lambda n, k: k[0] <= n,
    ),
    "K_Llv": (
        lambda order: _solve(("u", "v"), [(_marked, _bracket)], order),
        lambda n, k: k[0] <= n and k[1] <= max(n - 1, 0),
    ),
    "K_lt2": (
        lambda order: _solve(("u", "v"), _lt2_terms(order), order),
        lambda n, k: k[0] <= n and k[1] <= max(n - 1, 0),
    ),
    "K_peak": (
        lambda order: _solve(("u",), [(_same, _peak_bracket)], order),
        lambda n, k: k[0] <= n,
    ),
    "G_classV": (
        lambda order: _solve(("t", "u"), [(_classV_step, None)], order),
        lambda n, k: k[0] <= n and k[1] <= k[0],
    ),
}

FE_NAMES = tuple(_FE)


@lru_cache(maxsize=None)
def fe_iterate(name: str, order: int) -> Series:
    """Solve one of the built-in functional equations through z^order."""
    if name not in _FE:
        raise SeriesError(f"unknown functional equation {name!r}")
    if order < 0:
        raise SeriesError("order must be nonnegative")
    solve, within = _FE[name]
    sol = solve(order)
    for n, poly in enumerate(sol.coeffs):
        for k in poly:
            if not within(n, k):
                raise SeriesError(
                    f"{name}: z^{n} coefficient exceeds its degree cap at {k}"
                )
    return sol


def residual(name: str, sol: Series) -> Series:
    """Plug a solution back into its equation; zero when correct.  Uses the
    generic series operations rather than the solver's recurrences."""
    N = sol.order
    if name == "K_Ll":
        K = sol
        u = Series.var("u", K.variables, N)
        K0 = K.subs("u", 0)
        inner = K * 2 + u * K + (K - K0).divide_by_var("u")
        return (1 + (K * inner).shift(1).trunc(N)) - K
    if name == "K_Llv":
        K = sol
        u = Series.var("u", K.variables, N)
        v = Series.var("v", K.variables, N)
        K0 = K.subs("u", 0)
        inner = K * 2 + u * K + (K - K0).divide_by_var("u")
        return (1 + ((v * K - v + 1) * inner).shift(1).trunc(N)) - K
    if name == "K_lt2":
        K = sol
        u = Series.var("u", K.variables, N)
        v = Series.var("v", K.variables, N)
        C = narayana_series(N)
        K0 = K.subs("u", 0)
        diff = (K - K0).divide_by_var("u") + (K - K0)
        mid = (K0 - C) + diff + (1 + u) * C
        rhs = (
            1
            + (C * (v * K - v + 1)).shift(1).trunc(N)
            + (mid * (v * K0 - v + 1)).shift(1).trunc(N)
        )
        return rhs - K
    if name == "K_peak":
        K = sol
        u = Series.var("u", K.variables, N)
        K0 = K.subs("u", 0)
        inner = K + u * (K - 1) + (K - 1) + (K - K0).divide_by_var("u")
        return (1 + (K * inner).shift(1).trunc(N)) - K
    if name == "G_classV":
        G = sol
        t = Series.var("t", G.variables, N)
        u = Series.var("u", G.variables, N)
        Gt0 = G.subs("u", 0).widen(G.variables)
        G00 = Gt0.subs("t", 0)
        term2 = (G - Gt0).divide_by_var("t").divide_by_var("u")
        term3 = (Gt0 - G00).divide_by_var("t")
        # the equation times (1 - u), so that its last term needs no division
        term4 = t * u * (Gt0 - Gt0.subs_prod("t", "u"))
        rhs = 1 + (t * G + term2 + term3).shift(1).trunc(N)
        return (1 - u) * (rhs - G) + term4.shift(1).trunc(N)
    raise SeriesError(f"unknown functional equation {name!r}")


# ---------------------------------------------------------------------------
# matching -> partition substitution


def substitution_sum(a, order: int, extra_denominator: int = 1) -> Series:
    """Evaluate sum c_{n,k} z^(2n-k) / (1-z)^(2n+extra) for a series
    a = sum c_{n,k} v^k z^n; requires the valley bound k <= n - 1 for n >= 1
    and k = 0 for n = 0, and a.order >= order - 1.  Each monomial adds one
    binomial coefficient to each output coefficient from z^(2n-k) on."""
    a = a.widen(("v",))
    if a.order < max(0, order - 1):
        raise SeriesError(
            f"input order {a.order} too small for output order {order}"
        )
    out = [0] * (order + 1)
    # a monomial with n >= order starts past z^order
    for n, poly in enumerate(a.coeffs[: max(order, 1)]):
        e = 2 * n + extra_denominator
        for (k,), c in poly.items():
            if k > max(n - 1, 0):
                raise SeriesError(f"valley bound violated: v^{k} at z^{n}")
            for j in range(order + k - 2 * n + 1):
                # the z^j coefficient of 1 / (1-z)^e
                b = comb(j + e - 1, j) if e > 0 else (-1) ** j * comb(-e, j)
                out[2 * n - k + j] += c * b
    return Series.from_coeffs(out, order)


def partition_transform(a, order: int) -> Series:
    """Turn a valley-marked avoiding-matchings series A(v,z) into the
    series for avoiding set partitions: (1/(1-z)) A(1/z, z^2/(1-z)^2)."""
    return substitution_sum(a, order, extra_denominator=1)
