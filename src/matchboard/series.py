"""Truncated power series over exact rationals.

``Series`` is a power series in z known exactly through z^order.  Its
coefficients are polynomials in a declared tuple of variables (a subset of
u, v, t), each a dict from exponent tuple to nonzero value.  A plain series
has no variables, so its only key is ().  Every operation serves both cases,
and a series combined with one over more variables is widened to them;
substituting a value for a variable gives the series over the others.  On
top of this the module provides inverses, square roots and roots of
algebraic equations whose z^0 coefficients are constants, through one
windowed Newton loop that doubles the known orders at each step, one
per-order solver for the functional equations used by the counting formulas
(it keeps the factors of each product packed from one order to the next and
regrids, with a fixed headroom, only when an order outgrows the grid),
residual checks for those equations (G_classV's multiplied through by
1 - u), and the substitution that turns a valley-marked matching series
into a set-partition series.  Nothing is memoized: each call computes what
it returns.  One static method, ``Series._order``, reads every order and
every power of z that shift and unshift take, and refuses a non-integer or
negative one with a SeriesError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, lcm, prod
from operator import add, ge, index, mul

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
# one slot, and the product is one scalar multiply.  ``_grid`` is the one
# sizing rule: ``_convolve`` packs on the tightest grid it allows, and the
# functional-equation solver (``_Product``) on one with a fixed headroom,
# kept across orders.


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


def _strides(dims) -> list[int]:
    """The slot strides of a row-major grid; the first (outer) axis does
    not enter them."""
    return [prod(dims[a + 1 :]) for a in range(len(dims))]


class _Operand:
    """One factor of a product: its coefficient polynomials c_0, c_1, ...
    and what sizes a grid for them.  ``den`` is the lcm of their
    denominators; per coefficient it keeps the largest |c|, the number of
    terms, the degrees and the running maximum of the degrees.  ``packs``
    holds the first coefficients packed, each times ``den``, on one grid."""

    __slots__ = (
        "nvars", "polys", "den", "peaks", "sizes", "degrees", "rising", "packs"
    )

    def __init__(self, nvars: int, polys=()):
        self.nvars, self.den = nvars, 1
        self.polys, self.peaks, self.sizes = [], [], []
        self.degrees, self.rising, self.packs = [], [], []
        for p in polys:
            self.append(p)

    def append(self, p: dict) -> None:
        self.polys.append(p)
        self.den = lcm(self.den, *(c.denominator for c in p.values()))
        self.peaks.append(max(map(abs, p.values()), default=0))
        self.sizes.append(len(p))
        deg = tuple(map(max, zip(*p))) if p else (0,) * self.nvars
        self.degrees.append(deg)
        self.rising.append(
            tuple(map(max, self.rising[-1], deg)) if self.rising else deg
        )

    def pack(self, strides, width: int) -> list[int]:
        """Every coefficient packed on the grid; only those not packed yet
        are packed now."""
        self.packs += [
            _pack(p, strides, width, self.den) for p in self.polys[len(self.packs) :]
        ]
        return self.packs


def _grid(x: _Operand, y: _Operand, lo: int, hi: int) -> tuple[int, tuple]:
    """The slot width in bytes and the per-axis top degree of a grid that
    holds every coefficient of x and of y and the z^lo .. z^hi
    coefficients of x*y, with x packed times x.den and y times y.den; x
    and y hold no coefficient past z^hi."""
    mx = [int(c * x.den) for c in x.peaks]
    my = [int(c * y.den) for c in y.peaks]
    # an output slot sums at most min(len x, len y) terms of each product;
    # every operand is packed too, whether an output uses it or not
    bands = (
        sum(map(mul, map(mul, a, b), map(min, la, lb)))
        for (a, b), (la, lb) in zip(
            _aligned(mx, my, lo, hi), _aligned(x.sizes, y.sizes, lo, hi)
        )
    )
    width = max((*mx, *my, *bands)).bit_length() // 8 + 1  # room for a sign bit
    # per axis, the degree of each x_i plus the highest degree among
    # y_0 .. y_(hi - i)
    top = (0,) * x.nvars
    last = len(y.rising) - 1
    for i, (size, deg) in enumerate(zip(x.sizes, x.degrees)):
        if size:
            top = tuple(map(max, top, map(add, deg, y.rising[min(hi - i, last)])))
    return width, top


def _convolve(xs, ys, lo: int, hi: int) -> list[dict]:
    """The z^lo .. z^hi coefficients of (sum xs[i] z^i) * (sum ys[j] z^j),
    for coefficient polynomials over one variable set; each polynomial is
    packed once, onto the tightest grid that ``_grid`` allows."""
    xs, ys = xs[: hi + 1], ys[: hi + 1]
    if not any(xs) or not any(ys):
        return [{} for _ in range(lo, hi + 1)]
    nvars = len(next(iter(next(p for p in xs if p))))
    x, y = _Operand(nvars, xs), _Operand(nvars, ys)
    width, top = _grid(x, y, lo, hi)
    dims = [t + 1 for t in top]
    strides = _strides(dims)
    return [
        _unpack(sum(map(mul, a, b)), dims, width, x.den * y.den)
        for a, b in _aligned(x.pack(strides, width), y.pack(strides, width), lo, hi)
    ]


class _Product:
    """The coefficients of x*y one z-order at a time, as those of x and y
    arrive, with x and y kept packed from one order to the next.  An
    order whose ``_grid`` bound outgrows the grid (a slot width, an inner
    axis, or a denominator) regrids with a fixed headroom of one byte of
    width and two slots on each inner axis, and repacks x and y; the outer
    axis needs none, since it does not enter the strides.  Most orders
    pack only the new x_m and y_m."""

    __slots__ = ("x", "y", "width", "inner", "dens")

    def __init__(self, nvars: int):
        self.x, self.y = _Operand(nvars), _Operand(nvars)
        self.width, self.inner, self.dens = 0, (), None

    def push(self, xm: dict, ym: dict) -> dict:
        """[z^m] x*y, for x_m and y_m the newest coefficients."""
        x, y = self.x, self.y
        x.append(xm)
        y.append(ym)
        m = len(x.polys) - 1
        width, top = _grid(x, y, m, m)
        if (
            width > self.width
            or (x.den, y.den) != self.dens
            or any(map(ge, top[1:], self.inner))
        ):
            # the headroom: one byte of width, two slots per inner axis
            self.width, self.dens = width + 1, (x.den, y.den)
            self.inner = tuple(t + 1 + 2 for t in top[1:])
            x.packs, y.packs = [], []
        # the outer axis goes to _unpack at its real size
        dims = (*(t + 1 for t in top[:1]), *self.inner)
        strides = _strides(dims)
        px, py = x.pack(strides, self.width), y.pack(strides, self.width)
        return _unpack(sum(map(mul, px, reversed(py))), dims, self.width, x.den * y.den)


def _pshift(p: dict, axis: int) -> dict:
    """p times the variable on the given axis."""
    return {k[:axis] + (k[axis] + 1,) + k[axis + 1 :]: c for k, c in p.items()}


def _pdown(p: dict, axis: int) -> dict:
    """(p - p|var=0) / var for the variable on the given axis; always exact."""
    return {
        k[:axis] + (k[axis] - 1,) + k[axis + 1 :]: c
        for k, c in p.items()
        if k[axis]
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
        ``order`` are dropped; ``_order`` reads the order."""
        order = Series._order(order)
        polys = [
            {k: _norm(c) for k, c in p.items() if c}
            for p in tuple(coeffs)[: order + 1]
        ]
        polys += [{} for _ in range(order + 1 - len(polys))]
        self.variables = tuple(variables)
        self.order = order
        self.coeffs = tuple(polys)

    @staticmethod
    def _order(n: int, name: str = "order") -> int:
        """n as an int: the series layer's one reader of an order or a power of
        z.  A non-integer or negative n is a SeriesError that calls n ``name``."""
        try:
            n = index(n)
        except TypeError:
            raise SeriesError(f"{name} {n!r} is not an integer") from None
        if n < 0:
            raise SeriesError(f"{name} must be nonnegative, got {n}")
        return n

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
        # the root of self*y - 1, whose slope 1/self is y itself
        return _newton(
            lambda y, lo, hi: _convolve(self.coeffs, y, lo, hi),
            lambda y, n: y[: n + 1],
            Fraction(1, 1) / c0[zero],
            self,
        )

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
        if k == 0:
            return Series.constant(1, self.order, self.variables)
        return reduce(mul, [self] * k)

    def sqrt(self) -> "Series":
        """Square root with constant term 1: the root of y^2 - self, whose
        slope is 1/(2y), with y^2 formed only on each step's window."""
        if self.coeffs[0] != {(0,) * len(self.variables): 1}:
            raise SeriesError("sqrt requires constant term 1")
        return _newton(
            lambda y, lo, hi: (
                Series(self.variables, hi, [{}] * lo + _convolve(y, y, lo, hi)) - self
            ).coeffs[lo:],
            lambda y, n: (Series(self.variables, n, y) * 2).inverse().coeffs,
            1,
            self,
        )

    def scale_z(self, factor) -> "Series":
        """Substitute factor*z for z."""
        return Series(
            self.variables,
            self.order,
            [_pscale(p, factor**n) for n, p in enumerate(self.coeffs)],
        )

    def shift(self, k: int) -> "Series":
        """Multiply by z^k (k >= 0; unshift divides), keeping the order."""
        k = self._order(k, "k")
        return Series(self.variables, self.order, ({},) * k + self.coeffs)

    def unshift(self, k: int) -> "Series":
        """Divide by z^k (k >= 0); the low-order coefficients must vanish."""
        k = self._order(k, "k")
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

    def times_var(self, name: str) -> "Series":
        """Multiply by a variable: each exponent on its axis goes up by 1."""
        axis = self._axis(name)
        return Series(
            self.variables, self.order, [_pshift(p, axis) for p in self.coeffs]
        )

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
    if not polys:
        raise SeriesError("a polynomial needs a coefficient")
    res = Series((), min(s.order, min(p.order for p in polys)))
    for p in reversed(polys):
        res = res * s + p
    return res


def _newton(phi, slope, seed, like: Series) -> Series:
    """The root y of Phi(y) = 0 with y(0) = seed, to the order of ``like``
    and over its variables, by Newton iteration that doubles the known
    orders (Brent and Kung's windowed step).  With y known through
    z^(lo - 1), as a list of coefficients, a step sets z^lo .. z^hi,
    hi = min(2lo - 1, order), to those of -phi*slope: phi(y, lo, hi) gives
    the z^lo .. z^hi coefficients of Phi(y), which vanishes below z^lo, and
    slope(y, n) those of 1/Phi'(y) through z^n, n = hi - lo."""
    y = [{(0,) * len(like.variables): seed}]
    while len(y) <= like.order:
        lo, hi = len(y), min(2 * len(y) - 1, like.order)
        step = _convolve(phi(y, lo, hi), slope(y, hi - lo), 0, hi - lo)
        y += [_pscale(p, -1) for p in step]
    return Series(like.variables, like.order, y)


def algebraic_solve(polys, seed) -> Series:
    """Power-series root of sum p_i F^i with F(0) = seed, by Newton
    iteration, through the lowest order of the p_i.  The p_i may be over
    any nested variable sets, but their z^0 coefficients must be constants.
    The seed must be a simple root of the z = 0 polynomial."""
    if not polys:
        raise SeriesError("a polynomial needs a coefficient")
    order = min(p.order for p in polys)
    if any(any(k) for p in polys for k in p.coeffs[0]):
        raise SeriesError("a z^0 coefficient depends on a variable")
    heads = [sum(p.coeffs[0].values()) for p in polys]
    seed = _norm(Fraction(seed))
    if sum(c * seed**i for i, c in enumerate(heads)) != 0:
        raise SeriesError(f"seed {seed} is not a root at z = 0")
    if sum(i * c * seed ** (i - 1) for i, c in enumerate(heads) if i) == 0:
        raise SeriesError(f"seed {seed} is not a simple root at z = 0")
    dpolys = [p * i for i, p in enumerate(polys) if i]
    variables = max((p.variables for p in polys), key=len)
    f = _newton(
        lambda y, lo, hi: poly_eval(polys, Series(variables, hi, y)).coeffs[lo:],
        lambda y, n: poly_eval(dpolys, Series(variables, n, y)).inverse().coeffs,
        seed,
        Series(variables, order),
    )
    if poly_eval(polys, f).is_zero():
        return f
    raise SeriesError("Newton iteration did not converge")


# ---------------------------------------------------------------------------
# functional equation solvers (one new z-order per pass)


def _solve(variables, terms, order: int) -> Series:
    """K through z^order from K_0 = 1 and K_n = the sum over the terms
    (f, g) of [z^(n-1)] F*G, where F_j = f(K_j, j) and G_j = g(K_j, j).
    A term (f, None) has G = 1: it adds F_(n-1) alone, and keeps no F_j.
    Each product keeps its F_j and G_j packed across orders (``_Product``),
    regridding with a fixed headroom only when an order outgrows the grid."""
    order = Series._order(order)
    nvars = len(variables)
    K = [{(0,) * nvars: 1}]
    sides = [(f, g, _Product(nvars)) for f, g in terms]
    for n in range(1, order + 1):
        kj, kn = K[-1], {}
        for f, g, fg in sides:
            if g is None:
                _pacc(kn, f(kj, n - 1))
            else:
                _pacc(kn, fg.push(f(kj, n - 1), g(kj, n - 1)))
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


def fe_iterate(name: str, order: int) -> Series:
    """Solve one of the built-in functional equations through z^order."""
    if name not in _FE:
        raise SeriesError(f"unknown functional equation {name!r}")
    order = Series._order(order)
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
        K0 = K.subs("u", 0)
        inner = K * 2 + K.times_var("u") + (K - K0).divide_by_var("u")
        return (1 + (K * inner).shift(1)) - K
    if name == "K_Llv":
        K = sol
        K0 = K.subs("u", 0)
        inner = K * 2 + K.times_var("u") + (K - K0).divide_by_var("u")
        return (1 + (((K - 1).times_var("v") + 1) * inner).shift(1)) - K
    if name == "K_lt2":
        K = sol
        C = narayana_series(N)
        Cu = C.widen(K.variables)
        K0 = K.subs("u", 0)
        diff = (K - K0).divide_by_var("u") + (K - K0)
        mid = (K0 - C) + diff + Cu + Cu.times_var("u")
        rhs = (
            1
            + (C * ((K - 1).times_var("v") + 1)).shift(1)
            + (mid * ((K0 - 1).times_var("v") + 1)).shift(1)
        )
        return rhs - K
    if name == "K_peak":
        K = sol
        K0 = K.subs("u", 0)
        inner = K + (K - 1).times_var("u") + (K - 1) + (K - K0).divide_by_var("u")
        return (1 + (K * inner).shift(1)) - K
    if name == "G_classV":
        G = sol
        Gt0 = G.subs("u", 0).widen(G.variables)
        G00 = Gt0.subs("t", 0)
        term2 = (G - Gt0).divide_by_var("t").divide_by_var("u")
        term3 = (Gt0 - G00).divide_by_var("t")
        # the equation times (1 - u), so that its last term needs no division
        term4 = (Gt0 - Gt0.subs_prod("t", "u")).times_var("t").times_var("u")
        rhs = 1 + (G.times_var("t") + term2 + term3).shift(1)
        gap = rhs - G
        return gap - gap.times_var("u") + term4.shift(1)
    raise SeriesError(f"unknown functional equation {name!r}")


# ---------------------------------------------------------------------------
# matching -> partition substitution


def substitution_sum(a, order: int, extra_denominator: int = 1) -> Series:
    """Evaluate sum c_{n,k} z^(2n-k) / (1-z)^(2n+extra) for a series
    a = sum c_{n,k} v^k z^n; requires the valley bound k <= n - 1 for n >= 1
    and k = 0 for n = 0, and a.order >= order - 1.  Each monomial adds one
    binomial coefficient to each output coefficient from z^(2n-k) on."""
    order = Series._order(order)
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
