"""Truncated power series over exact rationals.

``Series`` is a power series in z known exactly through z^order.  Its
coefficients are polynomials in a declared tuple of variables (a subset of
u, v, t), each a dict from exponent tuple to nonzero value.  A plain series
has no variables, so its only key is ().  Every operation serves both cases,
and a plain series combined with one over variables is widened to them.  On
top of this the module provides Newton solving of algebraic equations,
per-order solvers for the functional equations used by the counting
formulas, residual checks for those equations, and the substitution that
turns a valley-marked matching series into a set-partition series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

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


def _pmul(a: dict, b: dict) -> dict:
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
    def zero(cls, order: int) -> "Series":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.constant(1, order)

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

    def drop_variable(self, name: str) -> "Series":
        """Forget a variable the series no longer depends on."""
        axis = self._axis(name)
        out = []
        for n, poly in enumerate(self.coeffs):
            d = {}
            for k, c in poly.items():
                if k[axis] != 0:
                    raise SeriesError(f"z^{n} coefficient still depends on {name}")
                d[k[:axis] + k[axis + 1:]] = c
            out.append(d)
        variables = self.variables[:axis] + self.variables[axis + 1:]
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

    def extend(self, order: int) -> "Series":
        """Pad with zero coefficients; only sound inside iterations that
        subsequently correct the new orders."""
        return Series(self.variables, order, self.coeffs)

    # arithmetic -------------------------------------------------------

    def _operands(self, other):
        """self and other over one variable set, or None for an unknown
        operand."""
        if isinstance(other, (int, Fraction)):
            return self, Series.constant(other, self.order, self.variables)
        if not isinstance(other, Series):
            return None
        if other.variables == self.variables:
            return self, other
        if not other.variables:
            return self, other.widen(self.variables)
        if not self.variables:
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
        out = [{} for _ in range(n + 1)]
        for i, pa in enumerate(a.coeffs[: n + 1]):
            if not pa:
                continue
            for j in range(n + 1 - i):
                if b.coeffs[j]:
                    _pacc(out[i + j], _pmul(pa, b.coeffs[j]))
        return Series(a.variables, n, out)

    __rmul__ = __mul__

    def inverse(self) -> "Series":
        zero = (0,) * len(self.variables)
        c0 = self.coeffs[0]
        if list(c0) != [zero]:
            raise SeriesError(
                "inverse requires a constant (variable-free) nonzero z^0 term"
            )
        # a unit is its own inverse, which keeps integer series in integers
        inv0 = c0[zero] if c0[zero] in (1, -1) else Fraction(1, 1) / c0[zero]
        out = [{zero: inv0}]
        for n in range(1, self.order + 1):
            acc: dict = {}
            for i in range(1, n + 1):
                if self.coeffs[i]:
                    _pacc(acc, _pmul(self.coeffs[i], out[n - i]))
            out.append(_pscale(acc, -inv0))
        return Series(self.variables, self.order, out)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise SeriesError("division by zero")
            return self * (Fraction(1, 1) / other)
        pair = self._operands(other)
        if pair is None:
            return NotImplemented
        return pair[0] * pair[1].inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

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
        y = Series.constant(1, 0, self.variables)
        prec = 0
        while prec < self.order:
            prec = min(2 * prec + 1, self.order)
            y = (y.extend(prec) + self.trunc(prec) / y.extend(prec)) * Fraction(1, 2)
        return y

    def scale_z(self, factor) -> "Series":
        """Substitute factor*z for z."""
        return Series(
            self.variables,
            self.order,
            [_pscale(p, factor**n) for n, p in enumerate(self.coeffs)],
        )

    def shift(self, k: int) -> "Series":
        """Multiply by z^k."""
        return Series(self.variables, self.order + k, ({},) * k + self.coeffs)

    def unshift(self, k: int) -> "Series":
        """Divide by z^k; the low-order coefficients must vanish."""
        if any(self.coeffs[:k]):
            raise DivisibilityError(f"series is not divisible by z^{k}")
        return Series(self.variables, self.order - k, self.coeffs[k:])

    # substitutions ----------------------------------------------------

    def subs_zero(self, name: str) -> "Series":
        axis = self._axis(name)
        return Series(
            self.variables,
            self.order,
            [{k: c for k, c in p.items() if k[axis] == 0} for p in self.coeffs],
        )

    def subs(self, name: str, value) -> "Series":
        axis = self._axis(name)
        out = []
        for poly in self.coeffs:
            d: dict = {}
            for k, c in poly.items():
                key = k[:axis] + (0,) + k[axis + 1:]
                d[key] = d.get(key, 0) + c * value ** k[axis]
            out.append(d)
        return Series(self.variables, self.order, out)

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

    def divide_by_one_minus(self, name: str) -> "Series":
        """Exact division by (1 - name)."""
        axis = self._axis(name)
        out = []
        for n, poly in enumerate(self.coeffs):
            groups: dict = {}
            for k, c in poly.items():
                rest = k[:axis] + (0,) + k[axis + 1:]
                groups.setdefault(rest, {})[k[axis]] = c
            d: dict = {}
            for rest, along in groups.items():
                top = max(along)
                running = 0
                for j in range(top + 1):
                    running += along.get(j, 0)
                    if j < top:
                        d[rest[:axis] + (j,) + rest[axis + 1:]] = running
                if running != 0:
                    raise DivisibilityError(
                        f"z^{n} coefficient is not divisible by (1 - {name})"
                    )
            out.append(d)
        return Series(self.variables, self.order, out)


# The benchmark's layer trace (perfbench/tracer.py, SERIES_CLASSES) finds the
# series methods it wraps under the two former class names; both stay bound
# until the trace names Series.
TruncSeries = AuxSeries = Series


# ---------------------------------------------------------------------------
# Catalan and Narayana series


@lru_cache(maxsize=None)
def narayana_series(order: int) -> Series:
    """Border paths counted by semilength (z) and valleys (v): the series
    C(v,z) with C = 1 + zC + vzC(C-1)."""
    C = [{(0,): 1}]
    for n in range(1, order + 1):
        conv: dict = {}
        for i in range(n):
            _pacc(conv, _pmul(C[i], C[n - 1 - i]))
        cn = dict(C[n - 1])
        diff = dict(conv)
        _pacc(diff, C[n - 1], -1)
        _pacc(cn, _pshift(diff, 0))
        C.append(cn)
    return Series(("v",), order, C)


def catalan_series(order: int) -> Series:
    return narayana_series(order).subs("v", 1).drop_variable("v")


# ---------------------------------------------------------------------------
# algebraic equations


def poly_eval(polys, s: Series) -> Series:
    """Evaluate sum p_i * s^i by Horner's rule."""
    polys = [p if isinstance(p, Series) else Series.from_coeffs(p, s.order) for p in polys]
    res = Series.zero(min(s.order, min(p.order for p in polys)))
    for p in reversed(polys):
        res = res * s + p
    return res


def algebraic_solve(polys, seed, order: int | None = None) -> Series:
    """Power-series root of sum p_i(z) F^i with F(0) = seed, by Newton
    iteration; the seed must be a simple root of the z = 0 polynomial."""
    polys = [
        p if isinstance(p, Series) else Series.from_coeffs(p)
        for p in polys
    ]
    if order is None:
        order = min(p.order for p in polys)
    polys = [p.extend(order) for p in polys]
    seed = _norm(Fraction(seed))
    value = sum(p[0] * seed**i for i, p in enumerate(polys))
    if value != 0:
        raise SeriesError(f"seed {seed} is not a root at z = 0")
    deriv = sum(i * p[0] * seed ** (i - 1) for i, p in enumerate(polys) if i)
    if deriv == 0:
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


# ---------------------------------------------------------------------------
# functional equation solvers (one new z-order per pass)


def _bracket(kj: dict) -> dict:
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


def _fe_K_Ll(order: int) -> Series:
    K = [{(0,): 1}]
    A = [_bracket(K[0])]
    for n in range(1, order + 1):
        kn: dict = {}
        for i in range(n):
            _pacc(kn, _pmul(K[i], A[n - 1 - i]))
        K.append(kn)
        A.append(_bracket(kn))
    return Series(("u",), order, K)


def _fe_K_Llv(order: int) -> Series:
    K = [{(0, 0): 1}]
    A = [_bracket(K[0])]
    B = [_marked(K[0], 0)]
    for n in range(1, order + 1):
        kn: dict = {}
        for i in range(n):
            _pacc(kn, _pmul(B[i], A[n - 1 - i]))
        K.append(kn)
        A.append(_bracket(kn))
        B.append(_marked(kn, n))
    return Series(("u", "v"), order, K)


def _fe_K_lt2(order: int) -> Series:
    C = narayana_series(order).widen(("u", "v")).coeffs

    def middle(kj: dict, cj: dict) -> dict:
        out = dict(kj)
        _pacc(out, _pdown(kj, 0))
        _pacc(out, _pshift(cj, 0))
        return out

    K = [{(0, 0): 1}]
    K0 = [dict(K[0])]
    D = [_marked(K[0], 0)]
    E = [middle(K[0], C[0])]
    F = [_marked(K0[0], 0)]
    for n in range(1, order + 1):
        kn: dict = {}
        for i in range(n):
            j = n - 1 - i
            _pacc(kn, _pmul(C[i], D[j]))
            _pacc(kn, _pmul(E[i], F[j]))
        K.append(kn)
        k0 = {k: c for k, c in kn.items() if k[0] == 0}
        K0.append(k0)
        D.append(_marked(kn, n))
        E.append(middle(kn, C[n]))
        F.append(_marked(k0, n))
    return Series(("u", "v"), order, K)


def _fe_K_peak(order: int) -> Series:
    def bracket(kj: dict, j: int) -> dict:
        out = dict(kj)
        km1 = dict(kj)
        if j == 0:
            _pacc(km1, {(0,): 1}, -1)
        _pacc(out, _pshift(km1, 0))
        _pacc(out, km1)
        _pacc(out, _pdown(kj, 0))
        return out

    K = [{(0,): 1}]
    A = [bracket(K[0], 0)]
    for n in range(1, order + 1):
        kn: dict = {}
        for i in range(n):
            _pacc(kn, _pmul(K[i], A[n - 1 - i]))
        K.append(kn)
        A.append(bracket(kn, n))
    return Series(("u",), order, K)


def _fe_G_classV(order: int) -> Series:
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


FE_NAMES = ("K_Ll", "K_Llv", "K_lt2", "K_peak", "G_classV")

_FE_SOLVERS = {
    "K_Ll": _fe_K_Ll,
    "K_Llv": _fe_K_Llv,
    "K_lt2": _fe_K_lt2,
    "K_peak": _fe_K_peak,
    "G_classV": _fe_G_classV,
}


def _check_degree_caps(name: str, sol: Series) -> None:
    for n, poly in enumerate(sol.coeffs):
        for k in poly:
            if name in ("K_Ll", "K_peak"):
                ok = k[0] <= n
            elif name in ("K_Llv", "K_lt2"):
                ok = k[0] <= n and k[1] <= max(n - 1, 0)
            else:
                ok = k[0] <= n and k[1] <= k[0]
            if not ok:
                raise SeriesError(
                    f"{name}: z^{n} coefficient exceeds its degree cap at {k}"
                )


@lru_cache(maxsize=None)
def fe_iterate(name: str, order: int) -> Series:
    """Solve one of the built-in functional equations through z^order."""
    if name not in _FE_SOLVERS:
        raise SeriesError(f"unknown functional equation {name!r}")
    if order < 0:
        raise SeriesError("order must be nonnegative")
    sol = _FE_SOLVERS[name](order)
    _check_degree_caps(name, sol)
    return sol


def residual(name: str, sol: Series) -> Series:
    """Plug a solution back into its equation; zero when correct.  Uses the
    generic series operations rather than the solver's recurrences."""
    N = sol.order
    if name == "K_Ll":
        K = sol
        u = Series.var("u", K.variables, N)
        K0 = K.subs_zero("u")
        inner = K * 2 + u * K + (K - K0).divide_by_var("u")
        return (1 + (K * inner).shift(1).trunc(N)) - K
    if name == "K_Llv":
        K = sol
        u = Series.var("u", K.variables, N)
        v = Series.var("v", K.variables, N)
        K0 = K.subs_zero("u")
        inner = K * 2 + u * K + (K - K0).divide_by_var("u")
        return (1 + ((v * K - v + 1) * inner).shift(1).trunc(N)) - K
    if name == "K_lt2":
        K = sol
        u = Series.var("u", K.variables, N)
        v = Series.var("v", K.variables, N)
        C = narayana_series(N).widen(K.variables)
        K0 = K.subs_zero("u")
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
        K0 = K.subs_zero("u")
        inner = K + u * (K - 1) + (K - 1) + (K - K0).divide_by_var("u")
        return (1 + (K * inner).shift(1).trunc(N)) - K
    if name == "G_classV":
        G = sol
        t = Series.var("t", G.variables, N)
        u = Series.var("u", G.variables, N)
        Gt0 = G.subs_zero("u")
        G00 = Gt0.subs_zero("t")
        term2 = (G - Gt0).divide_by_var("t").divide_by_var("u")
        term3 = (Gt0 - G00).divide_by_var("t")
        term4 = t * (
            ((Gt0 - Gt0.subs_prod("t", "u")) * u).divide_by_one_minus("u")
        )
        rhs = 1 + (t * G + term2 + term3 + term4).shift(1).trunc(N)
        return rhs - G
    raise SeriesError(f"unknown functional equation {name!r}")


# ---------------------------------------------------------------------------
# matching -> partition substitution


def substitution_sum(a, order: int, extra_denominator: int = 1) -> Series:
    """Evaluate sum c_{n,k} z^(2n-k) / (1-z)^(2n+extra) for a series
    a = sum c_{n,k} v^k z^n; requires the valley bound k <= n - 1 for n >= 1
    and a.order >= order - 1."""
    a = a.widen(("v",))
    if a.order < max(0, order - 1):
        raise SeriesError(
            f"input order {a.order} too small for output order {order}"
        )
    geom = (1 - Series.z(order)).inverse()
    geom2 = geom * geom
    power = geom**extra_denominator
    result = Series.zero(order)
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


def partition_transform(a, order: int) -> Series:
    """Turn a valley-marked avoiding-matchings series A(v,z) into the
    series for avoiding set partitions: (1/(1-z)) A(1/z, z^2/(1-z)^2)."""
    return substitution_sum(a, order, extra_denominator=1)
