"""Sparse multivariate power series truncated at a total-degree cap.

A series is a dict mapping exponent tuples to float coefficients, together
with the number of variables and the cap. Every arithmetic operation
re-truncates, so the type is closed under add/mul/composition: degrees above
the cap are simply dropped. ``Poly`` is the same representation with the cap
pinned to the exact degree; it is the finished-polynomial output type of
Taylor truncation and can be evaluated anywhere.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

Monomial = tuple[int, ...]

class SeriesError(ValueError):
    pass


def _zero_mono(nvars: int) -> Monomial:
    return (0,) * nvars


@dataclass
class TruncatedSeries:
    """Multivariate power series about the origin, truncated at ``cap``.

    coeffs holds only the stored (possibly zero) entries; exponent tuples
    have length ``nvars`` and total degree at most ``cap``.
    """

    nvars: int
    cap: int
    coeffs: dict[Monomial, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.nvars < 1:
            raise SeriesError("a series needs at least one variable")
        if self.cap < 0:
            raise SeriesError("cap must be nonnegative")
        for mono in self.coeffs:
            if len(mono) != self.nvars:
                raise SeriesError(
                    f"exponent tuple {mono} does not match nvars={self.nvars}")
            if any(e < 0 for e in mono):
                raise SeriesError(f"negative exponent in {mono}")
            if sum(mono) > self.cap:
                raise SeriesError(
                    f"monomial {mono} exceeds cap {self.cap}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, nvars: int, cap: int) -> "TruncatedSeries":
        value = float(value)
        coeffs = {} if value == 0.0 else {_zero_mono(nvars): value}
        return cls(nvars, cap, coeffs)

    @classmethod
    def variable(cls, index: int, nvars: int, cap: int) -> "TruncatedSeries":
        if not 0 <= index < nvars:
            raise SeriesError(f"variable index {index} out of range")
        if cap < 1:
            return cls(nvars, cap, {})
        mono = tuple(1 if j == index else 0 for j in range(nvars))
        return cls(nvars, cap, {mono: 1.0})

    # -- basic queries -----------------------------------------------------

    def constant_term(self) -> float:
        return self.coeffs.get(_zero_mono(self.nvars), 0.0)

    def degree(self) -> int:
        """Exact degree of the stored support (0 for the zero series)."""
        degs = [sum(m) for m, c in self.coeffs.items() if c != 0.0]
        return max(degs) if degs else 0

    def _compat(self, other: "TruncatedSeries") -> None:
        if self.nvars != other.nvars:
            raise SeriesError("mixed variable counts")
        if self.cap != other.cap:
            raise SeriesError("mixed caps; retruncate explicitly first")

    # -- arithmetic (closed at the cap) ------------------------------------

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compat(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            v = out.get(m, 0.0) + c
            if v == 0.0:
                out.pop(m, None)
            else:
                out[m] = v
        return TruncatedSeries(self.nvars, self.cap, out)

    def sub(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.add(other.neg())

    def neg(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.nvars, self.cap, {m: -c for m, c in self.coeffs.items()})

    def scale(self, factor: float) -> "TruncatedSeries":
        factor = float(factor)
        if factor == 0.0:
            return TruncatedSeries(self.nvars, self.cap, {})
        return TruncatedSeries(
            self.nvars, self.cap, {m: factor * c for m, c in self.coeffs.items()})

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compat(other)
        cap = self.cap
        out: dict[Monomial, float] = {}
        for ma, ca in self.coeffs.items():
            da = sum(ma)
            if ca == 0.0:
                continue
            for mb, cb in other.coeffs.items():
                if da + sum(mb) > cap or cb == 0.0:
                    continue
                m = tuple(a + b for a, b in zip(ma, mb))
                v = out.get(m, 0.0) + ca * cb
                if v == 0.0:
                    out.pop(m, None)
                else:
                    out[m] = v
        return TruncatedSeries(self.nvars, cap, out)

    def int_pow(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise SeriesError("negative powers are not series operations")
        acc = TruncatedSeries.constant(1.0, self.nvars, self.cap)
        base = self
        e = exponent
        while e > 0:
            if e & 1:
                acc = acc.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
        return acc

    def reciprocal(self) -> "TruncatedSeries":
        """1/self, requires a nonzero constant term."""
        c = self.constant_term()
        if c == 0.0:
            raise SeriesError("cannot invert a series with zero constant term")
        # 1/s = (1/c) * sum_j t^j with t = 1 - s/c (t has no constant term)
        t = TruncatedSeries.constant(1.0, self.nvars, self.cap).sub(
            self.scale(1.0 / c))
        acc = TruncatedSeries.constant(1.0, self.nvars, self.cap)
        for _ in range(self.cap):
            acc = acc.mul(t).add(
                TruncatedSeries.constant(1.0, self.nvars, self.cap))
        return acc.scale(1.0 / c)

    # operator forms, so expression trees can be folded over series
    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg
    __pow__ = int_pow

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.mul(other.reciprocal())

    def truncated(self, cap: int) -> "TruncatedSeries":
        """View of self at a lower (or equal) cap."""
        if cap > self.cap:
            raise SeriesError("cannot raise the cap of an existing series")
        out = {m: c for m, c in self.coeffs.items() if sum(m) <= cap}
        return TruncatedSeries(self.nvars, cap, out)

    # -- evaluation and comparison -----------------------------------------

    def eval(self, x) -> np.ndarray | float:
        """Evaluate the stored polynomial part at x (shape (..., nvars))."""
        X = np.asarray(x, dtype=float)
        scalar = X.ndim == 1
        if scalar:
            X = X[None, :]
        if X.shape[-1] != self.nvars:
            raise SeriesError("point dimension does not match nvars")
        acc = np.zeros(X.shape[:-1])
        for mono, c in self.coeffs.items():
            if c == 0.0:
                continue
            term = np.full(X.shape[:-1], c)
            for j, e in enumerate(mono):
                if e:
                    term = term * X[..., j] ** e
            acc = acc + term
        return float(acc[0]) if scalar else acc

    def max_abs_diff(self, other: "TruncatedSeries") -> float:
        keys = set(self.coeffs) | set(other.coeffs)
        return max(
            (abs(self.coeffs.get(k, 0.0) - other.coeffs.get(k, 0.0)) for k in keys),
            default=0.0)

    def allclose(self, other: "TruncatedSeries", tol: float = 1e-12) -> bool:
        scale = max(
            [abs(c) for c in self.coeffs.values()]
            + [abs(c) for c in other.coeffs.values()] + [1.0])
        return self.max_abs_diff(other) <= tol * scale


class Poly(TruncatedSeries):
    """A finished polynomial: same storage, cap equals the exact degree."""


def poly_from_series(series: TruncatedSeries) -> Poly:
    coeffs = {m: c for m, c in series.coeffs.items() if c != 0.0}
    degree = max((sum(m) for m in coeffs), default=0)
    return Poly(series.nvars, degree, coeffs)


def _univariate_reciprocal(dens: list[float], order: int) -> list[float]:
    """Coefficients of 1/(d0 + d1 t + ...) up to t^order, d0 != 0."""
    d0 = dens[0]
    if d0 == 0.0:
        raise SeriesError("univariate inversion needs a nonzero constant term")
    out = [1.0 / d0]
    for k in range(1, order + 1):
        s = 0.0
        for i in range(1, min(k, len(dens) - 1) + 1):
            s += dens[i] * out[k - i]
        out.append(-s / d0)
    return out


# -- Taylor coefficients a_0..m of psi(c + t) in powers of t, per primitive --

def _cyclic(*derivs):
    """Coefficients of a primitive whose derivatives at c cycle through
    ``derivs`` (functions of c): a_j = derivs[j % len](c) / j!."""
    def coefficients(c: float, m: int) -> list[float]:
        cyc = [d(c) for d in derivs]
        return [_over_factorial(cyc[j % len(cyc)], j) for j in range(m + 1)]
    return coefficients


def _over_factorial(x: float, j: int) -> float:
    """x / j!. The float of j! overflows from j = 171; past it x, as an
    exact ratio of integers, is divided by the integer j!, so the quotient
    is rounded once and is at most |x|."""
    if j <= 170:
        return x / math.factorial(j)
    p, q = x.as_integer_ratio()
    return p / (q * math.factorial(j))


def _log1p_coefficients(c: float, m: int) -> list[float]:
    out = [math.log1p(c)]
    for j in range(1, m + 1):
        out.append((-1.0) ** (j - 1) / (j * (1.0 + c) ** j))
    return out


def _sqrt1p_coefficients(c: float, m: int) -> list[float]:
    # binomial series sqrt(1+c+t) = sum binom(1/2, j) (1+c)^(1/2-j) t^j
    out = []
    binom = 1.0
    for j in range(m + 1):
        out.append(binom * (1.0 + c) ** (0.5 - j))
        binom *= (0.5 - j) / (j + 1)
    return out


def _atan_coefficients(c: float, m: int) -> list[float]:
    # atan(c+t) = atan(c) + integral of 1/(1+(c+t)^2)
    if m == 0:
        return [math.atan(c)]
    rec = _univariate_reciprocal([1.0 + c * c, 2.0 * c, 1.0], m - 1)
    return [math.atan(c)] + [rec[j - 1] / j for j in range(1, m + 1)]


def _log1p_vector(v):
    # permissive: nan (not -inf) at v = -1 too, so the boundary of the
    # domain reads as outside it
    return np.where(v > -1.0, np.log1p(np.maximum(v, -1.0)), np.nan)


@dataclass(frozen=True)
class Primitive:
    """Everything the package knows about one analytic primitive psi.

    ``vector`` evaluates psi on an array (permissively, nan/inf instead of
    raising); ``diff(a, da, prim)`` is the derivative of psi(a) given the
    derivative ``da`` of the argument and ``prim(name, arg)``, which applies
    a primitive: over expression trees it builds a node (symbolic
    derivatives), over arrays it evaluates (forward-mode gradients);
    ``coefficients(c, m)`` are the Taylor coefficients a_0..a_m of
    psi(c + t); and psi is analytic at c only when c > ``floor`` (None:
    everywhere).
    """

    name: str
    vector: Callable[[np.ndarray], np.ndarray]
    diff: Callable
    coefficients: Callable[[float, int], list[float]]
    floor: float | None = None


# One row per primitive. The ``diff`` rules build their trees with the
# simplifying Expr operators, so derivative trees (and the minors and cache
# signatures built from them) depend on the exact form written here.
PRIMITIVE_TABLE: dict[str, Primitive] = {p.name: p for p in (
    Primitive("exp", np.exp, lambda a, da, prim: prim("exp", a) * da,
              _cyclic(math.exp)),
    Primitive("sin", np.sin, lambda a, da, prim: prim("cos", a) * da,
              _cyclic(math.sin, math.cos, lambda c: -math.sin(c),
                      lambda c: -math.cos(c))),
    Primitive("cos", np.cos, lambda a, da, prim: -(prim("sin", a) * da),
              _cyclic(math.cos, lambda c: -math.sin(c),
                      lambda c: -math.cos(c), math.sin)),
    Primitive("sinh", np.sinh, lambda a, da, prim: prim("cosh", a) * da,
              _cyclic(math.sinh, math.cosh)),
    Primitive("cosh", np.cosh, lambda a, da, prim: prim("sinh", a) * da,
              _cyclic(math.cosh, math.sinh)),
    Primitive("log1p", _log1p_vector, lambda a, da, prim: da / (1.0 + a),
              _log1p_coefficients, floor=-1.0),
    Primitive("sqrt1p", lambda v: np.sqrt(1.0 + v),
              lambda a, da, prim: da / (2.0 * prim("sqrt1p", a)),
              _sqrt1p_coefficients, floor=-1.0),
    Primitive("atan", np.arctan, lambda a, da, prim: da / (1.0 + a ** 2),
              _atan_coefficients),
)}


def primitive_coefficients(name: str, center: float, order: int) -> list[float]:
    """Taylor coefficients a_0..a_order of the primitive about ``center``.

    These are the coefficients of psi(center + t) in powers of t, with the
    analyticity conditions (log1p and sqrt1p need center > -1) enforced.
    """
    row = PRIMITIVE_TABLE.get(name)
    if row is None:
        raise SeriesError(f"unknown primitive {name!r}")
    c = float(center)
    if row.floor is not None and c <= row.floor:
        raise SeriesError(f"{name} needs a constant term > {row.floor:g}")
    return row.coefficients(c, order)


def series_compose_primitive(name: str, inner: TruncatedSeries) -> TruncatedSeries:
    """psi(inner) for a univariate primitive psi, re-centered at the inner
    constant term and composed with the nonconstant part."""
    c = inner.constant_term()
    coeffs = primitive_coefficients(name, c, inner.cap)
    v = inner.sub(TruncatedSeries.constant(c, inner.nvars, inner.cap))
    # Horner: a_0 + v*(a_1 + v*(a_2 + ...))
    acc = TruncatedSeries.constant(coeffs[-1], inner.nvars, inner.cap)
    for j in range(inner.cap - 1, -1, -1):
        acc = acc.mul(v).add(
            TruncatedSeries.constant(coeffs[j], inner.nvars, inner.cap))
    return acc
