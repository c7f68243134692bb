"""Analytic expression trees: parsing, printing, evaluation, derivatives.

An expression is an immutable tree over variables, float constants, the
rational operations, integer powers, and a fixed whitelist of analytic
primitives (exp, sin, cos, sinh, cosh, log1p, sqrt1p, atan). Construction
enforces analyticity at the origin: division needs a denominator with a
nonzero value at 0, log1p and sqrt1p need arguments with value > -1 there.

The module provides exact forward-mode gradients (vectorized over point
batches), symbolic partial derivatives (used to build Jacobian minors as
expressions), and degree-capped Taylor expansion at the origin via the
series engine in :mod:`germapprox.series`.

Everything known about a primitive (its float and numpy functions, its
numeric and symbolic derivatives, its Taylor coefficients and its domain
floor) is one row of ``series.PRIMITIVE_TABLE``; adding a primitive means
adding a row there, and tests/test_expr.py's per-primitive consistency test
checks the new row once it has a reference entry. Value at the origin,
batch values, value+gradient and Taylor series are one walker, ``_fold``,
run over different leaf values.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .series import (
    PRIMITIVE_TABLE,
    Poly,
    TruncatedSeries,
    poly_from_series,
    series_compose_primitive,
)

PRIM_NAMES = tuple(PRIMITIVE_TABLE)

DEFAULT_NAMES = ("x", "y", "z", "w")


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonAnalyticError(ExprError):
    """Raised at construction when a subexpression is not analytic at 0."""


class EvalDomainError(ExprError):
    """Raised when scalar evaluation leaves the analytic domain."""


# ---------------------------------------------------------------------------
# nodes


class Expr:
    """Base class; all nodes are frozen dataclasses and compare structurally."""

    __slots__ = ()

    # convenience operators used heavily by tests and by internal builders;
    # these apply light simplification (see the mk_* constructors below)
    def __add__(self, other):
        return mk_add(self, _coerce(other))

    def __radd__(self, other):
        return mk_add(_coerce(other), self)

    def __sub__(self, other):
        return mk_sub(self, _coerce(other))

    def __rsub__(self, other):
        return mk_sub(_coerce(other), self)

    def __mul__(self, other):
        return mk_mul(self, _coerce(other))

    def __rmul__(self, other):
        return mk_mul(_coerce(other), self)

    def __truediv__(self, other):
        return mk_div(self, _coerce(other))

    def __rtruediv__(self, other):
        return mk_div(_coerce(other), self)

    def __neg__(self):
        return mk_neg(self)

    def __pow__(self, e):
        return mk_int_pow(self, e)


def _coerce(v) -> "Expr":
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot use {type(v).__name__} in an expression")


@dataclass(frozen=True)
class Var(Expr):
    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 0:
            raise ExprError("variable index must be a nonnegative int")


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise NonAnalyticError("constants must be finite")


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def __post_init__(self):
        if const_term(self.right) == 0.0:
            raise NonAnalyticError(
                "division by an expression that vanishes at the origin")


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class IntPow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ExprError("power exponents must be nonnegative integers")


@dataclass(frozen=True)
class Prim(Expr):
    """A whitelisted analytic primitive applied to a subexpression."""

    name: str
    arg: Expr

    def __post_init__(self):
        row = PRIMITIVE_TABLE.get(self.name)
        if row is None:
            raise ExprError(f"unknown primitive {self.name!r}")
        if row.floor is not None and const_term(self.arg) <= row.floor:
            raise NonAnalyticError(
                f"{self.name} needs an argument with value > {row.floor:g} "
                "at the origin")


# ---------------------------------------------------------------------------
# structural helpers


def _fold(e: Expr, var, const, prim):
    """Evaluate ``e`` bottom-up over any values that support + - * / unary -
    and ** int. The leaves come from ``var(index)`` and ``const(value)``;
    ``prim(row, value)`` applies a primitive given its table row.

    Plain recursion on purpose: a self-referencing inner closure would form
    a reference cycle that keeps the leaves (and the batches they capture)
    alive until the cyclic garbage collector runs.
    """
    if isinstance(e, Var):
        return var(e.index)
    if isinstance(e, Const):
        return const(e.value)
    if isinstance(e, Add):
        return (_fold(e.left, var, const, prim)
                + _fold(e.right, var, const, prim))
    if isinstance(e, Sub):
        return (_fold(e.left, var, const, prim)
                - _fold(e.right, var, const, prim))
    if isinstance(e, Mul):
        return (_fold(e.left, var, const, prim)
                * _fold(e.right, var, const, prim))
    if isinstance(e, Div):
        return (_fold(e.left, var, const, prim)
                / _fold(e.right, var, const, prim))
    if isinstance(e, Neg):
        return -_fold(e.arg, var, const, prim)
    if isinstance(e, IntPow):
        return _fold(e.base, var, const, prim) ** e.exponent
    if isinstance(e, Prim):
        return prim(PRIMITIVE_TABLE[e.name], _fold(e.arg, var, const, prim))
    raise ExprError(f"unknown node {type(e).__name__}")


def _scalar_at_origin(row, c: float) -> float:
    # math's functions raise ValueError, not OverflowError, on an infinite
    # argument (a product of two huge factors overflows to inf silently)
    if not math.isfinite(c):
        raise OverflowError
    return row.scalar(c)


def const_term(e: Expr) -> float:
    """Value at the origin, computed exactly through the tree.

    A value that overflows a float (say exp(exp(2)^4), or the inf - inf of
    two overflowing products) is not usable as an analytic germ at 0 here,
    so it raises NonAnalyticError.
    """
    try:
        value = _fold(e, lambda index: 0.0, lambda value: value,
                      _scalar_at_origin)
        if not math.isfinite(value):
            raise OverflowError
    except OverflowError:
        raise NonAnalyticError(
            "value at the origin overflows a float") from None
    return value


def max_index(e: Expr) -> int:
    """Largest variable index used, -1 for constant expressions."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Const):
        return -1
    if isinstance(e, (Add, Sub, Mul, Div)):
        return max(max_index(e.left), max_index(e.right))
    if isinstance(e, Neg):
        return max_index(e.arg)
    if isinstance(e, IntPow):
        return max_index(e.base)
    if isinstance(e, Prim):
        return max_index(e.arg)
    raise ExprError(f"unknown node {type(e).__name__}")


def is_polynomial(e: Expr) -> bool:
    """True when the tree uses only +, -, *, integer powers, and atoms."""
    if isinstance(e, (Var, Const)):
        return True
    if isinstance(e, (Add, Sub, Mul)):
        return is_polynomial(e.left) and is_polynomial(e.right)
    if isinstance(e, Neg):
        return is_polynomial(e.arg)
    if isinstance(e, IntPow):
        return is_polynomial(e.base)
    return False


def polynomial_degree(e: Expr) -> int | None:
    """Syntactic total degree, or None when the tree is not polynomial."""
    if isinstance(e, Const):
        return 0
    if isinstance(e, Var):
        return 1
    if isinstance(e, (Add, Sub)):
        a, b = polynomial_degree(e.left), polynomial_degree(e.right)
        return None if a is None or b is None else max(a, b)
    if isinstance(e, Mul):
        a, b = polynomial_degree(e.left), polynomial_degree(e.right)
        return None if a is None or b is None else a + b
    if isinstance(e, Neg):
        return polynomial_degree(e.arg)
    if isinstance(e, IntPow):
        a = polynomial_degree(e.base)
        return None if a is None else a * e.exponent
    return None


# ---------------------------------------------------------------------------
# simplifying constructors (used by derivatives and polynomial rebuilds; the
# parser deliberately uses the raw node classes so round-trips are faithful)


def _const_val(e: Expr) -> float | None:
    return e.value if isinstance(e, Const) else None


def mk_add(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_val(a), _const_val(b)
    if ca is not None and cb is not None:
        return Const(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return Add(a, b)


def mk_sub(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_val(a), _const_val(b)
    if ca is not None and cb is not None:
        return Const(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return mk_neg(b)
    return Sub(a, b)


def mk_neg(a: Expr) -> Expr:
    ca = _const_val(a)
    if ca is not None:
        return Const(-ca)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mk_mul(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_val(a), _const_val(b)
    if ca is not None and cb is not None:
        return Const(ca * cb)
    if ca == 0.0 or cb == 0.0:
        return Const(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    return Mul(a, b)


def mk_div(a: Expr, b: Expr) -> Expr:
    cb = _const_val(b)
    if cb == 1.0:
        return a
    ca = _const_val(a)
    if ca == 0.0 and cb is not None and cb != 0.0:
        return Const(0.0)
    if ca is not None and cb is not None and cb != 0.0:
        return Const(ca / cb)
    return Div(a, b)


def mk_int_pow(base: Expr, exponent: int) -> Expr:
    if not isinstance(exponent, int) or exponent < 0:
        raise ExprError("power exponents must be nonnegative integers")
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    cb = _const_val(base)
    if cb is not None:
        return Const(cb ** exponent)
    return IntPow(base, exponent)


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _resolve_names(variables) -> list[str]:
    if isinstance(variables, int):
        if variables < 1:
            raise ExprError("need at least one variable")
        if variables <= len(DEFAULT_NAMES):
            return list(DEFAULT_NAMES[:variables])
        return [f"x{i + 1}" for i in range(variables)]
    names = list(variables)
    if not names:
        raise ExprError("need at least one variable")
    if len(set(names)) != len(names):
        raise ExprError("duplicate variable names")
    return names


class _Parser:
    def __init__(self, text: str, names: list[str]):
        self.text = text
        self.names = names
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    # grammar: expr := term (('+'|'-') term)*
    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    # term := factor (('*'|'/') factor)*
    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.parse_factor()
                if val == "*":
                    node = Mul(node, rhs)
                else:
                    try:
                        node = Div(node, rhs)
                    except NonAnalyticError as exc:
                        raise ParseError(str(exc), pos) from None
            else:
                return node

    # factor := atom ('^' nonneg-int)?
    def parse_factor(self) -> Expr:
        node = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            nkind, nval, npos = self.peek()
            if nkind != "num" or not nval.isdigit():
                raise ParseError("exponent must be a nonnegative integer", npos)
            self.advance()
            node = IntPow(node, int(nval))
        return node

    # atom := number | ident | func '(' expr ')' | '(' expr ')' | '-' atom
    def parse_atom(self) -> Expr:
        kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(val))
        if kind == "ident":
            self.advance()
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in PRIM_NAMES:
                    raise ParseError(
                        f"unknown function {val!r} (allowed: "
                        + ", ".join(PRIM_NAMES) + ")", pos)
                self.advance()
                inner = self.parse_expr()
                self.expect_op(")")
                try:
                    return Prim(val, inner)
                except NonAnalyticError as exc:
                    raise ParseError(str(exc), pos) from None
            if val in self.names:
                return Var(self.names.index(val))
            raise ParseError(f"unknown variable {val!r}", pos)
        if kind == "op" and val == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.parse_atom())
        raise ParseError(
            "expected a number, variable, function call, or parenthesis", pos)


def parse(text: str, variables) -> Expr:
    """Parse ``text`` into an expression tree.

    ``variables`` is either a sequence of variable names (their order fixes
    the indices) or an int n, which uses the conventional names x, y, z, w
    for n <= 4 and x1..xn beyond that.
    """
    names = _resolve_names(variables)
    parser = _Parser(text, names)
    node = parser.parse_expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return node


# ---------------------------------------------------------------------------
# printing


_ATOM, _POW, _TERM, _SUM = 0, 1, 2, 3


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt(e: Expr, names: list[str]):
    if isinstance(e, Var):
        if e.index >= len(names):
            raise ExprError(f"no name for variable index {e.index}")
        return names[e.index], _ATOM
    if isinstance(e, Const):
        if e.value < 0.0 or (e.value == 0.0 and math.copysign(1.0, e.value) < 0):
            return "-" + _fmt_float(-e.value), _ATOM
        return _fmt_float(e.value), _ATOM
    if isinstance(e, Neg):
        return "-" + _atomize(e.arg, names), _ATOM
    if isinstance(e, IntPow):
        return f"{_atomize(e.base, names)}^{e.exponent}", _POW
    if isinstance(e, Prim):
        inner, _ = _fmt(e.arg, names)
        return f"{e.name}({inner})", _ATOM
    if isinstance(e, (Mul, Div)):
        ls, lk = _fmt(e.left, names)
        if lk > _TERM:
            ls = f"({ls})"
        rs, rk = _fmt(e.right, names)
        if rk > _POW:
            rs = f"({rs})"
        op = "*" if isinstance(e, Mul) else "/"
        return f"{ls}{op}{rs}", _TERM
    if isinstance(e, (Add, Sub)):
        ls, lk = _fmt(e.left, names)
        rs, rk = _fmt(e.right, names)
        if rk > _TERM:
            rs = f"({rs})"
        op = " + " if isinstance(e, Add) else " - "
        return f"{ls}{op}{rs}", _SUM
    raise ExprError(f"unknown node {type(e).__name__}")


def _atomize(e: Expr, names: list[str]) -> str:
    s, k = _fmt(e, names)
    return s if k == _ATOM else f"({s})"


def to_string(e: Expr, variables=None) -> str:
    """Render with the minimal parentheses that reparse to the same tree."""
    if variables is None:
        variables = max(max_index(e) + 1, 1)
    names = _resolve_names(variables)
    s, _ = _fmt(e, names)
    return s


# ---------------------------------------------------------------------------
# evaluation (vectorized, permissive) and scalar wrappers (strict)


def eval_many(e: Expr, X: np.ndarray) -> np.ndarray:
    """Evaluate at a batch of points, shape (..., n) -> (...,).

    Domain violations produce nan/inf entries instead of raising; callers
    that need strict semantics use :func:`eval_expr`.
    """
    X = np.asarray(X, dtype=float)
    with np.errstate(all="ignore"):
        return _fold(e, lambda index: X[..., index],
                     lambda value: np.full(X.shape[:-1], value),
                     lambda row, v: row.vector(v))


class _Dual:
    """A batch of values with their gradients, shapes (...,) and (..., n)."""

    __slots__ = ("v", "g")

    def __init__(self, v, g):
        self.v = v
        self.g = g

    @staticmethod
    def variable(X: np.ndarray, index: int) -> "_Dual":
        g = np.zeros(X.shape)
        g[..., index] = 1.0
        return _Dual(X[..., index], g)

    @staticmethod
    def constant(X: np.ndarray, value: float) -> "_Dual":
        return _Dual(np.full(X.shape[:-1], value), np.zeros(X.shape))

    def __add__(self, other):
        return _Dual(self.v + other.v, self.g + other.g)

    def __sub__(self, other):
        return _Dual(self.v - other.v, self.g - other.g)

    def __mul__(self, other):
        return _Dual(self.v * other.v,
                     self.v[..., None] * other.g + other.v[..., None] * self.g)

    def __truediv__(self, other):
        val = self.v / other.v
        return _Dual(val, self.g / other.v[..., None]
                     - (val / other.v)[..., None] * other.g)

    def __neg__(self):
        return _Dual(-self.v, -self.g)

    def __pow__(self, k):
        if k == 0:
            return _Dual(np.ones(self.v.shape), np.zeros(self.g.shape))
        return _Dual(self.v ** k, (k * self.v ** (k - 1))[..., None] * self.g)

    def apply(self, row):
        val = row.vector(self.v)
        return _Dual(val, row.derivative(self.v, val)[..., None] * self.g)


def value_and_grad_many(e: Expr, X: np.ndarray):
    """Forward-mode value and gradient at a batch, (...,n) -> ((...), (...,n))."""
    X = np.asarray(X, dtype=float)
    with np.errstate(all="ignore"):
        out = _fold(e, lambda index: _Dual.variable(X, index),
                    lambda value: _Dual.constant(X, value),
                    lambda row, d: d.apply(row))
    return out.v, out.g


def eval_expr(e: Expr, x) -> float:
    """Strict scalar evaluation; leaving the analytic domain raises."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ExprError("eval_expr expects a single point")
    v = eval_many(e, x)
    v = float(v)
    if not math.isfinite(v):
        raise EvalDomainError(
            f"expression is not finite at {x.tolist()}")
    return v


def gradient(e: Expr, x) -> np.ndarray:
    """Exact forward-mode gradient at a single point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ExprError("gradient expects a single point")
    v, g = value_and_grad_many(e, x)
    if not (math.isfinite(float(v)) and np.all(np.isfinite(g))):
        raise EvalDomainError(
            f"gradient is not finite at {x.tolist()}")
    return g


def eval_system(exprs, X: np.ndarray) -> np.ndarray:
    """Evaluate a list of expressions at a batch: (N,n) -> (N,p)."""
    X = np.asarray(X, dtype=float)
    if not exprs:
        return np.zeros(X.shape[:-1] + (0,))
    return np.stack([eval_many(e, X) for e in exprs], axis=-1)


def eval_system_jacobian(exprs, X: np.ndarray):
    """Values and Jacobians of a system at a batch: (N,n) -> (N,p), (N,p,n)."""
    X = np.asarray(X, dtype=float)
    if not exprs:
        shape = X.shape[:-1]
        return np.zeros(shape + (0,)), np.zeros(shape + (0, X.shape[-1]))
    vals, grads = [], []
    for e in exprs:
        v, g = value_and_grad_many(e, X)
        vals.append(v)
        grads.append(g)
    return np.stack(vals, axis=-1), np.stack(grads, axis=-2)


# ---------------------------------------------------------------------------
# symbolic derivatives


def diff(e: Expr, index: int) -> Expr:
    """Symbolic partial derivative with respect to variable ``index``."""
    if isinstance(e, Var):
        return Const(1.0 if e.index == index else 0.0)
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Add):
        return mk_add(diff(e.left, index), diff(e.right, index))
    if isinstance(e, Sub):
        return mk_sub(diff(e.left, index), diff(e.right, index))
    if isinstance(e, Mul):
        return mk_add(
            mk_mul(diff(e.left, index), e.right),
            mk_mul(e.left, diff(e.right, index)))
    if isinstance(e, Div):
        num = mk_sub(
            mk_mul(diff(e.left, index), e.right),
            mk_mul(e.left, diff(e.right, index)))
        return mk_div(num, mk_int_pow(e.right, 2))
    if isinstance(e, Neg):
        return mk_neg(diff(e.arg, index))
    if isinstance(e, IntPow):
        if e.exponent == 0:
            return Const(0.0)
        return mk_mul(
            mk_mul(Const(float(e.exponent)), mk_int_pow(e.base, e.exponent - 1)),
            diff(e.base, index))
    if isinstance(e, Prim):
        return PRIMITIVE_TABLE[e.name].diff(e.arg, diff(e.arg, index), Prim)
    raise ExprError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Taylor expansion


def taylor_series(e: Expr, cap: int, nvars: int) -> TruncatedSeries:
    """Degree-capped Taylor series of ``e`` at the origin, computed bottom-up."""
    if cap < 0:
        raise ExprError("cap must be nonnegative")
    if nvars < max_index(e) + 1:
        raise ExprError("nvars smaller than the largest variable index used")
    return _fold(e, lambda index: TruncatedSeries.variable(index, nvars, cap),
                 lambda value: TruncatedSeries.constant(value, nvars, cap),
                 lambda row, inner: series_compose_primitive(row.name, inner))


def taylor(e: Expr, k: int, nvars: int) -> Poly:
    """Taylor polynomial of order ``k`` at the origin as a finished Poly."""
    if k < 0:
        raise ExprError("truncation order must be nonnegative")
    return poly_from_series(taylor_series(e, k, nvars))


def _graded_key(mono):
    return (sum(mono), mono)


def poly_to_expr(p: Poly) -> Expr:
    """Rebuild a polynomial expression tree from a Poly, in graded order."""
    items = sorted(
        ((m, c) for m, c in p.coeffs.items() if c != 0.0),
        key=lambda mc: _graded_key(mc[0]))
    if not items:
        return Const(0.0)
    acc: Expr | None = None
    for mono, coeff in items:
        factors: list[Expr] = []
        for j, e in enumerate(mono):
            if e == 1:
                factors.append(Var(j))
            elif e >= 2:
                factors.append(IntPow(Var(j), e))
        mag = abs(coeff)
        if not factors:
            term: Expr = Const(mag)
        else:
            term = factors[0]
            for f in factors[1:]:
                term = Mul(term, f)
            if mag != 1.0:
                term = Mul(Const(mag), term)
        if acc is None:
            acc = Neg(term) if coeff < 0 else term
        elif coeff < 0:
            acc = Sub(acc, term)
        else:
            acc = Add(acc, term)
    return acc
