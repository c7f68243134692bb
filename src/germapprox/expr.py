"""Analytic expression trees: parsing, printing, evaluation, derivatives.

An expression is an immutable tree over variables, float constants, the
rational operations, integer powers, and a fixed whitelist of analytic
primitives (exp, sin, cos, sinh, cosh, log1p, sqrt1p, atan). Construction
enforces analyticity at the origin: division needs a denominator with a
nonzero value at 0, log1p and sqrt1p need arguments with value > -1 there.

The module provides exact forward-mode gradients (vectorized over point
batches, carrying only the gradient columns of the variables each
subexpression contains), symbolic partial derivatives (used to build
Jacobian minors as expressions), and degree-capped Taylor expansion at the
origin via the series engine in :mod:`germapprox.series`. Batch evaluation
raises to integer powers of 3 and more by repeated squaring
(:func:`_int_power`), in one fixed order of products.

Everything known about a primitive (its numpy function, its derivative
rule, its Taylor coefficients and its domain floor) is one row of
``series.PRIMITIVE_TABLE``. Forward mode applies the same derivative rule
to values that ``diff`` applies to trees; adding a primitive means
adding a row there, and tests/test_expr.py's per-primitive consistency test
checks the new row once it has a reference entry. The binary operators
``+ - * /`` are rows of ``_BINARY`` in the same way: each one's printed
symbol, precedence level and operation on values, which the parser, the
printer, ``_fold`` and the tree walks read. Value at the origin, batch
values, value+gradient and Taylor series are one walker, ``_fold``, run
over different leaf values.
"""
from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
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


# precedence levels of printed forms, from an atom up to a sum
_ATOM, _POW, _TERM, _SUM = 0, 1, 2, 3

# each binary operator: its printed symbol, its precedence level and its
# operation on values. The parser, the printer, evaluation and the tree
# walks read it; ``diff``, ``polynomial_degree``, the mk_* constructors and
# forward mode keep their own rule per operator
_Binary = namedtuple("_Binary", "symbol level op")
_BINARY = {
    Add: _Binary(" + ", _SUM, operator.add),
    Sub: _Binary(" - ", _SUM, operator.sub),
    Mul: _Binary("*", _TERM, operator.mul),
    Div: _Binary("/", _TERM, operator.truediv),
}


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
    binary = _BINARY.get(type(e))
    if binary is not None:
        return binary.op(_fold(e.left, var, const, prim),
                         _fold(e.right, var, const, prim))
    if isinstance(e, Neg):
        return -_fold(e.arg, var, const, prim)
    if isinstance(e, IntPow):
        return _int_power(_fold(e.base, var, const, prim), e.exponent)
    if isinstance(e, Prim):
        return prim(PRIMITIVE_TABLE[e.name], _fold(e.arg, var, const, prim))
    raise ExprError(f"unknown node {type(e).__name__}")


def _int_power(v, k: int):
    """``v ** k``; for a numpy value and k >= 3, by repeated squaring.

    numpy's float64 ``power`` is many times slower than a few products on
    negative bases. The products come in one fixed order, so a row gets the
    same bits at every batch size and layout: walking the bits of k from
    the lowest, the running square b is v, v^2, v^4, ..., and each set bit
    multiplies the result on the right, result = result * b (the first set
    bit starts the result at b). So v^3 = v * v^2 and v^6 = v^2 * v^4. No
    square is taken past k's highest bit, so where |v| >= 1 no
    intermediate exceeds |v|^k, and overflow, nan, signed zeros and
    infinities come out as ``pow`` gives them. Each product rounds once, so
    the result is within k - 1 roundings of the exact power, where ``pow``
    is mostly exact.

    Lower powers, and values that are not numpy's (the Python floats of
    :func:`const_term`, the series of :func:`taylor_series`), use ``**``.
    """
    if k < 3 or not isinstance(v, (np.ndarray, np.generic)):
        return v ** k
    out = None
    while True:
        if k & 1:
            out = v if out is None else out * v
        k >>= 1
        if not k:
            return out
        v = v * v


def _finite_at_origin(row, c):
    # a primitive of an overflowed argument, or one that overflows, stops
    # the fold: atan, exp(-.) or ^0 would fold the overflow into a finite
    # value that Taylor expansion then cannot reproduce. The value goes on
    # as a Python float, so the whole fold stays in Python's arithmetic
    # (and its powers in ``**``) whatever the primitive returns
    value = float(row.vector(c))
    if not (math.isfinite(c) and math.isfinite(value)):
        raise OverflowError
    return value


def const_term(e: Expr) -> float:
    """Value at the origin, computed exactly through the tree.

    A value that overflows a float (say exp(exp(2)^4), or the inf - inf of
    two overflowing products) is not usable as an analytic germ at 0 here,
    so it raises NonAnalyticError.
    """
    try:
        with np.errstate(all="ignore"):
            value = _fold(e, lambda index: 0.0, lambda value: value,
                          _finite_at_origin)
        if not math.isfinite(value):
            raise OverflowError
    except OverflowError:
        raise NonAnalyticError(
            "value at the origin overflows a float") from None
    return float(value)


def _children(e: Expr) -> tuple:
    """The subtrees directly below ``e``."""
    if type(e) in _BINARY:
        return e.left, e.right
    if isinstance(e, (Neg, Prim)):
        return (e.arg,)
    if isinstance(e, IntPow):
        return (e.base,)
    if isinstance(e, (Var, Const)):
        return ()
    raise ExprError(f"unknown node {type(e).__name__}")


def max_index(e: Expr) -> int:
    """Largest variable index used, -1 for constant expressions."""
    found = e.index if isinstance(e, Var) else -1
    # a direct call per child, so a level of the tree costs one stack frame
    # (a builtin max or map around the call would cost a second)
    for child in _children(e):
        found = max(found, max_index(child))
    return found


def depth(e: Expr) -> int:
    """Levels of the tree, counted one level at a time without recursion (a
    subtree shared within a level is visited once)."""
    levels, frontier = 0, [e]
    while frontier:
        levels += 1
        below = {}
        for node in frontier:
            for child in _children(node):
                below[id(child)] = child
        frontier = list(below.values())
    return levels


def is_polynomial(e: Expr) -> bool:
    """True when the tree uses only +, -, *, integer powers, and atoms."""
    return polynomial_degree(e) is not None


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
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
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


# the binary operator a token and a precedence level stand for
_BINARY_AT = {(b.symbol.strip(), b.level): node for node, b in _BINARY.items()}
# parentheses, function calls and unary minuses one expression may nest:
# each level costs the parser about five stack frames, so deeper input is
# refused before it can exhaust Python's recursion limit
_MAX_NESTING = 100
# levels a parsed tree may have: a chain of sums or products parses in a loop
# but nests one level per term, and tree walks recurse per level up to
# Python's limit 1000 (approx's Jacobian minors of a product chain twice as
# deep; sets.minor_determinants refuses deeper minors)
MAX_DEPTH = 450


class _Parser:
    def __init__(self, text: str, names: list[str]):
        self.text = text
        self.names = names
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0

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

    def nested(self, parse, pos: int) -> tuple[Expr, int]:
        """``parse()`` one nesting level down; a parse error ends the parse,
        so the nesting need not be restored on the way out."""
        if self.nesting >= _MAX_NESTING:
            raise ParseError(
                f"nested more than {_MAX_NESTING} levels deep", pos)
        self.nesting += 1
        parsed = parse()
        self.nesting -= 1
        return parsed

    @staticmethod
    def deeper(depth: int, pos: int) -> int:
        """The depth of a node over subtrees at most ``depth`` deep."""
        if depth >= MAX_DEPTH:
            raise ParseError(
                f"expression tree deeper than {MAX_DEPTH} levels", pos)
        return depth + 1

    # grammar: expr := term (('+'|'-') term)*, the level _SUM;
    # term := factor (('*'|'/') factor)*, the level _TERM. The operand
    # calls are inline, so a nesting level costs five stack frames
    def parse_expr(self, level=_SUM) -> tuple[Expr, int]:
        node, depth = (self.parse_expr(_TERM) if level == _SUM
                       else self.parse_factor())
        while True:
            _, val, pos = self.peek()
            binary = _BINARY_AT.get((val, level))
            if binary is None:
                return node, depth
            self.advance()
            rhs, rdepth = (self.parse_expr(_TERM) if level == _SUM
                           else self.parse_factor())
            depth = self.deeper(max(depth, rdepth), pos)
            try:
                node = binary(node, rhs)
            except NonAnalyticError as exc:
                raise ParseError(str(exc), pos) from None

    # factor := atom ('^' nonneg-int)?
    def parse_factor(self) -> tuple[Expr, int]:
        node, depth = self.parse_atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            nkind, nval, npos = self.peek()
            if nkind != "num" or not nval.isdigit():
                raise ParseError("exponent must be a nonnegative integer", npos)
            self.advance()
            return IntPow(node, int(nval)), self.deeper(depth, pos)
        return node, depth

    # atom := number | ident | func '(' expr ')' | '(' expr ')' | '-' atom
    def parse_atom(self) -> tuple[Expr, int]:
        kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(val)), 1
        if kind == "ident":
            self.advance()
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in PRIM_NAMES:
                    raise ParseError(
                        f"unknown function {val!r} (allowed: "
                        + ", ".join(PRIM_NAMES) + ")", pos)
                self.advance()
                inner, depth = self.nested(self.parse_expr, pos)
                self.expect_op(")")
                try:
                    return Prim(val, inner), self.deeper(depth, pos)
                except NonAnalyticError as exc:
                    raise ParseError(str(exc), pos) from None
            if val in self.names:
                return Var(self.names.index(val)), 1
            raise ParseError(f"unknown variable {val!r}", pos)
        if kind == "op" and val == "(":
            self.advance()
            inner = self.nested(self.parse_expr, pos)
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            self.advance()
            inner, depth = self.nested(self.parse_atom, pos)
            return Neg(inner), self.deeper(depth, pos)
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
    node, _ = parser.parse_expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return node


# ---------------------------------------------------------------------------
# printing


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
    binary = _BINARY.get(type(e))
    if binary is not None:
        # a left operand above the operator's level, and a right one at or
        # above it, is parenthesized: the operators associate to the left
        ls, lk = _fmt(e.left, names)
        rs, rk = _fmt(e.right, names)
        if lk > binary.level:
            ls = f"({ls})"
        if rk >= binary.level:
            rs = f"({rs})"
        return f"{ls}{binary.symbol}{rs}", binary.level
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
# evaluation (vectorized, permissive)


def eval_many(e: Expr, X: np.ndarray) -> np.ndarray:
    """Evaluate at a batch of points, shape (..., n) -> (...,); a single
    point, shape (n,), gives a 0-d array.

    Domain violations produce nan/inf entries instead of raising; callers
    check ``np.isfinite`` where they need a value inside the domain.
    """
    X = np.asarray(X, dtype=float)
    with np.errstate(all="ignore"):
        # numpy arithmetic on 0-d arrays returns scalars; asarray makes
        # them 0-d arrays again and returns a batch's array itself
        return np.asarray(_fold(e, lambda index: X[..., index],
                                lambda value: np.full(X.shape[:-1], value),
                                lambda row, v: row.vector(v)))


class _Dual:
    """A batch of values, shape (...,), with the gradient columns they
    depend on: ``g`` maps a variable index to that partial, an array shaped
    like ``v``. A variable the subexpression does not contain has no column,
    since its partial is zero; forward mode carries only the columns a
    subexpression needs (Griewank and Walther, *Evaluating Derivatives*,
    2008).

    Each operation keeps the operand order of the dense rule that carried
    every column: a column that both operands hold is computed as that rule
    computed it, and a column that only one operand holds drops the rule's
    term with a zero partial. So every entry that can be nonzero gets the
    dense rule's bits, and a structurally zero entry reads +0.0 where the
    dense product could write -0.0 (or nan, times an infinite value).
    """

    __slots__ = ("v", "g")

    def __init__(self, v, g: dict):
        self.v = v
        self.g = g

    def __add__(self, other):
        g = dict(self.g)
        for j, dj in other.g.items():
            g[j] = g[j] + dj if j in g else dj
        return _Dual(self.v + other.v, g)

    def __sub__(self, other):
        g = dict(self.g)
        for j, dj in other.g.items():
            g[j] = g[j] - dj if j in g else -dj
        return _Dual(self.v - other.v, g)

    def __mul__(self, other):
        # d(ab) = a db + b da
        a, b = self.v, other.v
        g = {j: a * dj for j, dj in other.g.items()}
        for j, dj in self.g.items():
            g[j] = g[j] + b * dj if j in g else b * dj
        return _Dual(a * b, g)

    def __truediv__(self, other):
        # d(a/b) = da/b - (a/b)/b db
        b = other.v
        val = self.v / b
        g = {j: dj / b for j, dj in self.g.items()}
        if other.g:
            q = val / b
            for j, dj in other.g.items():
                g[j] = g[j] - q * dj if j in g else -(q * dj)
        return _Dual(val, g)

    def __neg__(self):
        return _Dual(-self.v, {j: -dj for j, dj in self.g.items()})

    def __pow__(self, k):
        if k == 0:
            return _Dual(np.ones(self.v.shape), {})
        g = {}
        if self.g:
            factor = k * _int_power(self.v, k - 1)
            g = {j: factor * dj for j, dj in self.g.items()}
        return _Dual(_int_power(self.v, k), g)

    def apply(self, row):
        # the chain rule ``diff`` builds trees with, applied to values: run
        # once on the node's one column, or on its columns stacked along a
        # last axis, with the node's own value handed back where the rule
        # asks for the primitive itself (exp's and sqrt1p's rules do)
        value = row.vector(self.v)
        if not self.g:
            return _Dual(value, {})
        if len(self.g) == 1:
            a, own = self.v, value
            ((j, da),) = self.g.items()
        else:
            a, own = self.v[..., None], value[..., None]
            da = np.stack(list(self.g.values()), axis=-1)

        def prim(name, arg):
            if name == row.name and arg is a:
                return own
            return PRIMITIVE_TABLE[name].vector(arg)

        d = row.diff(a, da, prim)
        if len(self.g) == 1:
            return _Dual(value, {j: d})
        return _Dual(value, {j: d[..., i] for i, j in enumerate(self.g)})


def value_and_grad_many(e: Expr, X: np.ndarray):
    """Forward-mode value and gradient at a batch, (...,n) -> ((...), (...,n))."""
    vals, jac = eval_system_jacobian([e], X)
    return vals[..., 0], jac[..., 0, :]


def eval_system(exprs, X: np.ndarray) -> np.ndarray:
    """Evaluate a list of expressions at a batch: (N,n) -> (N,p)."""
    X = np.asarray(X, dtype=float)
    if not exprs:
        return np.zeros(X.shape[:-1] + (0,))
    return np.stack([eval_many(e, X) for e in exprs], axis=-1)


def _row_norm(X: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(X, axis=-1)`` for a float array X, bit for bit, in
    a few cheap numpy calls where the rows are short.

    numpy's norm is sqrt of ``np.add.reduce(X * X, axis=-1)``, and that
    reduction sums pairwise only in blocks of 8 entries or more: a shorter
    row is added left to right, which is what
    sqrt(x0*x0 + x1*x1 + ...) summed column by column does too. A reduction
    along a last axis of a few entries costs numpy several times more than
    those whole-column operations. From 8 columns on, and for no columns,
    this is numpy's norm itself.
    """
    n = X.shape[-1]
    if not 0 < n < 8:
        return np.linalg.norm(X, axis=-1)
    sq = X[..., 0] * X[..., 0]
    for j in range(1, n):
        sq += X[..., j] * X[..., j]
    return np.sqrt(sq)


def eval_system_jacobian(exprs, X: np.ndarray):
    """Values and Jacobians of a system at a batch: (N,n) -> (N,p), (N,p,n).

    Forward mode (:class:`_Dual`) carries each expression's nonzero columns,
    which are written into a zero Jacobian.
    """
    X = np.asarray(X, dtype=float)
    shape = X.shape[:-1]
    jac = np.zeros(shape + (len(exprs), X.shape[-1]))
    if not exprs:
        return np.zeros(shape + (0,)), jac
    ones = np.ones(shape)

    def var(index):
        return _Dual(X[..., index], {index: ones})

    def const(value):
        return _Dual(np.full(shape, value), {})

    def prim(row, d):
        return d.apply(row)

    vals = []
    with np.errstate(all="ignore"):
        for i, e in enumerate(exprs):
            out = _fold(e, var, const, prim)
            vals.append(out.v)
            for j, dj in out.g.items():
                jac[..., i, j] = dj
    return np.stack(vals, axis=-1), jac


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
