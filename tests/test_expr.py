import itertools
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from germapprox import expr as ex
from germapprox.expr import (
    Add,
    Const,
    Div,
    ExprError,
    IntPow,
    Mul,
    Neg,
    NonAnalyticError,
    ParseError,
    Prim,
    Sub,
    Var,
)

X0, Y0 = Var(0), Var(1)


class TestNodes:
    def test_const_must_be_finite(self):
        with pytest.raises(NonAnalyticError):
            Const(math.inf)
        with pytest.raises(NonAnalyticError):
            Const(math.nan)

    def test_var_index_validation(self):
        with pytest.raises(ExprError):
            Var(-1)

    def test_div_by_origin_vanishing_rejected(self):
        with pytest.raises(NonAnalyticError):
            Div(Const(1.0), X0)
        with pytest.raises(NonAnalyticError):
            Div(Const(1.0), Sub(Prim("exp", X0), Const(1.0)))
        # fine when the denominator has a nonzero value at the origin
        Div(Const(1.0), Add(Const(1.0), X0))

    def test_prim_domain_validation(self):
        with pytest.raises(NonAnalyticError):
            Prim("log1p", Sub(X0, Const(1.0)))
        with pytest.raises(NonAnalyticError):
            Prim("sqrt1p", Const(-2.0))
        with pytest.raises(ExprError):
            Prim("tan", X0)

    def test_intpow_validation(self):
        with pytest.raises(ExprError):
            IntPow(X0, -1)
        with pytest.raises(ExprError):
            IntPow(X0, 1.5)


class TestStructure:
    def test_const_term_exact(self):
        e = ex.parse("exp(x)*cos(y) - sqrt1p(3)", 2)
        assert ex.const_term(e) == 1.0 - 2.0
        assert ex.const_term(ex.parse("(1 + x)/(2 + y)", 2)) == 0.5

    def test_max_index(self):
        assert ex.max_index(Const(3.0)) == -1
        assert ex.max_index(ex.parse("x*z", ["x", "y", "z"])) == 2

    def test_is_polynomial(self):
        assert ex.is_polynomial(ex.parse("x^2*y - 3", 2))
        assert not ex.is_polynomial(ex.parse("sin(x)", 1))
        assert not ex.is_polynomial(ex.parse("1/(1 + x)", 1))

    def test_polynomial_degree(self):
        assert ex.polynomial_degree(ex.parse("x^2*y - y", 2)) == 3
        assert ex.polynomial_degree(Const(5.0)) == 0
        assert ex.polynomial_degree(ex.parse("exp(x)", 1)) is None


class TestMkSimplification:
    def test_constant_folding(self):
        assert X0 + 0 == X0
        assert X0 * 1 == X0
        assert (X0 * 0) == Const(0.0)
        assert Const(2.0) + Const(3.0) == Const(5.0)
        assert -Const(2.0) == Const(-2.0)
        assert X0 ** 1 == X0
        assert X0 ** 0 == Const(1.0)

    def test_operators_build_trees(self):
        e = X0 * Y0 + 2.0
        assert e == Add(Mul(X0, Y0), Const(2.0))
        assert (1.0 - X0) == Sub(Const(1.0), X0)


class TestParse:
    def test_precedence(self):
        e = ex.parse("x + y*x^2", 2)
        assert e == Add(X0, Mul(Y0, IntPow(X0, 2)))

    def test_left_associativity(self):
        assert ex.parse("x - y - x", 2) == Sub(Sub(X0, Y0), X0)
        one_x, one_y = Add(Const(1.0), X0), Add(Const(1.0), Y0)
        assert ex.parse("x/(1 + y)/(1 + x)", 2) == Div(Div(X0, one_y), one_x)

    def test_unary_minus(self):
        assert ex.parse("-x + y", 2) == Add(Neg(X0), Y0)
        assert ex.parse("x - -y", 2) == Sub(X0, Neg(Y0))
        # the sign is part of the atom, so it binds before '^'
        assert ex.parse("-x^2", 1) == IntPow(Neg(X0), 2)

    def test_functions_and_whitespace(self):
        e = ex.parse("  sin( x )*exp(y)  ", 2)
        assert e == Mul(Prim("sin", X0), Prim("exp", Y0))

    def test_scientific_notation(self):
        assert ex.parse("2.5e-3", 1) == Const(0.0025)
        assert ex.parse("1E3*x", 1) == Mul(Const(1000.0), X0)

    def test_custom_names(self):
        e = ex.parse("u*v", ["u", "v"])
        assert e == Mul(X0, Y0)

    def test_many_variables_default_names(self):
        e = ex.parse("x1 + x5", 5)
        assert e == Add(Var(0), Var(4))

    def test_error_positions(self):
        with pytest.raises(ParseError) as ei:
            ex.parse("x + tan(x)", 1)
        assert "unknown function 'tan'" in str(ei.value)
        assert ei.value.position == 4

        with pytest.raises(ParseError) as ei:
            ex.parse("x + q", 1)
        assert "unknown variable 'q'" in str(ei.value)
        assert ei.value.position == 4

        with pytest.raises(ParseError) as ei:
            ex.parse("x^y", 2)
        assert "exponent" in str(ei.value)
        assert ei.value.position == 2

        with pytest.raises(ParseError) as ei:
            ex.parse("x^-2", 1)
        assert "exponent" in str(ei.value)

        with pytest.raises(ParseError) as ei:
            ex.parse("x + ", 1)
        assert ei.value.position == 4

        with pytest.raises(ParseError) as ei:
            ex.parse("x y", 2)
        assert "trailing" in str(ei.value)
        assert ei.value.position == 2

        with pytest.raises(ParseError) as ei:
            ex.parse("x + $", 1)
        assert "unexpected character" in str(ei.value)

    def test_non_analytic_wrapped_as_parse_error(self):
        with pytest.raises(ParseError):
            ex.parse("1/x", 1)
        with pytest.raises(ParseError):
            ex.parse("log1p(x - 1)", 1)
        with pytest.raises(ParseError):
            ex.parse("sqrt1p(-1 - x)", 1)
        # a vanishing divisor inside a chain is reported at its "/"
        for text, position in (("x + y/(x - x*y)", 5), ("x*y/(x*y)", 3)):
            with pytest.raises(ParseError) as ei:
                ex.parse(text, 2)
            assert ei.value.position == position

    def test_origin_overflow_is_non_analytic(self):
        # the denominator's value at 0 overflows while Div checks it
        with pytest.raises(ParseError) as ei:
            ex.parse("y - x/exp(exp(2)^4)", 2)
        assert "overflows" in str(ei.value)
        # unchecked at parse time, so the overflow surfaces in const_term
        e = ex.parse("y - exp(exp(2)^4)", 2)
        with pytest.raises(NonAnalyticError):
            ex.const_term(e)
        with pytest.raises(NonAnalyticError):
            ex.const_term(IntPow(Const(1e200), 2))
        # products overflow to inf without raising: an infinite primitive
        # argument and an inf - inf value are caught all the same, and so
        # is an overflow that atan, exp(-.) or ^0 would fold back into a
        # finite value
        for text in ("sin(exp(100)^4*exp(100)^4)",
                     "y - (exp(100)^4*exp(100)^4 - exp(100)^4*exp(100)^4)",
                     "atan(exp(100)^4*exp(100)^4)", "exp(-exp(1000))",
                     "y - exp(1000)^0 + 1"):
            with pytest.raises(NonAnalyticError, match="overflows"):
                ex.const_term(ex.parse(text, 2))

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            ex.parse("(x + y", 2)
        with pytest.raises(ParseError):
            ex.parse("x + y)", 2)

    @pytest.mark.parametrize("unit, levels",
                             [("(", 1), ("-", 1), ("sin(", 1), ("-(", 2)])
    def test_nesting_depth_bounded(self, unit, levels):
        def nest(n):
            return unit * n + "x" + ")" * (unit.count("(") * n)

        n = ex._MAX_NESTING // levels
        e = ex.parse(nest(n), 1)
        assert ex.parse(ex.to_string(e, 1), 1) == e
        with pytest.raises(ParseError, match="nested more than") as ei:
            ex.parse(nest(n + 1), 1)
        # the error points at the opener of the first level past the limit
        assert ei.value.position == ex._MAX_NESTING * len(unit) // levels

    def test_depth_counts_levels(self):
        assert ex.depth(ex.parse("x", 2)) == 1
        assert ex.depth(ex.parse("x + y*sin(x)^2", 2)) == 5
        chain = ex.parse(" + ".join(["x"] * ex.MAX_DEPTH), 1)
        assert ex.depth(chain) == ex.MAX_DEPTH
        # far past the recursion limit, and a subtree shared within a
        # level is counted once, so 2^5000 paths cost 5000 steps
        node = ex.Var(0)
        for _ in range(5000):
            node = ex.Add(node, node)
        assert ex.depth(node) == 5001

    @pytest.mark.parametrize("head, operand, op", [
        ("", "x", "+"), ("", "x", "*"),
        # the divisor's value at the origin is never computed on a tree
        # that is too deep
        ("1/(", "1", "-")], ids=["sum", "product", "divisor"])
    def test_tree_depth_bounded(self, head, operand, op):
        # a chain of n operands parses in a loop into a tree n levels deep
        def chain(n):
            return head + f" {op} ".join([operand] * n) + (")" if head else "")

        text = ex.to_string(ex.parse(chain(ex.MAX_DEPTH - 1), 1), 1)
        assert ex.to_string(ex.parse(text, 1), 1) == text
        with pytest.raises(ParseError, match="deeper than") as ei:
            ex.parse(chain(ex.MAX_DEPTH + 1), 1)
        # the error points at the operator that would pass the limit
        assert ei.value.position == len(head) + 4 * ex.MAX_DEPTH - 2


class TestPrint:
    CASES = [
        ("x + y*x^2", 2),
        ("x - (y - x)", 2),
        ("(x + y)*(x - y)", 2),
        ("x/(1 + y)", 2),
        ("sin(exp(x) - 1)", 1),
        ("-x^2 + y", 2),
        ("1 - y - x + y^2 + 2*(x*y) + x^2", 2),
        ("x*y*z - w", 4),
    ]

    @pytest.mark.parametrize("text,n", CASES)
    def test_roundtrip_fixed(self, text, n):
        e = ex.parse(text, n)
        assert ex.parse(ex.to_string(e, n), n) == e

    def test_minimal_parens(self):
        assert ex.to_string(ex.parse("x + (y*x)", 2), 2) == "x + y*x"
        assert ex.to_string(ex.parse("(x*y)*x", 2), 2) == "x*y*x"
        assert ex.to_string(ex.parse("x - (y + x)", 2), 2) == "x - (y + x)"

    # every ordered pair of binary operators, the inner one (2 op (y + 1))
    # as the outer one's left operand, against y + 1, and as its right
    # operand, after x: a left operand is parenthesized above its
    # operator's precedence, a right one at or above it
    PAIR_TEXTS = {
        Add: ["2 + (y + 1) + (y + 1)", "x + (2 + (y + 1))",
              "2 + (y + 1) - (y + 1)", "x - (2 + (y + 1))",
              "(2 + (y + 1))*(y + 1)", "x*(2 + (y + 1))",
              "(2 + (y + 1))/(y + 1)", "x/(2 + (y + 1))"],
        Sub: ["2 - (y + 1) + (y + 1)", "x + (2 - (y + 1))",
              "2 - (y + 1) - (y + 1)", "x - (2 - (y + 1))",
              "(2 - (y + 1))*(y + 1)", "x*(2 - (y + 1))",
              "(2 - (y + 1))/(y + 1)", "x/(2 - (y + 1))"],
        Mul: ["2*(y + 1) + (y + 1)", "x + 2*(y + 1)",
              "2*(y + 1) - (y + 1)", "x - 2*(y + 1)",
              "2*(y + 1)*(y + 1)", "x*(2*(y + 1))",
              "2*(y + 1)/(y + 1)", "x/(2*(y + 1))"],
        Div: ["2/(y + 1) + (y + 1)", "x + 2/(y + 1)",
              "2/(y + 1) - (y + 1)", "x - 2/(y + 1)",
              "2/(y + 1)*(y + 1)", "x*(2/(y + 1))",
              "2/(y + 1)/(y + 1)", "x/(2/(y + 1))"],
    }
    PAIRS = [(outer, inner, side, text)
             for inner, texts in PAIR_TEXTS.items()
             for (outer, side), text in zip(
                 itertools.product((Add, Sub, Mul, Div), ("left", "right")),
                 texts)]

    @pytest.mark.parametrize(
        "outer,inner,side,text", PAIRS,
        ids=[f"{o.__name__}-{i.__name__}-{s}" for o, i, s, _ in PAIRS])
    def test_minimal_parens_per_operator_pair(self, outer, inner, side,
                                               text):
        y1 = Add(Y0, Const(1.0))
        e = inner(Const(2.0), y1)
        tree = outer(e, y1) if side == "left" else outer(X0, e)
        assert ex.to_string(tree, 2) == text
        assert ex.parse(text, 2) == tree

    def test_default_names(self):
        assert ex.to_string(ex.parse("x*w", 4)) == "x*w"
        e = Mul(Var(0), Var(4))
        assert ex.to_string(e) == "x1*x5"

    def test_float_formatting(self):
        assert ex.to_string(Const(3.0)) == "3"
        assert ex.to_string(Const(0.5)) == "0.5"
        assert ex.to_string(Const(-2.0)) == "-2"


def _built(make):
    """``make()``, or reject the draw when a constructor refuses the tree."""
    try:
        return make()
    except ExprError:
        reject()


@st.composite
def raw_exprs(draw, depth=4, nvars=2):
    """Trees in parser-image form: what ``parse`` itself can produce."""
    if depth == 0:
        if draw(st.booleans()):
            return Var(draw(st.integers(0, nvars - 1)))
        return Const(abs(draw(st.floats(0.0, 100.0, allow_nan=False))))
    kind = draw(st.sampled_from(
        ["leaf", "add", "sub", "mul", "div", "neg", "pow", "prim"]))
    if kind == "leaf":
        return draw(raw_exprs(depth=0, nvars=nvars))
    if kind in ("add", "sub", "mul"):
        a = draw(raw_exprs(depth=depth - 1, nvars=nvars))
        b = draw(raw_exprs(depth=depth - 1, nvars=nvars))
        return {"add": Add, "sub": Sub, "mul": Mul}[kind](a, b)
    if kind == "div":
        a = draw(raw_exprs(depth=depth - 1, nvars=nvars))
        b = draw(raw_exprs(depth=depth - 1, nvars=nvars))
        # shift the denominator so it cannot vanish at the origin
        return _built(lambda: Div(
            a, Add(b, Const(1.0 + abs(ex.const_term(b))))))
    if kind == "neg":
        return Neg(draw(raw_exprs(depth=depth - 1, nvars=nvars)))
    if kind == "pow":
        return IntPow(draw(raw_exprs(depth=depth - 1, nvars=nvars)),
                      draw(st.integers(0, 4)))
    arg = draw(raw_exprs(depth=depth - 1, nvars=nvars))
    name = draw(st.sampled_from(ex.PRIM_NAMES))

    def make():
        a = arg
        if name in ("log1p", "sqrt1p") and ex.const_term(a) <= -1.0:
            # lift the constant term to exactly 1 with a nonnegative literal
            a = Add(a, Const(1.0 + abs(ex.const_term(a))))
        return Prim(name, a)
    return _built(make)


class TestRoundTripProperty:
    @given(raw_exprs())
    @settings(max_examples=150, deadline=None)
    def test_print_parse_identity(self, e):
        assert ex.parse(ex.to_string(e, 2), 2) == e


ANALYTIC_ON_BOX = [
    "x*y + x^3",
    "exp(x)*sin(y)",
    "log1p(x^2 + y^2)",
    "sqrt1p(x*y)",
    "atan(x - y^2)",
    "cos(x)*sinh(y)",
    "(1 + x^2)/(2 + y)",
    "x^2*y/(1 + x^2 + y^2)",
]


class TestEval:
    def test_eval_many_matches_numpy(self):
        e = ex.parse("exp(x)*sin(y) - 1", 2)
        X = np.array([[0.1, 0.2], [0.0, 0.0], [-0.5, 1.0]])
        want = np.exp(X[:, 0]) * np.sin(X[:, 1]) - 1.0
        np.testing.assert_allclose(ex.eval_many(e, X), want, rtol=1e-15)

    def test_eval_many_domain_gives_nan(self):
        e = ex.parse("log1p(x - 0.5)", 1)
        out = ex.eval_many(e, np.array([[0.0], [-0.8]]))
        assert math.isfinite(out[0])
        assert math.isnan(out[1])

    def test_eval_many_division_blowup_not_raised(self):
        e = ex.parse("1/(1 + x)", 1)
        out = ex.eval_many(e, np.array([[-1.0]]))
        assert not math.isfinite(out[0])

    def test_eval_many_single_point(self):
        e = ex.parse("log1p(x - 0.5)", 1)
        assert float(ex.eval_many(e, [0.0])) == math.log1p(-0.5)
        assert math.isnan(ex.eval_many(e, [-0.8]))

    @pytest.mark.parametrize("text", ["x", "2", "x*y", "x^3", "exp(x)"])
    def test_single_point_gives_a_0d_array(self, text):
        # numpy arithmetic on 0-d arrays returns a numpy scalar; a single
        # point must still give a 0-d array, as value_and_grad_many does
        e = ex.parse(text, 2)
        point = np.array([1.0, 2.0])
        got = ex.eval_many(e, point)
        assert type(got) is np.ndarray and got.shape == ()
        value, _ = ex.value_and_grad_many(e, point)
        assert type(value) is np.ndarray and value.shape == ()
        batch = ex.eval_many(e, np.stack([point, point]))
        assert type(batch) is np.ndarray and batch.shape == (2,)
        assert got.tobytes() == batch[0].tobytes()

    @pytest.mark.parametrize("text", ANALYTIC_ON_BOX)
    def test_gradient_matches_central_differences(self, text):
        e = ex.parse(text, 2)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.4, 0.4, size=(100, 2))
        _, grads = ex.value_and_grad_many(e, pts)
        step = 1e-6 * (1.0 + np.linalg.norm(pts, axis=1))
        for j in range(2):
            h = np.zeros_like(pts)
            h[:, j] = step
            fd = (ex.eval_many(e, pts + h) - ex.eval_many(e, pts - h)) / (
                2 * step)
            # pytest.approx(fd, rel=1e-5, abs=1e-7), point by point
            assert np.all(np.abs(grads[:, j] - fd)
                          <= np.maximum(1e-5 * np.abs(fd), 1e-7))

    def test_value_and_grad_value_agrees_with_eval(self):
        e = ex.parse("exp(x)*cos(y) + x^3", 2)
        X = np.random.default_rng(3).uniform(-1, 1, size=(20, 2))
        v, _ = ex.value_and_grad_many(e, X)
        np.testing.assert_allclose(v, ex.eval_many(e, X), rtol=1e-14)

    def test_system_shapes(self):
        es = [ex.parse("x + y", 2), ex.parse("x*y", 2), ex.parse("x^2", 2)]
        X = np.zeros((5, 2))
        assert ex.eval_system(es, X).shape == (5, 3)
        vals, jacs = ex.eval_system_jacobian(es, X)
        assert vals.shape == (5, 3) and jacs.shape == (5, 3, 2)
        vals, jacs = ex.eval_system_jacobian([], X)
        assert vals.shape == (5, 0) and jacs.shape == (5, 0, 2)

    def test_jacobian_values(self):
        es = [ex.parse("x^2 + y", 2), ex.parse("x*y", 2)]
        X = np.array([[2.0, 3.0]])
        _, jacs = ex.eval_system_jacobian(es, X)
        np.testing.assert_allclose(jacs[0], [[4.0, 1.0], [3.0, 2.0]])


class TestDiff:
    @pytest.mark.parametrize("text", ANALYTIC_ON_BOX)
    def test_diff_matches_forward_mode(self, text):
        e = ex.parse(text, 2)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-0.4, 0.4, size=(25, 2))
        _, grads = ex.value_and_grad_many(e, pts)
        for j in range(2):
            dj = ex.diff(e, j)
            np.testing.assert_allclose(
                ex.eval_many(dj, pts), grads[:, j], rtol=1e-10, atol=1e-12)

    def test_simple_rules(self):
        assert ex.diff(ex.parse("x^3", 1), 0) == Mul(
            Const(3.0), IntPow(X0, 2))
        assert ex.diff(Const(4.0), 0) == Const(0.0)
        assert ex.diff(X0, 1) == Const(0.0)


class TestTaylor:
    def test_exp_minus_one(self):
        p = ex.taylor(ex.parse("exp(x) - 1", 1), 3, 1)
        assert p.coeffs == pytest.approx(
            {(1,): 1.0, (2,): 0.5, (3,): 1.0 / 6.0})

    def test_sin_exp_composition(self):
        # the cubic terms cancel; the quartic coefficient is -5/24
        p = ex.taylor(ex.parse("sin(exp(x) - 1)", 1), 4, 1)
        assert p.coeffs == pytest.approx(
            {(1,): 1.0, (2,): 0.5, (4,): -5.0 / 24.0})

    def test_geometric_two_vars(self):
        p = ex.taylor(ex.parse("1/(1 + x + y)", 2), 2, 2)
        assert p.coeffs == pytest.approx({
            (0, 0): 1.0, (1, 0): -1.0, (0, 1): -1.0,
            (2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})

    def test_log1p_alternating(self):
        p = ex.taylor(ex.parse("log1p(x)", 1), 5, 1)
        assert p.coeffs == pytest.approx(
            {(j,): (-1.0) ** (j - 1) / j for j in range(1, 6)})

    def test_polynomial_taylor_is_exact(self):
        e = ex.parse("x^2*y - 3*x + 0.25", 2)
        p = ex.taylor(e, 9, 2)
        assert p.coeffs == {(0, 0): 0.25, (1, 0): -3.0, (2, 1): 1.0}

    def test_prefix_property(self):
        e = ex.parse("exp(x)*atan(y) - sqrt1p(x*y)", 2)
        hi = ex.taylor_series(e, 6, 2)
        lo = ex.taylor_series(e, 3, 2)
        assert hi.truncated(3).allclose(lo, tol=1e-13)

    @pytest.mark.parametrize("text,k", [
        ("exp(x) - 1", 2),
        ("log1p(x)", 2),
        ("atan(x)", 2),
        ("sin(exp(x) - 1)", 3),
    ])
    def test_remainder_decays_at_order_k_plus_one(self, text, k):
        e = ex.parse(text, 1)
        t = ex.poly_to_expr(ex.taylor(e, k, 1))
        radii = np.array([2.0 ** -i for i in range(3, 11)])
        errs = []
        for r in radii:
            pts = np.array([[r], [-r]])
            d = np.abs(ex.eval_many(e, pts) - ex.eval_many(t, pts))
            errs.append(d.max())
        slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
        assert slope >= k + 1 - 0.1

    def test_taylor_nvars_check(self):
        with pytest.raises(ExprError):
            ex.taylor(ex.parse("x*y", 2), 3, 1)


class TestPolyToExpr:
    def test_graded_order_and_formatting(self):
        p = ex.taylor(ex.parse("1/(1 + x + y)", 2), 2, 2)
        s = ex.to_string(ex.poly_to_expr(p), 2)
        assert s == "1 - y - x + y^2 + 2*(x*y) + x^2"

    def test_unit_coefficients_omitted(self):
        p = ex.taylor(ex.parse("x - y^2", 2), 3, 2)
        assert ex.to_string(ex.poly_to_expr(p), 2) == "x - y^2"

    def test_zero_poly(self):
        p = ex.taylor(ex.parse("x - x", 1), 3, 1)
        assert ex.poly_to_expr(p) == Const(0.0)

    def test_taylor_of_poly_to_expr_roundtrip(self):
        e = ex.parse("exp(x)*cos(y)", 2)
        p = ex.taylor(e, 4, 2)
        back = ex.taylor(ex.poly_to_expr(p), 4, 2)
        assert back.allclose(p, tol=1e-13)


# Independent references for every primitive: (math, numpy, sympy builder).
# A new row in the primitive table gets every check below once it has an
# entry here; test_every_primitive_has_a_reference enforces that.
REFERENCE = {
    "exp": (math.exp, np.exp, lambda sp, t: sp.exp(t)),
    "sin": (math.sin, np.sin, lambda sp, t: sp.sin(t)),
    "cos": (math.cos, np.cos, lambda sp, t: sp.cos(t)),
    "sinh": (math.sinh, np.sinh, lambda sp, t: sp.sinh(t)),
    "cosh": (math.cosh, np.cosh, lambda sp, t: sp.cosh(t)),
    "log1p": (math.log1p, np.log1p, lambda sp, t: sp.log(1 + t)),
    "sqrt1p": (lambda t: math.sqrt(1.0 + t), lambda v: np.sqrt(1.0 + v),
               lambda sp, t: sp.sqrt(1 + t)),
    "atan": (math.atan, np.arctan, lambda sp, t: sp.atan(t)),
}


def test_every_primitive_has_a_reference():
    assert set(REFERENCE) == set(ex.PRIM_NAMES)


@pytest.mark.parametrize("name", ex.PRIM_NAMES)
class TestPrimitiveConsistency:
    """Each primitive's value at the origin, batch values, gradient,
    symbolic derivative and Taylor coefficients agree with each other and
    with the references."""

    # psi(x + y/2 - 0.1): a two-variable argument with a nonzero value at 0
    @staticmethod
    def _expr(name):
        arg = Sub(Add(X0, Mul(Const(0.5), Y0)), Const(0.1))
        return Prim(name, arg)

    @staticmethod
    def _points():
        return np.random.default_rng(5).uniform(-0.4, 0.4, size=(40, 2))

    def test_const_term_matches_math(self, name):
        for c in (-0.5, 0.0, 0.3, 0.9):
            got = ex.const_term(Prim(name, Const(c)))
            assert got == pytest.approx(REFERENCE[name][0](c), rel=1e-15)

    def test_eval_many_matches_numpy(self, name):
        X = self._points()
        want = REFERENCE[name][1](X[:, 0] + 0.5 * X[:, 1] - 0.1)
        np.testing.assert_allclose(ex.eval_many(self._expr(name), X), want,
                                   rtol=1e-14)

    def test_gradient_matches_central_differences(self, name):
        e = self._expr(name)
        X = self._points()
        vals, grads = ex.value_and_grad_many(e, X)
        np.testing.assert_array_equal(vals, ex.eval_many(e, X))
        step = 1e-6
        for j in range(2):
            h = np.zeros(2)
            h[j] = step
            fd = (ex.eval_many(e, X + h) - ex.eval_many(e, X - h)) / (2 * step)
            np.testing.assert_allclose(grads[:, j], fd, rtol=1e-6, atol=1e-8)

    def test_gradient_matches_sympy(self, name):
        # forward mode and symbolic trees share one ``diff`` rule, so only an
        # independent oracle sees its rounding: sympy's partials, evaluated
        # by mpmath at 50 digits at the same float points (0.1 is the
        # float's exact value)
        sp = pytest.importorskip("sympy")
        import mpmath
        x, y = sp.symbols("x y")
        psi = REFERENCE[name][2](sp, x + y / 2 - sp.Rational(0.1))
        X = self._points()
        _, grads = ex.value_and_grad_many(self._expr(name), X)
        with mpmath.workdps(50):
            for j, v in enumerate((x, y)):
                partial = sp.lambdify((x, y), sp.diff(psi, v), "mpmath")
                want = [float(partial(mpmath.mpf(a), mpmath.mpf(b)))
                        for a, b in X]
                np.testing.assert_allclose(grads[:, j], want, rtol=1e-14,
                                           atol=0.0)

    def test_diff_matches_forward_mode(self, name):
        e = self._expr(name)
        X = self._points()
        _, grads = ex.value_and_grad_many(e, X)
        for j in range(2):
            np.testing.assert_allclose(ex.eval_many(ex.diff(e, j), X),
                                       grads[:, j], rtol=1e-12, atol=1e-14)

    def test_eval_system_ignores_batch_shape(self, name):
        # the sphere projection evaluates all its line-search trials as one
        # (rows, halvings, n) batch and relies on these bits being the ones
        # a flat (rows * halvings, n) batch gives; the wide box reaches
        # log1p's and sqrt1p's nan region. A power of 3 or more is a chain
        # of products, which must not depend on the layout either
        e = self._expr(name)
        eqs = (e, Mul(X0, e), IntPow(Sub(Y0, e), 7))
        X = np.random.default_rng(6).uniform(-3.0, 3.0, size=(7, 25, 2))
        got = ex.eval_system(eqs, X)
        assert got.shape == (7, 25, 3)
        flat = ex.eval_system(eqs, X.reshape(-1, 2))
        assert np.isnan(flat).any() == (name in ("log1p", "sqrt1p"))
        assert got.reshape(-1, 3).tobytes() == flat.tobytes()

    def test_coefficients_match_sympy(self, name):
        sp = pytest.importorskip("sympy")
        from germapprox.series import primitive_coefficients
        t = sp.Symbol("t")
        c = sp.Rational(3, 10)
        poly = sp.series(REFERENCE[name][2](sp, c + t), t, 0, 7).removeO()
        want = [float(poly.coeff(t, j)) for j in range(7)]
        got = primitive_coefficients(name, 0.3, 6)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


class TestPrimitiveDiffTrees:
    # the derivative trees feed Jacobian minors and slice-cache signatures,
    # so their exact shape is part of the contract
    U = Mul(X0, Y0)  # d/dx U simplifies to y

    @pytest.mark.parametrize("name,want", [
        ("cos", Neg(Mul(Prim("sin", U), Y0))),
        ("log1p", Div(Y0, Add(Const(1.0), U))),
        ("sqrt1p", Div(Y0, Mul(Const(2.0), Prim("sqrt1p", U)))),
        ("atan", Div(Y0, Add(Const(1.0), IntPow(U, 2)))),
        ("exp", Mul(Prim("exp", U), Y0)),
        ("cosh", Mul(Prim("sinh", U), Y0)),
    ])
    def test_node_for_node(self, name, want):
        assert ex.diff(Prim(name, self.U), 0) == want


def _squaring_reference(x: float, k: int) -> float:
    """x^k as ``_int_power`` documents it, one Python float at a time: the
    squares x, x^2, x^4, ... for the bits of k from the lowest, and the set
    bits' squares multiplied left to right."""
    squares = [x]
    while 2 ** len(squares) <= k:
        squares.append(squares[-1] * squares[-1])
    picked = [sq for i, sq in enumerate(squares) if k >> i & 1]
    out = picked[0]
    for sq in picked[1:]:
        out = out * sq
    return out


def _power_inputs():
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.5e-310, -1e-310,
               2.2250738585072014e-308, 1e-40, -3e-30, 1e30, -1e103, 1e200,
               -1.7e308, math.inf, -math.inf, math.nan]
    return np.concatenate([special, rng.uniform(-3.0, 3.0, 200),
                           rng.standard_normal(50) * 1e-5,
                           np.exp(rng.uniform(-700.0, 700.0, 100))
                           * rng.choice([-1.0, 1.0], 100)])


class TestIntPower:
    @pytest.mark.parametrize("k", range(3, 13))
    def test_products_in_the_documented_order(self, k):
        x = _power_inputs()
        with np.errstate(all="ignore"):
            got = ex._int_power(x, k)
        want = np.array([_squaring_reference(float(v), k) for v in x])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", range(3, 13))
    def test_within_k_minus_1_roundings_of_the_exact_power(self, k):
        from fractions import Fraction
        x = _power_inputs()
        with np.errstate(all="ignore"):
            got = ex._int_power(x, k)
            pw = np.power(x, k)
        # where pow gives nan, an infinity or an exact zero (nan, overflow,
        # infinite and zero bases), squaring gives the same, signs included
        special = ~np.isfinite(pw) | (x == 0.0)
        assert got[special].tobytes() == pw[special].tobytes()
        grow = (1 + Fraction(1, 2 ** 53)) ** (k - 1) - 1
        tiny = Fraction(2.0 ** -1074)
        for v, g in zip(x[~special], got[~special]):
            exact = Fraction(float(v)) ** k
            if abs(exact) >= 2 ** 1024:
                assert g == math.copysign(math.inf, exact)
                continue
            # an underflowing chain also rounds at the subnormal spacing
            assert abs(Fraction(float(g)) - exact) <= (
                grow * abs(exact) + (k - 1) * tiny), (v, k)

    @pytest.mark.parametrize("k", [3, 5, 7, 12])
    def test_lone_row_like_a_batch(self, k):
        x = _power_inputs()
        with np.errstate(all="ignore"):
            batch = ex._int_power(x, k)
            strided = ex._int_power(np.repeat(x, 2)[::2], k)
            column = ex._int_power(x[:, None], k)[:, 0]
            for i in range(len(x)):
                assert (ex._int_power(x[i:i + 1], k).tobytes()
                        == batch[i:i + 1].tobytes())
                assert ex._int_power(x[i], k).tobytes() == batch[i].tobytes()
        assert strided.tobytes() == batch.tobytes()
        assert column.tobytes() == batch.tobytes()

    def test_low_powers_and_other_values_use_pow(self):
        x = np.array([-1.5, 0.3, 2.0])
        for k in (0, 1, 2):
            assert ex._int_power(x, k).tobytes() == (x ** k).tobytes()
        assert ex._int_power(1.1, 5) == 1.1 ** 5
        assert type(ex._int_power(1.1, 5)) is float


class _DenseDual:
    """The forward mode that carried every gradient column, (...,) values
    with (..., n) gradients, kept as the reference for the column-sparse one
    (its integer powers are ``_int_power``'s)."""

    def __init__(self, v, g):
        self.v, self.g = v, g

    def __add__(self, other):
        return _DenseDual(self.v + other.v, self.g + other.g)

    def __sub__(self, other):
        return _DenseDual(self.v - other.v, self.g - other.g)

    def __mul__(self, other):
        return _DenseDual(self.v * other.v, self.v[..., None] * other.g
                          + other.v[..., None] * self.g)

    def __truediv__(self, other):
        val = self.v / other.v
        return _DenseDual(val, self.g / other.v[..., None]
                          - (val / other.v)[..., None] * other.g)

    def __neg__(self):
        return _DenseDual(-self.v, -self.g)

    def __pow__(self, k):
        if k == 0:
            return _DenseDual(np.ones(self.v.shape), np.zeros(self.g.shape))
        return _DenseDual(ex._int_power(self.v, k),
                          (k * ex._int_power(self.v, k - 1))[..., None]
                          * self.g)

    def apply(self, row):
        return _DenseDual(row.vector(self.v), row.diff(
            self.v[..., None], self.g,
            lambda name, v: ex.PRIMITIVE_TABLE[name].vector(v)))


def _dense_value_and_grad(e, X):
    def variable(index):
        g = np.zeros(X.shape)
        g[..., index] = 1.0
        return _DenseDual(X[..., index], g)

    with np.errstate(all="ignore"):
        out = ex._fold(
            e, variable,
            lambda value: _DenseDual(np.full(X.shape[:-1], value),
                                     np.zeros(X.shape)),
            lambda row, d: d.apply(row))
    return out.v, out.g


_ARG = Sub(Add(X0, Mul(Const(0.5), Y0)), Const(0.1))
# every power 0-8 and every primitive, on no, one and two gradient columns
FIXED_FORWARD_EXPRS = (
    [IntPow(Sub(X0, Mul(Const(0.5), Y0)), k) for k in range(9)]
    + [IntPow(X0, k) for k in range(9)]
    + [Prim(name, arg) for name in ex.PRIM_NAMES
       for arg in (Const(0.3), X0, _ARG, IntPow(_ARG, 3))]
    + [Mul(IntPow(Prim("exp", X0), 4), Prim("sin", Mul(X0, Y0))),
       Div(Prim("sqrt1p", Mul(X0, Y0)), Add(Const(2.0), IntPow(Y0, 5)))])


class TestSparseForwardMode:
    """Column-sparse forward mode against the dense rule: every value and
    every Jacobian entry the dense rule does not read as nan are the same
    bits, once signed zeros are normalized (a structurally zero entry is
    +0.0, where a dense product of a zero column could write -0.0). Where
    the dense rule multiplied a zero column by an infinite value it reads
    nan; the sparse mode never formed that product."""

    BATCHES = {
        "flat": np.random.default_rng(2).uniform(-3.0, 3.0, size=(40, 3)),
        "stacked": np.random.default_rng(3).uniform(-3.0, 3.0,
                                                    size=(6, 5, 3)),
        "point": np.array([0.7, -1.3, 0.2]),
    }

    @staticmethod
    def _same(got, want):
        v, g = got
        want_v, want_g = want
        assert np.shape(v) == np.shape(want_v) and g.shape == want_g.shape
        assert np.asarray(v).tobytes() == np.asarray(want_v).tobytes()
        # a sparse entry only drops terms of the dense one, so nan there
        # means nan in the dense rule too
        assert not (np.isnan(g) & ~np.isnan(want_g)).any()
        seen = ~np.isnan(want_g)
        assert (g[seen] + 0.0).tobytes() == (want_g[seen] + 0.0).tobytes()

    def _check(self, e, X):
        self._same(ex.value_and_grad_many(e, X), _dense_value_and_grad(e, X))
        eqs = [e, Mul(e, Y0)]
        vals, jac = ex.eval_system_jacobian(eqs, X)
        for i, f in enumerate(eqs):
            self._same((vals[..., i], jac[..., i, :]),
                       _dense_value_and_grad(f, X))

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("e", FIXED_FORWARD_EXPRS,
                             ids=lambda e: ex.to_string(e, 2))
    def test_fixed_expressions(self, e, batch):
        self._check(e, self.BATCHES[batch])

    @given(raw_exprs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_drawn_expressions(self, e):
        for X in self.BATCHES.values():
            self._check(e, X)

    def test_primitive_evaluated_once_per_node(self, monkeypatch):
        # exp's and sqrt1p's rules ask for the primitive itself, which is
        # the node's own value; sin's asks for cos, once for both columns
        from dataclasses import replace
        calls = {}

        def counted(name):
            row = ex.PRIMITIVE_TABLE[name]

            def vector(v):
                calls[name] = calls.get(name, 0) + 1
                return row.vector(v)
            return replace(row, vector=vector)

        for name in ("exp", "sqrt1p", "sin", "cos"):
            monkeypatch.setitem(ex.PRIMITIVE_TABLE, name, counted(name))
        X = self.BATCHES["flat"]
        for text, want in [("exp(x*y)", {"exp": 1}),
                           ("sqrt1p(x^2 + y^2)", {"sqrt1p": 1}),
                           ("sin(x - y)", {"sin": 1, "cos": 1}),
                           ("sin(x)", {"sin": 1, "cos": 1})]:
            calls.clear()
            ex.value_and_grad_many(ex.parse(text, 3), X)
            assert calls == want, text


@pytest.mark.parametrize("text", [
    "x^5*y^3 - (x - y)^7/(1 + x^2)^3",
    "sin(x*y)*exp(x)^4",
])
def test_power_partials_match_sympy(text):
    # products by repeated squaring round more often than pow; against
    # sympy's partials evaluated by mpmath at 50 digits they stay within a
    # few units in the last place
    sp = pytest.importorskip("sympy")
    import mpmath
    x, y = sp.symbols("x y")
    f = sp.sympify(text.replace("^", "**"))
    X = np.random.default_rng(9).uniform(-0.9, 0.9, size=(60, 2))
    vals, grads = ex.value_and_grad_many(ex.parse(text, 2), X)
    with mpmath.workdps(50):
        value = sp.lambdify((x, y), f, "mpmath")
        np.testing.assert_allclose(
            vals, [float(value(mpmath.mpf(a), mpmath.mpf(b))) for a, b in X],
            rtol=1e-13, atol=0.0)
        for j, v in enumerate((x, y)):
            partial = sp.lambdify((x, y), sp.diff(f, v), "mpmath")
            want = [float(partial(mpmath.mpf(a), mpmath.mpf(b)))
                    for a, b in X]
            np.testing.assert_allclose(grads[:, j], want, rtol=1e-13,
                                       atol=0.0)
