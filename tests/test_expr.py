import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from germapprox import expr as ex
from germapprox.expr import (
    Add,
    Const,
    Div,
    EvalDomainError,
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
        # argument and an inf - inf value are caught all the same
        for text in ("sin(exp(100)^4*exp(100)^4)",
                     "y - (exp(100)^4*exp(100)^4 - exp(100)^4*exp(100)^4)"):
            with pytest.raises(NonAnalyticError, match="overflows"):
                ex.const_term(ex.parse(text, 2))

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            ex.parse("(x + y", 2)
        with pytest.raises(ParseError):
            ex.parse("x + y)", 2)


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

    def test_eval_expr_strict(self):
        e = ex.parse("log1p(x - 0.5)", 1)
        assert ex.eval_expr(e, [0.0]) == pytest.approx(math.log1p(-0.5))
        with pytest.raises(EvalDomainError):
            ex.eval_expr(e, [-0.8])
        with pytest.raises(EvalDomainError):
            ex.eval_expr(ex.parse("1/(1 + x)", 1), [-1.0])

    def test_gradient_strict(self):
        with pytest.raises(EvalDomainError):
            ex.gradient(ex.parse("log1p(x - 0.5)", 1), [-0.8])

    @pytest.mark.parametrize("text", ANALYTIC_ON_BOX)
    def test_gradient_matches_central_differences(self, text):
        e = ex.parse(text, 2)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.4, 0.4, size=(100, 2))
        vals, grads = ex.value_and_grad_many(e, pts)
        for x, g in zip(pts, grads):
            step = 1e-6 * (1.0 + np.linalg.norm(x))
            for j in range(2):
                hp = x.copy()
                hm = x.copy()
                hp[j] += step
                hm[j] -= step
                fd = (ex.eval_expr(e, hp) - ex.eval_expr(e, hm)) / (2 * step)
                assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

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
    """Each primitive's scalar, batch, gradient, symbolic derivative and
    Taylor coefficients agree with each other and with the references."""

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

    def test_diff_matches_forward_mode(self, name):
        e = self._expr(name)
        X = self._points()
        _, grads = ex.value_and_grad_many(e, X)
        for j in range(2):
            np.testing.assert_allclose(ex.eval_many(ex.diff(e, j), X),
                                       grads[:, j], rtol=1e-12, atol=1e-14)

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
