import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germapprox.series import (
    Poly,
    SeriesError,
    TruncatedSeries,
    poly_from_series,
    primitive_coefficients,
    series_compose_primitive,
)


def S(nvars, cap, coeffs):
    return TruncatedSeries(nvars, cap, coeffs)


@st.composite
def series(draw, nvars=None, cap=None):
    n = nvars if nvars is not None else draw(st.integers(1, 3))
    c = cap if cap is not None else draw(st.integers(1, 5))
    monos = st.tuples(*[st.integers(0, c)] * n).filter(lambda m: sum(m) <= c)
    coeffs = draw(st.dictionaries(
        monos, st.floats(-3.0, 3.0, allow_nan=False), max_size=6))
    return TruncatedSeries(n, c, coeffs)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(SeriesError):
            TruncatedSeries(0, 3)
        with pytest.raises(SeriesError):
            TruncatedSeries(2, -1)
        with pytest.raises(SeriesError):
            TruncatedSeries(2, 3, {(1,): 1.0})
        with pytest.raises(SeriesError):
            TruncatedSeries(2, 3, {(2, 2): 1.0})
        with pytest.raises(SeriesError):
            TruncatedSeries(1, 3, {(-1,): 1.0})

    def test_constant_and_variable(self):
        c = TruncatedSeries.constant(2.5, 2, 4)
        assert c.coeffs == {(0, 0): 2.5}
        assert TruncatedSeries.constant(0.0, 2, 4).coeffs == {}
        v = TruncatedSeries.variable(1, 3, 4)
        assert v.coeffs == {(0, 1, 0): 1.0}
        assert TruncatedSeries.variable(0, 2, 0).coeffs == {}
        with pytest.raises(SeriesError):
            TruncatedSeries.variable(3, 3, 4)

    def test_degree(self):
        s = S(2, 5, {(0, 0): 1.0, (2, 1): 4.0, (1, 0): 0.0})
        assert s.degree() == 3
        assert S(2, 5, {}).degree() == 0


class TestArithmetic:
    def test_add_cancels_to_sparse(self):
        a = S(1, 3, {(1,): 2.0, (2,): 1.0})
        b = S(1, 3, {(1,): -2.0, (3,): 5.0})
        out = a.add(b)
        assert out.coeffs == {(2,): 1.0, (3,): 5.0}

    def test_sub_self_is_zero(self):
        a = S(2, 4, {(1, 1): 3.0, (0, 2): -1.5})
        assert a.sub(a).coeffs == {}

    def test_mul_truncates_at_cap(self):
        a = S(1, 3, {(2,): 1.0})
        b = S(1, 3, {(2,): 1.0})
        assert a.mul(b).coeffs == {}
        one_plus_x = S(1, 2, {(0,): 1.0, (1,): 1.0})
        sq = one_plus_x.mul(one_plus_x)
        assert sq.coeffs == {(0,): 1.0, (1,): 2.0, (2,): 1.0}

    def test_mixed_caps_rejected(self):
        with pytest.raises(SeriesError):
            S(1, 3, {}).add(S(1, 4, {}))
        with pytest.raises(SeriesError):
            S(1, 3, {}).mul(S(2, 3, {}))

    def test_int_pow_matches_repeated_mul(self):
        base = S(2, 6, {(1, 0): 1.0, (0, 1): -2.0, (0, 0): 0.5})
        by_mul = TruncatedSeries.constant(1.0, 2, 6)
        for _ in range(5):
            by_mul = by_mul.mul(base)
        assert base.int_pow(5).allclose(by_mul)
        assert base.int_pow(0).coeffs == {(0, 0): 1.0}
        with pytest.raises(SeriesError):
            base.int_pow(-1)

    def test_reciprocal_geometric(self):
        one_plus_x = S(1, 5, {(0,): 1.0, (1,): 1.0})
        rec = one_plus_x.reciprocal()
        assert rec.allclose(
            S(1, 5, {(j,): (-1.0) ** j for j in range(6)}))

    def test_reciprocal_requires_constant(self):
        with pytest.raises(SeriesError):
            S(1, 3, {(1,): 1.0}).reciprocal()

    def test_truncated_is_prefix(self):
        s = S(1, 5, {(0,): 1.0, (2,): 3.0, (5,): -2.0})
        t = s.truncated(3)
        assert t.cap == 3
        assert t.coeffs == {(0,): 1.0, (2,): 3.0}
        with pytest.raises(SeriesError):
            t.truncated(4)

    @given(series(nvars=2, cap=4), series(nvars=2, cap=4))
    @settings(max_examples=40, deadline=None)
    def test_add_commutes(self, a, b):
        assert a.add(b).allclose(b.add(a), tol=1e-13)

    @given(series(nvars=2, cap=4), series(nvars=2, cap=4),
           series(nvars=2, cap=4))
    @settings(max_examples=40, deadline=None)
    def test_mul_distributes(self, a, b, c):
        lhs = a.add(b).mul(c)
        rhs = a.mul(c).add(b.mul(c))
        assert lhs.allclose(rhs, tol=1e-10)

    @given(series(nvars=1, cap=5))
    @settings(max_examples=40, deadline=None)
    def test_reciprocal_roundtrip(self, s):
        shifted = s.add(TruncatedSeries.constant(
            2.0 + abs(s.constant_term()), 1, 5))
        prod = shifted.mul(shifted.reciprocal())
        assert prod.allclose(TruncatedSeries.constant(1.0, 1, 5), tol=1e-9)


class TestEval:
    def test_eval_polynomial(self):
        s = S(2, 3, {(0, 0): 1.0, (1, 0): 2.0, (1, 1): -1.0})
        assert s.eval([0.5, 2.0]) == pytest.approx(1.0 + 1.0 - 1.0)
        out = s.eval([[0.0, 0.0], [1.0, 1.0]])
        assert list(out) == [1.0, 2.0]

    def test_eval_shape_check(self):
        with pytest.raises(SeriesError):
            S(2, 3, {}).eval([1.0])


class TestPoly:
    def test_poly_from_series_drops_zeros_and_pins_cap(self):
        s = S(2, 7, {(1, 0): 1.0, (3, 1): 0.0, (2, 0): -4.0})
        p = poly_from_series(s)
        assert isinstance(p, Poly)
        assert p.cap == 2
        assert p.coeffs == {(1, 0): 1.0, (2, 0): -4.0}

    def test_zero_poly(self):
        p = poly_from_series(S(1, 4, {}))
        assert p.cap == 0 and p.coeffs == {}


# Frozen Maclaurin prefixes, written out from the classical expansions.
MACLAURIN = {
    "exp": [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0],
    "sin": [0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0],
    "cos": [1.0, 0.0, -0.5, 0.0, 1.0 / 24.0, 0.0],
    "sinh": [0.0, 1.0, 0.0, 1.0 / 6.0, 0.0, 1.0 / 120.0],
    "cosh": [1.0, 0.0, 0.5, 0.0, 1.0 / 24.0, 0.0],
    "log1p": [0.0, 1.0, -0.5, 1.0 / 3.0, -0.25, 0.2],
    "sqrt1p": [1.0, 0.5, -0.125, 1.0 / 16.0, -5.0 / 128.0, 7.0 / 256.0],
    "atan": [0.0, 1.0, 0.0, -1.0 / 3.0, 0.0, 0.2],
}


class TestPrimitiveCoefficients:
    @pytest.mark.parametrize("name", sorted(MACLAURIN))
    def test_maclaurin(self, name):
        got = primitive_coefficients(name, 0.0, 5)
        assert got == pytest.approx(MACLAURIN[name], abs=1e-15)

    def test_exp_recentred(self):
        got = primitive_coefficients("exp", 1.0, 4)
        e = math.exp(1.0)
        assert got == pytest.approx([e, e, e / 2, e / 6, e / 24], rel=1e-15)

    def test_exp_past_float_factorials(self):
        # up to 170! the float quotient is kept; past it, where j! has no
        # float, the exact e / j! is rounded once, to a subnormal and then 0
        e = math.exp(1.0)
        got = primitive_coefficients("exp", 1.0, 200)
        assert got[:171] == [e / math.factorial(j) for j in range(171)]
        want = [float(Fraction(e) / math.factorial(j))
                for j in range(171, 201)]
        assert got[171:] == want
        assert 0.0 < want[0] < sys.float_info.min and want[-1] == 0.0

    def test_log1p_recentred(self):
        # log(2 + t) = log 2 + t/2 - t^2/8 + t^3/24
        got = primitive_coefficients("log1p", 1.0, 3)
        assert got == pytest.approx(
            [math.log(2.0), 0.5, -0.125, 1.0 / 24.0], rel=1e-15)

    def test_sqrt1p_recentred(self):
        # sqrt(4 + t) = 2 + t/4 - t^2/64 + t^3/512
        got = primitive_coefficients("sqrt1p", 3.0, 3)
        assert got == pytest.approx(
            [2.0, 0.25, -1.0 / 64.0, 1.0 / 512.0], rel=1e-14)

    def test_atan_recentred(self):
        # atan(1 + t) = pi/4 + t/2 - t^2/4 + t^3/12
        got = primitive_coefficients("atan", 1.0, 3)
        assert got == pytest.approx(
            [math.pi / 4.0, 0.5, -0.25, 1.0 / 12.0], rel=1e-14)

    def test_domain_violations(self):
        with pytest.raises(SeriesError):
            primitive_coefficients("log1p", -1.0, 3)
        with pytest.raises(SeriesError):
            primitive_coefficients("sqrt1p", -2.0, 3)
        with pytest.raises(SeriesError):
            primitive_coefficients("frob", 0.0, 3)

    @pytest.mark.parametrize("name,fn", [
        ("exp", math.exp), ("sin", math.sin), ("cos", math.cos),
        ("sinh", math.sinh), ("cosh", math.cosh),
        ("log1p", math.log1p), ("sqrt1p", lambda t: math.sqrt(1 + t)),
        ("atan", math.atan),
    ])
    def test_series_sums_to_function_value(self, name, fn):
        # high-order prefix evaluated inside the radius of convergence
        coeffs = primitive_coefficients(name, 0.3, 16)
        t = 0.05
        total = sum(a * t ** j for j, a in enumerate(coeffs))
        assert total == pytest.approx(fn(0.3 + t), rel=1e-12)


class TestCompose:
    def test_exp_of_sum(self):
        cap = 4
        inner = S(2, cap, {(1, 0): 1.0, (0, 1): 1.0})
        out = series_compose_primitive("exp", inner)
        for i in range(cap + 1):
            for j in range(cap + 1 - i):
                want = 1.0 / (math.factorial(i) * math.factorial(j))
                assert out.coeffs.get((i, j), 0.0) == pytest.approx(
                    want, rel=1e-12)

    def test_sin_of_square(self):
        inner = S(1, 7, {(2,): 1.0})
        out = series_compose_primitive("sin", inner)
        assert out.allclose(S(1, 7, {(2,): 1.0, (6,): -1.0 / 6.0}))

    def test_composition_prefix_property(self):
        inner_hi = S(1, 6, {(1,): 1.0, (2,): -0.5})
        hi = series_compose_primitive("exp", inner_hi)
        lo = series_compose_primitive("exp", inner_hi.truncated(3))
        assert hi.truncated(3).allclose(lo, tol=1e-12)

    def test_recentering_matches_value(self):
        # inner has constant term 0.7; composing then evaluating must agree
        # with evaluating then applying the primitive, well inside the
        # convergence region
        inner = S(1, 12, {(0,): 0.7, (1,): 0.3})
        out = series_compose_primitive("log1p", inner)
        x = 0.01
        assert out.eval([x]) == pytest.approx(
            math.log1p(0.7 + 0.3 * x), rel=1e-12)
