import math

import pytest

import germapprox as ga
from germapprox import expr as ex
from germapprox import sets as gs
from germapprox.approx import (
    ApproxError,
    SearchExhausted,
    child_seed,
    search_inflation_exponent,
)

ISOLATED = gs.SemianalyticSet(
    name="origin_only", nvars=2, omega=0.5,
    parts=(gs.BasicPresentation(nvars=2, eqs=(ex.Var(0), ex.Var(1))),))


@pytest.fixture(scope="module")
def acfg(quick_config):
    return ga.ApproxConfig(compare=quick_config)


def strings(s):
    names = ["x", "y", "z"][: s.nvars]
    return [
        (tuple(ex.to_string(e, names) for e in p.eqs),
         tuple(ex.to_string(g, names) for g in p.ineqs))
        for p in s.parts]


class TestChildSeed:
    def test_frozen_value(self):
        assert child_seed(0, "proj", "cusp_product", 0) == 576423438

    def test_deterministic_and_distinct(self):
        assert child_seed(3, "a", 1) == child_seed(3, "a", 1)
        assert child_seed(3, "a", 1) != child_seed(4, "a", 1)
        assert child_seed(3, "a", 1) != child_seed(3, "b", 1)

    def test_nonnegative_31_bit(self):
        for seed in range(20):
            v = child_seed(seed, "t")
            assert 0 <= v < 2 ** 31


class TestConfig:
    def test_budget_validation(self):
        with pytest.raises(ApproxError):
            ga.ApproxConfig(max_h=0)
        with pytest.raises(ApproxError):
            ga.ApproxConfig(max_m=0)
        with pytest.raises(ApproxError):
            ga.ApproxConfig(depth=-1)

    def test_compare_defaults_from_input(self, curves, shared_cache):
        res = ga.approximate(curves.get("parabola"), 2.0, cache=shared_cache)
        assert res.success
        assert (res.parts[0].h, res.parts[0].k) == (2, 1)

    def test_order_must_be_positive(self, curves, acfg):
        with pytest.raises(ApproxError):
            ga.approximate(curves.get("parabola"), 0.0, acfg)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_order_must_be_finite(self, curves, acfg, s):
        with pytest.raises(ApproxError):
            ga.approximate(curves.get("parabola"), s, acfg)


class TestPolynomialInput:
    def test_recovers_itself(self, curves, acfg, shared_cache):
        res = ga.approximate(curves.get("parabola"), 2.5, acfg, shared_cache)
        assert res.success
        assert strings(res.output) == [(("y - x^2",), ())]
        assert res.final_verdict.estimate.vanishing
        pr = res.parts[0]
        assert (pr.m, pr.h, pr.k) == (1, 2, 1)
        assert pr.projection is None
        assert pr.residual is None
        assert res.input_dimension == res.output_dimension == 1
        assert res.output.is_polynomial()


class TestAnalyticCurve:
    def test_exp_sin_half_branch(self, curves, acfg, shared_cache):
        res = ga.approximate(curves.get("exp_sin"), 3.0, acfg, shared_cache)
        assert res.success
        pr = res.parts[0]
        assert (pr.m, pr.h, pr.k) == (1, 2, 1)
        assert pr.projection is None, "one equation needs no mixing"
        assert pr.m_verdict.holds and pr.candidate_verdict.holds
        # the cubic Taylor coefficient of the branch vanishes, so the
        # quadratic truncation already tracks it to fourth order
        assert strings(res.output) == [(("y - x - 0.5*x^2",), ("x",))]
        assert res.final_verdict.estimate.slope == pytest.approx(4.0,
                                                                 abs=0.25)
        assert ("[part 0] 1 inequality(ies) truncated to a constant at "
                "order 1 and were dropped from the accepted candidate"
                in res.caveats)

    def test_output_degree_is_small(self, curves, acfg, shared_cache):
        res = ga.approximate(curves.get("exp_sin"), 3.0, acfg, shared_cache)
        for p in res.output.parts:
            for e in p.eqs + p.ineqs:
                assert ex.polynomial_degree(e) <= 3


class TestRedundantSystem:
    def test_projection_mixes_to_codimension(self, curves, acfg,
                                             shared_cache):
        # two equations sharing a factor describe a curve; the seeded mixing
        # reduces them to a single generic combination
        res = ga.approximate(curves.get("cusp_product"), 2.5, acfg,
                             shared_cache)
        assert res.success
        pr = res.parts[0]
        assert (pr.m, pr.h, pr.k) == (1, 1, 1)
        assert pr.projection == (
            (-0.30347988919683394, -0.5652427350727512),)
        assert strings(res.output) == [(("-(0.30347988919683394*y)",), ())]
        assert res.final_verdict.estimate.slope == pytest.approx(3.0,
                                                                 abs=0.1)

    def test_deterministic_across_runs(self, curves, acfg):
        a = ga.approximate(curves.get("cusp_product"), 2.5, acfg,
                           ga.SliceCache())
        b = ga.approximate(curves.get("cusp_product"), 2.5, acfg,
                           ga.SliceCache())
        assert a.output.signature() == b.output.signature()
        assert (a.parts[0].m, a.parts[0].h, a.parts[0].k) == \
               (b.parts[0].m, b.parts[0].h, b.parts[0].k)
        assert a.final_verdict.estimate.slope == \
               b.final_verdict.estimate.slope


class TestFullDimensional:
    def test_halfdisk_boundary_recursion(self, curves, acfg, shared_cache):
        res = ga.approximate(curves.get("halfdisk"), 2.0, acfg, shared_cache)
        assert res.success
        pr = res.parts[0]
        assert pr.m is None, "no equations to inflate"
        assert (pr.h, pr.k) == (1, 1)
        # the interior truncates to the half-plane; the straight edge comes
        # back through the residual recursion
        assert strings(res.output) == [((), ("x",)), (("x",), ())]
        assert pr.residual is not None and pr.residual.success
        assert res.input_dimension == res.output_dimension == 2
        assert res.final_verdict.estimate.vanishing

    def test_depth_zero_truncates_residual_unverified(self, curves,
                                                      quick_config,
                                                      shared_cache):
        cfg = ga.ApproxConfig(compare=quick_config, depth=0)
        res = ga.approximate(curves.get("halfdisk"), 2.0, cfg, shared_cache)
        assert res.success
        assert res.parts[0].residual is None
        assert any("recursion budget exhausted" in c for c in res.caveats)


class TestIsolatedOrigin:
    def test_empty_approximant(self, fresh_cache):
        res = ga.approximate(ISOLATED, 2.0,
                             ga.ApproxConfig(
                                 compare=ga.CompareConfig.for_sets(ISOLATED)),
                             fresh_cache)
        assert res.success
        assert res.output.parts == ()
        assert res.input_dimension == res.output_dimension == 0
        assert any("origin is isolated" in c for c in res.caveats)
        assert res.final_verdict.holds


class TestSearchExhaustion:
    def test_truncation_budget(self, curves, quick_config, shared_cache):
        cfg = ga.ApproxConfig(compare=quick_config, max_h=1, max_k=1)
        with pytest.raises(SearchExhausted) as ei:
            ga.approximate(curves.get("exp_curve"), 3.0, cfg, shared_cache)
        assert "no truncation up to orders (1, 1)" in str(ei.value)
        h, k, candidate, verdict, dropped = ei.value.best
        assert (h, k) == (1, 1)
        assert not verdict.holds
        # the linear truncation only tracks the curve to second order
        assert verdict.estimate.slope == pytest.approx(2.0, abs=0.2)

    def test_inflation_budget(self, curves, quick_config, shared_cache):
        cfg = ga.ApproxConfig(compare=quick_config, max_m=2)
        line = curves.get("line")
        with pytest.raises(SearchExhausted) as ei:
            search_inflation_exponent(
                curves.get("parabola"), lambda m: line, 2.5, cfg,
                shared_cache)
        assert "no inflation exponent up to 2" in str(ei.value)
        m, candidate, verdict = ei.value.best
        assert m == 1 and candidate is line and not verdict.holds


class TestDiagonalSearchOrder:
    def test_levels_grow_and_small_k_first(self):
        from germapprox.approx import _diagonal_orders
        seq = list(_diagonal_orders(3, 3))
        assert seq[0] == (1, 1)
        assert seq.index((2, 1)) < seq.index((1, 2))
        levels = [max(h, k) for h, k in seq]
        assert levels == sorted(levels)
        assert len(seq) == len(set(seq)) == 9

    def test_respects_budgets(self):
        from germapprox.approx import _diagonal_orders
        seq = list(_diagonal_orders(2, 1))
        assert seq == [(1, 1), (2, 1)]


class TestWarmCache:
    """A cache warmed by other sets changes no search decision and no
    sample: shared strata come back bit-identical."""

    @staticmethod
    def _slopes(verdict):
        return tuple(e.slope if e is not None else None
                     for e in (verdict.estimate, verdict.estimate_reverse))

    @pytest.mark.parametrize("name,s", [
        ("exp_sin", 2.0), ("halfdisk", 2.0), ("cusp_product", 2.5)])
    def test_search_matches_fresh_cache(self, curves, acfg, name, s):
        warm = ga.SliceCache()
        for other in ("parabola", "exp_half_pos", "disk"):
            ga.approximate(curves.get(other), 2.0, acfg, warm)
        a = ga.approximate(curves.get(name), s, acfg, warm)
        b = ga.approximate(curves.get(name), s, acfg, ga.SliceCache())
        assert a.output.signature() == b.output.signature()
        assert [(p.m, p.h, p.k) for p in a.parts] == \
               [(p.m, p.h, p.k) for p in b.parts]
        assert self._slopes(a.final_verdict) == \
               self._slopes(b.final_verdict)

    def test_profile_on_shared_cache(self, curves, quick_config):
        a, b = curves.get("exp_half_pos"), curves.get("trunc3_half_pos")
        fresh, *_ = ga.deviation_profile(a, b, quick_config, ga.SliceCache())
        shared = ga.SliceCache()
        # the full curves share the half curves' primary strata
        ga.deviation_profile(curves.get("exp_curve"), curves.get("trunc3"),
                             quick_config, shared)
        samples, *_ = ga.deviation_profile(a, b, quick_config, shared)
        assert samples == fresh
