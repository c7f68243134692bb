import math
from importlib import resources
from types import SimpleNamespace

import pytest

import germapprox as ga
from germapprox import expr as ex
from germapprox import geometry as gg
from germapprox import approx as gapx
from germapprox import sets as gs
from germapprox.approx import (
    ApproxError,
    SearchExhausted,
    _residual_set,
    child_seed,
    search_inflation_exponent,
    search_truncation_orders,
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


class TestResidualSet:
    PART = gs.BasicPresentation(
        nvars=2, eqs=(ex.parse("y - x^2", 2),),
        ineqs=(ex.parse("x", 2), ex.parse("1 - y", 2)))

    def test_nonzero_minors_follow_the_equations(self):
        res = _residual_set(self.PART, self.PART.eqs, "res", 0.5)
        assert (res.name, res.nvars, res.omega) == ("res", 2, 0.5)
        # the minors of [-2x, 1] are both kept: only the constant 0 drops
        minors = tuple(gs.minor_determinants(self.PART.eqs, 2, 1))
        assert len(minors) == 2
        assert res.parts[0] == gs.BasicPresentation(
            nvars=2, eqs=self.PART.eqs + minors, ineqs=self.PART.ineqs,
            through_origin=False)

    def test_all_zero_minors_keep_the_part_whole(self):
        res = _residual_set(self.PART, (ex.parse("x - x", 2),), "res", 0.5)
        assert res.parts[0] == gs.BasicPresentation(
            nvars=2, eqs=self.PART.eqs, ineqs=self.PART.ineqs,
            through_origin=False)

    def test_zero_system_gives_the_part_and_its_edges(self):
        # every minor of the constant 0 is the constant 0
        res = _residual_set(self.PART, (ex.Const(0.0),), "res", 0.5)
        edges = tuple(gs.boundary_part(self.PART, j) for j in range(2))
        assert res.parts == (gs.BasicPresentation(
            nvars=2, eqs=self.PART.eqs, ineqs=self.PART.ineqs,
            through_origin=False),) + edges

    def test_one_boundary_part_per_inequality(self):
        edges = tuple(gs.boundary_part(self.PART, j) for j in range(2))
        assert _residual_set(self.PART, (), "res", 0.5).parts == edges
        res = _residual_set(self.PART, self.PART.eqs, "res", 0.5)
        assert res.parts[1:] == edges


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


def _basic_set(name, nvars, parts, through_origin=True):
    """A set of the basic parts ``(eqs, ineqs)``, each a tuple of strings."""
    return gs.SemianalyticSet(name=name, nvars=nvars, omega=0.5, parts=tuple(
        gs.BasicPresentation(nvars=nvars,
                             eqs=tuple(ex.parse(e, nvars) for e in eqs),
                             ineqs=tuple(ex.parse(g, nvars) for g in ineqs),
                             through_origin=through_origin)
        for eqs, ineqs in parts))


class TestCaveats:
    """Each caveat ``approximate`` can raise, as its exact text and tags: a
    part's caveats carry ``[part i]`` in the result, and a residual's carry
    ``[residual]`` in its part's, so they nest along the recursion."""

    NO_POINTS = ("part contributes no points near the origin at the sampled "
                 "resolution")
    DROPPED = ("1 inequality(ies) truncated to a constant at order 1 and "
               "were dropped from the accepted candidate")
    NOT_BELOW = ("residual locus has dimension 1, not below the part's 1; "
                 "its recursion may not shrink the problem")

    @staticmethod
    def _approx(s, acfg):
        return ga.approximate(s, 2.0, acfg, ga.SliceCache())

    def test_no_equations_but_not_full(self, acfg):
        # the slab y >= 0 >= y is the x-axis, carried by inequalities alone;
        # its residual is the two edges y = 0, each again of dimension 1
        res = self._approx(_basic_set("slab", 2, [((), ("y", "-y"))]), acfg)
        assert res.success
        own = ("part has no equations but does not fill the space; "
               "inequalities alone carry its shape", self.NOT_BELOW)
        nested = (
            f"[part 0] {self.DROPPED}",
            f"[part 0] {self.NOT_BELOW}",
            f"[part 0] [residual] [part 0] {self.NO_POINTS}",
            f"[part 0] [residual] [part 1] {self.DROPPED}",
            f"[part 1] {self.DROPPED}",
            f"[part 1] {self.NOT_BELOW}",
            f"[part 1] [residual] [part 0] {self.NO_POINTS}",
            f"[part 1] [residual] [part 1] {self.DROPPED}")
        assert res.parts[0].caveats == \
            own + tuple(f"[residual] {c}" for c in nested)
        assert res.caveats == \
            tuple(f"[part 0] {c}" for c in res.parts[0].caveats)
        assert res.parts[0].residual.caveats == nested

    def test_part_without_points(self, acfg):
        res = self._approx(_basic_set(
            "line_and_point", 2, [(("y",), ()), (("x^2 + y^2",), ())]), acfg)
        assert res.success
        point = res.parts[1]
        assert point.caveats == (self.NO_POINTS,)
        assert (point.dimension, point.m, point.h, point.k) == \
            (0, None, None, None)
        assert point.projection is None and point.residual is None
        assert res.caveats == (f"[part 0] {self.DROPPED}",
                               f"[part 1] {self.NO_POINTS}")

    def test_codimension_exceeds_equations(self, acfg):
        # x^2 + y^2 = 0 in space is the z-axis: codimension 2, one equation
        res = self._approx(_basic_set("zaxis_sq", 3, [(("x^2 + y^2",), ())]),
                           acfg)
        assert res.success
        pr = res.parts[0]
        assert pr.projection is None
        assert pr.caveats == (
            "estimated codimension 2 exceeds the equation count 1; the "
            "system is kept unreduced",
            self.DROPPED, self.NOT_BELOW, f"[residual] [part 0] {self.DROPPED}")
        assert res.caveats == tuple(f"[part 0] {c}" for c in pr.caveats)

    def test_reduced_system_of_higher_dimension(self, acfg):
        # xz = yz = 0 is the plane z = 0 and the z-axis; the cone keeps only
        # the axis, so the kept system has a dimension the part has not
        res = self._approx(_basic_set(
            "zaxis_cone", 3, [(("x*z", "y*z"), ("z^2 - x^2 - y^2",))]), acfg)
        assert res.success
        assert res.parts[0].projection is None
        assert res.parts[0].caveats == (
            "reduced equation system has dimension 2 at the finest radius, "
            "part has 1; the combination may not be generic",)
        assert res.caveats == tuple(
            f"[part 0] {c}" for c in res.parts[0].caveats)

    def test_vanishing_inequality(self, acfg):
        res = self._approx(_basic_set("vacuous", 2, [(("y",), ("x - x",))]),
                           acfg)
        assert res.success
        note = ("inequality 'x - x' of part 0 vanishes through order 12; it "
                "may be identically zero, making its sign condition vacuous")
        # the inflation's slack truncates to a constant with the vacuous one
        own = ("2 inequality(ies) truncated to a constant at order 1 and "
               "were dropped from the accepted candidate", self.NOT_BELOW,
               f"[residual] {note}",
               f"[residual] [part 0] {self.NO_POINTS}",
               f"[residual] [part 1] {self.DROPPED}")
        assert res.parts[0].caveats == own
        assert res.caveats == (note,) + tuple(f"[part 0] {c}" for c in own)

    def test_dimension_unstable_on_a_part(self, acfg):
        # the line y = 0 inside a disk of radius 0.003, which lies between
        # the two finest radii 2^-9 and 2^-8
        res = self._approx(_basic_set(
            "short_line", 2, [(("y",), ("0.000009 - x^2 - y^2",))]), acfg)
        assert res.success
        assert res.input_dimension == 1
        assert res.caveats == (
            "dimension estimate unstable across radii: [1, 0]",)
        assert res.parts[0].caveats == ()

    def test_dimension_unstable_at_an_isolated_origin(self, acfg):
        # the line y = 0 outside that disk: empty at the finest radius
        res = self._approx(_basic_set(
            "far_line", 2, [(("y",), ("x^2 + y^2 - 0.000009",))],
            through_origin=False), acfg)
        assert res.success and res.parts == ()
        assert res.caveats == res.final_verdict.caveats == (
            "dimension estimate unstable across radii: [0, 1]",
            "origin is isolated at the sampled resolution; the approximant "
            "is the empty germ")


class TestInputSampling:
    """approximate projects each stratum of its input in two calls: the two
    finest radii for the dimension estimate, then the rest of the schedule.
    An input of dimension 0 stops after the first."""

    @staticmethod
    def _project_rows(monkeypatch, s, acfg, eqs=None):
        """Rows of each projection call, of the system ``eqs`` or of all,
        while approximating s on a fresh cache."""
        project, rows = gg.project_to_sphere_slice, []

        def counting(system, starts, r):
            if eqs is None or tuple(system) == eqs:
                rows.append(len(starts))
            return project(system, starts, r)

        monkeypatch.setattr(gg, "project_to_sphere_slice", counting)
        ga.approximate(s, 2.0, acfg, ga.SliceCache())
        return rows

    @pytest.mark.parametrize("name", ["exp_curve", "halfline", "exp_union"])
    def test_two_calls_per_input_stratum(self, curves, acfg, monkeypatch,
                                         name):
        s = curves.get(name)
        primary = tuple(gg._normalize_system(s.parts[0].eqs))
        n, count = acfg.compare.npoints, len(acfg.compare.schedule.radii())
        assert self._project_rows(monkeypatch, s, acfg, primary) == \
            [2 * n, (count - 2) * n]

    @pytest.mark.parametrize("name", ["exp_union", "mixed_union", "t3_union",
                                      "cusp_product"])
    def test_two_calls_per_part_stratum(self, curves, acfg, monkeypatch,
                                        name):
        # the first comparison of each part samples the rest of the
        # schedule for its own stratum, which the input shares
        s = curves.get(name)
        n, count = acfg.compare.npoints, len(acfg.compare.schedule.radii())
        for part in s.parts:
            primary = tuple(gg._normalize_system(part.eqs))
            with monkeypatch.context() as m:
                assert self._project_rows(m, s, acfg, primary) == \
                    [2 * n, (count - 2) * n], str(part)

    def test_dimension_zero_projects_two_radii(self, acfg, monkeypatch):
        rows = self._project_rows(monkeypatch, ISOLATED, acfg)
        assert rows == [2 * acfg.compare.npoints]


class TestSearchExhaustion:
    def test_truncation_budget(self, curves, quick_config, shared_cache):
        cfg = ga.ApproxConfig(compare=quick_config, max_h=1, max_k=1)
        with pytest.raises(SearchExhausted) as ei:
            ga.approximate(curves.get("exp_curve"), 3.0, cfg, shared_cache)
        assert "no truncation up to orders (1, 1)" in str(ei.value)
        h, k, candidate, verdict, dropped = ei.value.best
        assert (h, k) == (1, 1)
        assert ei.value.candidate is candidate
        assert ei.value.verdict is verdict
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
        assert ei.value.candidate is candidate
        assert ei.value.verdict is verdict


    def test_duplicate_truncations_decided_once(self, curves, quick_config,
                                                shared_cache, monkeypatch):
        # exp_curve has no inequality, so k changes nothing: of (1, 1),
        # (2, 1), (1, 2) and (2, 2) only the first two are decided
        decided, decide = [], gapx.decide_equivalent

        def counting(a, b, *rest):
            decided.append(b.signature())
            return decide(a, b, *rest)

        monkeypatch.setattr(gapx, "decide_equivalent", counting)
        cfg = ga.ApproxConfig(compare=quick_config, max_h=2, max_k=2)
        exp_curve = curves.get("exp_curve")
        with pytest.raises(SearchExhausted) as ei:
            search_truncation_orders(exp_curve, exp_curve, 50.0, cfg,
                                     shared_cache)
        assert len(decided) == len(set(decided)) == 2
        assert ei.value.best[:2] == (2, 1)


class TestCandidateLoop:
    """Both searches decide their candidates in order, return the first
    that holds, and on exhaustion keep the rejected candidate with the
    largest fitted slope, the first of equal slopes."""

    # exp(x) - 1 truncates differently at k = 1 and 2, so no (h, k) of a
    # 2 x 2 budget repeats a candidate
    BASE = gs.set_of(gs.BasicPresentation(
        nvars=2, eqs=(ex.parse("y - exp(x) + 1", 2),),
        ineqs=(ex.parse("exp(x) - 1", 2),)), "base", 0.5)

    @staticmethod
    def _scripted(monkeypatch, script):
        """Replace the decision by verdicts (holds, slope) in call order;
        return the list the decided candidates are appended to."""
        decided = []
        verdicts = iter([SimpleNamespace(holds=holds,
                                         estimate=SimpleNamespace(slope=sl))
                         for holds, sl in script])

        def decide(reference, candidate, s, compare, cache):
            decided.append(candidate)
            return next(verdicts)

        monkeypatch.setattr(gapx, "decide_equivalent", decide)
        return decided

    @pytest.fixture()
    def cfg(self, quick_config):
        return ga.ApproxConfig(compare=quick_config, max_m=4, max_h=2,
                               max_k=2)

    def test_inflation_first_that_holds(self, monkeypatch, cfg):
        decided = self._scripted(
            monkeypatch, [(False, 1.0), (False, 2.0), (True, 0.5),
                          (True, 5.0)])
        m, candidate, verdict = search_inflation_exponent(
            self.BASE, lambda m: f"m{m}", 2.0, cfg)
        assert (m, candidate, verdict.estimate.slope) == (3, "m3", 0.5)
        assert decided == ["m1", "m2", "m3"]

    def test_inflation_keeps_first_largest_slope(self, monkeypatch, cfg):
        self._scripted(monkeypatch, [(False, 1.0), (False, 3.0),
                                     (False, 3.0), (False, 2.0)])
        with pytest.raises(SearchExhausted) as ei:
            search_inflation_exponent(self.BASE, lambda m: f"m{m}", 2.0, cfg)
        m, candidate, verdict = ei.value.best
        assert (m, candidate, verdict.estimate.slope) == (2, "m2", 3.0)
        assert ei.value.candidate is candidate
        assert ei.value.verdict is verdict

    def test_truncation_first_that_holds(self, monkeypatch, cfg):
        decided = self._scripted(
            monkeypatch, [(False, 1.0), (False, 2.0), (True, 0.5),
                          (True, 5.0)])
        h, k, candidate, verdict, dropped = search_truncation_orders(
            self.BASE, self.BASE, 2.0, cfg)
        assert (h, k, verdict.estimate.slope, dropped) == (1, 2, 0.5, 0)
        assert len(decided) == 3 and candidate is decided[-1]

    def test_truncation_keeps_first_largest_slope(self, monkeypatch, cfg):
        decided = self._scripted(
            monkeypatch, [(False, 1.0), (False, 3.0), (False, 3.0),
                          (False, 2.0)])
        with pytest.raises(SearchExhausted) as ei:
            search_truncation_orders(self.BASE, self.BASE, 2.0, cfg)
        h, k, candidate, verdict, dropped = ei.value.best
        assert (h, k, verdict.estimate.slope, dropped) == (2, 1, 3.0, 0)
        assert ei.value.candidate is candidate
        assert ei.value.verdict is verdict
        assert len(decided) == 4 and candidate is decided[1]


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


def _corpus(name):
    with resources.as_file(
            resources.files("germapprox") / "corpus" / f"{name}.json") as p:
        return ga.load_collection(p)


def _is_graph(part):
    """One equation solved for the last variable: y - phi(x) in the
    plane, z - phi(x, y) in space."""
    return (len(part.eqs) == 1
            and ex.diff(part.eqs[0], part.nvars - 1) == ex.Const(1.0))


CORPUS = {name: _corpus(name) for name in ("curves", "surfaces")}
GRAPH_SETS = [(file, name) for file, coll in CORPUS.items()
              for name, s in coll.sets.items()
              if s.parts and all(_is_graph(p) for p in s.parts)]


class TestPaperStatement:
    """The paper's statement on every graph of the corpus: an approximant
    at order s that claims success is within order s, read from the series
    valuation of phi - T by sympy, which shares no code with the sampler
    that accepted it."""

    # a float Taylor coefficient differs from its exact value by rounding
    NEGLIGIBLE = 1e-12
    # valuations are resolved up to this degree, above every s tried
    UPTO = 6

    @classmethod
    def _valuation(cls, sp, expr, symbols):
        """Least total degree of a term of ``expr``'s Taylor series at the
        origin, UPTO + 1 when there is none up to UPTO."""
        t = sp.Symbol("t")
        scaled = expr.subs({v: t * v for v in symbols}, simultaneous=True)
        series = sp.expand(sp.series(scaled, t, 0, cls.UPTO + 1).removeO())
        for degree in range(cls.UPTO + 1):
            term = series.coeff(t, degree)
            if any(abs(float(c)) > cls.NEGLIGIBLE
                   for c in sp.Poly(term, *symbols).coeffs()):
                return degree
        return cls.UPTO + 1

    @pytest.mark.parametrize("file,name,s", [
        (file, name, s) for file, name in GRAPH_SETS for s in (2.0, 3.0, 4.0)])
    def test_approximant_within_order(self, file, name, s, acfg,
                                      shared_cache):
        sp = pytest.importorskip("sympy")
        coll = CORPUS[file]
        a = coll.get(name)
        try:
            res = ga.approximate(a, s, acfg, shared_cache)
        except SearchExhausted:
            return
        if not res.success or res.final_verdict.inconclusive:
            return
        if len(res.output.parts) != len(a.parts):
            pytest.skip(f"approx({name}) at s={s:g} has "
                        f"{len(res.output.parts)} parts for {len(a.parts)}")
        symbols = sp.symbols(coll.names)
        for part, out in zip(a.parts, res.output.parts):
            if not (_is_graph(out) and ex.is_polynomial(out.eqs[0])):
                pytest.skip(f"approx({name}) at s={s:g} has a part of "
                            f"another shape: {strings(res.output)}")
            phi, approx_eq = (sp.sympify(ex.to_string(p.eqs[0], coll.names))
                              for p in (part, out))
            v = self._valuation(sp, approx_eq - phi, symbols)
            assert v > s, (ex.to_string(out.eqs[0], coll.names), v)
