import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.spatial import cKDTree

import germapprox as ga
from conftest import CURVE_PAIRS
from germapprox import equivalence as eq
from germapprox import expr as ex
from germapprox import geometry as gg
from germapprox import sets as gs
from germapprox.equivalence import (
    HORN_OFFSETS,
    R2_MIN,
    ComparisonError,
    ExponentPreconditionError,
    OrderEstimate,
    Verdict,
)

ISOLATED = gs.SemianalyticSet(
    name="origin_only", nvars=2, omega=0.5,
    parts=(gs.BasicPresentation(nvars=2, eqs=(ex.Var(0), ex.Var(1))),))


class TestRadiiSchedule:
    def test_geometric_ladder(self):
        sch = ga.RadiiSchedule(r0=0.4, ratio=0.5, count=3)
        assert sch.radii() == [0.4, 0.2, 0.1]

    def test_parse(self):
        sch = ga.RadiiSchedule.parse("0.25:0.5:8")
        assert (sch.r0, sch.ratio, sch.count) == (0.25, 0.5, 8)

    @pytest.mark.parametrize("text", [
        "0.25:0.5", "1:2:3:4", "a:0.5:8", "0.25:b:8", "0.25:0.5:x",
        "-1:0.5:8", "0.25:1.5:8", "0.25:0.5:1", "0:0.5:8",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ComparisonError):
            ga.RadiiSchedule.parse(text)

    def test_default_for_half_omega(self):
        assert ga.RadiiSchedule.default_for(0.5).r0 == 0.25


class TestCompareConfig:
    def test_for_sets_uses_smallest_omega(self, curves):
        small = gs.SemianalyticSet(name="s", nvars=2, omega=0.1,
                                   parts=curves.get("line").parts)
        cfg = ga.CompareConfig.for_sets(curves.get("line"), small)
        assert cfg.schedule.r0 == 0.05

    # the ids keep the positions these cases had when r2_min, horn_offsets
    # and threads were still validated fields (kw2, kw3, kw4, kw5, kw6)
    @pytest.mark.parametrize("kw", [
        pytest.param({"npoints": 4}, id="kw0"),
        pytest.param({"margin": 0.0}, id="kw1"),
        pytest.param({"margin": math.inf}, id="margin_inf"),
        pytest.param({"seed": -1}, id="seed_negative"),
    ])
    def test_validation(self, kw):
        with pytest.raises(ComparisonError):
            ga.CompareConfig(schedule=ga.RadiiSchedule(0.25), **kw)


class TestOrderFits:
    def test_reflexive_deviation_vanishes(self, curves, quick_config,
                                          shared_cache):
        e = curves.get("exp_curve")
        est = ga.deviation_profile(e, e, quick_config, shared_cache)[1]
        assert est.vanishing and est.slope == math.inf
        assert est.below_floor >= quick_config.schedule.count - 1

    def test_parabola_vs_line_closed_form(self, curves, quick_config,
                                          shared_cache):
        samples, _, _, _ = ga.deviation_profile(
            curves.get("parabola"), curves.get("line"), quick_config,
            shared_cache)
        d = samples[0]
        assert d.r == 0.25
        # on {y = x^2} the sphere equation x^2 + x^4 = r^2 solves in x^2
        xs = math.sqrt((math.sqrt(1.0 + 4.0 * d.r ** 2) - 1.0) / 2.0)
        want = math.hypot(d.r - xs, xs * xs)
        assert d.delta_ab == pytest.approx(want, rel=1e-9)
        assert d.delta_ba == pytest.approx(want, rel=1e-9)
        # both slices are isolated points, so both floors are the clouds'
        assert d.floor_ab == d.floor_ba == gg._SPACING_GUARD

    def test_continuum_targets_read_the_horn_distance(self, surfaces,
                                                      quick_config,
                                                      monkeypatch):
        # graph_exp's slice is a continuum: each direction is the solver's
        # largest distance to the other germ, at the solver's floor, the
        # maximum the horn criterion reads from the same cache without
        # measuring a row again
        g = surfaces.get("graph_exp")
        b = gs.truncate_eqs(g, 2)
        cache = ga.SliceCache()
        samples, est_ab, est_ba, _ = ga.deviation_profile(g, b, quick_config,
                                                          cache)
        assert all(d.floor_ab == d.floor_ba == gg._NEAREST_ACCEPT * d.r
                   for d in samples)
        for est in (est_ab, est_ba):
            assert est.slope == pytest.approx(3.0, abs=0.05)
        measured = []
        bounds = gg._bounds
        monkeypatch.setattr(gg, "_bounds",
                            lambda X, *a: measured.append(len(X))
                            or bounds(X, *a))
        horn = ga.horn_criterion(g, b, 2.5, quick_config, cache)
        assert measured == []
        assert [d.delta_ab for d in horn.estimate.samples] == \
            [d.delta_ab for d in samples]

    def test_reflexive_samples_are_zero(self, curves, quick_config,
                                        shared_cache):
        e = curves.get("exp_curve")
        samples, _, _, _ = ga.deviation_profile(e, e, quick_config,
                                                shared_cache)
        assert all(d.delta_ab == 0.0 and d.delta_ba == 0.0 for d in samples)

    def test_line_vs_parabola_order_two(self, curves, quick_config,
                                        shared_cache):
        est = ga.deviation_profile(
            curves.get("line"), curves.get("parabola"), quick_config,
            shared_cache)[1]
        assert est.slope == pytest.approx(2.0, abs=0.1)
        assert est.r_squared > 0.999
        assert est.direction == "A<=B"
        assert not est.vanishing

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_truncation_order_is_k_plus_one(self, curves, quick_config,
                                            shared_cache, k):
        est = ga.deviation_profile(
            curves.get("exp_curve"), curves.get(f"trunc{k}"), quick_config,
            shared_cache)[1]
        assert est.slope == pytest.approx(k + 1, abs=0.2)
        assert est.r_squared > 0.999

    def test_profile_shape(self, curves, quick_config, shared_cache):
        samples, eab, eba, caveats = ga.deviation_profile(
            curves.get("line"), curves.get("parabola"), quick_config,
            shared_cache)
        assert len(samples) == quick_config.schedule.count
        radii = [s.r for s in samples]
        assert radii == sorted(radii, reverse=True)
        assert radii[0] == quick_config.schedule.r0
        assert eab.direction == "A<=B" and eba.direction == "B<=A"
        assert caveats == ()
        # the two curve germs mirror each other here
        assert eba.slope == pytest.approx(eab.slope, rel=1e-6)

    def test_empty_target_reports_no_decay(self, curves, quick_config,
                                           fresh_cache):
        samples, est, _, caveats = ga.deviation_profile(
            curves.get("line"), ISOLATED, quick_config, fresh_cache)
        assert est.slope == -math.inf
        assert all(s.delta_ab == math.inf for s in samples)
        assert any("no points on the sphere" in c for c in caveats)

    def test_sampling_caveats_in_schedule_order(self, quick_config,
                                                fresh_cache):
        # Gauss-Newton converges linearly on the quartic parts and runs out
        # of iterations, so only the [y] third of the primary starts count
        slow = gs.SemianalyticSet(
            name="slow", nvars=2, omega=0.5,
            parts=tuple(gs.BasicPresentation(nvars=2, eqs=(ex.parse(t, 2),))
                        for t in ("y", "x^4", "(x-y)^4")))
        _, _, _, caveats = ga.deviation_profile(slow, ISOLATED, quick_config,
                                                fresh_cache)
        # no start converges on the isolated origin either, but an empty
        # slice is noted as empty, never as poorly converged
        assert all(c.converged_fraction == 0.0 for c in gg.sample_slices(
            ISOLATED, quick_config.schedule.radii(),
            npoints=quick_config.npoints, cache=fresh_cache))
        expected = []
        for r in quick_config.schedule.radii():
            expected.append(f"'origin_only' has no points on the sphere "
                            f"r={r:g}")
            expected.append(f"only 33% of starts converged for 'slow' at "
                            f"r={r:g}")
        assert caveats == tuple(expected)
        # the same note from both sides of a pair is reported once
        _, _, _, caveats = ga.deviation_profile(slow, slow, quick_config,
                                                fresh_cache)
        assert caveats == tuple(c for c in expected if "slow" in c)


class TestDecideLe:
    def test_holds_with_clear_margin(self, curves, quick_config,
                                     shared_cache):
        v = ga.decide_le(curves.get("line"), curves.get("parabola"), 1.5,
                         quick_config, shared_cache)
        assert v.holds and not v.inconclusive
        assert v.method == "limit-fit" and v.s == 1.5

    def test_fails_with_clear_margin(self, curves, quick_config,
                                     shared_cache):
        v = ga.decide_le(curves.get("line"), curves.get("parabola"), 2.5,
                         quick_config, shared_cache)
        assert not v.holds and not v.inconclusive

    def test_margin_band_is_inconclusive(self, curves, quick_config,
                                         shared_cache):
        v = ga.decide_le(curves.get("line"), curves.get("parabola"), 2.0,
                         quick_config, shared_cache)
        assert not v.holds and v.inconclusive
        assert any("within the margin" in c for c in v.caveats)

    def test_no_decay_fails_with_caveat(self, curves, quick_config,
                                        fresh_cache):
        v = ga.decide_le(curves.get("line"), ISOLATED, 1.0, quick_config,
                         fresh_cache)
        assert not v.holds and not v.inconclusive
        assert any("does not decay" in c for c in v.caveats)

    def test_vanishing_holds_at_any_order(self, curves, quick_config,
                                          shared_cache):
        v = ga.decide_le(curves.get("exp_curve"), curves.get("exp_curve"),
                         50.0, quick_config, shared_cache)
        assert v.holds and v.estimate.vanishing


class TestDecideEquivalent:
    def test_binding_direction_reported(self, curves, quick_config,
                                        shared_cache):
        # the half-line sits on the line, but the line's negative ray is far
        # from the half-line, so only the B<=A direction binds
        v = ga.decide_equivalent(curves.get("halfline"), curves.get("line"),
                                 1.5, quick_config, shared_cache)
        assert not v.holds
        assert v.estimate.direction == "B<=A"
        assert v.estimate.slope == pytest.approx(1.0, abs=1e-6)
        assert v.estimate_reverse.direction == "A<=B"
        assert v.estimate_reverse.vanishing

    def test_linear_deviation_rate(self, curves, quick_config, shared_cache):
        samples, _, est_ba, _ = ga.deviation_profile(
            curves.get("halfline"), curves.get("line"), quick_config,
            shared_cache)
        for s in samples:
            assert s.delta_ba / s.r == pytest.approx(2.0, rel=1e-9)
        assert est_ba.slope == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_holds(self, curves, quick_config, shared_cache):
        v = ga.decide_equivalent(curves.get("exp_curve"),
                                 curves.get("trunc3"), 3.0, quick_config,
                                 shared_cache)
        assert v.holds and not v.inconclusive

    def test_inconclusive_band(self, curves, quick_config, shared_cache):
        v = ga.decide_equivalent(curves.get("line"), curves.get("parabola"),
                                 2.0, quick_config, shared_cache)
        assert not v.holds and v.inconclusive

    def test_caveats_tagged_by_direction(self, curves, quick_config,
                                         shared_cache):
        v = ga.decide_equivalent(curves.get("line"), curves.get("parabola"),
                                 2.0, quick_config, shared_cache)
        assert any(c.startswith("[A<=B]") or c.startswith("[B<=A]")
                   for c in v.caveats)

    def test_cold_cache_projects_each_stratum_once(self, curves,
                                                   quick_config,
                                                   monkeypatch):
        calls = []
        project = gg.project_to_sphere_slice

        def counting(eqs, starts, r):
            calls.append((tuple(eqs), len(starts)))
            return project(eqs, starts, r)

        monkeypatch.setattr(gg, "project_to_sphere_slice", counting)
        # two strata: {y = 0} (shared by the two sets) and the parabola;
        # the half-line's end {y = 0, x = 0} is not projected, since the
        # line's slice already holds every point of it
        ga.decide_equivalent(curves.get("halfline"),
                             curves.get("mixed_union"), 1.0, quick_config,
                             ga.SliceCache())
        assert len(calls) == 2
        assert len({eqs for eqs, _ in calls}) == 2
        rows = quick_config.schedule.count * quick_config.npoints
        assert all(n == rows for _, n in calls)


# s +- margin is exact in binary, so the band's edges are exact too
RULE_S = 2.0
RULE_CONFIG = ga.CompareConfig(schedule=ga.RadiiSchedule(0.25), margin=0.25)
PROFILE_NOTE = "'b' has no points on the sphere r=0.25"
NO_DECAY = ("deviation does not decay: the target germ had no points at "
            "some sampled radius")
POOR_FIT = ("decay fit is poor (r^2=0.500); the deviation may not follow a "
            "power law")


def _within_margin(slope):
    return f"fitted order {slope:.3f} lies within the margin 0.25 of s=2"


def _estimate(slope, r_squared=1.0, direction="A<=B"):
    return OrderEstimate(direction=direction, slope=slope, intercept=0.0,
                         r_squared=r_squared, vanishing=slope == math.inf,
                         below_floor=0, samples=())


class TestDecisionRule:
    """The limit fit's decision table on hand-built estimates."""

    @pytest.mark.parametrize("slope,r2,holds,inconclusive,notes", [
        pytest.param(math.inf, 1.0, True, False, (), id="floor"),
        pytest.param(-math.inf, 0.0, False, False, (NO_DECAY,),
                     id="no_decay"),
        pytest.param(2.25, 1.0, True, False, (), id="upper_edge"),
        pytest.param(1.75, 1.0, False, False, (), id="lower_edge"),
        pytest.param(2.2, 1.0, False, True, (_within_margin(2.2),),
                     id="inside_band"),
        pytest.param(1.8, 0.5, False, True,
                     (POOR_FIT, _within_margin(1.8)), id="poor_fit_band"),
        pytest.param(3.0, 0.5, True, False, (POOR_FIT,), id="poor_fit_holds"),
        pytest.param(3.0, R2_MIN, True, False, (), id="r2_at_min"),
    ])
    def test_verdict_from_estimate(self, slope, r2, holds, inconclusive,
                                   notes):
        est = _estimate(slope, r2)
        v = eq._verdict_from_estimate(est, RULE_S, RULE_CONFIG,
                                      (PROFILE_NOTE,))
        assert v == Verdict(holds=holds, s=RULE_S, method="limit-fit",
                            estimate=est, caveats=(PROFILE_NOTE,) + notes,
                            inconclusive=inconclusive)

    @pytest.mark.parametrize("ab,ba,holds,inconclusive,binding,notes", [
        pytest.param(3.0, 2.5, True, False, "B<=A", (), id="holds_holds"),
        pytest.param(3.0, 1.0, False, False, "B<=A", (), id="holds_fails"),
        pytest.param(1.0, 2.1, False, False, "A<=B",
                     ("[B<=A] " + _within_margin(2.1),),
                     id="fails_inconclusive"),
        pytest.param(2.1, 1.9, False, True, "B<=A",
                     ("[A<=B] " + _within_margin(2.1),
                      "[B<=A] " + _within_margin(1.9)),
                     id="inconclusive_inconclusive"),
        pytest.param(math.inf, -math.inf, False, False, "B<=A",
                     ("[B<=A] " + NO_DECAY,), id="floor_no_decay"),
        pytest.param(math.inf, 3.0, True, False, "B<=A", (),
                     id="floor_holds"),
        pytest.param(math.inf, math.inf, True, False, "A<=B", (),
                     id="floor_tie"),
        pytest.param(2.1, 2.1, False, True, "A<=B",
                     ("[A<=B] " + _within_margin(2.1),
                      "[B<=A] " + _within_margin(2.1)), id="finite_tie"),
    ])
    def test_decide_equivalent_merge(self, monkeypatch, ab, ba, holds,
                                     inconclusive, binding, notes):
        est_ab = _estimate(ab, 0.0 if ab == -math.inf else 1.0, "A<=B")
        est_ba = _estimate(ba, 0.0 if ba == -math.inf else 1.0, "B<=A")
        monkeypatch.setattr(
            eq, "deviation_profile",
            lambda a, b, config, cache=None: ((), est_ab, est_ba,
                                              (PROFILE_NOTE,)))
        v = eq.decide_equivalent(None, None, RULE_S, RULE_CONFIG)
        assert (v.holds, v.inconclusive) == (holds, inconclusive)
        assert v.estimate.direction == binding
        assert v.estimate is (est_ab if binding == "A<=B" else est_ba)
        assert v.estimate_reverse is (est_ba if binding == "A<=B"
                                      else est_ab)
        assert v.caveats == (PROFILE_NOTE,) + notes
        assert v.method == "limit-fit" and v.sigma is None

    @staticmethod
    def _fit(deltas, floor=1e-12):
        radii = [0.25 * 0.5 ** i for i in range(len(deltas))]
        samples = tuple(gg.DistanceSample(r=r, delta_ab=d, delta_ba=0.0,
                                          floor_ab=floor, floor_ba=math.inf)
                        for r, d in zip(radii, deltas))
        return eq._fit_decay(samples, "A<=B")

    @pytest.mark.parametrize("deltas", [
        pytest.param([0.0] * 8, id="all_at_floor"),
        pytest.param([1e-3] + [0.0] * 7, id="all_but_one_at_floor"),
    ])
    def test_fit_at_the_floor(self, deltas):
        est = self._fit(deltas)
        assert est.slope == math.inf and est.vanishing
        assert est.r_squared == 1.0 and math.isnan(est.intercept)
        assert est.below_floor == deltas.count(0.0)

    def test_fit_with_an_infinite_radius(self):
        deltas = [(0.25 * 0.5 ** i) ** 2 for i in range(8)]
        deltas[3] = math.inf
        est = self._fit(deltas)
        assert est.slope == -math.inf and not est.vanishing
        assert est.r_squared == 0.0 and math.isnan(est.intercept)

    def test_fit_of_an_exact_power(self):
        est = self._fit([(0.25 * 0.5 ** i) ** 3 for i in range(8)])
        assert est.slope == pytest.approx(3.0, abs=1e-12)
        assert est.intercept == pytest.approx(0.0, abs=1e-10)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not est.vanishing and est.below_floor == 0
        assert len(est.samples) == 8

    def test_each_direction_reads_its_own_floor(self):
        # the same cubic deviations both ways, one direction's floor above
        # every one of them: that direction vanishes, the other fits 3
        radii = [0.25 * 0.5 ** i for i in range(8)]
        samples = tuple(gg.DistanceSample(r=r, delta_ab=r ** 3,
                                          delta_ba=r ** 3, floor_ab=1e-9 * r,
                                          floor_ba=1.0) for r in radii)
        ab = eq._fit_decay(samples, "A<=B")
        ba = eq._fit_decay(samples, "B<=A")
        assert ab.slope == pytest.approx(3.0, abs=1e-12)
        assert ab.below_floor == 0 and ab.direction == "A<=B"
        assert ba.vanishing and ba.below_floor == 8
        assert ba.direction == "B<=A"


class TestHornCriterion:
    def test_certifies_with_largest_passing_sigma(self, curves, quick_config,
                                                  shared_cache):
        v = ga.horn_criterion(curves.get("exp_curve"), curves.get("trunc3"),
                              3.5, quick_config, shared_cache)
        assert v.holds and v.method == "horn-criterion"
        assert v.sigma == 4.5
        assert v.estimate is not None

    def test_rejects_low_order_truncation(self, curves, surfaces,
                                          quick_config, shared_cache):
        g = surfaces.get("graph_exp")
        for a, b, s in [
                (curves.get("exp_curve"), curves.get("trunc1"), 3.0),
                # order 3; a floor at A's cloud spacing, about 2.5e-3 r,
                # passed every radius and certified sigma 4.5
                (g, gs.truncate_eqs(g, 2), 3.5)]:
            v = ga.horn_criterion(a, b, s, quick_config, shared_cache)
            assert not v.holds and v.sigma is None

    def test_vacuous_when_a_empty(self, curves, quick_config, fresh_cache):
        v = ga.horn_criterion(ISOLATED, curves.get("line"), 2.0,
                              quick_config, fresh_cache)
        assert v.holds and v.estimate is None
        assert v.sigma == 2.0 + max(HORN_OFFSETS)
        assert v.caveats == ("'origin_only' has no points at any sampled "
                             "radius; containment holds vacuously",)

    @pytest.mark.parametrize("a,b,s", [
        ("exp_curve", "trunc2", 2.5),
        ("exp_curve", "trunc3", 3.5),
        ("line", "parabola", 1.5),
    ])
    def test_agrees_with_limit_fit(self, curves, quick_config, shared_cache,
                                   a, b, s):
        fit = ga.decide_le(curves.get(a), curves.get(b), s, quick_config,
                           shared_cache)
        horn = ga.horn_criterion(curves.get(a), curves.get(b), s,
                                 quick_config, shared_cache)
        assert fit.holds == horn.holds



def _field_reprs(v):
    """A verdict's fields as reprs: floats bit for bit, nan equal to nan."""
    return [repr(getattr(v, f.name)) for f in fields(v)]


class TestSharedNeighbourQuery:
    """The limit fit and the horn criterion query each slice cloud's own
    k-d tree: once per ordered pair of clouds where the target's slice is
    isolated points, and where it is a continuum only about the rows the
    distance kernel refines. Every answer has the bits of a query made
    afresh."""

    def test_one_tree_per_cloud_one_query_per_pair(self, surfaces,
                                                   quick_config, monkeypatch):
        built, queried = [], []

        class CountingTree(cKDTree):
            def __init__(self, data, *args, **kw):
                super().__init__(data, *args, **kw)
                built.append(self.data.tobytes())

            def query(self, x, *args, **kw):
                out = super().query(x, *args, **kw)
                queried.append((self.data.tobytes(), np.array(x), out))
                return out

        monkeypatch.setattr(gg, "cKDTree", CountingTree)
        g = surfaces.get("graph_exp")
        b = gs.truncate_eqs(g, 2)
        cache = ga.SliceCache()
        ga.decide_equivalent(g, b, 2.5, quick_config, cache)
        ga.horn_criterion(g, b, 2.5, quick_config, cache)
        ga.horn_criterion(b, g, 2.5, quick_config, cache)
        before = len(built)
        radii = quick_config.schedule.radii()
        clouds = [gg.sample_slices(s, radii, npoints=quick_config.npoints,
                                   seed=quick_config.seed, cache=cache)
                  for s in (g, b)]
        assert len(built) == before
        for ca, cb in zip(*clouds):
            assert len(ca) and len(cb)
            for c in (ca, cb):
                assert built.count(c.points.tobytes()) == 1
            for x, y in ((ca, cb), (cb, ca)):
                # both slices are continua, so x's rows meet y's tree only
                # where the distance kernel refines them: never all of x,
                # each row once, each answer a row of a fresh full query
                fresh = cKDTree(y.points).query(
                    x.points, k=list(range(1, min(3, len(y)) + 1)))
                at = {p.tobytes(): i for i, p in enumerate(x.points)}
                rows = []
                for tree, q, (dists, idx) in queried:
                    if tree != y.points.tobytes() or \
                            q.tobytes() == y.points.tobytes():
                        continue
                    assert q.tobytes() != x.points.tobytes()
                    mine = [at[p.tobytes()] for p in q]
                    assert np.array_equal(dists, fresh[0][mine])
                    assert np.array_equal(idx, fresh[1][mine])
                    rows += mine
                assert 0 < len(set(rows)) == len(rows) < len(x)

    @pytest.mark.parametrize("a,b", [(a, b) for a, b, _ in CURVE_PAIRS])
    def test_shared_query_matches_a_fresh_one(self, curves, quick_config,
                                              a, b):
        a, b = curves.get(a), curves.get(b)
        cache = ga.SliceCache()
        samples = ga.deviation_profile(a, b, quick_config, cache)[0]
        for x, y in ((a, b), (b, a)):
            shared = ga.horn_criterion(x, y, 2.5, quick_config, cache)
            fresh = ga.horn_criterion(x, y, 2.5, quick_config,
                                      ga.SliceCache())
            assert _field_reprs(shared) == _field_reprs(fresh)
        radii = quick_config.schedule.radii()
        clouds = [gg.sample_slices(s, radii, npoints=quick_config.npoints,
                                   seed=quick_config.seed, cache=cache)
                  for s in (a, b)]
        for d, ca, cb in zip(samples, *clouds):
            assert d.delta_ab == ga.directed_deviation(ca.points, cb.points)
            assert d.delta_ba == ga.directed_deviation(cb.points, ca.points)

    def test_clouds_below_three_points(self, curves, quick_config,
                                       fresh_cache):
        # the half-line meets each circle once and the line twice: clouds
        # of one and two points, each measured by one k = 1 query
        a, b = curves.get("halfline"), curves.get("line")
        samples = ga.deviation_profile(a, b, quick_config, fresh_cache)[0]
        radii = quick_config.schedule.radii()
        clouds = [gg.sample_slices(s, radii, npoints=quick_config.npoints,
                                   seed=quick_config.seed, cache=fresh_cache)
                  for s in (a, b)]
        assert {len(c) for c in clouds[0] + clouds[1]} == {1, 2}
        for d, ca, cb in zip(samples, *clouds):
            assert d.delta_ab == ga.directed_deviation(ca.points, cb.points)
            assert d.delta_ba == ga.directed_deviation(cb.points, ca.points)

    def test_empty_cloud(self, curves, quick_config, fresh_cache):
        samples = ga.deviation_profile(ISOLATED, curves.get("line"),
                                       quick_config, fresh_cache)[0]
        line = ga.sample_slice(curves.get("line"), 0.25,
                               cache=fresh_cache).points
        empty = np.zeros((0, 2))
        for d in samples:
            assert d.delta_ab == 0.0 == ga.directed_deviation(empty, line)
            assert d.delta_ba == math.inf == ga.directed_deviation(line, empty)

    def test_horn_samples_b_on_the_schedule(self, curves, monkeypatch):
        # at seed 2 the median norm of a trunc2 cloud is an ulp off its
        # radius; B's cloud there is the limit fit's, at the radius itself
        a, b = curves.get("trunc2"), curves.get("exp_curve")
        config = ga.CompareConfig(ga.RadiiSchedule(0.25), npoints=256, seed=2)
        cache = ga.SliceCache()
        ga.decide_equivalent(a, b, 3.0, config, cache)
        radii = config.schedule.radii()
        assert any(
            float(np.median(np.linalg.norm(c.points, axis=1))) != c.r
            for c in gg.sample_slices(a, radii, npoints=256, seed=2,
                                      cache=cache))
        calls = []
        project = gg.project_to_sphere_slice

        def counting(eqs, starts, r):
            calls.append(r)
            return project(eqs, starts, r)

        monkeypatch.setattr(gg, "project_to_sphere_slice", counting)
        for x, y in ((a, b), (b, a)):
            ga.horn_criterion(x, y, 3.0, config, cache)
        assert calls == []

class TestEstimateExponent:
    def test_exact_half_exponent_on_disk(self, curves, quick_config,
                                         shared_cache):
        est = ga.estimate_exponent(curves.get("disk"), "x", "x^2",
                                   quick_config, shared_cache)
        assert est.alpha == pytest.approx(0.5, abs=1e-9)
        assert est.samples_used > 1000
        assert est.witness is not None and len(est.witness) == 2
        assert est.witness_radius in quick_config.schedule.radii()
        assert est.caveats == ()

    def test_exact_exponent_two_on_line(self, curves, quick_config,
                                        shared_cache):
        # on {y = 0} the function y + x^2 reduces to x^2
        est = ga.estimate_exponent(curves.get("line"), "y + x^2", "x",
                                   quick_config, shared_cache)
        assert est.alpha == pytest.approx(2.0, abs=1e-12)

    def test_accepts_parsed_expressions(self, curves, quick_config,
                                        shared_cache):
        f = ex.parse("x", 2)
        g = ex.parse("x^2", 2)
        est = ga.estimate_exponent(curves.get("disk"), f, g, quick_config,
                                   shared_cache)
        assert est.alpha == pytest.approx(0.5, abs=1e-9)

    def test_violation_raises_with_witnesses(self, curves, quick_config,
                                             shared_cache):
        with pytest.raises(ExponentPreconditionError) as ei:
            ga.estimate_exponent(curves.get("halfline"), "y", "x",
                                 quick_config, shared_cache)
        err = ei.value
        assert err.witnesses
        r, point = err.witnesses[0]
        assert r in quick_config.schedule.radii()
        assert all(isinstance(c, float) for c in point)
        assert "no exponent bounds" in str(err)

    def test_requires_vanishing_at_origin(self, curves, quick_config):
        with pytest.raises(ComparisonError):
            ga.estimate_exponent(curves.get("disk"), "x + 1", "x",
                                 quick_config)
        with pytest.raises(ComparisonError):
            ga.estimate_exponent(curves.get("disk"), "x", "exp(x)",
                                 quick_config)

    def test_requires_matching_variables(self, curves, quick_config):
        with pytest.raises(ComparisonError):
            ga.estimate_exponent(curves.get("disk"), ex.Var(2), ex.Var(0),
                                 quick_config)

    def test_vacuous_when_g_vanishes_identically(self, curves, quick_config,
                                                 shared_cache):
        est = ga.estimate_exponent(curves.get("line"), "x", "y",
                                   quick_config, shared_cache)
        assert est.alpha == 1.0 and est.samples_used == 0
        assert any("vacuously" in c for c in est.caveats)

    def test_unsampleable_set_defaults(self, quick_config, fresh_cache):
        est = ga.estimate_exponent(ISOLATED, "x", "y", quick_config,
                                   fresh_cache)
        assert est.alpha == 1.0 and est.witness is None
        assert any("no sampleable points" in c for c in est.caveats)

    def test_no_informative_samples_defaults(self, curves, quick_config,
                                             shared_cache):
        # |g| = 1e6 r is above 1 at every schedule radius
        est = ga.estimate_exponent(curves.get("line"), "x", "1e6*x",
                                   quick_config, shared_cache)
        assert (est.alpha, est.samples_used) == (1.0, 0)
        assert est.witness is None and est.witness_radius is None
        assert est.caveats == ("no informative samples (f at noise level or "
                               "|g| not below 1); exponent defaults to 1",)


class TestSignAgreement:
    def test_sine_truncations_all_clean(self, curves, quick_config,
                                        shared_cache):
        rep = ga.sign_agreement_check(curves.get("disk"), "sin(x)",
                                      [1, 2, 3], 2.0, quick_config,
                                      shared_cache)
        assert rep.theta == 2.0 and rep.ks == (1, 2, 3)
        assert rep.tested > 1000 and rep.excluded > 0
        assert rep.disagreements == (0, 0, 0)
        assert rep.smallest_clean_k == 1

    def test_degenerate_truncations_disagree_everywhere(self, curves,
                                                        quick_config,
                                                        shared_cache):
        # below order 3 the truncation of x^3 - x^7 is identically zero, so
        # its sign never matches away from the zero horn
        rep = ga.sign_agreement_check(curves.get("disk"), "x^3 - x^7",
                                      [1, 2, 3, 4], 2.0, quick_config,
                                      shared_cache)
        assert rep.disagreement_for(1) == rep.tested
        assert rep.disagreement_for(2) == rep.tested
        assert rep.disagreement_for(3) == 0
        assert rep.disagreement_for(4) == 0
        assert rep.smallest_clean_k == 3

    def test_ks_normalized(self, curves, quick_config, shared_cache):
        rep = ga.sign_agreement_check(curves.get("disk"), "sin(x)",
                                      [3, 1, 3], 2.0, quick_config,
                                      shared_cache)
        assert rep.ks == (1, 3)

    def test_validation(self, curves, quick_config):
        with pytest.raises(ComparisonError):
            ga.sign_agreement_check(curves.get("disk"), "sin(x)", [],
                                    2.0, quick_config)
        with pytest.raises(ComparisonError):
            ga.sign_agreement_check(curves.get("disk"), "sin(x)", [-1],
                                    2.0, quick_config)
        with pytest.raises(ComparisonError):
            ga.sign_agreement_check(curves.get("disk"), ex.Var(2), [1],
                                    2.0, quick_config)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_theta_must_be_finite(self, curves, quick_config, theta):
        # r^theta is then nan, 0 or inf: every point excluded, none, or
        # only those at infinite distance
        with pytest.raises(ComparisonError):
            ga.sign_agreement_check(curves.get("line"),
                                    "y - x^2 + sin(x)^3", [0, 1, 2, 3],
                                    theta, quick_config)


class TestVariableCountMismatch:
    """Sets in different numbers of variables are not compared: every entry
    point raises ComparisonError naming both sets and both counts before it
    samples either set."""

    ENTRY_POINTS = {
        "decide_le": lambda a, b, cfg: ga.decide_le(a, b, 2.0, cfg),
        "decide_equivalent": lambda a, b, cfg: ga.decide_equivalent(
            a, b, 2.0, cfg),
        "horn_criterion": lambda a, b, cfg: ga.horn_criterion(
            a, b, 2.0, cfg),
        "union_property_check": lambda a, b, cfg: ga.union_property_check(
            a, a, b, b, 2.0, cfg),
    }

    @pytest.mark.parametrize("curve_first", [True, False],
                             ids=["curve-surface", "surface-curve"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_mismatch_is_comparison_error(self, curves, surfaces,
                                          quick_config, entry, curve_first):
        a, b = curves.get("line"), surfaces.get("line3d")
        if not curve_first:
            a, b = b, a
        with pytest.raises(ComparisonError) as ei:
            self.ENTRY_POINTS[entry](a, b, quick_config)
        assert str(ei.value) == (f"cannot compare {a.name!r} in {a.nvars} "
                                 f"variables with {b.name!r} in {b.nvars}")


class TestUnionProperty:
    def test_half_curves_union_stays_close(self, curves, quick_config,
                                           shared_cache):
        rep = ga.union_property_check(
            curves.get("exp_half_pos"), curves.get("exp_half_neg"),
            curves.get("trunc3_half_pos"), curves.get("trunc3_half_neg"),
            2.0, quick_config, shared_cache)
        assert rep.s == 2.0
        assert rep.hypothesis_ab.holds and rep.hypothesis_a2b2.holds
        assert rep.hypotheses_established
        assert rep.union is not None and rep.union.holds
        assert rep.consistent and not rep.caveats

    def test_identical_inputs_trivially_consistent(self, curves, quick_config,
                                                   shared_cache):
        p = curves.get("parabola")
        rep = ga.union_property_check(p, p, p, p, 2.0, quick_config,
                                      shared_cache)
        assert rep.hypotheses_established and rep.consistent
        assert rep.union.holds

    def test_failed_hypothesis_skips_union(self, curves, quick_config,
                                           shared_cache):
        rep = ga.union_property_check(
            curves.get("line"), curves.get("line"),
            curves.get("halfline"), curves.get("line"),
            1.5, quick_config, shared_cache)
        assert not rep.hypothesis_ab.holds
        assert rep.hypothesis_a2b2.holds
        assert not rep.hypotheses_established
        assert rep.union is None and rep.consistent
        assert "hypotheses not established" in rep.caveats[0]
        assert "'line' within order 1.5 of 'halfline'" in rep.caveats[0]
