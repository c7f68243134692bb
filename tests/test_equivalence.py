import math

import numpy as np
import pytest

import germapprox as ga
from germapprox import expr as ex
from germapprox import sets as gs
from germapprox.equivalence import (
    HORN_OFFSETS,
    ComparisonError,
    ExponentPreconditionError,
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
        est = ga.estimate_order_directed(e, e, quick_config, shared_cache)
        assert est.vanishing and est.slope == math.inf
        assert est.below_floor >= quick_config.schedule.count - 1

    def test_line_vs_parabola_order_two(self, curves, quick_config,
                                        shared_cache):
        est = ga.estimate_order_directed(
            curves.get("line"), curves.get("parabola"), quick_config,
            shared_cache)
        assert est.slope == pytest.approx(2.0, abs=0.1)
        assert est.r_squared > 0.999
        assert est.direction == "A<=B"
        assert not est.vanishing

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_truncation_order_is_k_plus_one(self, curves, quick_config,
                                            shared_cache, k):
        est = ga.estimate_order_directed(
            curves.get("exp_curve"), curves.get(f"trunc{k}"), quick_config,
            shared_cache)
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


class TestHornCriterion:
    def test_certifies_with_largest_passing_sigma(self, curves, quick_config,
                                                  shared_cache):
        v = ga.horn_criterion(curves.get("exp_curve"), curves.get("trunc3"),
                              3.5, quick_config, shared_cache)
        assert v.holds and v.method == "horn-criterion"
        assert v.sigma == 4.5
        assert v.estimate is not None

    def test_rejects_low_order_truncation(self, curves, quick_config,
                                          shared_cache):
        v = ga.horn_criterion(curves.get("exp_curve"), curves.get("trunc1"),
                              3.0, quick_config, shared_cache)
        assert not v.holds and v.sigma is None

    def test_vacuous_when_a_empty(self, curves, quick_config, fresh_cache):
        v = ga.horn_criterion(ISOLATED, curves.get("line"), 2.0,
                              quick_config, fresh_cache)
        assert v.holds and v.estimate is None
        assert v.sigma == 2.0 + max(HORN_OFFSETS)
        assert any("vacuously" in c for c in v.caveats)

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
