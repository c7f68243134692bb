"""End-to-end acceptance checks.

Each test covers one shipped guarantee and prints a single
``[criterion N] PASS/FAIL`` line straight to the terminal (bypassing
capture) so a full run leaves a visible scorecard.
"""

import json
import math
import shutil
import time
from importlib import resources

import numpy as np
import pytest

import germapprox as ga
from germapprox import expr as ex
from germapprox import sets as gs
from germapprox.approx import SearchExhausted
from germapprox.cli import main


@pytest.fixture(scope="module")
def cache():
    return ga.SliceCache()


@pytest.fixture(scope="module")
def heavy_config():
    return ga.CompareConfig(schedule=ga.RadiiSchedule(0.25), npoints=2000,
                            seed=0)


@pytest.fixture(scope="module")
def desk_config():
    return ga.CompareConfig(schedule=ga.RadiiSchedule(0.25), npoints=256,
                            seed=0)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    dst = tmp_path_factory.mktemp("acceptance") / "curves.json"
    with resources.as_file(
            resources.files("germapprox") / "corpus" / "curves.json") as p:
        shutil.copy(p, dst)
    return str(dst)


@pytest.fixture
def report(capsys):
    def _report(n, ok, detail):
        with capsys.disabled():
            print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {n}: {detail}"
    return _report


def test_criterion_01_truncation_order_law(curves, heavy_config, cache,
                                           report):
    # y = e^x - 1 against its order-k polynomial truncations: the remainder
    # is x^(k+1)/(k+1)! + O(x^(k+2)), so the fitted closeness order is k+1
    slopes = []
    ok = True
    for k in (2, 3, 4):
        t0 = time.perf_counter()
        v = ga.decide_equivalent(curves.get("exp_curve"),
                                 curves.get(f"trunc{k}"),
                                 float(k + 1), heavy_config, cache)
        elapsed = time.perf_counter() - t0
        for est in (v.estimate, v.estimate_reverse):
            ok &= abs(est.slope - (k + 1)) <= 0.25
            ok &= est.r_squared >= 0.95
        slopes.append(v.estimate.slope)
        ok &= elapsed < 60.0
    report(1, ok, "truncations of the exponential graph: fitted orders "
           + "/".join(f"{m:.3f}" for m in slopes) + " vs 3/4/5")


def test_criterion_02_subset_orientation(curves, heavy_config, cache,
                                         report):
    # half-line inside the full line: the contained side's deviation sits
    # at the floor, the containing side's deviation is the 2r gap
    fwd = ga.deviation_profile(curves.get("halfline"), curves.get("line"),
                               heavy_config, cache)[1]
    rev = ga.deviation_profile(curves.get("line"), curves.get("halfline"),
                               heavy_config, cache)[1]
    below = all(s.delta_ab <= s.floor_ab for s in fwd.samples)
    ratios = [s.delta_ab / s.r for s in rev.samples]
    in_band = all(1.9 <= q <= 2.1 for q in ratios)
    report(2, below and in_band and len(fwd.samples) == 8,
           f"subset deviation at floor in all {len(fwd.samples)} radii, "
           f"reverse gap/r in [{min(ratios):.3f}, {max(ratios):.3f}]")


def test_criterion_03_horn_fit_agreement(curves, desk_config, cache, report):
    # closed-form closeness orders: 2, 3, 4, 2, and inf (subset)
    pairs = [("exp_curve", "trunc1"), ("exp_curve", "trunc2"),
             ("exp_curve", "trunc3"), ("parabola", "line"),
             ("halfline", "line")]
    orders = [2.0, 3.0, 4.0, 2.0, math.inf]
    cells = agreements = 0
    no_inconclusive = expected_ok = True
    for (a, b), order in zip(pairs, orders):
        for s in (1.5, 2.5, 3.5):
            fit = ga.decide_le(curves.get(a), curves.get(b), s, desk_config,
                               cache)
            horn = ga.horn_criterion(curves.get(a), curves.get(b), s,
                                     desk_config, cache)
            cells += 1
            agreements += int(fit.holds == horn.holds)
            no_inconclusive &= not fit.inconclusive
            expected_ok &= fit.holds == (order > s)
    report(3, cells == 15 and agreements == 15 and no_inconclusive
           and expected_ok,
           f"horn and limit-fit verdicts agree on {agreements}/{cells} "
           "cells, none inconclusive, all matching closed-form orders")


def test_criterion_04_union_stability(curves, desk_config, cache, report):
    # half-curves and their truncation halves: closeness survives the union
    examples = [("exp_half_pos", "exp_half_neg",
                 "trunc3_half_pos", "trunc3_half_neg"),
                ("exp_half_pos", "exp_half_neg",
                 "trunc2_half_pos", "trunc3_half_neg")]
    checked = 0
    ok = True
    for a, a2, b, b2 in examples:
        for s in (2.0, 2.5):
            rep = ga.union_property_check(
                curves.get(a), curves.get(a2), curves.get(b),
                curves.get(b2), s, desk_config, cache)
            checked += 1
            ok &= rep.hypotheses_established
            ok &= rep.union is not None and rep.union.holds
            ok &= rep.consistent
    report(4, ok and checked == 4,
           f"union of half-curves stays order-close in {checked}/4 runs "
           "(matched and mixed truncation orders, s = 2 and 2.5)")


def test_criterion_05_sign_agreement(curves, cache, report):
    cfg = ga.CompareConfig(schedule=ga.RadiiSchedule(0.25), npoints=512,
                           seed=0)
    clean = ga.sign_agreement_check(curves.get("line"), "sin(x)",
                                    [1, 2, 3, 4, 5], 2.0, cfg, cache)
    ok = (clean.tested > 0 and all(c == 0 for c in clean.disagreements)
          and clean.smallest_clean_k == 1)
    control = ga.sign_agreement_check(curves.get("line"), "x^3 - x^7", [2],
                                      2.0, cfg, cache)
    ok &= control.tested > 0 and control.disagreements[0] == control.tested
    report(5, ok,
           f"sin(x) truncations sign-match on {clean.tested} points for "
           f"k=1..5; order-2 truncation of x^3 - x^7 flagged on all "
           f"{control.tested}")


def test_criterion_06_comparison_exponent(loj, cache, report):
    # f = x^2 + y^2 dominates g = x on the unit half-ball with infimal
    # exponent exactly 2 (binding along y = 0)
    halfball = loj.get("halfdisk")
    cfg = ga.CompareConfig(
        schedule=ga.RadiiSchedule.default_for(halfball.omega), npoints=512,
        seed=0)
    est = ga.estimate_exponent(halfball, "x^2 + y^2", "x", cfg, cache)

    # independent grid-search oracle over the same radius range
    radii = np.geomspace(min(cfg.schedule.radii()),
                         max(cfg.schedule.radii()), 200)
    theta = np.linspace(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, 201)
    rr, tt = np.meshgrid(radii, theta)
    x, y = rr * np.cos(tt), rr * np.sin(tt)
    f, g = x ** 2 + y ** 2, x
    keep = (g > 1e-300) & (g < 1.0)
    oracle = float(np.max(np.log(f[keep]) / np.log(g[keep])))

    ok = (1.9 <= est.alpha <= 2.0 and abs(oracle - 2.0) < 1e-6
          and abs(est.alpha - oracle) <= 0.1)
    report(6, ok, f"estimated exponent {est.alpha:.6f} in [1.9, 2.0], "
           f"grid oracle {oracle:.6f}")


def test_criterion_07_pipeline_end_to_end(corpus_file, tmp_path, capsys,
                                          report):
    t0 = time.perf_counter()
    out_a = tmp_path / "exp_sin.json"
    rc_a = main(["approx", corpus_file, "exp_sin", "--s", "2",
                 "-o", str(out_a)])
    doc_a = json.loads(out_a.read_text())
    coll_a = gs.parse_collection(doc_a["output_collection"])
    approxed = coll_a.get("approx(exp_sin)")
    degrees = [ex.polynomial_degree(e)
               for part in approxed.parts for e in part.eqs]
    ok = (rc_a == 0 and approxed.is_polynomial()
          and max(degrees) <= 3
          and doc_a["final_verdict"]["estimate"]["slope"] > 2.15)

    out_b = tmp_path / "cusp_product.json"
    rc_b = main(["approx", corpus_file, "cusp_product", "--s", "2",
                 "-o", str(out_b)])
    doc_b = json.loads(out_b.read_text())
    elapsed = time.perf_counter() - t0
    ok &= (rc_b == 0
           and all(p["m"] is not None and p["m"] <= 3
                   for p in doc_b["parts"])
           and any(p["projection"] is not None for p in doc_b["parts"])
           and doc_b["final_verdict"]["holds"] is True
           and elapsed < 300.0)
    capsys.readouterr()
    report(7, ok,
           f"approximants verified: graph-with-sign degree "
           f"{max(degrees)} at slope "
           f"{doc_a['final_verdict']['estimate']['slope']:.3f}, "
           f"overdetermined product via projection in {elapsed:.1f}s")


def test_criterion_08_dimension_preservation(curves, surfaces, desk_config,
                                             cache, report):
    cfg = ga.ApproxConfig(compare=desk_config)
    r_dim = min(desk_config.schedule.radii())
    successes = preserved = 0
    for coll in (curves, surfaces):
        coll_cache = ga.SliceCache()
        for name in sorted(coll.sets):
            try:
                res = ga.approximate(coll.get(name), 2.0, cfg, coll_cache)
            except SearchExhausted:
                continue
            successes += 1
            din = ga.numeric_dimension(coll.get(name), r_dim,
                                       cache=coll_cache)
            dout = (ga.numeric_dimension(res.output, r_dim,
                                         cache=coll_cache)
                    if res.output is not None else 0)
            preserved += int(din == dout)
    total = len(curves.sets) + len(surfaces.sets)
    report(8, successes == total and preserved == successes,
           f"local dimension preserved in {preserved}/{successes} "
           f"approximations across the {total}-set corpus")


def test_criterion_09_tangent_directions(curves, cache, report):
    r = 2.0 ** -9
    rep = ga.tangent_cone_cloud(curves.get("parabola"), [r], npoints=512,
                                seed=0, cache=cache)
    dirs = rep.direction_clouds[0]
    # parabola directions converge to (+/-1, 0); at radius r the slice
    # point (x, x^2) sits at angle atan(x) <= atan(r) off the axis
    angles = [math.atan2(abs(d[1]), abs(d[0])) for d in dirs]
    worst = max(angles)
    ok = worst < 0.01 and worst <= math.atan(r) + 1e-9
    report(9, ok, f"parabola directions within {worst:.2e} rad of the "
           f"x-axis at r = 2^-9 (closed-form bound {math.atan(r):.2e})")


def test_criterion_10_determinism(corpus_file, tmp_path, capsys, report):
    argv = ["compare", corpus_file, "exp_curve", "trunc2", "--s", "2.5",
            "--stdout"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    same_stdout = capsys.readouterr().out == first

    csv_path = tmp_path / "orders.csv"
    argv = ["order", corpus_file, "line", "parabola", "-o", str(csv_path)]
    main(argv)
    csv1 = csv_path.read_bytes()
    side1 = (tmp_path / "orders.csv.manifest.json").read_bytes()
    main(argv)
    same_csv = (csv_path.read_bytes() == csv1
                and (tmp_path / "orders.csv.manifest.json").read_bytes()
                == side1)

    ap_path = tmp_path / "approx.json"
    argv = ["approx", corpus_file, "exp_sin", "--s", "3", "-o", str(ap_path)]
    main(argv)
    ap1 = ap_path.read_bytes()
    main(argv)
    same_approx = ap_path.read_bytes() == ap1
    capsys.readouterr()
    report(10, same_stdout and same_csv and same_approx,
           "replayed compare/order/approx runs are byte-identical")
