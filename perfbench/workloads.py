"""Workload definitions, the oracle table and the output digests.

Every task calls the library's public entry points through the package
namespace (``ga.<name>`` looked up at call time), so the tracer's wrappers
see each call. Each task gets its own ``SliceCache``: it pays what one
``germapprox compare`` or ``germapprox approx`` process pays, and never reads
slices sampled by an earlier task.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

# Closed-form orders of closeness, with where they come from.
#
# curves.json pairs, corpus/README.md:
# * exp_curve vs trunc{k}: |e^x - 1 - T_k(x)| = x^(k+1)/(k+1)! + ..., so the
#   slice deviation decays at order k + 1.
# * parabola vs line: slice points lean off the axis by an angle ~r, order 2.
# * halfline vs line: the line's far endpoint sits 2r from the half-line on
#   every slice, order 1.
# * exp_half_pos vs trunc{k}_half_pos: each half keeps the full pair's
#   order k + 1.
# * exp_sin vs trunc2_half_pos: sin(e^x - 1) = x + x^2/2 + 0*x^3 - ..., the
#   cubic term cancels, so the order-2 truncation is accurate to r^4.
# * cusp vs halfline: on y^2 = x^3, x >= 0, the slice points are
#   (x, +-x^(3/2)) with x ~ r, at distance x^(3/2) ~ r^(3/2) from the x-axis
#   half-line; the half-line's slice point (r, 0) is at the same distance
#   order from the cusp's. Order 3/2.
#
# surfaces.json, graph_exp (z = e^x + e^y - 2) vs truncate_eqs(graph_exp, h):
# the equations differ by R_h = sum_{k>h} (x^k + y^k)/k!, and the gradient
# of z - e^x - e^y + 2 has norm ~1 near the origin, so the normal gap is
# ~|R_h| ~ |x^(h+1) + y^(h+1)|/(h+1)!, which is of exact size r^(h+1) on
# the slice directions where x^(h+1) + y^(h+1) does not vanish. Order h + 1.
CURVE_PAIRS = (
    ("exp_curve", "trunc1", 2.0),
    ("exp_curve", "trunc2", 3.0),
    ("exp_curve", "trunc3", 4.0),
    ("exp_curve", "trunc4", 5.0),
    ("parabola", "line", 2.0),
    ("halfline", "line", 1.0),
    ("exp_half_pos", "trunc2_half_pos", 3.0),
    ("exp_half_pos", "trunc3_half_pos", 4.0),
    ("exp_sin", "trunc2_half_pos", 4.0),
    ("cusp", "halfline", 1.5),
)
CURVE_S = (1.25, 2.5, 3.5)
SURFACE_H = (1, 2, 3)
SURFACE_S = (1.5, 2.5, 3.5)

# Local dimension of every corpus set (corpus/README.md): the approximant
# must keep it (acceptance criterion 8).
CORPUS_DIMENSION = {
    "curves.json": {name: 1 for name in (
        "line", "halfline", "halfline_neg", "parabola", "exp_curve",
        "trunc1", "trunc2", "trunc3", "trunc4", "exp_sin", "exp_half_pos",
        "exp_half_neg", "trunc2_half_pos", "trunc3_half_pos",
        "trunc3_half_neg", "cusp", "cusp_product", "exp_union", "t3_union",
        "mixed_union")} | {"disk": 2, "halfdisk": 2},
    "surfaces.json": {"plane_z": 2, "space": 3, "line3d": 1, "graph_exp": 2},
}
APPROX_S = 2.0

# Workloads whose verdicts are measured but do not gate `correct`. On
# horn_surfaces the deviations of the h=2 and h=3 truncations (orders 3 and
# 4) sink below the 1000-point sampling floor at the fine radii (the
# sampling-floor defect, ROADMAP item 5). Depending on the seed, the limit
# fit then reads a wrong order (below 2.35 for h=2, a negative slope for h=3
# at seed 4007) and the horn criterion certifies sigma > 3.5 for h=2. Such
# contradictions count as failed tasks and show in fail_frac; only an
# exception there marks the run incorrect.
VERDICTS_NOT_GATED = {
    "horn_surfaces": "sampling floor hides the deviation (ROADMAP item 5)",
}


@dataclass(frozen=True)
class Task:
    id: str
    kind: str            # "compare" or "approx"
    a: str               # set key in the workload's set table
    b: str | None        # compare only
    s: float
    order: float | None  # closed-form order (compare) or None
    dim: int | None      # closed-form local dimension (approx) or None


@dataclass
class Outcome:
    task: Task
    seconds: float
    norm_seconds: float  # seconds at the reference host speed (run.py)
    digest: str
    failed: bool
    error: str | None
    inconclusive: int    # limit-fit verdicts inside the margin
    verdicts: int        # limit-fit verdicts the task produced


def build_sets(ga, corpus_dir, workload: str) -> dict:
    """Load the corpus files and build the generated sets of a workload."""
    curves = ga.load_collection(corpus_dir / "curves.json")
    surfaces = ga.load_collection(corpus_dir / "surfaces.json")
    if workload == "approx_corpus":
        return {name: coll.get(name)
                for coll in (curves, surfaces) for name in sorted(coll.sets)}
    if workload == "compare_curves":
        return {name: curves.get(name) for name in curves.sets}
    if workload == "horn_surfaces":
        g = surfaces.get("graph_exp")
        out = {"graph_exp": g}
        for h in SURFACE_H:
            out[f"graph_exp~h{h}"] = ga.truncate_eqs(g, h)
        return out
    raise ValueError(f"unknown workload {workload!r}")


def compare_config(ga, workload: str, seed: int):
    npoints = {"approx_corpus": 256, "compare_curves": 2000,
               "horn_surfaces": 1000}[workload]
    return ga.CompareConfig(ga.RadiiSchedule(0.25), npoints=npoints,
                            seed=seed)


def pass_tasks(workload: str, seed: int, index: int) -> list[Task]:
    """The tasks of pass ``index``.

    A compare pass judges every pair once; the seed and the pass index
    rotate which s each pair gets. A task's cost does not depend on s (the
    same slices are sampled and measured for any s), so every pass does the
    same work while consecutive passes and seeds cover all (pair, s) tasks.
    """
    if workload == "approx_corpus":
        dims = CORPUS_DIMENSION["curves.json"] | CORPUS_DIMENSION[
            "surfaces.json"]
        return [Task(f"approx_corpus/{name}", "approx", name, None,
                     APPROX_S, None, dims[name]) for name in sorted(dims)]
    if workload == "compare_curves":
        out = []
        for i, (a, b, order) in enumerate(CURVE_PAIRS):
            s = CURVE_S[(i + seed + index) % len(CURVE_S)]
            out.append(Task(f"compare_curves/{a}~{b}@s{s:g}", "compare",
                            a, b, s, order, None))
        return out
    if workload == "horn_surfaces":
        out = []
        for i, h in enumerate(SURFACE_H):
            s = SURFACE_S[(i + seed + index) % len(SURFACE_S)]
            out.append(Task(f"horn_surfaces/graph_exp~h{h}@s{s:g}",
                            "compare", "graph_exp", f"graph_exp~h{h}", s,
                            h + 1.0, None))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def task_steps(ga, task: Task, sets: dict, cfg, cache) -> list:
    """The timed part of a task, what one CLI invocation computes, as the
    calls it makes in order. The task's output is the tuple of their
    results. run.py times the steps one by one, with a host probe reading
    between them."""
    a = sets[task.a]
    if task.kind == "approx":
        return [lambda: ga.approximate(a, task.s,
                                       ga.ApproxConfig(compare=cfg), cache)]
    b = sets[task.b]
    # `germapprox compare A B --s S --horn`
    return [lambda: ga.decide_equivalent(a, b, task.s, cfg, cache),
            lambda: ga.horn_criterion(a, b, task.s, cfg, cache),
            lambda: ga.horn_criterion(b, a, task.s, cfg, cache)]


def run_task(ga, task: Task, sets: dict, cfg, cache) -> tuple:
    return tuple(step() for step in task_steps(ga, task, sets, cfg, cache))


def _verdict_fields(v) -> tuple:
    est = v.estimate
    rev = v.estimate_reverse
    return (v.holds, v.inconclusive, v.sigma,
            None if est is None else repr(est.slope),
            None if rev is None else repr(rev.slope))


def digest_of(task: Task, output) -> str:
    if task.kind == "approx":
        (result,) = output
        fields = (result.success, repr(result.output.signature()),
                  _verdict_fields(result.final_verdict))
    else:
        fields = tuple(_verdict_fields(v) for v in output)
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def check(ga, task: Task, output, sets: dict, cfg):
    """(failed, inconclusive, verdicts) of a finished task against its
    closed-form oracle. Runs outside the timed region."""
    if task.kind == "approx":
        (result,) = output
        r_fine = min(cfg.schedule.radii())
        dims = [ga.numeric_dimension(s, r_fine, npoints=cfg.npoints,
                                     seed=cfg.seed, cache=ga.SliceCache())
                for s in (sets[task.a], result.output)]
        ok = result.success and dims == [task.dim, task.dim]
        return not ok, int(result.final_verdict.inconclusive), 1
    verdict, horn_ab, horn_ba = output
    expected = task.order > task.s
    fit_wrong = not verdict.inconclusive and verdict.holds != expected
    horn_wrong = (horn_ab.holds and horn_ba.holds) != expected
    return fit_wrong or horn_wrong, int(verdict.inconclusive), 1


def combined_digest(outcomes) -> str:
    text = "\n".join(f"{o.task.id} {o.digest}" for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
