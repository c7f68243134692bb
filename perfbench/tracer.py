"""Spans around calls into germapprox's public functions, from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``germapprox`` module namespace that binds it (modules that import a
function by name hold their own binding), plus ``SemianalyticSet.signature``
on its class. ``restore`` puts every original back and checks by identity.

A span is (name, start, end, parent, task) and is recorded only while a task
is open. Spans stay in memory; ``write`` dumps them when the run is over.
The tracer assumes one thread, which the benchmark guarantees (threads=1).
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(X) -> int:
    shape = np.shape(X)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _project_info(args, kwargs, out):
    return len(_arg(args, kwargs, 1, "starts")), int(np.sum(out[1]))


def _batch_info(i, name):
    return lambda args, kwargs, out: (_rows(_arg(args, kwargs, i, name)), 0)


def _deviation_info(args, kwargs, out):
    return len(_arg(args, kwargs, 0, "P")) * len(_arg(args, kwargs, 1, "Q")), 0


def _verdict_info(args, kwargs, out):
    return 0, int(out.holds)


# (module, attribute, span name, info(args, kwargs, out) -> (work, outcome),
#  whether a call nested directly in a span of the same name passes through)
TARGETS = (
    ("geometry", "project_to_sphere_slice", "geometry.project",
     _project_info, False),
    ("geometry", "dist_to_set_batch", "geometry.dist", _batch_info(0, "X"),
     False),
    ("geometry", "directed_deviation", "geometry.deviation", _deviation_info,
     False),
    ("geometry", "sample_slice", "geometry.sample", None, False),
    ("geometry", "numeric_dimension", "geometry.dimension", None, False),
    ("expr", "eval_system_jacobian", "expr.jac", _batch_info(1, "X"), False),
    ("expr", "eval_system", "expr.eval", _batch_info(1, "X"), True),
    ("expr", "eval_many", "expr.eval", _batch_info(1, "X"), True),
    ("expr", "taylor", "series.taylor", None, True),
    ("expr", "taylor_series", "series.taylor", None, True),
    ("sets", "truncate_full", "sets.truncate", None, False),
    ("sets", "truncate_eqs", "sets.truncate", None, False),
    ("sets", "truncate_ineqs", "sets.truncate", None, False),
    ("sets", "inflated_part", "sets.inflate", None, False),
    ("sets", "generic_projection", "sets.projection", None, False),
    ("sets", "minor_determinants", "sets.projection", None, False),
    ("sets", "membership_mask", "sets.membership", _batch_info(1, "X"),
     False),
    ("equivalence", "decide_equivalent", "equivalence.verdict",
     _verdict_info, False),
    ("equivalence", "decide_le", "equivalence.verdict", _verdict_info,
     False),
    ("equivalence", "horn_criterion", "equivalence.horn", None, False),
    ("approx", "approximate", "approx.approximate", None, False),
    ("approx", "search_inflation_exponent", "approx.search", None, False),
    ("approx", "search_truncation_orders", "approx.search", None, False),
)


class Tracer:
    def __init__(self):
        # parallel per-span columns; work/outcome come from the info hooks
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tasks: list[str] = []
        self.work: list[int] = []
        self.outcome: list[int] = []
        self._stack: list[int] = []
        self._task: str | None = None
        self._patched: list = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.tasks.append(self._task)
        self.work.append(0)
        self.outcome.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def run_task(self, task_id: str, fn):
        """Run ``fn()`` under a root span named "task" for ``task_id``. A
        task may run as several such spans, one per step."""
        self._task = task_id
        idx = self._open("task")
        try:
            return fn()
        finally:
            self._close(idx)
            self._task = None

    def _wrap(self, fn, name, info, passthrough):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._task is None or (
                    passthrough and self.names[self._stack[-1]] == name):
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.work[idx], self.outcome[idx] = info(args, kwargs, out)
            return out
        return wrapper

    # -- bindings ---------------------------------------------------------

    def install(self):
        import germapprox.sets as sets_mod
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "germapprox"
                                         or n.startswith("germapprox."))]
        for mod_name, attr, name, info, passthrough in TARGETS:
            original = getattr(sys.modules[f"germapprox.{mod_name}"], attr)
            wrapper = self._wrap(original, name, info, passthrough)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapper)
                    self._patched.append((m, attr, original))
        cls = sets_mod.SemianalyticSet
        original = cls.signature
        cls.signature = self._wrap(original, "sets.signature", None, False)
        self._patched.append((cls, "signature", original))

    def restore(self) -> bool:
        """Put every original binding back; True when identity checks out."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        ok = all(getattr(owner, attr) is original
                 for owner, attr, original in self._patched)
        self._patched = []
        return ok

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Duration minus the part covered by child spans (children of one
        span never overlap: one thread, strictly nested calls)."""
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parents = np.asarray(self.parents)
        child = np.zeros(len(dur))
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur - child

    def check_self_times(self) -> bool:
        """Per task, span self times sum to the duration of the task's root
        spans (one per step), and no self time is negative."""
        self_t = self.self_times()
        if np.any(self_t < -1e-9):
            return False
        totals: dict = {}
        roots: dict = {}
        for i, task in enumerate(self.tasks):
            totals[task] = totals.get(task, 0.0) + self_t[i]
            if self.names[i] == "task":
                roots[task] = (roots.get(task, 0.0)
                               + self.ends[i] - self.starts[i])
        return set(totals) == set(roots) and all(
            abs(totals[t] - roots[t]) <= 1e-9 + 1e-9 * roots[t]
            for t in roots)

    def layer_metrics(self, cache_hits: int, cache_lookups: int) -> dict:
        names = np.asarray(self.names, dtype=object)
        parents = np.asarray(self.parents)
        work = np.asarray(self.work, dtype=float)
        outcome = np.asarray(self.outcome, dtype=float)
        self_t = self.self_times()
        parent_names = np.where(parents >= 0, names[parents], "")

        def sel(name):
            return names == name

        def count(name):
            return int(np.count_nonzero(sel(name)))

        def secs(*span_names):
            return float(sum(self_t[sel(n)].sum() for n in span_names))

        def ratio(num, den):
            return float(num) / den if den else 0.0

        project = sel("geometry.project")
        n_project = int(project.sum())
        search_verdicts = sel("equivalence.verdict") & (
            parent_names == "approx.search")
        expr_calls = count("expr.jac") + count("expr.eval")
        expr_rows = work[sel("expr.jac")].sum() + work[sel("expr.eval")].sum()
        return {
            "geometry.project_calls": n_project,
            "geometry.project_rows": int(work[project].sum()),
            "geometry.project_s": secs("geometry.project"),
            "geometry.project_accept_frac": ratio(
                outcome[project].sum(), work[project].sum()),
            "geometry.project_empty_frac": ratio(
                np.count_nonzero(outcome[project] == 0), n_project),
            "geometry.jac_per_project": ratio(np.count_nonzero(
                sel("expr.jac") & (parent_names == "geometry.project")),
                n_project),
            "geometry.residuals_per_project": ratio(np.count_nonzero(
                sel("expr.eval") & (parent_names == "geometry.project")),
                n_project),
            "geometry.dist_calls": count("geometry.dist"),
            "geometry.dist_rows": int(work[sel("geometry.dist")].sum()),
            "geometry.dist_s": secs("geometry.dist"),
            "geometry.deviation_calls": count("geometry.deviation"),
            "geometry.deviation_pairs": int(
                work[sel("geometry.deviation")].sum()),
            "geometry.deviation_s": secs("geometry.deviation"),
            "geometry.sample_calls": count("geometry.sample"),
            "geometry.sample_s": secs("geometry.sample"),
            "geometry.cache_hit_frac": ratio(cache_hits, cache_lookups),
            "geometry.dimension_s": secs("geometry.dimension"),
            "expr.jac_calls": count("expr.jac"),
            "expr.jac_rows": int(work[sel("expr.jac")].sum()),
            "expr.jac_s": secs("expr.jac"),
            "expr.eval_calls": count("expr.eval"),
            "expr.eval_rows": int(work[sel("expr.eval")].sum()),
            "expr.eval_s": secs("expr.eval"),
            "expr.rows_per_call": ratio(expr_rows, expr_calls),
            "series.taylor_calls": count("series.taylor"),
            "series.taylor_s": secs("series.taylor"),
            "sets.truncate_s": secs("sets.truncate"),
            "sets.inflate_s": secs("sets.inflate"),
            "sets.projection_s": secs("sets.projection"),
            "sets.membership_rows": int(work[sel("sets.membership")].sum()),
            "sets.membership_s": secs("sets.membership"),
            "sets.signature_calls": count("sets.signature"),
            "sets.signature_s": secs("sets.signature"),
            "equivalence.verdict_calls": count("equivalence.verdict"),
            "equivalence.verdict_s": secs("equivalence.verdict"),
            "equivalence.horn_calls": count("equivalence.horn"),
            "equivalence.horn_s": secs("equivalence.horn"),
            "approx.approximate_calls": count("approx.approximate"),
            "approx.candidates": int(search_verdicts.sum()),
            "approx.candidate_accept_frac": ratio(
                outcome[search_verdicts].sum(), search_verdicts.sum()),
            "approx.search_s": secs("approx.search"),
        }

    def write(self, path):
        """Dump the spans as CSV: index,name,start,end,parent,task."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,task\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]!r},{self.ends[i]!r},"
                         f"{self.parents[i]},{self.tasks[i]}\n")
