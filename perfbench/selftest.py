"""Self-tests of the benchmark's own machinery, on tiny tasks (a few seconds).

    python3 perfbench/selftest.py

Checks that a task repeated in one process, each time with a fresh
SliceCache, gives identical outputs and identical projection counts; that
span self times sum to the traced task time; that every patched binding is
restored (by identity); and that an untraced run after a traced one
reproduces the untraced digests. Exits 1 if any check fails.
"""
from __future__ import annotations

import sys

import run
import workloads as wl
from tracer import TARGETS, Tracer


def bindings(ga):
    """Every (owner, attribute) the tracer may patch, with its object."""
    mods = [m for n, m in sys.modules.items()
            if m is not None and n.split(".")[0] == "germapprox"]
    attrs = {t[1] for t in TARGETS}
    out = {(m.__name__, a): getattr(m, a) for m in mods for a in attrs
           if hasattr(m, a)}
    out[("SemianalyticSet", "signature")] = ga.SemianalyticSet.signature
    return out


def main() -> int:
    ga, sets, _ = run.setup("compare_curves")
    cfg = ga.CompareConfig(ga.RadiiSchedule(0.25, count=4), npoints=64,
                           seed=3)
    tasks = [
        wl.Task("selftest/parabola~line@s1.25", "compare", "parabola",
                "line", 1.25, 2.0, None),
        wl.Task("selftest/approx-parabola", "approx", "parabola", None,
                2.0, None, 1),
    ]

    def untraced():
        return [wl.digest_of(t, wl.run_task(ga, t, sets, cfg, ga.SliceCache()))
                for t in tasks]

    def traced():
        tracer = Tracer()
        tracer.install()
        try:
            digests = [wl.digest_of(t, tracer.run_task(
                t.id, lambda t=t: wl.run_task(ga, t, sets, cfg,
                                              ga.SliceCache())))
                       for t in tasks]
        finally:
            restored = tracer.restore()
        return digests, tracer, restored

    before = bindings(ga)
    first = untraced()
    digests_1, tracer_1, restored_1 = traced()
    digests_2, tracer_2, restored_2 = traced()
    after_traced = untraced()
    calls_1 = tracer_1.layer_metrics(0, 0)["geometry.project_calls"]
    calls_2 = tracer_2.layer_metrics(0, 0)["geometry.project_calls"]
    after = bindings(ga)

    results = {
        "repeat gives identical digests": digests_1 == digests_2,
        "repeat gives identical geometry.project_calls":
            calls_1 == calls_2 > 0,
        "span self times sum to the traced task time":
            tracer_1.check_self_times() and tracer_2.check_self_times(),
        "every patched binding restored":
            restored_1 and restored_2 and before.keys() == after.keys()
            and all(before[k] is after[k] for k in before),
        "untraced after traced reproduces untraced digests":
            first == after_traced == digests_1,
        "process-global slice cache untouched":
            not ga.geometry.default_cache()._store,
    }
    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
