"""germapprox benchmark: timed workloads with an oracle check on every task.

Run from the root of a checkout:

    python3 perfbench/run.py --workload approx_corpus --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

One client runs tasks back to back (a closed loop, threads=1). A run does
``passes(workload, seconds)`` passes over the workload's tasks; the number
of passes depends only on ``--seconds``, so every run of a workload does the
same amount of work. The process pins itself to one CPU, and a host probe
timed between tasks, on that CPU, normalizes each task's time to a
reference host speed (README, Host probe). With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` one pass runs traced and one untraced, and the
JSON carries the per-layer metrics. The full record of every run, with the
environment and per-task digests, goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from hostprobe import HostProbe

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "germapprox" / "corpus"
RESULTS = HERE / "results"

WORKLOADS = ("approx_corpus", "compare_curves", "horn_surfaces")
# Passes per REFERENCE_SECONDS of requested measuring. On a 2-core box a
# pass takes about 20-30 s (approx_corpus), 15-20 s (compare_curves) and
# 7-10 s (horn_surfaces). Fixed, so the work does not follow the program's
# speed.
BASE_PASSES = {"approx_corpus": 2, "compare_curves": 2, "horn_surfaces": 4}
REFERENCE_SECONDS = 40.0


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / REFERENCE_SECONDS * BASE_PASSES[workload]))


# The host's speed swings by up to 1.7x within seconds, and CPU time swings
# with it, so no statistic of raw task times is steady from one run to the
# next. A fixed mix of work (hostprobe.py) is timed before the first task and
# after every step of a task (run_pass); a step's normalized time is its
# seconds * REFERENCE_PROBE_S / the mean of the readings on either side of
# it. The probe is benchmark code, so a change to germapprox moves the task
# times and not the readings.
# The probe's reading on the fast state of a 2-vCPU x86 VM (its 5th
# percentile there), so normalized times read close to the wall time there.
REFERENCE_PROBE_S = 0.025


def pin_to_one_cpu():
    """Pin this process, and the helpers it starts later, to one CPU, so
    the probe reads the speed of the core the tasks run on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def require_sources():
    if not (SRC / "germapprox" / "__init__.py").is_file():
        raise SystemExit(f"germapprox sources not found under {SRC}")


def import_germapprox():
    require_sources()
    sys.path.insert(0, str(SRC))
    import germapprox
    if Path(germapprox.__file__).resolve().parent != SRC / "germapprox":
        raise SystemExit(f"imported germapprox from {germapprox.__file__}, "
                         f"not from {SRC}")
    return germapprox


def setup(workload: str):
    """What every task needs before it can run: import the package, load
    the corpus files and build the workload's generated sets."""
    t0 = time.perf_counter()
    ga = import_germapprox()
    sets = wl.build_sets(ga, CORPUS, workload)
    return ga, sets, time.perf_counter() - t0


SETUP_RUNS = 6


def timed_setups(workload: str, probe, count: int) -> list:
    """(seconds, probe reading) of `count` cold set-ups; the reading is the
    mean of the probe readings just before and just after the set-up."""
    out = []
    for _ in range(count):
        before = probe.read()
        secs = setup_seconds(workload)
        out.append((secs, (before + probe.read()) / 2))
    return out


def setup_seconds(workload: str) -> float:
    """Time one cold set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# environment record


def _blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def reference_kernel_seconds(np) -> float:
    """A fixed pure-numpy kernel (batched pinv of small Jacobians, the shape
    the Gauss-Newton projection uses), median of 3; shows host drift."""
    rng = np.random.default_rng(1234)
    jacs = rng.standard_normal((4000, 2, 3))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(10):
            np.linalg.pinv(jacs, rcond=1e-9)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(np, scipy, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(np),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
        "commit": _commit(),
        "reference_kernel_s": reference_kernel_seconds(np),
    }


# ---------------------------------------------------------------------------
# running passes


def run_pass(ga, workload, sets, seed, index, make_cache, probe,
             tracer=None):
    """Run one pass back to back, then check every output.

    Returns (seconds of the timed steps, outcomes, probe readings). A task's
    steps (workloads.task_steps) are timed one by one, with a probe reading
    before the first step of the pass and after every step, outside the
    timed regions. A step's normalized time uses the mean of the readings
    on either side of it."""
    # each pass samples with its own seed, so a run's medians also smooth
    # the seed-dependent part of the work (Gauss-Newton starts, search paths)
    cfg = wl.compare_config(ga, workload, seed + 1000 * index)
    timed = []
    readings = [probe.read()]
    for task in wl.pass_tasks(workload, seed, index):
        results, seconds, norm, error = [], 0.0, 0.0, None
        for step in wl.task_steps(ga, task, sets, cfg, make_cache()):
            t0 = time.perf_counter()
            try:
                results.append(step() if tracer is None
                               else tracer.run_task(task.id, step))
            except Exception as exc:  # a task that raises is a failed task
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            readings.append(probe.read())
            seconds += dt
            norm += dt * REFERENCE_PROBE_S * 2 / (readings[-2] + readings[-1])
            if error is not None:
                break
        timed.append((task, seconds, norm, tuple(results), error))

    outcomes = []
    for task, seconds, norm, output, error in timed:
        if error is None:
            try:
                failed, inconclusive, verdicts = wl.check(ga, task, output,
                                                          sets, cfg)
                digest = wl.digest_of(task, output)
            except Exception as exc:
                error = f"oracle: {type(exc).__name__}: {exc}"
        if error is not None:
            failed, inconclusive, verdicts, digest = True, 0, 0, "error"
        outcomes.append(wl.Outcome(task, seconds, norm, digest, failed,
                                   error, inconclusive, verdicts))
    return sum(o.seconds for o in outcomes), outcomes, readings


def counting_cache_class(ga):
    class CountingCache(ga.SliceCache):
        """SliceCache that counts lookups and hits."""

        def __init__(self):
            super().__init__()
            self.hits = 0
            self.lookups = 0

        def lookup(self, key):
            hit = super().lookup(key)
            self.lookups += 1
            self.hits += hit is not None
            return hit

    return CountingCache


def task_times(outcomes, normalized: bool) -> dict:
    """Each task's median time over the run's passes, raw or normalized by
    the host probe.

    Passes sample with different seeds, so the median smooths the
    seed-dependent part of a task's work. A compare pass rotates s, which
    does not change the work, so a compare task is its pair."""
    samples: dict = {}
    for o in outcomes:
        t = o.norm_seconds if normalized else o.seconds
        samples.setdefault((o.task.a, o.task.b), []).append(t)
    return {k: statistics.median(v) for k, v in samples.items()}


def tail(times: list[float]):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples); with fewer than 11 samples the
    maximum is reported as percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def summarize(outcomes, workload: str, not_gated: dict) -> dict:
    attempted = len(outcomes)
    failed = [o for o in outcomes if o.failed]
    verdicts = sum(o.verdicts for o in outcomes)
    return {
        "attempted": attempted,
        "failed": len(failed),
        "fail_frac": len(failed) / attempted,
        "inconclusive_frac": (sum(o.inconclusive for o in outcomes) / verdicts
                              if verdicts else 0.0),
        "unexpected_failures": sorted({o.task.id for o in failed
                                       if o.error is not None
                                       or workload not in not_gated}),
    }


# ---------------------------------------------------------------------------
# main


def measure(args) -> dict:
    require_sources()
    cpu = pin_to_one_cpu()
    with HostProbe() as probe:
        return measure_pinned(args, cpu, probe)


def measure_pinned(args, cpu, probe) -> dict:
    ga, sets, setup_here = setup(args.workload)
    import numpy as np
    import scipy
    env = environment(np, scipy, args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "cpu": cpu,
              "setup_in_process_s": setup_here}

    if not args.trace:
        # set-up is timed before the first pass and after every pass, at
        # least SETUP_RUNS times in all, so its median spans the run instead
        # of a few seconds of it; each time is normalized like a task's
        n_passes = passes(args.workload, args.seconds)
        slots = n_passes + 1
        total = max(SETUP_RUNS, slots)
        per_slot = [total // slots + (k < total % slots)
                    for k in range(slots)]
        setup_runs = timed_setups(args.workload, probe, per_slot[0])
        walls, outcomes, readings = [], [], []
        for index in range(n_passes):
            wall, outs, reads = run_pass(ga, args.workload, sets, args.seed,
                                         index, ga.SliceCache, probe)
            walls.append(wall)
            outcomes += outs
            readings += reads
            setup_runs += timed_setups(args.workload, probe,
                                       per_slot[index + 1])
        raw = list(task_times(outcomes, normalized=False).values())
        norm = list(task_times(outcomes, normalized=True).values())
        tail_v, tail_p, tail_n = tail(raw)
        record["pass_walls_s"] = walls
        record["setup_runs_s"] = [secs for secs, _ in setup_runs]
        record["setup_probes_s"] = [reading for _, reading in setup_runs]
        record["probes_s"] = readings
        record["tail"] = {"percentile": tail_p, "samples": tail_n}
        metrics = {
            "setup_s": (statistics.median(
                secs * REFERENCE_PROBE_S / reading
                for secs, reading in setup_runs), "s"),
            "wall_norm_s": (sum(norm), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        # reported with every run but not bounded: raw times follow the
        # host's speed swings (README, Steadiness), and the tail of 3 to 26
        # task times is a single task
        record["unbounded"] = {
            "setup_raw_s": {"value": statistics.median(
                secs for secs, _ in setup_runs), "unit": "s"},
            "wall_s": {"value": sum(raw), "unit": "s"},
            "task_p50_s": {"value": statistics.median(raw), "unit": "s"},
            "task_p50_norm_s": {"value": statistics.median(norm),
                                "unit": "s"},
            "task_tail_s": {"value": tail_v, "unit": "s"},
            "task_tail_norm_s": {"value": tail(norm)[0], "unit": "s"},
        }
        checks = {}
    else:
        from tracer import Tracer
        tracer = Tracer()
        caches = []
        counting = counting_cache_class(ga)

        def make_cache():
            caches.append(counting())
            return caches[-1]

        tracer.install()
        try:
            traced_wall, traced, _ = run_pass(ga, args.workload, sets,
                                              args.seed, 0, make_cache,
                                              probe, tracer)
        finally:
            restored = tracer.restore()
        wall, untraced, _ = run_pass(ga, args.workload, sets, args.seed, 0,
                                     ga.SliceCache, probe)
        outcomes = traced + untraced
        layers = tracer.layer_metrics(sum(c.hits for c in caches),
                                      sum(c.lookups for c in caches))
        metrics = {k: (v, _unit(k)) for k, v in layers.items()}
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        record["traced_wall_s"] = traced_wall
        record["untraced_wall_s"] = wall
        record["spans"] = len(tracer.names)
        checks = {
            "bindings_restored": restored,
            "self_times_sum_to_task": tracer.check_self_times(),
            "untraced_after_traced_digests": [o.digest for o in traced]
            == [o.digest for o in untraced],
        }
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.csv")

    summary = summarize(outcomes, args.workload, wl.VERDICTS_NOT_GATED)
    if args.trace:
        metrics["task.fail_frac"] = (summary["fail_frac"], "ratio")
        metrics["task.inconclusive_frac"] = (summary["inconclusive_frac"],
                                             "ratio")
    checks["no_unexpected_failures"] = not summary["unexpected_failures"]
    # every task passes its own cache, so the process-global one stays empty
    checks["global_cache_untouched"] = not ga.geometry.default_cache()._store
    record.update(summary)
    record["not_gated"] = wl.VERDICTS_NOT_GATED.get(args.workload)
    record["checks"] = checks
    record["digest"] = wl.combined_digest(outcomes)
    record["tasks"] = [{"id": o.task.id, "seconds": o.seconds,
                        "norm_seconds": o.norm_seconds,
                        "digest": o.digest, "failed": o.failed,
                        "error": o.error,
                        "inconclusive": o.inconclusive}
                       for o in outcomes]
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    record["correct"] = all(checks.values())
    return record


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(("_per_project", "rows_per_call")):
        return "count/call"
    return "count"


def report(record: dict):
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['attempted']} tasks, "
          f"{record['failed']} failed "
          f"(fail_frac {record['fail_frac']:.4f} ratio), "
          f"inconclusive_frac {record['inconclusive_frac']:.4f} ratio")
    for o in record["tasks"]:
        if o["failed"]:
            why = o["error"] or "contradicts the closed-form oracle"
            print(f"  failed {o['id']}: {why}")
    if record["not_gated"]:
        print(f"  verdicts not gated: {record['not_gated']}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, nproc {env['nproc']}, "
          f"blas threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}, "
          f"commit {env['commit']}, reference kernel "
          f"{env['reference_kernel_s']:.4f} s")
    if "tail" in record:
        t = record["tail"]
        print(f"passes {len(record['pass_walls_s'])}; task_tail_s is "
              f"p{t['percentile']:.1f} of {t['samples']} task samples")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, m in record.get("unbounded", {}).items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (not bounded)")
    print(f"checks: {record['checks']}")
    print(f"digest {record['digest']}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(repr(setup(args.workload)[2]))
        return 0
    if args.workload == "all":
        code = 0
        for w in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", w, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                timeout=900)
            code = code or proc.returncode
        return code
    record = measure(args)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / (f"{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json")
    out.write_text(json.dumps(record, indent=1, default=_json_default))
    report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }, default=_json_default))
    return 0


def _json_default(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


if __name__ == "__main__":
    sys.exit(main())
