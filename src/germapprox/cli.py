"""Command line front end.

Subcommands::

    germapprox truncate FILE SET --h H [--k K]     Taylor-truncate a set
    germapprox compare  FILE A B --s S [--horn]    order-s closeness verdict
    germapprox order    FILE A B [-o out.csv]      raw deviation profile
    germapprox approx   FILE SET --s S             polynomial approximant
    germapprox tangent  FILE SET                   tangent direction drift

Machine output goes to the path given with -o (or to stdout with --stdout);
a human-readable summary always goes to stdout otherwise. JSON payloads
embed a manifest of the run (command, arguments, resolved configuration,
version); CSV output stays pure tabular and gets a JSON sidecar manifest at
<out>.manifest.json. Wall-clock duration is printed but never written into
files, so reruns with identical inputs produce byte-identical outputs.

Exit codes: 0 verdict holds / success, 1 verdict fails, 2 usage or input
error, 3 inconclusive, 4 search exhausted, 5 no data at the sampled radii.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from . import expr as ex
from .approx import ApproxConfig, ApproxError, ApproxResult, SearchExhausted, \
    approximate
from .equivalence import (
    HORN_OFFSETS,
    R2_MIN,
    CompareConfig,
    ComparisonError,
    OrderEstimate,
    RadiiSchedule,
    Verdict,
    decide_equivalent,
    decide_le,
    deviation_profile,
    horn_criterion,
)
from .geometry import SLICE_DEPTH, EmptySliceError, GeometryError, \
    tangent_cone_cloud
from .sets import SemianalyticSet, SetError, dump_set, load_collection, \
    truncate_full
from .version import __version__

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2
_EXIT_INCONCLUSIVE = 3
_EXIT_EXHAUSTED = 4
_EXIT_NO_DATA = 5


# ---------------------------------------------------------------------------
# serialization helpers


def _sanitize(obj):
    """JSON-safe copy: numpy scalars to Python, non-finite floats to null."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _verdict_dict(v: Verdict) -> dict:
    """The verdict's fields, nested estimates included, less those that
    are None (sigma and the estimates)."""
    return {k: x for k, x in asdict(v).items() if x is not None}


def _collection_dict(s: SemianalyticSet, names) -> dict:
    return {"vars": list(names), "omega": s.omega,
            "sets": {s.name: dump_set(s, names)}}


def _approx_dict(res: ApproxResult, names) -> dict:
    """The fields of ``res`` and of its parts, the verdicts and residuals
    only when present; ``input_name`` is written as ``input``, and the output
    set as a collection, or as ``output_empty`` when it has no part."""
    def fields(obj, keep=()):
        return {k: _verdict_dict(v) if isinstance(v, Verdict)
                else _approx_dict(v, names) if isinstance(v, ApproxResult)
                else v for k, v in vars(obj).items()
                if v is not None or k in keep}

    d = fields(res)
    d["input"] = d.pop("input_name")
    d["parts"] = [fields(pr, ("m", "h", "k", "projection"))
                  for pr in res.parts]
    output = d.pop("output")
    if output.parts:
        d["output_collection"] = _collection_dict(output, names)
    else:
        d["output_empty"] = True
    return d


def _dump_json(payload: dict) -> str:
    return json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"


def _emit(args, text: str, human_lines, t0: float | None = None,
          sidecar: dict | None = None):
    """Write the machine output ``text`` to -o, and ``sidecar``, when one is
    given, as JSON to <out>.manifest.json; write ``text`` to stdout with
    --stdout, otherwise print the summary, ended by the wall time since
    ``t0`` when one is given."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if sidecar is not None:
            with open(args.out + ".manifest.json", "w",
                      encoding="utf-8") as fh:
                fh.write(_dump_json(sidecar))
    if args.stdout:
        sys.stdout.write(text)
    else:
        for line in human_lines:
            print(line)
        if t0 is not None:
            print(f"completed in {time.perf_counter() - t0:.2f}s")


# ---------------------------------------------------------------------------
# configuration plumbing


def _manifest(args, config: dict) -> dict:
    return {
        "command": args.command,
        "argv": list(args.raw_argv),
        "inputs": {"file": args.file,
                   "sets": [getattr(args, n) for n in args.set_args]},
        "config": config,
        "version": __version__,
    }


def _compare_config(args, *sets: SemianalyticSet) -> CompareConfig:
    kw = dict(npoints=args.points, seed=args.seed, margin=args.margin)
    if args.radii:
        return CompareConfig(schedule=RadiiSchedule.parse(args.radii), **kw)
    return CompareConfig.for_sets(*sets, **kw)


def _config_dict(cfg: CompareConfig) -> dict:
    return {
        "radii": {"r0": cfg.schedule.r0, "ratio": cfg.schedule.ratio,
                  "count": cfg.schedule.count},
        "npoints": cfg.npoints,
        "seed": cfg.seed,
        "margin": cfg.margin,
        "r2_min": R2_MIN,
        "boundary_depth": SLICE_DEPTH,
        "horn_offsets": list(HORN_OFFSETS),
    }


def _part_lines(s: SemianalyticSet, names, label: str) -> list[str]:
    """One summary line per equation and inequality of each part of s."""
    lines = []
    for i, part in enumerate(s.parts):
        for e in part.eqs:
            lines.append(f"  {label} {i} eq:   {ex.to_string(e, names)} = 0")
        for g in part.ineqs:
            lines.append(f"  {label} {i} ineq: {ex.to_string(g, names)} >= 0")
    return lines


def _describe_estimate(e: OrderEstimate | None) -> str:
    if e is None:
        return "no estimate"
    if e.vanishing:
        return (f"{e.direction}: deviation at the sampling floor "
                f"({e.below_floor} of {len(e.samples)} radii)")
    if e.slope == -math.inf:
        return f"{e.direction}: deviation does not decay"
    return (f"{e.direction}: slope {e.slope:.3f}, r^2 {e.r_squared:.4f}, "
            f"{e.below_floor} radii below floor")


# ---------------------------------------------------------------------------
# subcommands


def cmd_truncate(args, coll, s) -> int:
    if args.h is None and args.k is None:
        print("error: truncate needs --h and/or --k", file=sys.stderr)
        return _EXIT_USAGE
    h = args.h if args.h is not None else args.k
    k = args.k if args.k is not None else args.h
    out = truncate_full(s, h, k)
    payload = _collection_dict(out, coll.names)
    payload["manifest"] = _manifest(args, {"h": h, "k": k})
    _emit(args, _dump_json(payload),
          [f"{out.name}:"] + _part_lines(out, coll.names, "part"))
    return _EXIT_OK


def cmd_compare(args, coll, a, b) -> int:
    cfg = _compare_config(args, a, b)
    t0 = time.perf_counter()
    if args.directed:
        verdict = decide_le(a, b, args.s, cfg)
        relation = f"{a.name} within order {args.s:g} of {b.name}"
    else:
        verdict = decide_equivalent(a, b, args.s, cfg)
        relation = f"{a.name} and {b.name} equivalent at order {args.s:g}"
    payload = {
        "a": a.name, "b": b.name, "s": args.s,
        "directed": bool(args.directed),
        "verdict": _verdict_dict(verdict),
        "manifest": _manifest(args, {**_config_dict(cfg), "s": args.s,
                                     "directed": bool(args.directed),
                                     "horn": bool(args.horn)}),
    }
    status, code = (
        ("INCONCLUSIVE", _EXIT_INCONCLUSIVE) if verdict.inconclusive
        else ("HOLDS", _EXIT_OK) if verdict.holds else ("FAILS", _EXIT_FAIL))
    lines = [f"{relation}: {status}",
             "  " + _describe_estimate(verdict.estimate)]
    if verdict.estimate_reverse is not None:
        lines.append("  " + _describe_estimate(verdict.estimate_reverse))
    if args.horn:
        h_ab = horn_criterion(a, b, args.s, cfg)
        horn_info = {"a_le_b": _verdict_dict(h_ab)}
        if args.directed:
            horn_holds = h_ab.holds
        else:
            h_ba = horn_criterion(b, a, args.s, cfg)
            horn_info["b_le_a"] = _verdict_dict(h_ba)
            horn_holds = h_ab.holds and h_ba.holds
        horn_info["holds"] = horn_holds
        horn_info["agreement"] = (horn_holds == verdict.holds
                                  and not verdict.inconclusive)
        payload["horn"] = horn_info
        lines.append(f"  horn criterion: "
                     f"{'HOLDS' if horn_holds else 'FAILS'} "
                     f"(agreement: {horn_info['agreement']})")
    for c in verdict.caveats:
        lines.append(f"  note: {c}")
    _emit(args, _dump_json(payload), lines, t0)
    return code


def cmd_order(args, coll, a, b) -> int:
    cfg = _compare_config(args, a, b)
    samples, est_ab, est_ba, caveats = deviation_profile(a, b, cfg)
    rows = sorted(samples, key=lambda d: d.r)
    csv_lines = ["r,delta_ab,delta_ba,floor_ab,floor_ba"]
    for d in rows:
        csv_lines.append(",".join(repr(float(v)) for v in (
            d.r, d.delta_ab, d.delta_ba, d.floor_ab, d.floor_ba)))
    sidecar = {"manifest": _manifest(args, _config_dict(cfg)),
               "estimate_ab": asdict(est_ab),
               "estimate_ba": asdict(est_ba),
               "caveats": list(caveats)}
    lines = [f"deviations of {a.name!r} and {b.name!r} at {len(rows)} radii",
             "  " + _describe_estimate(est_ab),
             "  " + _describe_estimate(est_ba)]
    lines += [f"  note: {c}" for c in caveats]
    if not args.out:
        lines += csv_lines
    _emit(args, "\n".join(csv_lines) + "\n", lines, sidecar=sidecar)
    return _EXIT_OK


def cmd_approx(args, coll, a) -> int:
    cfg = _compare_config(args, a)
    acfg = ApproxConfig(compare=cfg, max_h=args.max_h, max_k=args.max_k,
                        max_m=args.max_m, depth=args.depth)
    t0 = time.perf_counter()
    config_dict = {**_config_dict(cfg), "s": args.s, "max_h": args.max_h,
                   "max_k": args.max_k, "max_m": args.max_m,
                   "depth": args.depth}
    try:
        result = approximate(a, args.s, acfg)
    except SearchExhausted as exc:
        payload = {
            "input": a.name, "s": args.s, "success": False,
            "error": str(exc),
            "best_candidate": {
                "verdict": _verdict_dict(exc.verdict),
                "output_collection": _collection_dict(exc.candidate,
                                                      coll.names)},
            "manifest": _manifest(args, config_dict),
        }
        _emit(args, _dump_json(payload), [f"search exhausted: {exc}"])
        return _EXIT_EXHAUSTED
    payload = _approx_dict(result, coll.names)
    payload["manifest"] = _manifest(args, config_dict)
    lines = [f"approximant of {a.name!r} at order {args.s:g}: "
             f"{'SUCCESS' if result.success else 'NOT WITHIN ORDER'}"]
    for pr in result.parts:
        bits = [f"dim {pr.dimension}"]
        if pr.m is not None:
            bits.append(f"m={pr.m}")
        if pr.h is not None:
            bits.append(f"h={pr.h}, k={pr.k}")
        lines.append(f"  part {pr.part_index}: " + ", ".join(bits))
    lines += _part_lines(result.output, coll.names, "out part")
    if result.final_verdict is not None:
        lines.append("  " + _describe_estimate(result.final_verdict.estimate))
    for c in result.caveats:
        lines.append(f"  note: {c}")
    _emit(args, _dump_json(payload), lines, t0)
    return _EXIT_OK if result.success else _EXIT_FAIL


def cmd_tangent(args, coll, s) -> int:
    cfg = _compare_config(args, s)
    try:
        report = tangent_cone_cloud(
            s, cfg.schedule.radii(), npoints=cfg.npoints, seed=cfg.seed)
    except EmptySliceError as exc:
        print(f"origin isolated at resolution: {exc}", file=sys.stderr)
        return _EXIT_NO_DATA
    payload = {
        "set": s.name,
        "radii": list(report.radii),
        "drift": list(report.drift),
        "directions": report.direction_clouds[-1],
        "manifest": _manifest(args, _config_dict(cfg)),
    }
    lines = [f"tangent directions of {s.name!r} across "
             f"{len(report.radii)} radii"]
    for (r1, r2), d in zip(zip(report.radii, report.radii[1:]),
                           report.drift):
        lines.append(f"  drift r={r1:g} -> r={r2:g}: {d:.3e}")
    _emit(args, _dump_json(payload), lines)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="germapprox",
        description="Measure order-s closeness of set germs at the origin "
                    "and build polynomial approximants.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    # name, handler, help, set positionals, takes --s, its own options
    for name, func, text, set_args, takes_s, options in (
            ("truncate", cmd_truncate,
             "Taylor-truncate a set's defining functions", ("set",), False,
             {"--h": dict(type=int, default=None, help="equation "
                          "truncation order (default: --k)"),
              "--k": dict(type=int, default=None, help="inequality "
                          "truncation order (default: --h)")}),
            ("compare", cmd_compare, "decide order-s closeness of two sets",
             ("set_a", "set_b"), True,
             {"--directed": dict(action="store_true", help="test only "
                                 "whether A stays within order s of B"),
              "--horn": dict(action="store_true", help="also run the horn "
                             "containment criterion")}),
            ("order", cmd_order, "export raw deviations per radius",
             ("set_a", "set_b"), False, {}),
            ("approx", cmd_approx, "search a polynomial approximant",
             ("set",), True,
             {"--max-h": dict(type=int, default=ApproxConfig.max_h),
              "--max-k": dict(type=int, default=ApproxConfig.max_k),
              "--max-m": dict(type=int, default=ApproxConfig.max_m),
              "--depth": dict(type=int, default=ApproxConfig.depth,
                              help="residual recursion depth "
                                   "(default %(default)s)")}),
            ("tangent", cmd_tangent, "tangent direction clouds and drift",
             ("set",), False, {})):
        p = sub.add_parser(name, help=text)
        for dest in ("file",) + set_args:
            p.add_argument(dest)
        if takes_s:
            p.add_argument("--s", type=_finite, required=True,
                           help="the order s")
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
        p.add_argument("-o", "--out", help="write machine output to this path")
        p.add_argument("--stdout", action="store_true", help="dump machine "
                       "output to stdout instead of a summary")
        if name != "truncate":  # every other subcommand samples slices
            p.add_argument("--radii", help="radius schedule as "
                           "r0:ratio:count (default omega/2:0.5:8)")
            p.add_argument("--points", type=int,
                           default=CompareConfig.npoints,
                           help="sphere directions per slice "
                                "(default %(default)s)")
            p.add_argument("--seed", type=int, default=CompareConfig.seed,
                           help="sampling seed (default %(default)s)")
            p.add_argument("--margin", type=float,
                           default=CompareConfig.margin,
                           help="decision margin on fitted orders "
                                "(default %(default)s)")
        p.set_defaults(func=func, set_args=set_args)
    return ap


def main(argv=None) -> int:
    """Parse ``argv``, load the set file, resolve the subcommand's sets and
    run it; an input error is reported on stderr with exit code 2."""
    raw = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(raw)
    args.raw_argv = raw
    try:
        coll = load_collection(args.file)
        return args.func(args, coll,
                         *(coll.get(getattr(args, n)) for n in args.set_args))
    except (SetError, ex.ExprError, ComparisonError, GeometryError,
            ApproxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
