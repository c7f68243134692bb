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


def _estimate_dict(e: OrderEstimate) -> dict:
    return {
        "direction": e.direction,
        "slope": e.slope,
        "intercept": e.intercept,
        "r_squared": e.r_squared,
        "vanishing": e.vanishing,
        "below_floor": e.below_floor,
        "samples": [
            {"r": s.r, "delta_ab": s.delta_ab, "delta_ba": s.delta_ba,
             "floor": s.floor}
            for s in e.samples
        ],
    }


def _verdict_dict(v: Verdict) -> dict:
    d = {
        "holds": v.holds,
        "s": v.s,
        "method": v.method,
        "inconclusive": v.inconclusive,
        "caveats": list(v.caveats),
    }
    if v.sigma is not None:
        d["sigma"] = v.sigma
    if v.estimate is not None:
        d["estimate"] = _estimate_dict(v.estimate)
    if v.estimate_reverse is not None:
        d["estimate_reverse"] = _estimate_dict(v.estimate_reverse)
    return d


def _collection_dict(s: SemianalyticSet, names) -> dict:
    return {"vars": list(names), "omega": s.omega,
            "sets": {s.name: dump_set(s, names)}}


def _approx_dict(res: ApproxResult, names) -> dict:
    parts = []
    for pr in res.parts:
        entry = {
            "part_index": pr.part_index,
            "dimension": pr.dimension,
            "m": pr.m,
            "h": pr.h,
            "k": pr.k,
            "projection": pr.projection,
            "caveats": list(pr.caveats),
        }
        if pr.m_verdict is not None:
            entry["m_verdict"] = _verdict_dict(pr.m_verdict)
        if pr.candidate_verdict is not None:
            entry["candidate_verdict"] = _verdict_dict(pr.candidate_verdict)
        if pr.residual is not None:
            entry["residual"] = _approx_dict(pr.residual, names)
        parts.append(entry)
    d = {
        "input": res.input_name,
        "s": res.s,
        "success": res.success,
        "input_dimension": res.input_dimension,
        "output_dimension": res.output_dimension,
        "caveats": list(res.caveats),
        "parts": parts,
    }
    if res.final_verdict is not None:
        d["final_verdict"] = _verdict_dict(res.final_verdict)
    if res.output.parts:
        d["output_collection"] = _collection_dict(res.output, names)
    else:
        d["output_empty"] = True
    return d


def _dump_json(payload: dict) -> str:
    return json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"


def _emit(args, payload: dict, human_lines):
    text = _dump_json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.stdout:
        sys.stdout.write(text)
    else:
        for line in human_lines:
            print(line)


def _csv_float(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# configuration plumbing


def _manifest(args, command: str, file: str, sets, config: dict) -> dict:
    return {
        "command": command,
        "argv": list(args.raw_argv),
        "inputs": {"file": file, "sets": list(sets)},
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


def _verdict_exit(v: Verdict) -> int:
    if v.inconclusive:
        return _EXIT_INCONCLUSIVE
    return _EXIT_OK if v.holds else _EXIT_FAIL


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


def cmd_truncate(args) -> int:
    if args.h is None and args.k is None:
        print("error: truncate needs --h and/or --k", file=sys.stderr)
        return _EXIT_USAGE
    h = args.h if args.h is not None else args.k
    k = args.k if args.k is not None else args.h
    coll = load_collection(args.file)
    s = coll.get(args.set)
    out = truncate_full(s, h, k)
    payload = _collection_dict(out, coll.names)
    payload["manifest"] = _manifest(
        args, "truncate", args.file, [args.set],
        {"h": h, "k": k})
    lines = [f"{out.name}:"]
    for i, part in enumerate(out.parts):
        for e in part.eqs:
            lines.append(f"  part {i} eq:   {ex.to_string(e, coll.names)} = 0")
        for g in part.ineqs:
            lines.append(f"  part {i} ineq: {ex.to_string(g, coll.names)} >= 0")
    _emit(args, payload, lines)
    return _EXIT_OK


def cmd_compare(args) -> int:
    coll = load_collection(args.file)
    a, b = coll.get(args.set_a), coll.get(args.set_b)
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
        "manifest": _manifest(args, "compare", args.file,
                              [a.name, b.name],
                              {**_config_dict(cfg), "s": args.s,
                               "directed": bool(args.directed),
                               "horn": bool(args.horn)}),
    }
    lines = []
    status = ("INCONCLUSIVE" if verdict.inconclusive
              else "HOLDS" if verdict.holds else "FAILS")
    lines.append(f"{relation}: {status}")
    lines.append("  " + _describe_estimate(verdict.estimate))
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
    dt = time.perf_counter() - t0
    if not args.stdout:
        lines.append(f"completed in {dt:.2f}s")
    _emit(args, payload, lines)
    return _verdict_exit(verdict)


def cmd_order(args) -> int:
    coll = load_collection(args.file)
    a, b = coll.get(args.set_a), coll.get(args.set_b)
    cfg = _compare_config(args, a, b)
    samples, est_ab, est_ba, caveats = deviation_profile(a, b, cfg)
    rows = sorted(samples, key=lambda d: d.r)
    csv_lines = ["r,delta_ab,delta_ba,floor"]
    for d in rows:
        csv_lines.append(",".join([
            _csv_float(d.r), _csv_float(d.delta_ab),
            _csv_float(d.delta_ba), _csv_float(d.floor)]))
    csv_text = "\n".join(csv_lines) + "\n"
    manifest = _manifest(args, "order", args.file, [a.name, b.name],
                         _config_dict(cfg))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        sidecar = {"manifest": manifest,
                   "estimate_ab": _estimate_dict(est_ab),
                   "estimate_ba": _estimate_dict(est_ba),
                   "caveats": list(caveats)}
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(_dump_json(sidecar))
    if args.stdout:
        sys.stdout.write(csv_text)
    else:
        print(f"deviations of {a.name!r} and {b.name!r} at "
              f"{len(rows)} radii")
        print("  " + _describe_estimate(est_ab))
        print("  " + _describe_estimate(est_ba))
        for c in caveats:
            print(f"  note: {c}")
        if not args.out:
            sys.stdout.write(csv_text)
    return _EXIT_OK


def cmd_approx(args) -> int:
    coll = load_collection(args.file)
    a = coll.get(args.set)
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
        # (m, candidate, verdict) and (h, k, candidate, verdict, dropped)
        # both hold the candidate and its verdict just before index 4
        *_, candidate, verdict = exc.best[:4]
        payload = {
            "input": a.name, "s": args.s, "success": False,
            "error": str(exc),
            "best_candidate": {
                "verdict": _verdict_dict(verdict),
                "output_collection": _collection_dict(candidate,
                                                      coll.names)},
            "manifest": _manifest(args, "approx", args.file, [a.name],
                                  config_dict),
        }
        _emit(args, payload, [f"search exhausted: {exc}"])
        return _EXIT_EXHAUSTED
    payload = _approx_dict(result, coll.names)
    payload["manifest"] = _manifest(args, "approx", args.file, [a.name],
                                    config_dict)
    lines = [f"approximant of {a.name!r} at order {args.s:g}: "
             f"{'SUCCESS' if result.success else 'NOT WITHIN ORDER'}"]
    for pr in result.parts:
        bits = [f"dim {pr.dimension}"]
        if pr.m is not None:
            bits.append(f"m={pr.m}")
        if pr.h is not None:
            bits.append(f"h={pr.h}, k={pr.k}")
        lines.append(f"  part {pr.part_index}: " + ", ".join(bits))
    for i, part in enumerate(result.output.parts):
        for e in part.eqs:
            lines.append(f"  out part {i} eq:   "
                         f"{ex.to_string(e, coll.names)} = 0")
        for g in part.ineqs:
            lines.append(f"  out part {i} ineq: "
                         f"{ex.to_string(g, coll.names)} >= 0")
    if result.final_verdict is not None:
        lines.append("  " + _describe_estimate(result.final_verdict.estimate))
    for c in result.caveats:
        lines.append(f"  note: {c}")
    dt = time.perf_counter() - t0
    if not args.stdout:
        lines.append(f"completed in {dt:.2f}s")
    _emit(args, payload, lines)
    return _EXIT_OK if result.success else _EXIT_FAIL


def cmd_tangent(args) -> int:
    coll = load_collection(args.file)
    s = coll.get(args.set)
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
        "manifest": _manifest(args, "tangent", args.file, [s.name],
                              _config_dict(cfg)),
    }
    lines = [f"tangent directions of {s.name!r} across "
             f"{len(report.radii)} radii"]
    for (r1, r2), d in zip(zip(report.radii, report.radii[1:]),
                           report.drift):
        lines.append(f"  drift r={r1:g} -> r={r2:g}: {d:.3e}")
    _emit(args, payload, lines)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, radii=True):
    p.add_argument("-o", "--out", help="write machine output to this path")
    p.add_argument("--stdout", action="store_true",
                   help="dump machine output to stdout instead of a summary")
    if radii:
        p.add_argument("--radii", help="radius schedule as r0:ratio:count "
                                       "(default omega/2:0.5:8)")
        p.add_argument("--points", type=int, default=CompareConfig.npoints,
                       help="sphere directions per slice "
                            "(default %(default)s)")
        p.add_argument("--seed", type=int, default=CompareConfig.seed,
                       help="sampling seed (default %(default)s)")
        p.add_argument("--margin", type=float, default=CompareConfig.margin,
                       help="decision margin on fitted orders "
                            "(default %(default)s)")


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

    p = sub.add_parser("truncate", help="Taylor-truncate a set's "
                                        "defining functions")
    p.add_argument("file")
    p.add_argument("set")
    p.add_argument("--h", type=int, default=None,
                   help="equation truncation order (default: --k)")
    p.add_argument("--k", type=int, default=None,
                   help="inequality truncation order (default: --h)")
    _add_common(p, radii=False)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("compare", help="decide order-s closeness of two sets")
    p.add_argument("file")
    p.add_argument("set_a")
    p.add_argument("set_b")
    p.add_argument("--s", type=_finite, required=True, help="the order s")
    p.add_argument("--directed", action="store_true",
                   help="test only whether A stays within order s of B")
    p.add_argument("--horn", action="store_true",
                   help="also run the horn containment criterion")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("order", help="export raw deviations per radius")
    p.add_argument("file")
    p.add_argument("set_a")
    p.add_argument("set_b")
    _add_common(p)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("approx", help="search a polynomial approximant")
    p.add_argument("file")
    p.add_argument("set")
    p.add_argument("--s", type=_finite, required=True, help="the order s")
    p.add_argument("--max-h", type=int, default=ApproxConfig.max_h)
    p.add_argument("--max-k", type=int, default=ApproxConfig.max_k)
    p.add_argument("--max-m", type=int, default=ApproxConfig.max_m)
    p.add_argument("--depth", type=int, default=ApproxConfig.depth,
                   help="residual recursion depth (default %(default)s)")
    _add_common(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("tangent", help="tangent direction clouds and drift")
    p.add_argument("file")
    p.add_argument("set")
    _add_common(p)
    p.set_defaults(func=cmd_tangent)
    return ap


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(raw)
    args.raw_argv = raw
    try:
        return args.func(args)
    except (SetError, ex.ExprError, ComparisonError, GeometryError,
            ApproxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
