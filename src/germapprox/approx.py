"""Constructing polynomial set germs within order s of a given germ.

The pipeline, per basic part of the input set:

1. Estimate the part's local dimension d from slice samples.
2. Reduce the equation system to n - d components. When the part already
   has exactly n - d equations they are kept as they are; otherwise a
   seeded random linear map mixes the p equations into n - d generic
   combinations F.
3. Inflate: replace {f = 0} by {F = 0, |x|^(2m) - sum f_i^2 >= 0}, searching
   for the smallest exponent m that keeps the inflated germ within order s
   of the part. The slack trims components of {F = 0} that the projection
   introduced away from the part.
4. Truncate: search the smallest Taylor orders (h for equations, k for
   inequalities) whose truncation of the inflated part stays within order s
   of the part. The winner is polynomial, hence semialgebraic.
5. Recurse on the residual locus, where the reduced system F drops rank on
   the part or an inequality is tight, and union the results.

Every candidate is accepted or rejected by the sampling-based comparison in
:mod:`.equivalence`; nothing is assumed about the input beyond what the
samples support, and anything unverified is surfaced as a caveat.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace

from . import expr as ex
from .equivalence import (
    CompareConfig,
    SliceCache,
    Verdict,
    decide_equivalent,
)
from .geometry import numeric_dimension
from .sets import (
    BasicPresentation,
    SemianalyticSet,
    boundary_part,
    generic_projection,
    inflated_part,
    minor_determinants,
    set_of,
    truncate_full,
)


class ApproxError(ValueError):
    pass


class SearchExhausted(RuntimeError):
    """No candidate within the configured order budget was accepted."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class ApproxConfig:
    compare: CompareConfig | None = None
    max_h: int = 12
    max_k: int = 12
    max_m: int = 6
    depth: int = 2

    def __post_init__(self):
        if self.max_h < 1 or self.max_k < 1 or self.max_m < 1:
            raise ApproxError("order budgets must be at least 1")
        if self.depth < 0:
            raise ApproxError("recursion depth must be nonnegative")


def child_seed(seed: int, *tokens) -> int:
    """Stable derived seed for a named subtask."""
    text = "|".join([str(int(seed))] + [str(t) for t in tokens])
    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF


@dataclass(frozen=True)
class PartApproxResult:
    part_index: int
    dimension: int
    m: int | None
    h: int | None
    k: int | None
    projection: tuple[tuple[float, ...], ...] | None
    m_verdict: Verdict | None
    candidate_verdict: Verdict | None
    residual: "ApproxResult | None"
    caveats: tuple[str, ...]


@dataclass(frozen=True)
class ApproxResult:
    input_name: str
    s: float
    output: SemianalyticSet
    parts: tuple[PartApproxResult, ...]
    final_verdict: Verdict | None
    success: bool
    input_dimension: int
    output_dimension: int
    caveats: tuple[str, ...]


# ---------------------------------------------------------------------------
# searches


def _diagonal_orders(max_h: int, max_k: int):
    """(h, k) pairs by growing max order; within a level small k first."""
    for level in range(1, max(max_h, max_k) + 1):
        pairs = []
        for k in range(1, min(level, max_k) + 1):
            for h in range(1, min(level, max_h) + 1):
                if max(h, k) == level:
                    pairs.append((h, k))
        for h, k in sorted(pairs, key=lambda p: (p[1], p[0])):
            yield h, k


def _drop_constant_ineqs(part: BasicPresentation):
    """Remove inequalities that truncated to a constant.

    A zero constant has lost all sign information and a positive constant
    holds everywhere near the origin; neither constrains the germ. Negative
    constants are kept so an emptied part stays visibly empty.
    """
    kept, dropped = [], 0
    for g in part.ineqs:
        if isinstance(g, ex.Const) and g.value >= 0.0:
            dropped += 1
        else:
            kept.append(g)
    if not dropped:
        return part, 0
    return BasicPresentation(
        nvars=part.nvars, eqs=part.eqs, ineqs=tuple(kept),
        good_presentation=part.good_presentation,
        through_origin=part.through_origin), dropped


def _slope_rank(v: Verdict) -> float:
    if v.estimate is None:
        return -math.inf
    if v.estimate.vanishing:
        return math.inf
    return v.estimate.slope


def search_inflation_exponent(reference: SemianalyticSet,
                              tilde_of_m, s: float, config: ApproxConfig,
                              cache: SliceCache | None = None):
    """Smallest m whose inflated germ stays within order s of the reference.

    ``tilde_of_m`` maps an exponent to the inflated candidate set.
    """
    best = None
    for m in range(1, config.max_m + 1):
        candidate = tilde_of_m(m)
        verdict = decide_equivalent(reference, candidate, s, config.compare,
                                    cache)
        if verdict.holds:
            return m, candidate, verdict
        if best is None or _slope_rank(verdict) > _slope_rank(best[2]):
            best = (m, candidate, verdict)
    raise SearchExhausted(
        f"no inflation exponent up to {config.max_m} kept "
        f"{reference.name!r} within order {s:g}", best=best)


def search_truncation_orders(reference: SemianalyticSet,
                             base: SemianalyticSet, s: float,
                             config: ApproxConfig,
                             cache: SliceCache | None = None):
    """First (h, k) whose truncation of ``base`` is accepted against
    ``reference``, scanning by growing maximum order."""
    tried: set = set()
    best = None
    for h, k in _diagonal_orders(config.max_h, config.max_k):
        candidate = truncate_full(base, h, k)
        parts = []
        dropped = 0
        for p in candidate.parts:
            cleaned, d = _drop_constant_ineqs(p)
            parts.append(cleaned)
            dropped += d
        candidate = replace(candidate, parts=tuple(parts))
        sig = candidate.signature()
        if sig in tried:
            continue
        tried.add(sig)
        verdict = decide_equivalent(reference, candidate, s, config.compare,
                                    cache)
        if verdict.holds:
            return h, k, candidate, verdict, dropped
        if best is None or _slope_rank(verdict) > _slope_rank(best[3]):
            best = (h, k, candidate, verdict, dropped)
    raise SearchExhausted(
        f"no truncation up to orders ({config.max_h}, {config.max_k}) "
        f"stayed within order {s:g} of {reference.name!r}", best=best)


# ---------------------------------------------------------------------------
# the pipeline


def _empty_like(s: SemianalyticSet, name: str) -> SemianalyticSet:
    return SemianalyticSet(name=name, nvars=s.nvars, omega=s.omega, parts=())


def _residual_set(part: BasicPresentation, proj_eqs, name: str,
                  omega: float) -> SemianalyticSet:
    """Where the approximation loses control on this part: the locus on the
    part where the reduced system drops rank, plus every tight-inequality
    boundary slice."""
    parts = []
    if proj_eqs:
        target = len(proj_eqs)
        minors = minor_determinants(proj_eqs, part.nvars, target)
        minors = [d for d in minors
                  if not (isinstance(d, ex.Const) and d.value == 0.0)]
        if minors:
            parts.append(BasicPresentation(
                nvars=part.nvars, eqs=part.eqs + tuple(minors),
                ineqs=part.ineqs, through_origin=False))
        else:
            # reduced system is singular everywhere on the part
            parts.append(BasicPresentation(
                nvars=part.nvars, eqs=part.eqs, ineqs=part.ineqs,
                through_origin=False))
    for j in range(len(part.ineqs)):
        parts.append(boundary_part(part, j))
    return SemianalyticSet(name=name, nvars=part.nvars, omega=omega,
                           parts=tuple(parts))


def _smallest_radii(config: ApproxConfig):
    radii = config.compare.schedule.radii()
    return sorted(radii)[:2]


def _dim_at(s: SemianalyticSet, r: float, config: ApproxConfig,
            cache: SliceCache | None) -> int:
    return numeric_dimension(
        s, r, npoints=config.compare.npoints, seed=config.compare.seed,
        cache=cache)


def _set_dimension(s: SemianalyticSet, config: ApproxConfig,
                   cache: SliceCache | None):
    """Dimension at the two smallest schedule radii, finest last."""
    small = _smallest_radii(config)
    dims = [_dim_at(s, r, config, cache) for r in small]
    return dims[0], dims


def _scan_vanishing_ineqs(s: SemianalyticSet, order: int):
    notes = []
    for i, part in enumerate(s.parts):
        for g in part.ineqs:
            if not ex.taylor(g, order, part.nvars).coeffs:
                notes.append(
                    f"inequality {ex.to_string(g, part.nvars)!r} of part {i} "
                    f"vanishes through order {order}; it may be identically "
                    "zero, making its sign condition vacuous")
    return notes


def approximate(a: SemianalyticSet, s: float,
                config: ApproxConfig | None = None,
                cache: SliceCache | None = None) -> ApproxResult:
    """Search a polynomial set germ that stays within order s of ``a``.

    Raises :class:`SearchExhausted` when some part's exponent or order
    search runs out of budget; the exception carries the best rejected
    candidate for inspection.
    """
    if not 0.0 < s < math.inf:
        raise ApproxError("the order s must be positive and finite")
    if config is None:
        config = ApproxConfig()
    if config.compare is None:
        config = replace(config, compare=CompareConfig.for_sets(a))
    caveats = list(_scan_vanishing_ineqs(a, config.max_k))
    input_dim, input_dims = _set_dimension(a, config, cache)
    if input_dims[0] != input_dims[-1]:
        caveats.append(
            f"dimension estimate unstable across radii: {input_dims}")

    if input_dim == 0:
        out = _empty_like(a, f"approx({a.name})")
        caveats.append("origin is isolated at the sampled resolution; "
                       "the approximant is the empty germ")
        verdict = Verdict(holds=True, s=s, method="limit-fit", estimate=None,
                          caveats=tuple(caveats))
        return ApproxResult(
            input_name=a.name, s=s, output=out, parts=(),
            final_verdict=verdict, success=True, input_dimension=0,
            output_dimension=0, caveats=tuple(caveats))

    r_fine = _smallest_radii(config)[0]
    part_results = []
    output_parts: list[BasicPresentation] = []
    for i, part in enumerate(a.parts):
        part_set = set_of(part, f"{a.name}[{i}]", a.omega)
        part_caveats: list[str] = []
        d_hat = _dim_at(part_set, r_fine, config, cache)
        if d_hat == 0:
            part_results.append(PartApproxResult(
                part_index=i, dimension=0, m=None, h=None, k=None,
                projection=None, m_verdict=None, candidate_verdict=None,
                residual=None,
                caveats=("part contributes no points near the origin at "
                         "the sampled resolution",)))
            continue

        p = len(part.eqs)
        target = part.nvars - d_hat
        proj_matrix = None
        if p == 0 or target == 0:
            proj_eqs: tuple = ()
            if target > 0 and p == 0:
                part_caveats.append(
                    "part has no equations but does not fill the space; "
                    "inequalities alone carry its shape")
        elif target == p:
            proj_eqs = part.eqs
        elif target < p:
            seed = child_seed(config.compare.seed, "proj", a.name, i)
            mixed, M = generic_projection(part.eqs, part.nvars, target,
                                          seed=seed)
            proj_eqs = tuple(mixed)
            proj_matrix = tuple(tuple(float(v) for v in row) for row in M)
        else:
            # more independent directions than equations: keep the system
            proj_eqs = part.eqs
            part_caveats.append(
                f"estimated codimension {target} exceeds the equation "
                f"count {p}; the system is kept unreduced")

        if proj_eqs and target >= 1:
            vf = set_of(BasicPresentation(
                nvars=part.nvars, eqs=proj_eqs, ineqs=(),
                through_origin=False), f"reduced({a.name}[{i}])", a.omega)
            d_vf = _dim_at(vf, r_fine, config, cache)
            if d_vf != d_hat:
                part_caveats.append(
                    f"reduced equation system has dimension {d_vf} at the "
                    f"finest radius, part has {d_hat}; the combination may "
                    "not be generic")

        # inflation exponent
        m = m_verdict = None
        tilde = part_set
        if part.eqs:
            def tilde_of(mm, _part=part, _proj=proj_eqs, _i=i):
                inflated = inflated_part(_part, _proj or _part.eqs, mm)
                return set_of(inflated, f"inflate({a.name}[{_i}],{mm})",
                              a.omega)

            m, tilde, m_verdict = search_inflation_exponent(
                part_set, tilde_of, s, config, cache)

        # truncation orders
        h, k, candidate, cand_verdict, dropped = search_truncation_orders(
            part_set, tilde, s, config, cache)
        if dropped:
            part_caveats.append(
                f"{dropped} inequality(ies) truncated to a constant at "
                f"order {k} "
                "and were dropped from the accepted candidate")
        output_parts.extend(candidate.parts)

        # residual recursion
        residual = None
        res_set = _residual_set(part, proj_eqs if part.eqs else (),
                                f"residual({a.name}[{i}])", a.omega)
        if res_set.parts:
            d_res = _dim_at(res_set, r_fine, config, cache)
            if d_res >= d_hat:
                part_caveats.append(
                    f"residual locus has dimension {d_res}, not below the "
                    f"part's {d_hat}; its recursion may not shrink the "
                    "problem")
            if d_res > 0:
                if config.depth > 0:
                    sub = replace(config, depth=config.depth - 1)
                    residual = approximate(res_set, s, sub, cache)
                    output_parts.extend(residual.output.parts)
                    for c in residual.caveats:
                        part_caveats.append(f"[residual] {c}")
                else:
                    rt = truncate_full(res_set, h, k)
                    cleaned = []
                    for rp in rt.parts:
                        cp, _ = _drop_constant_ineqs(rp)
                        cleaned.append(cp)
                    output_parts.extend(cleaned)
                    part_caveats.append(
                        "recursion budget exhausted; residual truncated at "
                        f"orders ({h}, {k}) without verification")

        part_results.append(PartApproxResult(
            part_index=i, dimension=d_hat, m=m, h=h, k=k,
            projection=proj_matrix, m_verdict=m_verdict,
            candidate_verdict=cand_verdict, residual=residual,
            caveats=tuple(part_caveats)))

    output = SemianalyticSet(name=f"approx({a.name})", nvars=a.nvars,
                             omega=a.omega, parts=tuple(output_parts))
    if not output.is_polynomial():
        raise ApproxError("internal: approximant is not polynomial")
    final = decide_equivalent(a, output, s, config.compare, cache)
    out_dim, out_dims = _set_dimension(output, config, cache)
    if out_dim != input_dim:
        caveats.append(
            f"approximant dimension {out_dim} differs from input "
            f"dimension {input_dim} at the finest radius")
    for pr in part_results:
        for c in pr.caveats:
            tagged = f"[part {pr.part_index}] {c}"
            if tagged not in caveats:
                caveats.append(tagged)
    success = final.holds
    return ApproxResult(
        input_name=a.name, s=s, output=output, parts=tuple(part_results),
        final_verdict=final, success=success, input_dimension=input_dim,
        output_dimension=out_dim, caveats=tuple(caveats))
