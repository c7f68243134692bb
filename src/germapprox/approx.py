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
from .geometry import numeric_dimension, sample_slices
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
    """No candidate within the configured order budget was accepted.

    ``best`` is the search's rejected entry with the largest fitted slope,
    ``(m, candidate, verdict)`` or ``(h, k, candidate, verdict, dropped)``;
    ``candidate`` and ``verdict`` read that entry's set and its verdict.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best

    # both entries hold the candidate and its verdict just before index 4
    @property
    def candidate(self):
        return self.best[:4][-2]

    @property
    def verdict(self):
        return self.best[:4][-1]


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
        for k in range(1, min(level, max_k) + 1):
            for h in range(1, min(level, max_h) + 1):
                if max(h, k) == level:
                    yield h, k


def _truncate(s: SemianalyticSet, h: int, k: int):
    """``truncate_full(s, h, k)`` less the inequalities that truncated to a
    nonnegative constant, and how many of them went.

    A zero constant has lost all sign information and a positive constant
    holds everywhere near the origin; neither constrains the germ. Negative
    constants are kept so an emptied part stays visibly empty.
    """
    truncated = truncate_full(s, h, k)
    parts, dropped = [], 0
    for p in truncated.parts:
        kept = tuple(g for g in p.ineqs
                     if not (isinstance(g, ex.Const) and g.value >= 0.0))
        if len(kept) < len(p.ineqs):
            dropped += len(p.ineqs) - len(kept)
            p = replace(p, ineqs=kept)
        parts.append(p)
    return replace(truncated, parts=tuple(parts)), dropped


def _first_within(reference: SemianalyticSet, tries, s: float,
                  config: ApproxConfig, cache: SliceCache | None,
                  failure: str):
    """Decide each ``(*labels, candidate, *extras)`` of ``tries`` against the
    reference, in order, and return the first that holds as
    ``(*labels, candidate, verdict, *extras)``.

    Raises :class:`SearchExhausted` with ``failure`` when none holds; its
    ``best`` is the rejected entry with the largest fitted slope, the first
    of equal ones.
    """
    best = None
    for labels, candidate, extras in tries:
        verdict = decide_equivalent(reference, candidate, s, config.compare,
                                    cache)
        entry = (*labels, candidate, verdict, *extras)
        if verdict.holds:
            return entry
        if best is None or verdict.estimate.slope > best_slope:
            best, best_slope = entry, verdict.estimate.slope
    raise SearchExhausted(failure, best=best)


def search_inflation_exponent(reference: SemianalyticSet,
                              tilde_of_m, s: float, config: ApproxConfig,
                              cache: SliceCache | None = None):
    """Smallest m whose inflated germ stays within order s of the reference.

    ``tilde_of_m`` maps an exponent to the inflated candidate set.
    """
    tries = (((m,), tilde_of_m(m), ()) for m in range(1, config.max_m + 1))
    return _first_within(
        reference, tries, s, config, cache,
        f"no inflation exponent up to {config.max_m} kept "
        f"{reference.name!r} within order {s:g}")


def search_truncation_orders(reference: SemianalyticSet,
                             base: SemianalyticSet, s: float,
                             config: ApproxConfig,
                             cache: SliceCache | None = None):
    """First (h, k) whose truncation of ``base`` is accepted against
    ``reference``, scanning by growing maximum order. A truncation equal
    to one already tried is not decided again."""
    def tries():
        tried = set()
        for h, k in _diagonal_orders(config.max_h, config.max_k):
            candidate, dropped = _truncate(base, h, k)
            sig = candidate.signature()
            if sig not in tried:
                tried.add(sig)
                yield (h, k), candidate, (dropped,)

    return _first_within(
        reference, tries(), s, config, cache,
        f"no truncation up to orders ({config.max_h}, {config.max_k}) "
        f"stayed within order {s:g} of {reference.name!r}")


# ---------------------------------------------------------------------------
# the pipeline


def _residual_set(part: BasicPresentation, proj_eqs, name: str,
                  omega: float) -> SemianalyticSet:
    """Where the approximation loses control on this part: the locus on the
    part where the reduced system drops rank, plus every tight-inequality
    boundary slice."""
    parts = []
    if proj_eqs:
        minors = minor_determinants(proj_eqs, part.nvars, len(proj_eqs))
        minors = tuple(d for d in minors
                       if not (isinstance(d, ex.Const) and d.value == 0.0))
        # with every minor identically zero the reduced system is singular
        # everywhere on the part, and the residual is the part itself
        parts.append(BasicPresentation(
            nvars=part.nvars, eqs=part.eqs + minors, ineqs=part.ineqs,
            through_origin=False))
    for j in range(len(part.ineqs)):
        parts.append(boundary_part(part, j))
    return SemianalyticSet(name=name, nvars=part.nvars, omega=omega,
                           parts=tuple(parts))


def _dim_at(s: SemianalyticSet, r: float, config: ApproxConfig,
            cache: SliceCache | None) -> int:
    return numeric_dimension(
        s, r, npoints=config.compare.npoints, seed=config.compare.seed,
        cache=cache)


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
    # the two finest radii in one call, so each stratum is projected once
    # for the pair; the first comparison samples the rest of the schedule
    r_fine, r_next = sorted(config.compare.schedule.radii())[:2]
    sample_slices(a, (r_fine, r_next), npoints=config.compare.npoints,
                  seed=config.compare.seed, cache=cache)
    input_dim = _dim_at(a, r_fine, config, cache)
    next_dim = _dim_at(a, r_next, config, cache)
    if input_dim != next_dim:
        caveats.append(
            "dimension estimate unstable across radii: "
            f"{[input_dim, next_dim]}")

    if input_dim == 0:
        out = SemianalyticSet(name=f"approx({a.name})", nvars=a.nvars,
                              omega=a.omega, parts=())
        caveats.append("origin is isolated at the sampled resolution; "
                       "the approximant is the empty germ")
        verdict = Verdict(holds=True, s=s, method="limit-fit", estimate=None,
                          caveats=tuple(caveats))
        return ApproxResult(
            input_name=a.name, s=s, output=out, parts=(),
            final_verdict=verdict, success=True, input_dimension=0,
            output_dimension=0, caveats=tuple(caveats))

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
        res_set = _residual_set(part, proj_eqs, f"residual({a.name}[{i}])",
                                a.omega)
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
                    output_parts.extend(_truncate(res_set, h, k)[0].parts)
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
    out_dim = _dim_at(output, r_fine, config, cache)
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
