"""Deciding order-s closeness of two set germs at the origin.

The central quantity is the deviation of A from B on the sphere of radius r:
the largest distance from a sampled point of A's slice to B. A is within
order s of B when that deviation, divided by r^s, tends to zero as r
shrinks. Where B's slice is a continuum the distance is to B's germ, which
by the horn lemma decays at the same order as the distance to B's slice;
where it is isolated points, to B's sampled slice. Two decision procedures
are provided:

* a limit fit: sample the deviation on a geometric radius schedule and fit
  its log-log slope, comparing against s with a symmetric margin;
* a horn criterion: look for an exponent sigma > s such that every sampled
  point of A lies within |x|^sigma of the germ of B.

Both report through the same :class:`Verdict` shape. On top of these sit an
empirical exponent estimator for pairs of functions that vanish together, a
sign-agreement check for Taylor truncations away from a zero horn, and a
consistency check that closeness survives unions with a common third set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr
from .geometry import (
    _NEAREST_ACCEPT,
    DistanceSample,
    SliceCache,
    SliceCloud,
    _deviation,
    _max_dists,
    dist_to_set_batch,
    sample_slices,
)
from .sets import _ORIGIN_TOL, BasicPresentation, SemianalyticSet, union_sets


class ComparisonError(ValueError):
    pass


class ExponentPreconditionError(ComparisonError):
    """The sampled data contradicts the premises of an exponent estimate."""

    def __init__(self, message: str, witnesses):
        super().__init__(message)
        self.witnesses = witnesses


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RadiiSchedule:
    """A geometric ladder of sphere radii: r0, r0*ratio, ..., count terms."""

    r0: float
    ratio: float = 0.5
    count: int = 8

    def __post_init__(self):
        if not (0.0 < self.r0 and math.isfinite(self.r0)):
            raise ComparisonError("r0 must be a positive finite radius")
        if not 0.0 < self.ratio < 1.0:
            raise ComparisonError("ratio must lie strictly between 0 and 1")
        if self.count < 2:
            raise ComparisonError("a schedule needs at least two radii")

    def radii(self) -> list[float]:
        return [self.r0 * self.ratio ** i for i in range(self.count)]

    @classmethod
    def parse(cls, text: str) -> "RadiiSchedule":
        parts = text.split(":")
        if len(parts) != 3:
            raise ComparisonError(
                f"bad radii spec {text!r}, expected r0:ratio:count")
        try:
            r0, ratio, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ComparisonError(
                f"bad radii spec {text!r}, expected r0:ratio:count") from None
        return cls(r0=r0, ratio=ratio, count=count)

    @classmethod
    def default_for(cls, omega: float) -> "RadiiSchedule":
        return cls(r0=omega / 2.0)


# a decay fit with r^2 below this gets a "poor fit" caveat
R2_MIN = 0.9
# the horn criterion tries sigma = s + offset, largest offset first
HORN_OFFSETS = (0.1, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class CompareConfig:
    schedule: RadiiSchedule
    npoints: int = 256
    seed: int = 0
    margin: float = 0.15

    def __post_init__(self):
        if self.npoints < 8:
            raise ComparisonError("npoints must be at least 8")
        if self.seed < 0:
            raise ComparisonError("seed must be nonnegative")
        if not 0.0 < self.margin < math.inf:
            raise ComparisonError("margin must be positive and finite")

    @classmethod
    def for_sets(cls, *sets: SemianalyticSet, **kw) -> "CompareConfig":
        omega = min(s.omega for s in sets)
        return cls(schedule=RadiiSchedule.default_for(omega), **kw)


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class OrderEstimate:
    """A fitted decay order for one deviation direction.

    ``slope`` is +inf when the deviation sits at or below the sampling floor
    almost everywhere (it decays faster than any power resolvable here) and
    -inf when some radius had points with nowhere to go (the other germ was
    empty there), so the deviation does not decay at all. ``vanishing`` is
    exactly ``slope == +inf``, so code ranks estimates by ``slope`` alone.
    """

    direction: str
    slope: float
    intercept: float
    r_squared: float
    vanishing: bool
    below_floor: int
    samples: tuple[DistanceSample, ...]


@dataclass(frozen=True)
class Verdict:
    """The answer to "is A within order s of B?" by one method.

    ``holds`` is True only when the method established closeness;
    ``inconclusive`` marks a "no" that the method could not tell from a
    "yes" (a limit fit within the margin of s), and is never True with
    ``holds``. ``estimate`` is the fitted decay behind the answer, or None
    when there was nothing to fit; for a symmetric comparison it is the
    direction with the smaller fitted order, and the other direction is in
    ``estimate_reverse``. ``sigma`` is the horn exponent that certified
    containment, or None.
    """

    holds: bool
    s: float
    method: str
    estimate: OrderEstimate | None
    caveats: tuple[str, ...] = ()
    inconclusive: bool = False
    sigma: float | None = None
    estimate_reverse: OrderEstimate | None = None


# ---------------------------------------------------------------------------
# shared sampling


def _same_nvars(a: SemianalyticSet, b: SemianalyticSet):
    if a.nvars != b.nvars:
        raise ComparisonError(
            f"cannot compare {a.name!r} in {a.nvars} variables with "
            f"{b.name!r} in {b.nvars}")


def _clouds(s: SemianalyticSet, config: CompareConfig,
            cache: SliceCache | None) -> list[SliceCloud]:
    """The set's slice cloud at each radius of the schedule, in order."""
    return sample_slices(s, config.schedule.radii(), npoints=config.npoints,
                         seed=config.seed, cache=cache)


def _fit_decay(samples, direction: str) -> OrderEstimate:
    """The log-log fit of the direction's deviations ("A<=B" reads
    ``delta_ab``, "B<=A" ``delta_ba``) above that direction's floors."""
    vals = [(s.r, s.delta_ab, s.floor_ab) if direction == "A<=B"
            else (s.r, s.delta_ba, s.floor_ba) for s in samples]
    below = sum(1 for _, d, fl in vals if d <= fl)
    included = [(r, d) for r, d, fl in vals
                if math.isfinite(d) and d > fl]
    if any(d == math.inf for _, d, _ in vals):
        slope, intercept, r2 = -math.inf, math.nan, 0.0
    elif below >= len(vals) - 1 or len(included) < 2:
        slope, intercept, r2 = math.inf, math.nan, 1.0
    else:
        logr = np.log([r for r, _ in included])
        logd = np.log([d for _, d in included])
        slope, intercept = map(float, np.polyfit(logr, logd, 1))
        pred = slope * logr + intercept
        ss_res = float(np.sum((logd - pred) ** 2))
        ss_tot = float(np.sum((logd - logd.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OrderEstimate(direction=direction, slope=slope,
                         intercept=intercept, r_squared=r2,
                         vanishing=slope == math.inf, below_floor=below,
                         samples=tuple(samples))


def _deviations(sources, targets, b: SemianalyticSet, config: CompareConfig,
                cache: SliceCache | None):
    """Each radius's deviation of the source clouds from the set b, whose
    clouds are ``targets``, and its floor (see :class:`DistanceSample`).

    Where the source cloud has points and b's cloud is a continuum
    (:attr:`~germapprox.geometry.SliceCloud.continuum`, its spacing above
    the noise guard, which the cloud reads from its sample counts where
    they decide it, without a neighbour query), the deviation is the
    solver's largest distance to b's germ (``geometry._max_dists``, the
    horn criterion's kernel and cache entry), with the solver's floor
    ``_NEAREST_ACCEPT * r``: by the horn lemma it decays at the order of
    the slices' Hausdorff distance, and the cloud's spacing does not bound
    it. Elsewhere b's slice is isolated points, which its cloud holds to
    solver accuracy, or nothing, and the deviation is the distance to b's
    cloud, with the larger spacing as floor."""
    solve = [len(ca) > 0 and cb.continuum for ca, cb in zip(sources, targets)]
    dmaxes = iter(_max_dists([ca for ca, f in zip(sources, solve) if f], b,
                             config.npoints, config.seed, cache))
    return [(next(dmaxes), _NEAREST_ACCEPT * ca.r) if f
            else (_deviation(ca, cb, cache), max(ca.spacing, cb.spacing))
            for ca, cb, f in zip(sources, targets, solve)]


def deviation_profile(a: SemianalyticSet, b: SemianalyticSet,
                      config: CompareConfig,
                      cache: SliceCache | None = None):
    """Raw deviation samples plus both directed decay fits.

    Returns (samples, estimate_ab, estimate_ba, caveats); the samples are
    ordered from the coarsest radius down, one per schedule entry. The
    caveats note empty slices and slices where fewer than half the starts
    converged, radius by radius, each distinct note once. A and B must have
    the same number of variables.
    """
    _same_nvars(a, b)
    clouds_a, clouds_b = _clouds(a, config, cache), _clouds(b, config, cache)
    notes = []
    for r, *clouds in zip(config.schedule.radii(), clouds_a, clouds_b):
        pairs = list(zip((a, b), clouds))
        notes += [f"{s.name!r} has no points on the sphere r={r:g}"
                  for s, c in pairs if not len(c)]
        notes += [f"only {c.converged_fraction:.0%} of starts converged "
                  f"for {s.name!r} at r={r:g}"
                  for s, c in pairs if len(c) and c.converged_fraction < 0.5]
    samples = tuple(
        DistanceSample(r=r, delta_ab=ab, delta_ba=ba, floor_ab=fab,
                       floor_ba=fba)
        for r, (ab, fab), (ba, fba) in zip(
            config.schedule.radii(),
            _deviations(clouds_a, clouds_b, b, config, cache),
            _deviations(clouds_b, clouds_a, a, config, cache)))
    return (samples, _fit_decay(samples, "A<=B"),
            _fit_decay(samples, "B<=A"), tuple(dict.fromkeys(notes)))


def _verdict_from_estimate(est: OrderEstimate, s: float,
                           config: CompareConfig, caveats) -> Verdict:
    caveats = list(caveats)
    margin = config.margin
    if est.slope == -math.inf:
        caveats.append("deviation does not decay: the target germ had "
                       "no points at some sampled radius")
    elif est.r_squared < R2_MIN:
        caveats.append(
            f"decay fit is poor (r^2={est.r_squared:.3f}); "
            "the deviation may not follow a power law")
    inconclusive = s - margin < est.slope < s + margin
    if inconclusive:
        caveats.append(
            f"fitted order {est.slope:.3f} lies within the margin "
            f"{margin:g} of s={s:g}")
    return Verdict(holds=est.slope >= s + margin, s=s, method="limit-fit",
                   estimate=est, caveats=tuple(caveats),
                   inconclusive=inconclusive)


def decide_le(a: SemianalyticSet, b: SemianalyticSet, s: float,
              config: CompareConfig,
              cache: SliceCache | None = None) -> Verdict:
    """Does A stay within order s of B (deviation of A from B decays
    faster than r^s)?"""
    _, est, _, caveats = deviation_profile(a, b, config, cache)
    return _verdict_from_estimate(est, s, config, caveats)


def decide_equivalent(a: SemianalyticSet, b: SemianalyticSet, s: float,
                      config: CompareConfig,
                      cache: SliceCache | None = None) -> Verdict:
    """Symmetric order-s closeness: both directed deviations must decay."""
    _, est_ab, est_ba, caveats = deviation_profile(a, b, config, cache)
    v_ab = _verdict_from_estimate(est_ab, s, config, ())
    v_ba = _verdict_from_estimate(est_ba, s, config, ())
    merged = list(caveats)
    for v in (v_ab, v_ba):
        for c in v.caveats:
            tagged = f"[{v.estimate.direction}] {c}"
            if tagged not in merged:
                merged.append(tagged)

    # the smaller fitted order binds; a tie goes to A<=B
    binding, reverse = ((est_ab, est_ba) if est_ab.slope <= est_ba.slope
                        else (est_ba, est_ab))
    failed = any(not v.holds and not v.inconclusive for v in (v_ab, v_ba))
    return Verdict(holds=v_ab.holds and v_ba.holds, s=s, method="limit-fit",
                   estimate=binding, caveats=tuple(merged),
                   inconclusive=not failed and (v_ab.inconclusive
                                                or v_ba.inconclusive),
                   estimate_reverse=reverse)


# ---------------------------------------------------------------------------
# horn criterion


def horn_criterion(a: SemianalyticSet, b: SemianalyticSet, s: float,
                   config: CompareConfig,
                   cache: SliceCache | None = None) -> Verdict:
    """Certify order-s closeness of A to B by horn containment.

    A stays within order s of B exactly when, for some sigma > s, every
    point of A near the origin lies within |x|^sigma of the germ of B. The
    check samples A on the radius schedule, measures the largest distance
    from a sample to B as a germ (not just to B's slice), and scans sigma
    over s plus each of ``HORN_OFFSETS``. The verdict also carries a decay
    fit of the per-radius worst distances for cross-checking against the
    limit fit.

    Only that largest distance counts. Each sample's distance to B is first
    bounded without the solver or a neighbour query: 0 for a point of B's
    cloud, else by B's origin and the point a few Gauss-Newton steps from
    the sample land on B (by its distance to B's cloud where it does not
    land). The solver then runs on each radius's samples by falling bound,
    in growing chunks, until no bound left exceeds the largest distance
    found; it only lowers a distance, so the samples it skips cannot hold
    the maximum (see ``geometry._max_dists``). All radii go in one batch.
    Each sample measures against B's cloud at its slice's schedule radius,
    the cloud the limit fit measured it against, and only a chunk's
    samples are queried in that cloud's k-d tree, for their distance to it
    and their nearest points there. The cache holds each radius's maximum:
    where B's slice is a continuum, :func:`deviation_profile` on the same
    cache has computed it already. Where the slice's median norm is that
    radius, each maximum is the one :func:`dist_to_set_batch` on the slice
    gives, bit for bit.
    """
    _same_nvars(a, b)
    clouds = _clouds(a, config, cache)
    dmaxes = _max_dists(clouds, b, config.npoints, config.seed, cache)
    # each dmax is a solver distance to B's germ, so A's cloud spacing is
    # not its resolution
    rows = [(r, dmax, _NEAREST_ACCEPT * r) for r, ca, dmax in zip(
        config.schedule.radii(), clouds, dmaxes) if len(ca)]
    # with no sample of A every sigma passes, so the largest is found
    sigma_found = None
    for off in sorted(HORN_OFFSETS, reverse=True):
        sigma = s + off
        ok = all(dmax <= floor or dmax < r ** sigma for r, dmax, floor in rows)
        if ok:
            sigma_found = sigma
            break

    samples = tuple(
        DistanceSample(r=r, delta_ab=dmax, delta_ba=math.nan, floor_ab=floor,
                       floor_ba=math.nan)
        for r, dmax, floor in rows)
    est = _fit_decay(samples, "A<=B") if rows else None
    caveats = () if rows else (
        f"{a.name!r} has no points at any sampled radius; "
        "containment holds vacuously",)
    return Verdict(holds=sigma_found is not None, s=s,
                   method="horn-criterion", estimate=est,
                   caveats=caveats, sigma=sigma_found)


# ---------------------------------------------------------------------------
# empirical exponent for |f| against |g|


@dataclass(frozen=True)
class ExponentEstimate:
    """Largest sampled log|f| / log|g| ratio: the smallest alpha for which
    |f| >= |g|^alpha held on every informative sample."""

    alpha: float
    samples_used: int
    witness: tuple[float, ...] | None
    witness_radius: float | None
    caveats: tuple[str, ...] = ()


def estimate_exponent(s_set: SemianalyticSet, f: Expr | str, g: Expr | str,
                      config: CompareConfig,
                      cache: SliceCache | None = None) -> ExponentEstimate:
    """Empirical comparison exponent of f against g on a set's samples.

    Both functions must vanish at the origin. Samples where f is at noise
    level while g is clearly not are hard violations of |f| >= |g|^alpha
    for every alpha and raise, listing witnesses. Strings are parsed with
    the set's variable count.
    """
    if isinstance(f, str):
        f = ex.parse(f, s_set.nvars)
    if isinstance(g, str):
        g = ex.parse(g, s_set.nvars)
    for name, e in (("f", f), ("g", g)):
        if ex.max_index(e) >= s_set.nvars:
            raise ComparisonError(
                f"{name} uses more variables than the set has")
        if abs(ex.const_term(e)) > _ORIGIN_TOL:
            raise ComparisonError(
                f"{name} does not vanish at the origin "
                f"(value {ex.const_term(e):g})")
    f_floor, g_clear = 1e-13, 1e-6
    alpha = -math.inf
    witness = None
    witness_r = None
    used = 0
    saw_points = False
    saw_nonzero_g = False
    violations = []
    for r, cloud in zip(config.schedule.radii(),
                        _clouds(s_set, config, cache)):
        if not len(cloud):
            continue
        saw_points = True
        fv = np.abs(ex.eval_many(f, cloud.points))
        gv = np.abs(ex.eval_many(g, cloud.points))
        bad = (fv <= f_floor) & (gv > g_clear)
        for i in np.flatnonzero(bad)[:3]:
            violations.append((r, tuple(float(c) for c in cloud.points[i])))
        saw_nonzero_g |= bool(np.any(gv > 0.0))
        mask = (fv > f_floor) & (gv > 0.0) & (gv < 1.0)
        if not mask.any():
            continue
        ratios = np.log(fv[mask]) / np.log(gv[mask])
        j = int(np.argmax(ratios))
        if ratios[j] > alpha:
            alpha = float(ratios[j])
            witness = tuple(float(c) for c in cloud.points[mask][j])
            witness_r = r
        used += int(mask.sum())
    if violations:
        locs = ", ".join(f"r={r:g} x={list(p)}" for r, p in violations[:3])
        raise ExponentPreconditionError(
            f"f vanishes where g does not ({locs}); no exponent bounds "
            "|g| by |f|", violations)
    # with no informative sample, used is 0 and there is no witness
    if not saw_points:
        caveats = ("the set had no sampleable points; exponent "
                   "defaults to 1",)
    elif not saw_nonzero_g:
        caveats = ("g vanishes identically on the samples; the bound "
                   "holds vacuously at exponent 1",)
    elif used == 0:
        caveats = ("no informative samples (f at noise level or |g| "
                   "not below 1); exponent defaults to 1",)
    else:
        caveats = ()
    return ExponentEstimate(alpha=1.0 if caveats else alpha,
                            samples_used=used, witness=witness,
                            witness_radius=witness_r, caveats=caveats)


# ---------------------------------------------------------------------------
# sign agreement of truncations


@dataclass(frozen=True)
class SignAgreementReport:
    """Where Taylor truncations of a function keep its sign on a set,
    outside a horn around the function's zero locus."""

    theta: float
    ks: tuple[int, ...]
    tested: int
    excluded: int
    disagreements: tuple[int, ...]
    smallest_clean_k: int | None

    def disagreement_for(self, k: int) -> int:
        return self.disagreements[self.ks.index(k)]


def sign_agreement_check(x_set: SemianalyticSet, phi: Expr | str, ks,
                         theta: float, config: CompareConfig,
                         cache: SliceCache | None = None
                         ) -> SignAgreementReport:
    if isinstance(phi, str):
        phi = ex.parse(phi, x_set.nvars)
    ks = tuple(sorted(set(int(k) for k in ks)))
    if not ks or ks[0] < 0:
        raise ComparisonError("truncation orders must be nonnegative")
    if ex.max_index(phi) >= x_set.nvars:
        raise ComparisonError("phi uses more variables than the set has")
    if not math.isfinite(theta):
        raise ComparisonError("theta must be finite")
    zero_parts = tuple(
        BasicPresentation(nvars=p.nvars, eqs=p.eqs + (phi,), ineqs=p.ineqs,
                          through_origin=False)
        for p in x_set.parts)
    zero_locus = SemianalyticSet(
        name=f"zeros-on-{x_set.name}", nvars=x_set.nvars,
        omega=x_set.omega, parts=zero_parts)
    truncs = [ex.poly_to_expr(ex.taylor(phi, k, x_set.nvars)) for k in ks]

    tested = 0
    excluded = 0
    counts = np.zeros(len(ks), dtype=int)
    for r, cloud in zip(config.schedule.radii(),
                        _clouds(x_set, config, cache)):
        if not len(cloud):
            continue
        pts = cloud.points
        d = dist_to_set_batch(pts, zero_locus, npoints=config.npoints,
                              seed=config.seed, cache=cache)
        keep = d >= r ** theta
        excluded += int((~keep).sum())
        pts = pts[keep]
        if len(pts) == 0:
            continue
        tested += len(pts)
        ref_sign = np.sign(ex.eval_many(phi, pts))
        for j, tk in enumerate(truncs):
            counts[j] += int(np.sum(np.sign(ex.eval_many(tk, pts))
                                    != ref_sign))
    clean = [k for k, c in zip(ks, counts) if c == 0]
    return SignAgreementReport(
        theta=theta, ks=ks, tested=tested, excluded=excluded,
        disagreements=tuple(int(c) for c in counts),
        smallest_clean_k=min(clean) if clean else None)


# ---------------------------------------------------------------------------
# stability under unions


@dataclass(frozen=True)
class UnionPropertyReport:
    """Checks that order-s closeness survives taking unions.

    When A stays within order s of B and A2 within order s of B2, the
    union A|A2 must stay within order s of B|B2. ``union`` is None when a
    hypothesis failed: with nothing established there is nothing for the
    union to inherit, and ``consistent`` is vacuously True.
    """

    s: float
    hypothesis_ab: Verdict
    hypothesis_a2b2: Verdict
    union: Verdict | None
    hypotheses_established: bool
    consistent: bool
    caveats: tuple[str, ...] = ()


def union_property_check(a: SemianalyticSet, a2: SemianalyticSet,
                         b: SemianalyticSet, b2: SemianalyticSet,
                         s: float, config: CompareConfig,
                         cache: SliceCache | None = None
                         ) -> UnionPropertyReport:
    hyp_ab = decide_le(a, b, s, config, cache)
    hyp_a2b2 = decide_le(a2, b2, s, config, cache)
    established = hyp_ab.holds and hyp_a2b2.holds
    union, caveats = None, ()
    if established:
        au = union_sets(f"{a.name}|{a2.name}", a, a2)
        bu = union_sets(f"{b.name}|{b2.name}", b, b2)
        union = decide_le(au, bu, s, config, cache)
    else:
        failed = [f"{x.name!r} within order {s} of {y.name!r}"
                  for x, y, v in ((a, b, hyp_ab), (a2, b2, hyp_a2b2))
                  if not v.holds]
        caveats = ("hypotheses not established: "
                   + "; ".join(failed) + " did not hold",)
    return UnionPropertyReport(
        s=s, hypothesis_ab=hyp_ab, hypothesis_a2b2=hyp_a2b2, union=union,
        hypotheses_established=established,
        consistent=union is None or union.holds, caveats=caveats)
