"""Deciding order-s closeness of two set germs at the origin.

The central quantity is the deviation of A from B on the sphere of radius r:
the largest distance from a sampled point of A's slice to B's slice. A is
within order s of B when that deviation, divided by r^s, tends to zero as r
shrinks. Two independent decision procedures are provided:

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
    DistanceSample,
    EmptySliceError,
    SliceCache,
    SliceCloud,
    _distance_sample,
    dist_to_set_batch,
    sample_slice,
)
from .sets import BasicPresentation, SemianalyticSet, union_sets


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
    empty there), so the deviation does not decay at all.
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


def _cloud(s: SemianalyticSet, r: float, config: CompareConfig,
           cache: SliceCache | None) -> SliceCloud | None:
    """The set's slice cloud at radius r, or None when the slice is empty."""
    try:
        return sample_slice(s, r, npoints=config.npoints, seed=config.seed,
                            cache=cache)
    except EmptySliceError:
        return None


def _dist(X: np.ndarray, s: SemianalyticSet, config: CompareConfig,
          cache: SliceCache | None) -> np.ndarray:
    """Distance from each row of X to the germ of s."""
    return dist_to_set_batch(X, s, npoints=config.npoints, seed=config.seed,
                             cache=cache)


def _fit_decay(samples, direction: str, pick) -> OrderEstimate:
    vals = [(s.r, pick(s), s.floor) for s in samples]
    blown = any(d == math.inf for _, d, _ in vals)
    below = sum(1 for _, d, fl in vals if d <= fl)
    included = [(r, d) for r, d, fl in vals
                if math.isfinite(d) and d > fl]
    if blown:
        return OrderEstimate(direction=direction, slope=-math.inf,
                             intercept=math.nan, r_squared=0.0,
                             vanishing=False, below_floor=below,
                             samples=tuple(samples))
    if below >= len(vals) - 1 or len(included) < 2:
        return OrderEstimate(direction=direction, slope=math.inf,
                             intercept=math.nan, r_squared=1.0,
                             vanishing=True, below_floor=below,
                             samples=tuple(samples))
    logr = np.log([r for r, _ in included])
    logd = np.log([d for _, d in included])
    slope, intercept = np.polyfit(logr, logd, 1)
    pred = slope * logr + intercept
    ss_res = float(np.sum((logd - pred) ** 2))
    ss_tot = float(np.sum((logd - logd.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OrderEstimate(direction=direction, slope=float(slope),
                         intercept=float(intercept), r_squared=r2,
                         vanishing=False, below_floor=below,
                         samples=tuple(samples))


def deviation_profile(a: SemianalyticSet, b: SemianalyticSet,
                      config: CompareConfig,
                      cache: SliceCache | None = None):
    """Raw deviation samples plus both directed decay fits.

    Returns (samples, estimate_ab, estimate_ba, caveats); the samples are
    ordered from the coarsest radius down, one per schedule entry. The
    caveats note empty slices and slices where fewer than half the starts
    converged, radius by radius, each distinct note once.
    """
    samples, notes = [], []
    for r in config.schedule.radii():
        clouds = [_cloud(s, r, config, cache) for s in (a, b)]
        pairs = list(zip((a, b), clouds))
        notes += [f"{s.name!r} has no points on the sphere r={r:g}"
                  for s, c in pairs if c is None]
        notes += [f"only {c.converged_fraction:.0%} of starts converged "
                  f"for {s.name!r} at r={r:g}"
                  for s, c in pairs
                  if c is not None and c.converged_fraction < 0.5]
        samples.append(_distance_sample(r, *clouds))
    est_ab = _fit_decay(samples, "A<=B", lambda d: d.delta_ab)
    est_ba = _fit_decay(samples, "B<=A", lambda d: d.delta_ba)
    return tuple(samples), est_ab, est_ba, tuple(dict.fromkeys(notes))


def estimate_order_directed(a: SemianalyticSet, b: SemianalyticSet,
                            config: CompareConfig,
                            cache: SliceCache | None = None) -> OrderEstimate:
    """Fit the decay order of A's deviation from B across the schedule."""
    return deviation_profile(a, b, config, cache)[1]


def _verdict_from_estimate(est: OrderEstimate, s: float,
                           config: CompareConfig, caveats) -> Verdict:
    caveats = list(caveats)
    if est.vanishing:
        return Verdict(holds=True, s=s, method="limit-fit", estimate=est,
                       caveats=tuple(caveats))
    if est.slope == -math.inf:
        caveats.append("deviation does not decay: the target germ had "
                       "no points at some sampled radius")
        return Verdict(holds=False, s=s, method="limit-fit", estimate=est,
                       caveats=tuple(caveats))
    if est.r_squared < R2_MIN:
        caveats.append(
            f"decay fit is poor (r^2={est.r_squared:.3f}); "
            "the deviation may not follow a power law")
    if est.slope >= s + config.margin:
        return Verdict(holds=True, s=s, method="limit-fit", estimate=est,
                       caveats=tuple(caveats))
    if est.slope <= s - config.margin:
        return Verdict(holds=False, s=s, method="limit-fit", estimate=est,
                       caveats=tuple(caveats))
    caveats.append(
        f"fitted order {est.slope:.3f} lies within the margin "
        f"{config.margin:g} of s={s:g}")
    return Verdict(holds=False, s=s, method="limit-fit", estimate=est,
                   caveats=tuple(caveats), inconclusive=True)


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

    def rank(e):
        return math.inf if e.vanishing else e.slope

    binding = est_ab if rank(est_ab) <= rank(est_ba) else est_ba
    if not v_ab.holds and not v_ab.inconclusive or \
            not v_ba.holds and not v_ba.inconclusive:
        holds, inconclusive = False, False
    elif v_ab.inconclusive or v_ba.inconclusive:
        holds, inconclusive = False, True
    else:
        holds, inconclusive = True, False
    return Verdict(holds=holds, s=s, method="limit-fit", estimate=binding,
                   caveats=tuple(merged), inconclusive=inconclusive,
                   estimate_reverse=est_ba if binding is est_ab else est_ab)


# ---------------------------------------------------------------------------
# horn criterion


def horn_criterion(a: SemianalyticSet, b: SemianalyticSet, s: float,
                   config: CompareConfig,
                   cache: SliceCache | None = None) -> Verdict:
    """Certify order-s closeness of A to B by horn containment.

    A stays within order s of B exactly when, for some sigma > s, every
    point of A near the origin lies within |x|^sigma of the germ of B. The
    check samples A on the radius schedule, measures each sample's distance
    to B as a germ (not just to B's slice), and scans sigma over s plus
    each of ``HORN_OFFSETS``. The verdict also carries a decay fit of the
    per-radius worst distances for cross-checking against the limit fit.
    """
    rows = []
    for r in config.schedule.radii():
        ca = _cloud(a, r, config, cache)
        if ca is None:
            continue
        d = _dist(ca.points, b, config, cache)
        floor = max(ca.spacing, 1e-9 * r)
        rows.append((r, float(np.max(d)) if len(d) else 0.0, floor))
    caveats = []
    if not rows:
        caveats.append(f"{a.name!r} has no points at any sampled radius; "
                       "containment holds vacuously")
        return Verdict(holds=True, s=s, method="horn-criterion",
                       estimate=None, caveats=tuple(caveats),
                       sigma=s + max(HORN_OFFSETS))

    sigma_found = None
    for off in sorted(HORN_OFFSETS, reverse=True):
        sigma = s + off
        ok = all(dmax <= floor or dmax < r ** sigma for r, dmax, floor in rows)
        if ok:
            sigma_found = sigma
            break

    samples = tuple(
        DistanceSample(r=r, delta_ab=dmax, delta_ba=math.nan, floor=floor)
        for r, dmax, floor in rows)
    est = _fit_decay(samples, "A<=B", lambda d: d.delta_ab)
    return Verdict(holds=sigma_found is not None, s=s,
                   method="horn-criterion", estimate=est,
                   caveats=tuple(caveats), sigma=sigma_found)


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
        if abs(ex.const_term(e)) > 1e-12:
            raise ComparisonError(
                f"{name} does not vanish at the origin "
                f"(value {ex.const_term(e):g})")
    f_floor, g_clear = 1e-13, 1e-6
    alpha = -math.inf
    witness = None
    witness_r = None
    used = 0
    caveats = []
    saw_points = False
    saw_nonzero_g = False
    violations = []
    for r in config.schedule.radii():
        cloud = _cloud(s_set, r, config, cache)
        if cloud is None:
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
    if not saw_points:
        caveats.append("the set had no sampleable points; exponent "
                       "defaults to 1")
        return ExponentEstimate(alpha=1.0, samples_used=0, witness=None,
                                witness_radius=None, caveats=tuple(caveats))
    if not saw_nonzero_g:
        caveats.append("g vanishes identically on the samples; the bound "
                       "holds vacuously at exponent 1")
        return ExponentEstimate(alpha=1.0, samples_used=0, witness=None,
                                witness_radius=None, caveats=tuple(caveats))
    if used == 0:
        caveats.append("no informative samples (f at noise level or |g| "
                       "not below 1); exponent defaults to 1")
        return ExponentEstimate(alpha=1.0, samples_used=0, witness=None,
                                witness_radius=None, caveats=tuple(caveats))
    return ExponentEstimate(alpha=alpha, samples_used=used, witness=witness,
                            witness_radius=witness_r, caveats=tuple(caveats))


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
    for r in config.schedule.radii():
        cloud = _cloud(x_set, r, config, cache)
        if cloud is None:
            continue
        pts = cloud.points
        d = _dist(pts, zero_locus, config, cache)
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
    if not established:
        failed = [f"{x.name!r} within order {s} of {y.name!r}"
                  for x, y, v in ((a, b, hyp_ab), (a2, b2, hyp_a2b2))
                  if not v.holds]
        return UnionPropertyReport(
            s=s, hypothesis_ab=hyp_ab, hypothesis_a2b2=hyp_a2b2,
            union=None, hypotheses_established=False, consistent=True,
            caveats=("hypotheses not established: "
                     + "; ".join(failed) + " did not hold",))
    au = union_sets(f"{a.name}|{a2.name}", a, a2)
    bu = union_sets(f"{b.name}|{b2.name}", b, b2)
    union = decide_le(au, bu, s, config, cache)
    return UnionPropertyReport(
        s=s, hypothesis_ab=hyp_ab, hypothesis_a2b2=hyp_a2b2, union=union,
        hypotheses_established=True, consistent=union.holds)
