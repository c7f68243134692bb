"""Numeric geometry of set germs on shrinking spheres.

Everything downstream rests on one primitive: sampling the intersection of a
set with the sphere of radius r as a point cloud. Clouds are produced by a
batched Gauss-Newton projection constrained to the sphere, started from a
low-discrepancy family of directions, one run per boundary stratum of each
part. From clouds come directed deviations between two sets' slices,
distances from points to a germ, tangent direction clouds, and a numeric
dimension estimate.

All sampling is deterministic given (set, radius, npoints, seed), and each
stratum's projection given (its system, radius, npoints, seed); a
thread-safe cache keyed on exactly those values makes repeated comparisons
against the same set, and sets that share strata, cheap and bit-stable.
"""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from . import expr as ex
from .sets import BasicPresentation, SemianalyticSet, membership_mask

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# a Gauss-Newton step shorter than this times r counts as converged;
# acceptance is looser than the iteration target so near-converged points
# that ran out of budget still qualify
_STEP_TARGET = 1e-15
_STEP_ACCEPT = 1e-12
_SPACING_GUARD = 1e-15
# Jacobian directions this far below the dominant sensitivity are treated
# as degenerate (redundant equations whose rounding noise would otherwise
# be amplified into a limit cycle), not as stiff constraints. The cut-off
# acts in the SVD fallback of `_pinv`; its closed forms serve only rows it
# cannot touch: a one-equation row (whose one singular value is cut only
# when it is 0) and a two-row one with sigma2/sigma1 >= _PINV_CLOSED_GUARD
_PINV_RCOND = 1e-9
# a two-row Jacobian (rows a, b; w the part of b orthogonal to a) is inverted
# by Gram-Schmidt when |a| |w| = sigma1 sigma2 >= this times |J|_F^2, which
# implies sigma2/sigma1 >= this, far above _PINV_RCOND; other rows: the SVD
_PINV_CLOSED_GUARD = 1e-6
# Gauss-Newton iteration budgets: sphere projection, nearest-point search
_PROJECT_ITERS = 50
_NEAREST_ITERS = 40
# step fractions the sphere projection's line search tries, in order and in
# two batches: the full step and its first halving for every row, then the
# other 24 halvings for the rows neither of those improved
_LINE_SEARCH = (0.5 ** np.arange(2), 0.5 ** np.arange(2, 26))
# inequality combinations promoted to equations as boundary strata: one at
# a time for slices, up to two for distances to a germ
SLICE_DEPTH = 1
_DIST_DEPTH = 2


class GeometryError(ValueError):
    pass


class EmptySliceError(GeometryError):
    """No sample of the set survived on the sphere of radius r."""

    def __init__(self, set_name: str, r: float, converged_fraction: float,
                 attempts: int):
        super().__init__(
            f"no points of {set_name!r} found on the sphere of radius {r:g} "
            f"({attempts} starts, converged fraction "
            f"{converged_fraction:.3f})")
        self.set_name = set_name
        self.r = r
        self.converged_fraction = converged_fraction
        self.attempts = attempts


@dataclass(frozen=True)
class SliceCloud:
    """Deduplicated samples of a set on the sphere of radius r.

    ``spacing`` is the resolution of the deduplicated points (see
    :func:`_cloud_resolution`), floored at an absolute machine-noise guard;
    distances measured against this cloud carry no information below it.
    ``converged_fraction`` covers the primary strata only (the parts' own
    equations, before inequality filtering).
    """

    set_name: str
    r: float
    points: np.ndarray
    seed: int
    converged_fraction: float
    spacing: float

    def __len__(self):
        return len(self.points)

    def directions(self) -> np.ndarray:
        return self.points / self.r


@dataclass(frozen=True)
class DistanceSample:
    """Directed deviations between two slice clouds at one radius.

    ``delta_ab`` is the deviation of A from B: the largest distance from a
    point sampled on A to the cloud sampled on B. ``floor`` is the larger of
    the two sampling resolutions; deviations at or below it are noise.
    """

    r: float
    delta_ab: float
    delta_ba: float
    floor: float

    @property
    def d_full(self) -> float:
        return max(self.delta_ab, self.delta_ba)


class SliceCache:
    """Thread-safe memo of sampled slices, including empty outcomes, and of
    the accepted points of each stratum's sphere projection, so sets that
    share a stratum project it once."""

    def __init__(self):
        self._lock = threading.Lock()
        self._store: dict = {}

    def lookup(self, key):
        with self._lock:
            return self._store.get(key)

    def store(self, key, value):
        with self._lock:
            self._store[key] = value

    def clear(self):
        with self._lock:
            self._store.clear()


_DEFAULT_CACHE = SliceCache()


def default_cache() -> SliceCache:
    return _DEFAULT_CACHE


# ---------------------------------------------------------------------------
# direction families


def _direction_count(nvars: int, npoints: int) -> int:
    """How many directions :func:`sphere_directions` returns."""
    if npoints < 1:
        raise GeometryError("need at least one direction")
    return 2 if nvars == 1 else npoints


def sphere_directions(nvars: int, npoints: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy unit directions, deterministic in (nvars, npoints, seed)."""
    _direction_count(nvars, npoints)
    rng = np.random.default_rng(seed)
    if nvars == 1:
        return np.array([[1.0], [-1.0]])
    if nvars == 2:
        offset = rng.random() * 2.0 * math.pi
        theta = offset + 2.0 * math.pi * _GOLDEN * np.arange(npoints)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if nvars == 3:
        i = np.arange(npoints)
        z = 1.0 - 2.0 * (i + 0.5) / npoints
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        theta = 2.0 * math.pi * _GOLDEN * i
        pts = np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
        # a seeded rotation decorrelates the lattice from coordinate axes
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        return pts @ q.T
    raw = rng.standard_normal((npoints, nvars))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return raw / norms


# ---------------------------------------------------------------------------
# batched Gauss-Newton on the sphere


def _system_residual(eqs, X: np.ndarray) -> np.ndarray:
    vals = ex.eval_system(eqs, X)
    res = np.linalg.norm(vals, axis=-1)
    return np.where(np.isfinite(res), res, np.inf)


def _pinv(jacs: np.ndarray) -> np.ndarray:
    """``np.linalg.pinv(jacs, rcond=_PINV_RCOND)`` for finite (..., m, n)
    Jacobians, in closed form where the cut-off cannot act.

    One equation (m = 1): the only singular value is |J|, so the cut-off
    zeroes only an all-zero row, and the pseudo-inverse is J^T / |J|^2
    (0 for a zero row). Two rows a, b (any n): Gram-Schmidt, w = b - t a
    with t = a.b / |a|^2, gives the columns c2 = w / |w|^2 and
    c1 = a / |a|^2 - t c2, on rows where |a|^2 |w|^2 >=
    (_PINV_CLOSED_GUARD * |J|_F^2)^2 (|a| |w| is sigma1 sigma2, |det| when
    n = 2). Both scale each Jacobian by its largest entry first, so squares
    cannot overflow. Rows with a = 0 or that fail the guard, and every shape
    with m >= 3, go through the SVD, so the cut-off acts exactly where it
    did with the SVD alone.
    """
    m, n = jacs.shape[-2:]
    if m > 2:
        return np.linalg.pinv(jacs, rcond=_PINV_RCOND)
    shape = jacs.shape[:-2] + (n, m)
    # one row of E per Jacobian entry: numpy reduces across a few long rows
    # far faster than along many short ones
    E = np.ascontiguousarray(jacs.reshape(-1, m * n).T)
    scale = np.abs(E).max(axis=0)
    live = scale > 0.0
    # a zero Jacobian stays zero, and so does its pseudo-inverse
    U = E / np.where(live, scale, 1.0)
    sq = (U * U).sum(axis=0)
    if m == 1:
        return (U / np.where(live, sq * scale, 1.0)).T.reshape(shape)
    a, b = U[:n], U[n:]
    aa = (a * a).sum(axis=0)
    t = (a * b).sum(axis=0) / np.where(aa > 0.0, aa, 1.0)
    w = b - t * a
    ww = (w * w).sum(axis=0)
    closed = (aa > 0.0) & (aa * ww >= (_PINV_CLOSED_GUARD * sq) ** 2)
    # out[j] holds column j + 1, (n, rows); the SVD fills the other rows
    out = np.zeros((2, n, len(scale)))
    np.divide(w, ww * scale, out=out[1], where=closed)
    np.divide(a, aa * scale, out=out[0], where=closed)
    out[0] -= t * out[1]
    rest = ~closed
    if rest.any():
        out.T[rest] = np.linalg.pinv(jacs.reshape(-1, 2, n)[rest],
                                     rcond=_PINV_RCOND)
    return out.T.reshape(shape)


def _linearize(eqs, X: np.ndarray):
    """Nan-safe values and Jacobians at X, with the Jacobians' guarded
    pseudo-inverses from :func:`_pinv`: closed forms for one-row and
    well-conditioned two-row Jacobians, otherwise the ``_PINV_RCOND`` SVD."""
    vals, jacs = ex.eval_system_jacobian(eqs, X)
    vals = np.where(np.isfinite(vals), vals, 0.0)
    jacs = np.where(np.isfinite(jacs), jacs, 0.0)
    return vals, jacs, _pinv(jacs)


def _gn_steps(eqs, X: np.ndarray) -> np.ndarray:
    """Least-squares Newton steps toward {f = 0}, nan-safe."""
    vals, _, pinv = _linearize(eqs, X)
    steps = -(pinv @ vals[..., None])[..., 0]
    bad = ~np.all(np.isfinite(steps), axis=-1)
    if bad.any():
        steps[bad] = 0.0
    return steps


def _renormalize(X: np.ndarray, r: float, fallback: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=-1)
    ok = norms > 1e-8 * r
    safe = np.where(ok, norms, 1.0)
    out = X * (r / safe)[..., None]
    return np.where(ok[..., None], out, fallback)


def project_to_sphere_slice(eqs, starts: np.ndarray, r: float):
    """Drive sphere points toward {f = 0} while staying on the sphere.

    Each iteration takes a Gauss-Newton step per row, scales it by the
    fractions of ``_LINE_SEARCH`` (1, 1/2, ..., 2^-25), renormalizes onto
    the sphere, and moves to the first trial point whose residual is lower
    than the row's current one; a row with none stops where it is. The
    trial points are renormalized and evaluated in two batches (the first
    two fractions for every row, the rest for rows still pending). Scaling
    by a power of two is exact and the evaluation is row by row, so the
    result is the same as trying the fractions one at a time.

    Returns the final positions and a mask of points whose last proposed
    step was short enough to count as on the slice. A row that stopped
    iterating did not move at its last iteration, so that iteration's step
    is the one tested; only rows still iterating after the budget are
    linearized again. With no equations every start is already a slice
    point.
    """
    X = np.array(starts, dtype=float)
    N = len(X)
    if not eqs:
        return X, np.ones(N, dtype=bool)
    res = _system_residual(eqs, X)
    active = np.ones(N, dtype=bool)
    last = np.zeros_like(X)
    for _ in range(_PROJECT_ITERS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        Xa = X[idx]
        steps = _gn_steps(eqs, Xa)
        last[idx] = steps
        conv = np.linalg.norm(steps, axis=-1) <= _STEP_TARGET * r
        # a row moves to its first trial point that lowers the residual;
        # converged rows stop without moving, so they try no step
        cand = np.empty_like(Xa)
        cres = np.full(idx.size, np.inf)
        pend = np.flatnonzero(~conv)
        for fractions in _LINE_SEARCH:
            if pend.size == 0:
                break
            trials = _renormalize(
                Xa[pend, None] + fractions[:, None] * steps[pend, None], r,
                Xa[pend, None])
            tres = _system_residual(eqs, trials)
            better = tres < res[idx[pend], None]
            hit = better.any(axis=1)
            first = better.argmax(axis=1)[hit]
            cand[pend[hit]] = trials[hit, first]
            cres[pend[hit]] = tres[hit, first]
            pend = pend[~hit]
        improved = cres < res[idx]
        X[idx[improved]] = cand[improved]
        res[idx[improved]] = cres[improved]
        # converged and stalled points both stop iterating
        active[idx[conv | ~improved]] = False
    if active.any():
        last[active] = _gn_steps(eqs, X[active])
    accepted = np.linalg.norm(last, axis=-1) <= _STEP_ACCEPT * r
    accepted &= np.isfinite(res)
    return X, accepted


# ---------------------------------------------------------------------------
# slice sampling


def _strata(eqs: tuple, ineqs: tuple, depth: int):
    """The system's own (eqs, ineqs) first, then each <=depth set of
    inequalities promoted to equations (their common zero sets carry the
    boundary). Works on expressions and on their rendered strings alike."""
    strata = [(eqs, ineqs)]
    l = len(ineqs)
    for size in range(1, min(depth, l) + 1):
        for combo in itertools.combinations(range(l), size):
            promoted = eqs + tuple(ineqs[j] for j in combo)
            rest = tuple(ineqs[j] for j in range(l) if j not in combo)
            strata.append((promoted, rest))
    return strata


def _part_strata(part: BasicPresentation, depth: int):
    return _strata(part.eqs, part.ineqs, depth)


def _normalize_system(eqs):
    """Constant equations carry no geometry: zero constants are trivially
    satisfied and drop out, while a nonzero constant makes the whole system
    infeasible (None). Gauss-Newton must never see them: their Jacobian is
    identically zero, so step-length tests would accept any point."""
    kept = []
    for e in eqs:
        if isinstance(e, ex.Const):
            if e.value == 0.0:
                continue
            return None
        kept.append(e)
    return tuple(kept)


def _dedup(points: np.ndarray, cell: float):
    """Grid-hash dedup; returns the first point in each occupied cell, in
    input order, and how many points fell in that cell."""
    cells = np.floor(points / cell).astype(np.int64)
    _, first, counts = np.unique(cells, axis=0, return_index=True,
                                 return_counts=True)
    order = np.argsort(first)
    return points[first[order]], counts[order]


def _merge_close(points: np.ndarray, counts: np.ndarray, tol: float):
    """Leader clustering in input order: a point within tol of an earlier
    kept point joins the first such point, otherwise it is kept. Returns
    the kept points, in input order, and the summed counts of each one's
    cluster.

    A point with no other point within tol keeps itself; only the crowded
    rest is clustered, one k-d tree ball query per kept point."""
    n = len(points)
    leader = np.arange(n)
    if n > 1:
        tree = cKDTree(points)
        dists, _ = tree.query(points, k=2)
        crowded = np.flatnonzero(dists[:, 1] <= tol)
        free = np.zeros(n, dtype=bool)
        free[crowded] = True
        for i in crowded:
            if free[i]:
                ball = np.asarray(tree.query_ball_point(points[i], tol))
                ball = ball[free[ball]]
                leader[ball] = i
                free[ball] = False
    kept, cluster = np.unique(leader, return_inverse=True)
    return points[kept], np.bincount(cluster, weights=counts).astype(
        counts.dtype)


def _cloud_resolution(points: np.ndarray, counts: np.ndarray) -> float:
    """Typical scale below which the cloud cannot resolve deviations.

    A location many starts piled onto is an isolated slice point known to
    solver accuracy; a location hit once samples a continuum, and its gap
    to the nearest distinct neighbour is the local coverage. The median
    over points mixes the two regimes sensibly."""
    if len(points) < 2:
        return _SPACING_GUARD
    dists, _ = cKDTree(points).query(points, k=2)
    res = np.where(counts > 1, _SPACING_GUARD, dists[:, 1])
    return max(float(np.median(res)), _SPACING_GUARD)


def sample_slice(s: SemianalyticSet, r: float, npoints: int = 256,
                 seed: int = 0, cache: SliceCache | None = None
                 ) -> SliceCloud:
    """Sample the set's intersection with the sphere of radius r.

    Raises :class:`EmptySliceError` when nothing converges, which is the
    numeric signature of the origin being isolated at this resolution.
    """
    if not 0.0 < r <= s.omega:
        raise GeometryError(
            f"radius {r:g} outside (0, omega={s.omega:g}] of {s.name!r}")
    if cache is None:
        cache = _DEFAULT_CACHE
    sig = s.signature()
    key = (sig, float(r), int(npoints), int(seed))
    hit = cache.lookup(key)
    if hit is not None:
        if isinstance(hit, EmptySliceError):
            if hit.set_name != s.name:
                raise EmptySliceError(s.name, hit.r, hit.converged_fraction,
                                      hit.attempts)
            raise hit
        # the cache is keyed by geometry, so a differently named set with
        # the same presentation can hit; relabel for faithful diagnostics
        if hit.set_name != s.name:
            hit = replace(hit, set_name=s.name)
        return hit

    nstarts = _direction_count(s.nvars, npoints)
    starts = None
    collected = []
    primary_accepted = 0
    attempts = 0
    ineq_tol = 1e-10 * max(1.0, r)
    _, _, part_sigs = sig
    for part, (_, eq_strs, ineq_strs) in zip(s.parts, part_sigs):
        strata = zip(_part_strata(part, SLICE_DEPTH),
                     _strata(eq_strs, ineq_strs, SLICE_DEPTH))
        for si, ((eqs, rest), (stratum_strs, _)) in enumerate(strata):
            attempts += nstarts
            sys_eqs = _normalize_system(eqs)
            if sys_eqs is None:
                continue
            # a projection depends only on its system and its starts, so
            # sets sharing a stratum share its entry; the inequality filter
            # and membership stay per set
            skey = (s.nvars, stratum_strs, float(r), int(npoints), int(seed))
            entry = cache.lookup(skey)
            if entry is None:
                if starts is None:
                    starts = sphere_directions(s.nvars, npoints, seed) * r
                pts, ok = project_to_sphere_slice(sys_eqs, starts, r)
                entry = (pts[ok], int(ok.sum()))
                cache.store(skey, entry)
            pts, accepted = entry
            if si == 0:
                primary_accepted += accepted
            if len(pts) == 0:
                continue
            for g in rest:
                vals = ex.eval_many(g, pts)
                pts = pts[np.isfinite(vals) & (vals >= -ineq_tol)]
                if len(pts) == 0:
                    break
            if len(pts) == 0:
                continue
            # belt and braces: every sample must read back as a member
            pts = pts[membership_mask(s, pts)]
            if len(pts):
                collected.append(pts)

    primary_total = nstarts * len(s.parts)
    fraction = primary_accepted / primary_total if primary_total else 0.0
    if not collected:
        err = EmptySliceError(s.name, r, fraction, attempts)
        cache.store(key, err)
        raise err
    raw = np.concatenate(collected, axis=0)
    # before dedup every raw point stands for itself
    cell = _cloud_resolution(raw, np.ones(len(raw))) / 4.0
    points, counts = _dedup(raw, cell)
    # copies of one isolated slice point can straddle cell borders; accepted
    # points are known to _STEP_ACCEPT * r, so closer ones are one point
    points, counts = _merge_close(points, counts, _STEP_ACCEPT * r)
    spacing = _cloud_resolution(points, counts)
    cloud = SliceCloud(set_name=s.name, r=r, points=points, seed=seed,
                       converged_fraction=fraction, spacing=spacing)
    cache.store(key, cloud)
    return cloud


# ---------------------------------------------------------------------------
# deviations between clouds


def directed_deviation(P: np.ndarray, Q: np.ndarray) -> float:
    """max over rows of P of the distance to the nearest row of Q.

    An exact k-d tree query at every size; a non-finite row raises
    ValueError.
    """
    if len(P) == 0:
        return 0.0
    if len(Q) == 0:
        return math.inf
    dists, _ = cKDTree(Q).query(P)
    return float(np.max(dists))


_NO_POINTS = np.zeros((0, 0))


def _distance_sample(r: float, ca: SliceCloud | None,
                     cb: SliceCloud | None) -> DistanceSample:
    """Both directed deviations between two clouds at radius r.

    None stands for an empty slice: nothing deviates from it, everything
    deviates infinitely far to it, and its resolution is the noise guard.
    """
    pa = ca.points if ca is not None else _NO_POINTS
    pb = cb.points if cb is not None else _NO_POINTS
    return DistanceSample(
        r=r,
        delta_ab=directed_deviation(pa, pb),
        delta_ba=directed_deviation(pb, pa),
        floor=max(ca.spacing if ca is not None else _SPACING_GUARD,
                  cb.spacing if cb is not None else _SPACING_GUARD))


def slice_distance(a: SemianalyticSet, b: SemianalyticSet, r: float,
                   npoints: int = 256, seed: int = 0,
                   cache: SliceCache | None = None) -> DistanceSample:
    """Both directed deviations between the two sets' slices at radius r."""
    return _distance_sample(
        r, sample_slice(a, r, npoints=npoints, seed=seed, cache=cache),
        sample_slice(b, r, npoints=npoints, seed=seed, cache=cache))


# ---------------------------------------------------------------------------
# distance from points to a germ


def _nearest_on_variety(eqs, starts: np.ndarray, targets: np.ndarray):
    """Per row: move a start toward the nearest point of {f = 0} to target.

    Alternates a tangential pull toward the target with a Gauss-Newton
    restoration onto the variety. Returns final points and a converged mask.
    `_linearize` reads a non-finite value as 0, so a row outside an
    equation's domain would take no step and look converged; the mask
    therefore also requires a finite residual at the final point.
    """
    Y = np.array(starts, dtype=float)
    if not eqs:
        return Y, np.ones(len(Y), dtype=bool)
    scale = np.maximum(np.linalg.norm(targets, axis=-1), 1e-30)
    for _ in range(3):
        Y = Y + _gn_steps(eqs, Y)
    for _ in range(_NEAREST_ITERS):
        vals, jacs, pinv = _linearize(eqs, Y)
        d = Y - targets
        normal = (pinv @ (jacs @ d[..., None]))[..., 0]
        tang = d - normal
        restore = -(pinv @ vals[..., None])[..., 0]
        step = restore - 0.9 * tang
        step = np.nan_to_num(step, nan=0.0, posinf=0.0, neginf=0.0)
        Y = Y + step
        if np.all(np.linalg.norm(step, axis=-1) <= 1e-14 * scale):
            break
    final = _gn_steps(eqs, Y)
    ok = np.linalg.norm(final, axis=-1) <= 1e-9 * scale
    ok &= np.isfinite(_system_residual(eqs, Y))
    return Y, ok


def dist_to_set_batch(X: np.ndarray, s: SemianalyticSet,
                      npoints: int = 128, seed: int = 0,
                      cache: SliceCache | None = None) -> np.ndarray:
    """Distance from each query point to the set germ, shape (N, n) -> (N,).

    Candidates come from three sources per query: the origin (when a part
    passes through it), the set's slice cloud at the query's radius, and
    constrained refinement onto every boundary stratum of every part,
    multi-started from the query and its nearest cloud points. The multistart
    does not depend on the stratum, so it is built once per call. Queries
    that already read as members get distance zero. Infinity means the set
    offered no candidate at all (an empty germ). Non-finite query points
    raise GeometryError.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if not np.isfinite(X).all():
        raise GeometryError("query points must be finite")
    N = len(X)
    best = np.full(N, math.inf)
    if not s.parts:
        return best
    member = membership_mask(s, X)
    best[member] = 0.0
    if member.all():
        return best
    norms = np.linalg.norm(X, axis=-1)
    if any(p.through_origin for p in s.parts):
        best = np.minimum(best, norms)

    # cloud candidates at the median query radius; queries here share radii
    r_med = float(np.median(norms))
    cloud = None
    if 0.0 < r_med <= s.omega:
        try:
            cloud = sample_slice(s, r_med, npoints=npoints, seed=seed,
                                 cache=cache)
        except EmptySliceError:
            cloud = None
    todo = np.flatnonzero(~member)
    starts = [X[todo]]
    if cloud is not None and len(cloud.points):
        k_near = min(3, len(cloud.points))
        # k as a list keeps both results 2-D even when k_near is 1
        dists, near = cKDTree(cloud.points).query(
            X, k=list(range(1, k_near + 1)))
        best = np.minimum(best, dists[:, 0])
        starts += [cloud.points[near[todo, c]] for c in range(k_near)]
    S0 = np.concatenate(starts, axis=0)
    T0 = np.tile(X[todo], (len(starts), 1))
    own = np.tile(todo, len(starts))

    ineq_tol = 1e-8 * np.maximum(1.0, norms)
    for part in s.parts:
        for eqs, rest in _part_strata(part, _DIST_DEPTH):
            eqs = _normalize_system(eqs)
            if not eqs:
                continue
            Y, ok = _nearest_on_variety(eqs, S0, T0)
            if not ok.any():
                continue
            Y, T, o = Y[ok], T0[ok], own[ok]
            keep = np.linalg.norm(Y, axis=-1) <= s.omega * (1.0 + 1e-9)
            for g in rest:
                vals = ex.eval_many(g, Y)
                keep &= np.isfinite(vals) & (vals >= -ineq_tol[o])
            if not keep.any():
                continue
            d = np.linalg.norm(Y[keep] - T[keep], axis=-1)
            np.minimum.at(best, o[keep], d)
    return best


def dist_to_set(x, s: SemianalyticSet, **kw) -> float:
    return float(dist_to_set_batch(np.asarray(x, dtype=float)[None, :],
                                   s, **kw)[0])


def horn_member(x, s: SemianalyticSet, sigma: float, **kw) -> bool:
    """Whether x lies inside the horn {d(x, s) < |x|^sigma}."""
    x = np.asarray(x, dtype=float)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        raise GeometryError("the horn neighbourhood excludes the origin")
    return dist_to_set(x, s, **kw) < nx ** sigma


# ---------------------------------------------------------------------------
# Jacobian regularity


def jacobian_regularity(eqs, x) -> float:
    """Smallest singular value of the system Jacobian at x, or 0.0 when the
    Jacobian is rank-deficient there (including the overdetermined case of
    more equations than variables)."""
    x = np.asarray(x, dtype=float)
    if not eqs:
        raise GeometryError("regularity of an empty system is undefined")
    _, jac = ex.eval_system_jacobian(eqs, x[None, :])
    J = jac[0]
    p, n = J.shape
    if p > n:
        return 0.0
    svals = np.linalg.svd(J, compute_uv=False)
    if svals[0] == 0.0 or not np.all(np.isfinite(svals)):
        return 0.0
    if svals[-1] < 1e-10 * svals[0]:
        return 0.0
    return float(svals[-1])


# ---------------------------------------------------------------------------
# tangent directions


@dataclass(frozen=True)
class TangentConeReport:
    """Direction clouds at shrinking radii and their drift.

    ``drift[i]`` is the symmetric deviation between the direction clouds at
    radii[i] and radii[i+1]; a decaying drift indicates the directions are
    settling toward the set's cone of tangent rays at the origin.
    """

    set_name: str
    radii: tuple[float, ...]
    direction_clouds: tuple[np.ndarray, ...]
    drift: tuple[float, ...]


def tangent_cone_cloud(s: SemianalyticSet, radii, npoints: int = 256,
                       seed: int = 0, cache: SliceCache | None = None
                       ) -> TangentConeReport:
    radii = tuple(sorted((float(r) for r in radii), reverse=True))
    if not radii:
        raise GeometryError("need at least one radius")
    clouds = []
    for r in radii:
        c = sample_slice(s, r, npoints=npoints, seed=seed, cache=cache)
        clouds.append(c.directions())
    drift = []
    for u, v in zip(clouds, clouds[1:]):
        drift.append(max(directed_deviation(u, v), directed_deviation(v, u)))
    return TangentConeReport(set_name=s.name, radii=radii,
                             direction_clouds=tuple(clouds),
                             drift=tuple(drift))


# ---------------------------------------------------------------------------
# numeric dimension


def numeric_dimension(s: SemianalyticSet, r: float, npoints: int = 256,
                      seed: int = 0, cache: SliceCache | None = None) -> int:
    """1 + the local rank of the slice cloud, clamped to [0, nvars].

    The slice of a d-dimensional germ is locally (d-1)-dimensional, so the
    estimate is one plus the largest covariance rank over a few anchor
    neighbourhoods. An empty slice means the origin is isolated: dimension 0.
    Rank counts an eigenvalue only when it is both non-negligible next to
    the leading one and geometrically significant at the neighbourhood
    scale, which keeps slice curvature from inflating the count.
    """
    try:
        cloud = sample_slice(s, r, npoints=npoints, seed=seed, cache=cache)
    except EmptySliceError:
        return 0
    pts = cloud.points
    h = max(10.0 * cloud.spacing, 1e-6 * r)
    tree = cKDTree(pts)
    anchors = np.linspace(0, len(pts) - 1, num=min(8, len(pts)),
                          dtype=int)
    anchors = np.unique(anchors)
    rank_max = 0
    for ai in anchors:
        idx = tree.query_ball_point(pts[ai], h)
        local = pts[idx]
        if len(local) < 2:
            continue
        centered = local - local.mean(axis=0)
        cov = centered.T @ centered / len(local)
        evals = np.linalg.eigvalsh(cov)[::-1]
        if evals[0] <= 0.0:
            continue
        significant = (evals >= 1e-6 * evals[0]) & (np.sqrt(
            np.maximum(evals, 0.0)) >= 0.05 * h)
        rank_max = max(rank_max, int(significant.sum()))
    return int(np.clip(1 + rank_max, 0, s.nvars))
