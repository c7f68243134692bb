"""Numeric geometry of set germs on shrinking spheres.

Everything downstream rests on one primitive: sampling the intersection of a
set with the sphere of radius r as a point cloud. Clouds are produced by a
batched Gauss-Newton projection constrained to the sphere, started from a
low-discrepancy family of directions, one run per boundary stratum of each
part. From clouds come directed deviations between two sets' slices,
distances from points to a germ, tangent direction clouds, and a numeric
dimension estimate.

All sampling is deterministic given (set, radius, npoints, seed); a
thread-safe cache keyed on exactly those values makes repeated comparisons
against the same set cheap and bit-stable.
"""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

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
# be amplified into a limit cycle), not as stiff constraints
_PINV_RCOND = 1e-9
# Gauss-Newton iteration budgets: sphere projection, nearest-point search
_PROJECT_ITERS = 50
_NEAREST_ITERS = 40
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

    ``spacing`` is the median nearest-neighbour distance of the raw samples
    before deduplication, floored at an absolute machine-noise guard; it is
    the resolution below which distances measured against this cloud carry
    no information. ``converged_fraction`` covers the primary strata only
    (the parts' own equations, before inequality filtering).
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
    """Thread-safe memo of sampled slices, including empty outcomes."""

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


def sphere_directions(nvars: int, npoints: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy unit directions, deterministic in (nvars, npoints, seed)."""
    if npoints < 1:
        raise GeometryError("need at least one direction")
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


def _linearize(eqs, X: np.ndarray):
    """Nan-safe values and Jacobians at X, with the Jacobians' guarded
    pseudo-inverses."""
    vals, jacs = ex.eval_system_jacobian(eqs, X)
    vals = np.nan_to_num(vals, nan=0.0, posinf=0.0, neginf=0.0)
    jacs = np.nan_to_num(jacs, nan=0.0, posinf=0.0, neginf=0.0)
    return vals, jacs, np.linalg.pinv(jacs, rcond=_PINV_RCOND)


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

    Returns the final positions and a mask of points whose last proposed
    step was short enough to count as on the slice. With no equations every
    start is already a slice point.
    """
    X = np.array(starts, dtype=float)
    N = len(X)
    if not eqs:
        return X, np.ones(N, dtype=bool)
    res = _system_residual(eqs, X)
    active = np.ones(N, dtype=bool)
    for _ in range(_PROJECT_ITERS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        Xa = X[idx]
        steps = _gn_steps(eqs, Xa)
        slen = np.linalg.norm(steps, axis=-1)
        conv = slen <= _STEP_TARGET * r
        cand = _renormalize(Xa + steps, r, Xa)
        cres = _system_residual(eqs, cand)
        t = np.ones(idx.size)
        for _ in range(25):
            pending = ~(cres < res[idx]) & ~conv
            if not pending.any():
                break
            t[pending] *= 0.5
            trial = _renormalize(
                Xa[pending] + t[pending, None] * steps[pending], r,
                Xa[pending])
            cand[pending] = trial
            cres[pending] = _system_residual(eqs, trial)
        improved = cres < res[idx]
        move = improved & ~conv
        X[idx[move]] = cand[move]
        res[idx[move]] = cres[move]
        # converged and stalled points both stop iterating
        active[idx[conv | ~improved]] = False
    final_steps = _gn_steps(eqs, X)
    accepted = np.linalg.norm(final_steps, axis=-1) <= _STEP_ACCEPT * r
    accepted &= np.isfinite(_system_residual(eqs, X))
    return X, accepted


# ---------------------------------------------------------------------------
# slice sampling


def _part_strata(part: BasicPresentation, depth: int):
    """The part's own system first, then each <=depth set of inequalities
    promoted to equations (their common zero sets carry the boundary)."""
    strata = [(part.eqs, part.ineqs)]
    l = len(part.ineqs)
    for size in range(1, min(depth, l) + 1):
        for combo in itertools.combinations(range(l), size):
            eqs = part.eqs + tuple(part.ineqs[j] for j in combo)
            rest = tuple(part.ineqs[j] for j in range(l) if j not in combo)
            strata.append((eqs, rest))
    return strata


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
    """Grid-hash dedup; returns kept points and per-point hit counts."""
    seen = {}
    keep = []
    cells = np.floor(points / cell).astype(np.int64)
    counts = []
    for i, key in enumerate(map(tuple, cells)):
        j = seen.get(key)
        if j is None:
            seen[key] = len(keep)
            keep.append(i)
            counts.append(1)
        else:
            counts[j] += 1
    return points[keep], np.array(counts)


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
    key = (s.signature(), float(r), int(npoints), int(seed))
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

    starts = sphere_directions(s.nvars, npoints, seed) * r
    collected = []
    primary_total = 0
    primary_accepted = 0
    attempts = 0
    ineq_tol = 1e-10 * max(1.0, r)
    for part in s.parts:
        for si, (eqs, rest) in enumerate(_part_strata(part, SLICE_DEPTH)):
            attempts += len(starts)
            if si == 0:
                primary_total += len(starts)
            sys_eqs = _normalize_system(eqs)
            if sys_eqs is None:
                continue
            pts, ok = project_to_sphere_slice(sys_eqs, starts, r)
            if si == 0:
                primary_accepted += int(ok.sum())
            pts = pts[ok]
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

    fraction = primary_accepted / primary_total if primary_total else 0.0
    if not collected:
        err = EmptySliceError(s.name, r, fraction, attempts)
        cache.store(key, err)
        raise err
    raw = np.concatenate(collected, axis=0)
    # before dedup every raw point stands for itself
    cell = _cloud_resolution(raw, np.ones(len(raw))) / 4.0
    points, counts = _dedup(raw, cell)
    spacing = _cloud_resolution(points, counts)
    cloud = SliceCloud(set_name=s.name, r=r, points=points, seed=seed,
                       converged_fraction=fraction, spacing=spacing)
    cache.store(key, cloud)
    return cloud


# ---------------------------------------------------------------------------
# deviations between clouds


def directed_deviation(P: np.ndarray, Q: np.ndarray) -> float:
    """max over rows of P of the distance to the nearest row of Q."""
    if len(P) == 0:
        return 0.0
    if len(Q) == 0:
        return math.inf
    if len(P) * len(Q) <= 4_000_000:
        return float(np.max(np.min(cdist(P, Q), axis=1)))
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
    ok &= np.all(np.isfinite(Y), axis=-1)
    return Y, ok


def dist_to_set_batch(X: np.ndarray, s: SemianalyticSet,
                      npoints: int = 128, seed: int = 0,
                      cache: SliceCache | None = None) -> np.ndarray:
    """Distance from each query point to the set germ, shape (N, n) -> (N,).

    Candidates come from three sources per query: the origin (when a part
    passes through it), the set's slice cloud at the query's radius, and
    constrained refinement onto every boundary stratum of every part,
    multi-started from the query and its nearest cloud points. Queries that
    already read as members get distance zero. Infinity means the set offered
    no candidate at all (an empty germ).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
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
    if cloud is not None and len(cloud.points):
        D = cdist(X, cloud.points)
        best = np.minimum(best, D.min(axis=1))
        k_near = min(3, len(cloud.points))
        near_idx = np.argsort(D, axis=1)[:, :k_near]
    else:
        near_idx = None

    todo = np.flatnonzero(~member)
    if todo.size == 0:
        return best
    ineq_tol = 1e-8 * np.maximum(1.0, norms)
    for part in s.parts:
        for eqs, rest in _part_strata(part, _DIST_DEPTH):
            eqs = _normalize_system(eqs)
            if not eqs:
                continue
            starts = [X[todo]]
            targets = [X[todo]]
            owners = [todo]
            if near_idx is not None:
                for c in range(near_idx.shape[1]):
                    starts.append(cloud.points[near_idx[todo, c]])
                    targets.append(X[todo])
                    owners.append(todo)
            S0 = np.concatenate(starts, axis=0)
            T0 = np.concatenate(targets, axis=0)
            own = np.concatenate(owners, axis=0)
            Y, ok = _nearest_on_variety(eqs, S0, T0)
            if not ok.any():
                continue
            Y, T0, own = Y[ok], T0[ok], own[ok]
            keep = np.linalg.norm(Y, axis=-1) <= s.omega * (1.0 + 1e-9)
            for g in rest:
                vals = ex.eval_many(g, Y)
                keep &= np.isfinite(vals) & (vals >= -ineq_tol[own])
            if not keep.any():
                continue
            Y, T0, own = Y[keep], T0[keep], own[keep]
            d = np.linalg.norm(Y - T0, axis=-1)
            np.minimum.at(best, own, d)
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
