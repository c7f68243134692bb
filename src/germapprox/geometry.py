"""Numeric geometry of set germs on shrinking spheres.

Everything downstream rests on one primitive: sampling the intersection of a
set with the sphere of radius r as a point cloud. Clouds are produced by a
batched Gauss-Newton projection constrained to the sphere, started from a
low-discrepancy family of directions, one run per boundary stratum of each
part. Each row carries its own radius, so one run projects a stratum for
every radius a caller asks for at once (a whole radius schedule). A
boundary stratum (an inequality promoted to an equation) is projected only
at the radii where its part's own slice may be missing its points: where
that slice is a finite set of regular points reached from every start, the
boundary's slice lies among those points already. From
clouds come directed deviations between two sets' slices, tangent
direction clouds, and a numeric dimension estimate.

One nearest-point solver measures distances from points to a set's germ,
and one early-stopped kernel takes the largest such distance from each of
several clouds (:func:`_max_dists`), the one distance both the limit fit
and the horn criterion read where the target's slice is a continuum. It
bounds each point without a neighbour query, and asks the set's cloud's
k-d tree only about the points it refines. Each distance is to a point the
solver found on the set, never a membership test, whose tolerance is not a
distance.

An empty slice is a cloud with no points: nothing deviates from it,
everything lies infinitely far from it, and it has no tangent directions.
Only the entry points that need a point, :func:`sample_slice` and
:func:`tangent_cone_cloud`, raise :class:`EmptySliceError` for it.

All sampling is deterministic given (set, radius, npoints, seed), and each
stratum's projection given (its system, radius, npoints, seed), and each
cloud given its radius and accepted samples; a thread-safe cache keyed on
exactly those values makes repeated comparisons against the same set, and
sets that share strata or samples, cheap and bit-stable. It
holds geometry only: clouds, projections, the deviation of one cloud from
another where it is measured cloud to cloud, and each cloud's largest
distance to a set, never a set name or an error.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from . import expr as ex
from .expr import _row_norm
from .sets import (_MEMBER_TOL_INEQ, BasicPresentation, SemianalyticSet,
                   _in_ball, is_origin_slack, membership_mask)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# a Gauss-Newton step shorter than this times r counts as converged;
# acceptance is looser than the iteration target so near-converged points
# that ran out of budget still qualify
_STEP_TARGET = 1e-15
_STEP_ACCEPT = 1e-12
_SPACING_GUARD = 1e-15
# the merge keeps a cloud's points more than _STEP_ACCEPT * r apart by their
# rounded sums of squared differences; a gap a k-d tree reports falls below
# that by a few ulps of rounding at most, far less than this fraction of it.
# A group of rows whose bounding box has a diagonal of at most that distance
# less this fraction of it is one cluster, with as wide a margin
_GAP_ROUNDING = 1e-9
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
# a slice point is isolated and regular when the row-normalized
# [J_f(x); x/r] has sigma_min/sigma_max above this (see _isolated_radii:
# a closed form for the 2 x 2 shape, the SVD for the others)
_ISOLATED_GUARD = 1e-6
# Gauss-Newton steps the nearest-point solver takes onto a variety before
# its tangential iterations; with none after them, a row's landing on a
# part (see _nearest_on_variety and _landing)
_LANDING_STEPS = 3
# the rows in the first chunk that _max_dists refines of each batch
_FIRST_CHUNK = 8
# a sphere projection row stalls at an iteration whose two-iteration
# displacement is at most _STALL_SPAN times its step and at most
# _STALL_GROWTH times the one before; _STALL_RUN stalled iterations in a row
# stop and reject it (see project_to_sphere_slice)
_STALL_SPAN = 0.1
_STALL_GROWTH = 1.25
_STALL_RUN = 6
# Gauss-Newton iteration budgets: sphere projection, nearest-point search
_PROJECT_ITERS = 50
_NEAREST_ITERS = 40
# the nearest-point search stops a row once its step is at most
# _NEAREST_TARGET times |target|, and accepts a row whose last Gauss-Newton
# step is at most _NEAREST_ACCEPT times it (see _nearest_on_variety); a
# distance to a germ below _NEAREST_ACCEPT times r is within that
# tolerance, the horn criterion's floor
_NEAREST_TARGET = 1e-14
_NEAREST_ACCEPT = 1e-9
# step fractions the sphere projection's line search tries after the full
# step, in order and in two batches: 1/2 to 1/16 for the rows whose full
# step did not lower the residual, then the other 21 halvings for the rows
# still pending. The full step improves most rows (99% of those it is tried
# on in horn_surfaces, 92% in approx_corpus), so the projection evaluates it
# with its Jacobian, as the next iteration's linearization
_LINE_SEARCH = (0.5 ** np.arange(1, 5), 0.5 ** np.arange(5, 26))
# trial points a halving batch renormalizes and evaluates at once: 2048 rows
# of the largest batch, so a call's memory stays bounded whatever its rows.
# The full step is one batch the size of the linearization
_LINE_SEARCH_TRIALS = 2048 * 21
# inequality combinations promoted to equations as boundary strata: one at
# a time for slices, up to two for distances to a germ
SLICE_DEPTH = 1
_DIST_DEPTH = 2
# sample_slices keeps a sample where every inequality its stratum did not
# promote reads at least -this times max(1, r); below r = 1 that is an
# absolute tolerance
_SLICE_INEQ_TOL = 1e-10


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
    """Deduplicated samples of a set on the sphere of radius r, shape
    (N, nvars); N = 0 for an empty slice.

    :func:`_slice_cloud` builds every cloud by one rule: one point per
    cluster of accepted samples within ``_STEP_ACCEPT * r`` of its first
    one, so equal samples and copies of an isolated slice point become one
    point, and any two points of the cloud are farther apart than that.
    ``counts`` holds the number of samples each point stands for.

    ``spacing`` is the median of the points' gaps to their nearest
    neighbours, a point that stands for several samples counting as the
    machine-noise guard, and is floored at that guard; distances measured
    against this cloud carry no information below it. It is computed on
    first read, with no neighbour query when more than half the points
    stand for several samples (the median is then the guard), and kept
    with the cloud: a copy made with ``dataclasses.replace`` shares it. A
    spacing above the guard marks a continuum slice, which the limit fit
    measures against with the solver instead (see :attr:`continuum`).
    ``converged_fraction`` covers the primary strata only (the parts' own
    equations, before inequality filtering); ``attempts`` counts the
    starts over every stratum.

    ``tree`` is a k-d tree over the points, the one tree the builder
    makes, so every neighbour query against the cloud reuses it. ``key``
    is the cloud's content key, ("cloud", r, digest of the raw samples'
    shape and bytes), None for a cloud built outside
    :func:`sample_slices`. Points, counts, spacing and tree depend only on
    that key, so sets whose samples at r are equal bit for bit share those
    objects (the points read-only) and differ only in
    ``converged_fraction`` and ``attempts``; the cache keys the deviation
    of one cloud from another on both content keys (see
    :func:`_deviation`). Where a radius's samples are one stratum's
    accepted points, none filtered out and none merged, the points are
    that stratum's cached array itself, not a copy.
    """

    r: float
    points: np.ndarray
    converged_fraction: float
    counts: np.ndarray = field(repr=False, compare=False)
    attempts: int
    tree: cKDTree = field(repr=False, compare=False)
    key: tuple | None = field(default=None, repr=False, compare=False)
    # the spacing once read; replace() hands the same dict to the copy. Two
    # threads may both compute it, and both store the same float
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self):
        return len(self.points)

    def directions(self) -> np.ndarray:
        return self.points / self.r

    @property
    def spacing(self) -> float:
        spacing = self._memo.get("spacing")
        if spacing is None:
            # a point many samples piled onto is an isolated slice point
            # known to solver accuracy; a point hit once samples a
            # continuum, and its gap is the local coverage. The median
            # mixes the two regimes
            piled = self.counts > 1
            spacing = _SPACING_GUARD
            if len(self) > 1 and 2 * np.count_nonzero(piled) <= len(self):
                gaps = self.tree.query(self.points, k=2)[0][:, 1]
                spacing = max(float(np.median(
                    np.where(piled, _SPACING_GUARD, gaps))), _SPACING_GUARD)
            self._memo["spacing"] = spacing
        return spacing

    @property
    def continuum(self) -> bool:
        """``spacing > _SPACING_GUARD``, read from the counts where they
        fix it, with no neighbour query. Fewer than two points, or more
        than half of them piled, give the guard itself (see
        :attr:`spacing`). With fewer than half piled, more than half the
        median's terms are gaps, each above ``_STEP_ACCEPT * r`` up to the
        tree's rounding, so where that exceeds the guard the spacing does
        too."""
        n = len(self)
        piled = 2 * np.count_nonzero(self.counts > 1)
        if n < 2 or piled > n:
            return False
        if (piled < n and _STEP_ACCEPT * self.r * (1.0 - _GAP_ROUNDING)
                > _SPACING_GUARD):
            return True
        return self.spacing > _SPACING_GUARD


@dataclass(frozen=True)
class DistanceSample:
    """Directed deviations between two sets' slices at one radius.

    ``delta_ab`` is the deviation of A from B: the largest distance from a
    point sampled on A to B, and ``floor_ab`` its resolution; a deviation
    at or below its floor is noise. Where B's slice is a continuum it is
    the solver's distance to B's germ, with floor ``_NEAREST_ACCEPT * r``;
    where B's slice is isolated points (or empty) it is the distance to B's
    cloud, with the larger of the two clouds' spacings as floor.
    ``delta_ba`` and ``floor_ba`` are the same for B from A.
    """

    r: float
    delta_ab: float
    delta_ba: float
    floor_ab: float
    floor_ba: float


class SliceCache:
    """Thread-safe memo of sampled slices, including empty outcomes, of
    the accepted points of each stratum's sphere projection, so sets that
    share a stratum project it once, of each distinct point set's cloud,
    so sets with equal samples build one cloud, of the deviation of one
    point set from another where the limit fit measures it cloud to cloud
    (a target slice of isolated points), one float per ordered pair of
    point sets, and of each cloud's largest distance to a set's germ, so
    the limit fit and the horn criterion run the distance kernel, and its
    queries of the target's tree, on each direction once."""

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
    norms = _row_norm(raw)
    norms[norms == 0.0] = 1.0
    return raw / norms[:, None]


# ---------------------------------------------------------------------------
# batched Gauss-Newton on the sphere


def _residual(vals: np.ndarray) -> np.ndarray:
    """Each row's residual |f(x)| from its values, inf where not finite."""
    res = _row_norm(vals)
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
    # far faster than along many short ones (see expr._row_norm)
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
    """Nan-safe values and Jacobians at X, and each row's
    :func:`_residual`, from the values before they are made nan-safe:
    forward-mode values are ``eval_many``'s bit for bit, so it is the
    residual that evaluating the system at X gives."""
    vals, jacs = ex.eval_system_jacobian(eqs, X)
    res = _residual(vals)
    vals = np.where(np.isfinite(vals), vals, 0.0)
    jacs = np.where(np.isfinite(jacs), jacs, 0.0)
    return vals, jacs, res


def _pinv_times(pinv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(pinv @ v[..., None])[..., 0]``, summed over pinv's columns in
    order starting from 0, as numpy's own matmul loop sums a stack.
    matmul hands a lone pseudo-inverse from :func:`_pinv`, a
    Fortran-ordered view, to BLAS instead, which rounds differently; this
    sum gives a row the same bits at every batch size."""
    return sum(pinv[..., j] * v[..., j, None] for j in range(v.shape[-1]))


def _finite_rows(X: np.ndarray) -> np.ndarray:
    """``np.isfinite(X).all(axis=-1)``, built column by column: numpy
    reduces a short last axis far slower than it combines whole columns."""
    ok = np.ones(X.shape[:-1], dtype=bool)
    for j in range(X.shape[-1]):
        ok &= np.isfinite(X[..., j])
    return ok


def _newton_steps(vals: np.ndarray, jacs: np.ndarray) -> np.ndarray:
    """Least-squares Newton steps -J^+ f from nan-safe values and Jacobians
    (see :func:`_linearize`); a row whose step is not finite takes none."""
    steps = -_pinv_times(_pinv(jacs), vals)
    bad = ~_finite_rows(steps)
    if bad.any():
        steps[bad] = 0.0
    return steps


def _gn_steps(eqs, X: np.ndarray):
    """Least-squares Newton steps toward {f = 0}, nan-safe, and each row's
    residual at X from the same linearization (see :func:`_linearize`)."""
    vals, jacs, res = _linearize(eqs, X)
    return _newton_steps(vals, jacs), res


def _renormalize(X: np.ndarray, r: float | np.ndarray,
                 fallback: np.ndarray) -> np.ndarray:
    """Scale each row of X onto the sphere of radius r; rows too close to
    the origin to carry a direction take ``fallback`` instead. X is
    overwritten with the result and returned."""
    norms = _row_norm(X)
    ok = norms > 1e-8 * r
    X *= (r / np.where(ok, norms, 1.0))[..., None]
    # a masked copy costs numpy about as much as the scaling, and almost
    # every row keeps its direction
    if not ok.all():
        np.copyto(X, fallback, where=~ok[..., None])
    return X


def _line_search(eqs, X: np.ndarray, res: np.ndarray, ra: np.ndarray,
                 steps: np.ndarray, pend: np.ndarray):
    """The halvings of one line search of :func:`project_to_sphere_slice`,
    over rows X with residuals ``res``, radii ``ra`` and steps ``steps``
    aligned with X.

    The positions ``pend`` (into X), the rows whose full step did not lower
    their residual, try the fractions of ``_LINE_SEARCH`` in order, in its
    two batches, each cut into chunks of at most ``_LINE_SEARCH_TRIALS``
    trial points. Returns each row's first trial point whose residual is
    below its entry of ``res``, and a mask ``hit`` of the rows that found
    one: a row not in pend finds none, and its entry of the trial points is
    left unset.

    A chunk's trials are (rows, k, n) for k fractions. Hit row h, whose
    first better trial is j, is picked by the flat index h*k + j into the
    trials as (rows*k, n): one ``take``, where ``trials[hit, first]`` mixes
    a boolean and an integer index and costs numpy many times more.
    """
    cand = np.empty_like(steps)
    hit = np.zeros(len(steps), dtype=bool)
    for fractions in _LINE_SEARCH:
        if pend.size == 0:
            break
        k = len(fractions)
        rows = _LINE_SEARCH_TRIALS // k
        left = []
        for chunk in np.split(pend, range(rows, pend.size, rows)):
            base = X.take(chunk, axis=0)[:, None]
            step = steps.take(chunk, axis=0)[:, None]
            trials = _renormalize(base + fractions[:, None] * step,
                                  ra.take(chunk)[:, None], base)
            tres = _residual(ex.eval_system(eqs, trials))
            better = tres < res.take(chunk)[:, None]
            found = better.any(axis=1)
            h = np.flatnonzero(found)
            flat = h * k + better.take(h, axis=0).argmax(axis=1)
            dst = chunk.take(h)
            cand[dst] = trials.reshape(-1, X.shape[-1]).take(flat, axis=0)
            hit[dst] = True
            left.append(chunk[~found])
        pend = np.concatenate(left)
    return cand, hit


def _take_rows(rows: np.ndarray, *arrays: np.ndarray):
    """Each array's entries at the positions ``rows`` of its first axis;
    ``np.take`` gathers whole rows several times faster than ``a[rows]``."""
    return [a.take(rows, axis=0) for a in arrays]


def project_to_sphere_slice(eqs, starts: np.ndarray, r: float | np.ndarray):
    """Drive sphere points toward {f = 0} while staying on the sphere.

    ``r`` is one radius for every row, or an (N,) array with each row's own
    radius, the one its start lies on and its step tolerances scale with.
    Rows never mix, so one call over the starts of several radii returns,
    row for row and bit for bit, what one call per radius would.

    Each iteration takes a Gauss-Newton step per row, renormalizes the full
    step onto the sphere and moves there if that lowers the row's residual.
    A row whose full step does not tries the halvings of ``_LINE_SEARCH``
    (1/2, ..., 2^-25; see :func:`_line_search`) and moves to the first
    trial point whose residual is lower; a row with none stops where it is.
    Scaling by a power of two is exact and the evaluation is row by row, so
    the result is the same as trying the fractions one at a time.

    Each row is linearized once per iteration. The full steps' trial points
    are evaluated with their Jacobians (:func:`_linearize`) in one batch: a
    trial's residual decides whether its row moves, and for a row that
    moves there its values and Jacobian are the next iteration's
    linearization. Only a row that moves at a halving is linearized again,
    at its new point. A row's residual comes only from its linearization,
    which the trials must improve on; no start is evaluated apart from it.

    A row that keeps moving but gets nowhere stalls: it hops between two
    points, or creeps toward a root off the sphere. Iteration k >= 1 of a
    row, from X_k to X_{k+1} with step s_k, is stalled when
    |X_{k+1} - X_{k-1}| <= ``_STALL_SPAN`` |s_k|, that displacement is at
    most ``_STALL_GROWTH`` times the one of iteration k - 1 (when k >= 2),
    and |s_k| is still above the acceptance tolerance. ``_STALL_RUN``
    stalled iterations in a row stop the row, and it is rejected. A row
    escaping a saddle of the residual moves slowly too, but its
    displacement about doubles every iteration, and one that converges
    linearly halves its step every iteration; neither is stopped.

    The rows still iterating stay compacted: each one's position, radius,
    residual, step, position an iteration back, displacement and stall run
    are aligned with them, and a row is written to the result once, when it
    stops. An iteration in which every row moves on at its full step
    gathers and scatters nothing.

    Returns the final positions and a mask of the accepted points: rows
    that did not stall, whose residual is finite and whose last proposed
    step is at most ``_STEP_ACCEPT`` times their radius, both from the
    linearization at the row's final position. A row that stalled moved at
    its last iteration, and it is rejected whatever its residual. With no
    equations every start is already a slice point.
    """
    P = np.array(starts, dtype=float)
    N = len(P)
    if not eqs:
        return P, np.ones(N, dtype=bool)
    rad = np.broadcast_to(np.asarray(r, dtype=float), (N,))
    # each row's final position, and the residual and step length of its
    # last linearization; a step length of inf rejects a row that stalled
    X = np.empty_like(P)
    res = np.full(N, np.inf)
    last = np.zeros(N)
    # the rows still iterating and, aligned with them, each one's position
    # P, radius, and residual, step and step length from its linearization
    # at P; its position an iteration back, its last two-iteration
    # displacement and its run of stalled iterations. Before a row has
    # moved these are broadcast views that hold no memory: from a position
    # at inf its first displacement is inf, which a span of 0 does not
    # count as stalled
    idx = np.arange(N)
    ra = rad
    vals, jacs, R = _linearize(eqs, P)
    S = _newton_steps(vals, jacs)
    L = _row_norm(S)
    del vals, jacs
    back = np.broadcast_to(np.inf, P.shape)
    span = np.broadcast_to(0.0, (N,))
    run = np.broadcast_to(np.int8(0), (N,))
    for it in range(_PROJECT_ITERS + 1):
        # converged rows stop without moving, so they try no step, and so
        # does every row once the budget is spent
        stop = (L <= _STEP_TARGET * ra) | (it == _PROJECT_ITERS)
        if stop.any():
            i = idx[stop]
            X[i], res[i], last[i] = P[stop], R[stop], L[stop]
            idx, P, R, S, L, ra, back, span, run = _take_rows(
                np.flatnonzero(~stop), idx, P, R, S, L, ra, back, span, run)
            if not idx.size:
                break
        T = _renormalize(P + S, ra, P)
        vals, jacs, tres = _linearize(eqs, T)
        moved = tres < R
        if not moved.all():
            # the rows whose full step failed leave the trial's arrays and
            # try the halvings; a row that finds none stops, and one that
            # does is linearized at its new point
            keep = np.flatnonzero(moved)
            T, vals, jacs, tres = _take_rows(keep, T, vals, jacs, tres)
            cand, hit = _line_search(eqs, P, R, ra, S,
                                     np.flatnonzero(~moved))
            miss = ~(moved | hit)
            i = idx[miss]
            X[i], res[i], last[i] = P[miss], R[miss], L[miss]
            new = np.flatnonzero(hit)
            if new.size:
                cand = cand.take(new, axis=0)
                T, vals, jacs, tres = (
                    np.concatenate(pair) for pair in
                    zip((T, vals, jacs, tres), (cand, *_linearize(eqs, cand))))
                keep = np.concatenate([keep, new])
            idx, P, L, ra, back, span, run = _take_rows(
                keep, idx, P, L, ra, back, span, run)
            # the next iteration's halvings need none of these
            del cand, hit, miss, new, keep
        disp = _row_norm(T - back)
        run = np.where((disp <= _STALL_SPAN * L)
                       & (disp <= _STALL_GROWTH * span)
                       & (L > _STEP_ACCEPT * ra), run + 1, 0)
        stalled = run >= _STALL_RUN
        if stalled.any():
            i = idx[stalled]
            X[i], last[i] = T[stalled], np.inf
            idx, T, vals, jacs, tres, P, ra, disp, run = _take_rows(
                np.flatnonzero(~stalled),
                idx, T, vals, jacs, tres, P, ra, disp, run)
        if not idx.size:
            break
        back, span, P, R = P, disp, T, tres
        S = _newton_steps(vals, jacs)
        L = _row_norm(S)
        # free this iteration's linearization before the next one makes its
        # own, and leave P, R and span the only names of their arrays, so
        # the next compaction frees them
        del T, vals, jacs, tres, disp
    return X, (last <= _STEP_ACCEPT * rad) & np.isfinite(res)


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


def _slice_cloud(r: float, fraction: float, attempts: int,
                 raw: np.ndarray, key: tuple | None = None) -> SliceCloud:
    """Build the accepted member samples at radius r into a cloud (see
    :class:`SliceCloud`); no samples give an empty cloud. ``key`` is the
    cloud's cache key.

    Copies of one isolated slice point need not be equal bit for bit;
    accepted points are known to tol = ``_STEP_ACCEPT * r``, so closer
    ones are one point. Leader clustering in input order merges them: a
    row whose sum of squared differences from an earlier kept row is at
    most tol^2 joins the first such row, otherwise it is kept. Rows more
    than 2 tol apart in one coordinate never merge, so the sorted rows are
    cut into groups wherever their first coordinates jump by that much,
    and, while some group is wider than tol, wherever their next ones do;
    where no two first coordinates are that close nothing merges. A group
    whose bounding box has a diagonal of at most tol less
    ``_GAP_ROUNDING`` of it is one cluster, led by its first row; equal
    rows, 0.0 and -0.0 alike, share a group. In a wider group the first
    row left leads every row left within tol, in turn. No neighbour query
    runs: the one k-d tree is over the final points, and the spacing is
    left to its first read."""
    n = len(raw)
    tol = _STEP_ACCEPT * r
    points, counts = raw, np.ones(n, dtype=np.intp)
    if n > 1 and (np.diff(np.sort(raw[:, 0])) <= 2.0 * tol).any():
        order = np.argsort(raw[:, 0])
        ranked = raw.take(order, axis=0)
        # starts[i]: sorted row i opens a group
        starts = np.ones(n, dtype=bool)
        starts[1:] = ~(np.diff(ranked[:, 0]) <= 2.0 * tol)
        narrow = (tol * (1.0 - _GAP_ROUNDING)) ** 2
        for c in range(raw.shape[1]):
            if c:
                # sort each group by coordinate c, and cut it there too
                resort = np.lexsort((ranked[:, c], np.cumsum(starts)))
                order, ranked = order[resort], ranked[resort]
                starts[1:] |= ~(np.diff(ranked[:, c]) <= 2.0 * tol)
            heads = np.flatnonzero(starts)
            span = (np.maximum.reduceat(ranked, heads)
                    - np.minimum.reduceat(ranked, heads))
            wide = (span * span).sum(axis=1) > narrow
            if not wide.any():
                break
        ends = np.append(heads[1:], n)
        lead = np.minimum.reduceat(order, heads)
        leads, sizes = [lead[~wide]], [(ends - heads)[~wide]]
        for g in np.flatnonzero(wide):
            # the group's first row left leads every row left within tol
            rest = np.sort(order[heads[g]:ends[g]])
            while rest.size:
                i, rest = rest[0], rest[1:]
                near = ((raw[rest] - raw[i]) ** 2).sum(axis=1) <= tol * tol
                leads.append([i])
                sizes.append([1 + np.count_nonzero(near)])
                rest = rest[~near]
        lead, counts = np.concatenate(leads), np.concatenate(sizes)
        by_input = np.argsort(lead)
        lead, counts = lead[by_input], counts[by_input]
        if len(lead) < n:
            points = raw.take(lead, axis=0)
    return SliceCloud(r=r, points=points, converged_fraction=fraction,
                      counts=counts, attempts=attempts, tree=cKDTree(points),
                      key=key)


def _nonempty(cloud: SliceCloud, name: str) -> SliceCloud:
    """The cloud, or a fresh :class:`EmptySliceError` for the set ``name``
    when it has no points."""
    if not len(cloud):
        raise EmptySliceError(name, cloud.r, cloud.converged_fraction,
                              cloud.attempts)
    return cloud


def _isolated_radii(eqs, entries: dict, nstarts: int, nvars: int) -> set:
    """The radii at which a stratum's slice is a finite set of regular
    points that its projection found in full.

    ``entries`` maps each radius to the projection's accepted points. A
    radius qualifies when every start was accepted (so at
    least one was) and at every accepted point x the Jacobian of
    [f; |x|^2 / 2] with each row normalized, [J_f(x); x/r], has rank nvars,
    its sigma_min / sigma_max above ``_ISOLATED_GUARD``. Fewer than
    nvars - 1 equations cannot reach that rank, and nothing is evaluated.
    All radii share one Jacobian evaluation. A 2 x 2 M (one equation in two
    variables) is tested in closed form: sigma1 sigma2 = |det M|,
    sigma1^2 + sigma2^2 = |M|_F^2, and rho / (1 + rho^2) grows with
    rho = sigma2 / sigma1 on [0, 1], so rho > g exactly when
    |det M| (1 + g^2) > g |M|_F^2. Other shapes take one stacked SVD.
    """
    if len(eqs) + 1 < nvars:
        return set()
    full = [r for r, pts in entries.items() if len(pts) == nstarts]
    if not full:
        return set()
    X = np.concatenate([entries[r] for r in full])
    _, jacs = ex.eval_system_jacobian(eqs, X)
    normal = X / np.repeat(full, nstarts)[:, None]
    M = np.concatenate([jacs, normal[:, None]], axis=1)
    M[~np.isfinite(M).all(axis=(1, 2))] = 0.0
    norms = _row_norm(M)[..., None]
    M /= np.where(norms > 0.0, norms, 1.0)
    g = _ISOLATED_GUARD
    if M.shape[1:] == (2, 2):
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        regular = np.abs(det) * (1.0 + g * g) > g * (M * M).sum(axis=(1, 2))
    else:
        svals = np.linalg.svd(M, compute_uv=False)
        regular = svals[:, -1] > g * svals[:, 0]
    return {r for r, ok in zip(full, regular.reshape(len(full), nstarts))
            if ok.all()}


def sample_slices(s: SemianalyticSet, radii, npoints: int = 256,
                  seed: int = 0, cache: SliceCache | None = None
                  ) -> list[SliceCloud]:
    """Sample the set's intersection with the sphere of each radius.

    Returns one :class:`SliceCloud` per radius, in order; an empty slice is
    a cloud with no points, shape (0, nvars), at the noise-guard spacing.
    Each stratum is projected in one call for all the radii whose
    projection is not cached yet, one radius per row. The stratum's points
    at all its radii then pass one inequality filter and one membership
    call, each row at its own radius's tolerance; deduplication stays per
    radius.

    A part's boundary strata only pin down slice points that its own
    stratum samples densely at best. So a boundary stratum is not projected
    at a radius where the part's own slice is finite and found in full
    (:func:`_isolated_radii`): every start accepted, at a regular point
    isolated on the sphere. A boundary stratum adds equations, so its slice
    lies inside that finite set; its points would land on ones already
    sampled and fold into them in deduplication (on the corpus the clouds
    are bit-identical to projecting every stratum). An empty or partly
    converged parent proves nothing (non-reduced equations sample as
    empty), and neither does a count of equations (a redundant
    presentation has more equations than its dimension needs), so both
    keep their boundary strata. The rule looks only at the parent's
    projection, never at what the cache holds, so the clouds do not depend
    on the cache; a skipped stratum stores nothing, since it may be
    another set's own stratum. Nor is a boundary stratum projected whose
    promoted inequality is an inflation slack over the part's own
    equations (:func:`~germapprox.sets.is_origin_slack`): it is the origin
    alone, with no point on any sphere.

    Each radius's accepted samples are looked up by content (see
    :class:`SliceCloud`), so each distinct point set is built into a cloud
    once per cache. A set whose samples match a cached cloud gets a copy
    with its own converged fraction and attempts, which shares the cloud's
    spacing: the first read of either computes it, once. Building a cloud
    computes no spacing; a continuum target's cloud that the limit fit
    measures with the solver never does (see :attr:`SliceCloud.continuum`).
    """
    radii = [float(r) for r in radii]
    for r in radii:
        if not 0.0 < r <= s.omega:
            raise GeometryError(
                f"radius {r:g} outside (0, omega={s.omega:g}] of {s.name!r}")
    if cache is None:
        cache = _DEFAULT_CACHE
    npoints, seed = int(npoints), int(seed)
    sig = s.signature()
    out = {}
    for r in radii:
        hit = cache.lookup((sig, r, npoints, seed))
        if hit is not None:
            out[r] = hit
    todo = [r for r in dict.fromkeys(radii) if r not in out]
    if not todo:
        return [out[r] for r in radii]

    # the starts are built only when a stratum's projection misses the cache;
    # sphere_directions gives the line two directions whatever npoints
    dirs = None
    nstarts = 2 if s.nvars == 1 else npoints
    collected = {r: [] for r in todo}
    primary_accepted = dict.fromkeys(todo, 0)
    attempts = 0
    _, _, part_sigs = sig
    for part, (_, eq_strs, ineq_strs) in zip(s.parts, part_sigs):
        strata = zip(_part_strata(part, SLICE_DEPTH),
                     _strata(eq_strs, ineq_strs, SLICE_DEPTH))
        # radii at which the part's own slice already holds every boundary
        # point, so its boundary strata are not projected there
        isolated = set()
        for si, ((eqs, rest), (stratum_strs, _)) in enumerate(strata):
            attempts += nstarts
            if si and any(is_origin_slack(g, part.eqs, s.nvars)
                          for g in eqs[len(part.eqs):]):
                # an inflation slack over the part's own equations: this
                # boundary is the origin alone
                continue
            sys_eqs = _normalize_system(eqs)
            if sys_eqs is None:
                continue
            # a projection depends only on its system and its starts, so
            # sets sharing a stratum share its entry; the inequality filter
            # and membership stay per set. A skipped stratum stores nothing:
            # it may be another set's own stratum
            keys = {r: (s.nvars, stratum_strs, r, npoints, seed)
                    for r in todo if r not in isolated}
            entries = {r: cache.lookup(k) for r, k in keys.items()}
            missed = [r for r, e in entries.items() if e is None]
            if missed:
                if dirs is None:
                    dirs = sphere_directions(s.nvars, npoints, seed)
                pts, ok = project_to_sphere_slice(
                    sys_eqs, np.concatenate([dirs * r for r in missed]),
                    np.repeat(missed, nstarts))
                for j, r in enumerate(missed):
                    rows = slice(j * nstarts, (j + 1) * nstarts)
                    entries[r] = pts[rows][ok[rows]]
                    cache.store(keys[r], entries[r])
            if si == 0 and part.ineqs:
                isolated = _isolated_radii(sys_eqs, entries, nstarts,
                                           s.nvars)
            if not entries:
                continue
            if si == 0:
                for r, pts in entries.items():
                    primary_accepted[r] += len(pts)
            # the stratum's points at all its radii go through one
            # inequality filter and one membership call, each row held to
            # its own radius's tolerance, and are then split by radius
            owner = np.repeat(np.arange(len(entries)),
                              [len(pts) for pts in entries.values()])
            pts = np.concatenate(list(entries.values()))
            total = len(pts)
            ineq_tol = _SLICE_INEQ_TOL * np.maximum(
                1.0, np.array(list(entries)))[owner]
            for g in rest:
                if len(pts) == 0:
                    break
                vals = ex.eval_many(g, pts)
                keep = np.isfinite(vals) & (vals >= -ineq_tol)
                pts, owner, ineq_tol = pts[keep], owner[keep], ineq_tol[keep]
            if len(pts):
                # belt and braces: every sample must read back as a member
                keep = membership_mask(s, pts)
                pts, owner = pts[keep], owner[keep]
            for i, (r, entry) in enumerate(entries.items()):
                # where no row was filtered out, a radius's samples are its
                # stratum entry itself, not a copy of it
                mine = entry if len(pts) == total else pts[owner == i]
                if len(mine):
                    collected[r].append(mine)

    primary_total = nstarts * len(s.parts)
    for r in todo:
        fraction = (primary_accepted[r] / primary_total if primary_total
                    else 0.0)
        raw = (collected[r][0] if len(collected[r]) == 1
               else np.concatenate(collected[r], axis=0) if collected[r]
               else np.zeros((0, s.nvars)))
        digest = hashlib.blake2b(repr(raw.shape).encode(), digest_size=16)
        digest.update(np.ascontiguousarray(raw))
        key = ("cloud", r, digest.digest())
        cloud = cache.lookup(key)
        if cloud is None:
            cloud = _slice_cloud(r, fraction, attempts, raw, key)
            # every set with these samples reads these same arrays
            cloud.points.flags.writeable = False
            cloud.counts.flags.writeable = False
            cache.store(key, cloud)
        else:
            cloud = replace(cloud, converged_fraction=fraction,
                            attempts=attempts)
        out[r] = cloud
        cache.store((sig, r, npoints, seed), cloud)
    return [out[r] for r in radii]


def sample_slice(s: SemianalyticSet, r: float, npoints: int = 256,
                 seed: int = 0, cache: SliceCache | None = None
                 ) -> SliceCloud:
    """Sample the set's intersection with the sphere of radius r.

    Raises :class:`EmptySliceError` when nothing converges, which is the
    numeric signature of the origin being isolated at this resolution.
    """
    return _nonempty(sample_slices(s, [r], npoints=npoints, seed=seed,
                                   cache=cache)[0], s.name)


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


def _neighbours(X: np.ndarray, cloud: SliceCloud):
    """The k = min(3, |cloud|) nearest cloud points to each row of X, from
    the cloud's tree: distances and indices, shape (N, k), nearest first,
    the starts :func:`_multistart` adds to a row. The cloud must not be
    empty."""
    # k as a list keeps both results 2-D even when the cloud is 1 point
    return cloud.tree.query(X, k=list(range(1, min(3, len(cloud)) + 1)))


def _deviation(ca: SliceCloud, cb: SliceCloud,
               cache: SliceCache | None) -> float:
    """``directed_deviation(ca.points, cb.points)``, bit for bit, from one
    query of A's points in B's tree. The limit fit reads it where B's slice
    is isolated points. The cache holds it under both clouds' content keys,
    so each ordered pair of point sets is measured once (a cloud and its
    copy are one pair); a cloud without a key is measured afresh."""
    if not len(ca):
        return 0.0
    if not len(cb):
        return math.inf
    if cache is None:
        cache = _DEFAULT_CACHE
    keyed = ca.key is not None and cb.key is not None
    key = ("deviation", ca.key, cb.key)
    hit = cache.lookup(key) if keyed else None
    if hit is None:
        hit = float(np.max(cb.tree.query(ca.points)[0]))
        if keyed:
            cache.store(key, hit)
    return hit


# ---------------------------------------------------------------------------
# distance from points to a germ


def _nearest_steps(eqs, Y: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """One nearest-point step per row: the Gauss-Newton restoration onto
    {f = 0} minus the full part of ``Y - targets`` tangent to it,
    nan-safe."""
    vals, jacs, _ = _linearize(eqs, Y)
    pinv = _pinv(jacs)
    d = Y - targets
    tang = d - _pinv_times(pinv, (jacs @ d[..., None])[..., 0])
    restore = -_pinv_times(pinv, vals)
    return np.nan_to_num(restore - tang, nan=0.0, posinf=0.0, neginf=0.0)


def _nearest_on_variety(eqs, starts: np.ndarray, targets: np.ndarray,
                        iters: int = _NEAREST_ITERS):
    """Per row: move a start toward the nearest point of {f = 0} to target.

    After ``_LANDING_STEPS`` Gauss-Newton steps onto the variety, each of up
    to ``iters`` iterations pulls a row by the whole tangential part of its
    offset from the target and restores it onto the variety
    (:func:`_nearest_steps`). A row stops once its step is at most
    ``_NEAREST_TARGET·|target|``; the others go on. With ``iters`` = 0 a
    row only lands: its point is where the Gauss-Newton steps leave it (see
    :func:`_landing`). Rows never mix, so a row's result does not depend on
    the rows it shares the call with. With no equations every start is
    already on the variety, and stays where it is.

    Returns final points and a converged mask: a finite residual, a last
    Gauss-Newton step of at most ``tol = _NEAREST_ACCEPT·|target|``, and
    ``|f| <= |J|_F·tol``, the residual a point within tol of {f = 0} can
    have. A zero step proves nothing where the pseudo-inverse cuts a
    direction off: a start on the critical locus of its equation does not
    move, and `_linearize` reads a non-finite value as 0, so a row outside
    an equation's domain takes no step either. The residual tests refuse
    both; a redundant or overdetermined system, rank-deficient on its own
    zero set, still converges there with |f| near 0.
    """
    Y = np.array(starts, dtype=float)
    if not eqs:
        return Y, np.ones(len(Y), dtype=bool)
    scale = np.maximum(_row_norm(targets), 1e-30)
    for _ in range(_LANDING_STEPS):
        Y = Y + _gn_steps(eqs, Y)[0]
    idx = np.arange(len(Y))
    for _ in range(iters):
        if idx.size == 0:
            break
        step = _nearest_steps(eqs, Y.take(idx, axis=0),
                              targets.take(idx, axis=0))
        Y[idx] += step
        idx = idx[_row_norm(step) > _NEAREST_TARGET * scale[idx]]
    tol = _NEAREST_ACCEPT * scale
    vals, jacs, res = _linearize(eqs, Y)
    ok = np.isfinite(res)
    ok &= _row_norm(_pinv_times(_pinv(jacs), vals)) <= tol
    ok &= _row_norm(vals) <= np.linalg.norm(jacs, axis=(-2, -1)) * tol
    return Y, ok


def dist_to_set_batch(X: np.ndarray, s: SemianalyticSet,
                      npoints: int = 128, seed: int = 0,
                      cache: SliceCache | None = None) -> np.ndarray:
    """Distance from each query point to the set germ, shape (N, n) -> (N,).

    Every distance is to a point found on the set. Candidates come from four
    sources per query: the origin (when a part passes through it), the
    set's slice cloud at the queries' median radius, the point each part's
    equations land the query on (the nearest-point solver's Gauss-Newton
    steps alone, accepted by its own rule: :func:`_landing`), and
    constrained refinement onto every boundary stratum of every part by the
    same solver, multi-started from the query and its nearest cloud points.
    The multistart does not depend on the stratum, so it is built once per
    call. A query on a part's equations lands within solver accuracy of
    itself, and one inside a part with no equations keeps its own position,
    at distance 0; membership's tolerance is never read as a distance.
    Infinity means the set offered no candidate at all (an empty germ).
    Query points that are not finite, or not of shape (N, s.nvars), raise
    GeometryError.

    Every other step is row by row and start by start, so a row's distance
    depends on the other rows only through that cloud radius:
    :func:`_max_dists`, which takes each slice cloud's own radius, gives a
    cloud whose median norm is its radius the same bits.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != s.nvars:
        raise GeometryError(f"query points have shape {X.shape}, set "
                            f"{s.name!r} needs (N, {s.nvars})")
    if not np.isfinite(X).all():
        raise GeometryError("query points must be finite")
    r_cloud = float(np.median(_row_norm(X))) if len(X) else 0.0
    best, near, _ = _bounds(X, s, [(np.arange(len(X)), r_cloud)], npoints,
                            seed, cache)
    _refine(X, s, best, *_multistart(X, best, near))
    return best


def _on_cloud(X: np.ndarray, cloud: SliceCloud) -> np.ndarray:
    """Mask of the rows of X that are points of the cloud (0.0 equals
    -0.0), the rows at distance 0 from it. The first coordinate screens the
    rows, and only the rows it passes are compared whole."""
    hit = np.isin(X[:, 0], cloud.points[:, 0])
    if hit.any():
        row = np.dtype((np.void, X.itemsize * X.shape[1]))

        def whole(A):
            # + 0.0 turns -0.0 into 0.0, so equal rows have equal bytes
            return np.ascontiguousarray(A + 0.0).view(row).ravel()

        hit[hit] = np.isin(whole(X[hit]), whole(cloud.points))
    return hit


def _bounds(X: np.ndarray, s: SemianalyticSet, groups, npoints: int,
            seed: int, cache: SliceCache | None):
    """Each row's bound on its distance to the germ of s that needs no
    neighbour query, for rows X in ``groups`` of (rows, r): the rows
    ``rows`` of X take the set's cloud at radius r.

    Returns ``best``: 0 for a row that is a point of its cloud
    (:func:`_on_cloud`), which lands nowhere closer; for the others the
    least of its norm (when a part passes through the origin) and its
    landing distance (:func:`_landing`, the solver with no tangential
    iteration); ``near``, each group's rows and cloud (None where the set
    has no points at r); and ``far``, the mask of the rows that did not
    land. Each candidate is a distance to a point of the set, so the
    cloud distance (:func:`_multistart`) and refinement only lower
    ``best``.
    """
    best = np.full(len(X), math.inf)
    if any(p.through_origin for p in s.parts):
        best = _row_norm(X)
    near = []
    for rows, radius in groups:
        cloud = None
        if 0.0 < radius <= s.omega:
            try:
                cloud = sample_slice(s, float(radius), npoints=npoints,
                                     seed=seed, cache=cache)
            except EmptySliceError:
                pass
            else:
                best[rows[_on_cloud(X[rows], cloud)]] = 0.0
        near.append((rows, cloud))
    live = np.flatnonzero(best > 0.0)
    landed = _landing(X[live], s)
    best[live] = np.minimum(best[live], landed)
    far = np.zeros(len(X), dtype=bool)
    far[live[np.isinf(landed)]] = True
    return best, near, far


def _multistart(X: np.ndarray, best: np.ndarray, near):
    """For the rows and cloud of each pair in ``near`` (a cloud of None: the
    set has no points there), lower ``best`` in place to each row's
    distance to the cloud, and return those rows' multistart, flat: ``own``,
    the row of X each start is for, and ``starts``, each row itself and
    then its nearest cloud points (:func:`_neighbours`), for every row
    whose ``best`` is still above 0. Only the rows in ``near`` meet the
    cloud's tree."""
    own, starts = [np.zeros(0, dtype=np.intp)], [X[:0]]
    for rows, cloud in near:
        own.append(rows)
        starts.append(X[rows])
        if cloud is not None and rows.size:
            dists, idx = _neighbours(X[rows], cloud)
            best[rows] = np.minimum(best[rows], dists[:, 0])
            own.append(np.repeat(rows, idx.shape[1]))
            starts.append(cloud.points[idx.ravel()])
    own, starts = np.concatenate(own), np.concatenate(starts)
    keep = best[own] > 0.0
    return own[keep], starts[keep]


def _in_germ(Y: np.ndarray, ineqs, omega: float, X: np.ndarray):
    """Rows of Y, points found for the query rows X, inside the ball of
    radius omega and meeting every inequality of ``ineqs`` to within
    ``_MEMBER_TOL_INEQ * max(1, |x|)``, membership_mask's rules."""
    keep = _in_ball(_row_norm(Y), omega)
    tol = _MEMBER_TOL_INEQ * np.maximum(1.0, _row_norm(X))
    for g in ineqs:
        vals = ex.eval_many(g, Y)
        keep &= np.isfinite(vals) & (vals >= -tol)
    return keep


def _solved(s: SemianalyticSet, depth: int, starts: np.ndarray,
            targets: np.ndarray, iters: int):
    """For each feasible stratum of each part of s to ``depth`` (see
    :func:`_part_strata`), yield ``(ok, d)``: the rows whose point from
    :func:`_nearest_on_variety`, run with ``iters`` tangential iterations,
    is accepted and kept by :func:`_in_germ`, and those rows' distances
    from the point to their targets. A stratum without equations keeps
    each start, so a start inside a part with only inequalities is its own
    point."""
    for part in s.parts:
        for eqs, rest in _part_strata(part, depth):
            eqs = _normalize_system(eqs)
            if eqs is None:
                continue
            Y, ok = _nearest_on_variety(eqs, starts, targets, iters)
            ok[ok] = _in_germ(Y[ok], rest, s.omega, targets[ok])
            yield ok, _row_norm(Y[ok] - targets[ok])


def _landing(X: np.ndarray, s: SemianalyticSet) -> np.ndarray:
    """Per row x of X, |Y - x| for the point Y that ``_LANDING_STEPS``
    Gauss-Newton steps from x reach on a part's own equations, the least
    over the parts; inf where no part's Y is valid, row by row.

    Y is the nearest-point solver's point with no tangential iteration, and
    it is valid where the solver accepts it (:func:`_nearest_on_variety`,
    with x as its own target) and :func:`_in_germ` keeps it as it keeps a
    refined point. Near a squared factor the steps converge only linearly,
    so rows there do not land.
    """
    out = np.full(len(X), math.inf)
    for ok, d in _solved(s, 0, X, X, 0):
        out[ok] = np.minimum(out[ok], d)
    return out


def _refine(X: np.ndarray, s: SemianalyticSet, best: np.ndarray,
            own: np.ndarray, starts: np.ndarray) -> None:
    """Lower ``best`` in place by constrained refinement onto every boundary
    stratum of every part, from each of ``starts`` toward its row
    ``own`` of X."""
    if not own.size:
        return
    for ok, d in _solved(s, _DIST_DEPTH, starts, X[own], _NEAREST_ITERS):
        np.minimum.at(best, own[ok], d)


def _max_dists(clouds, s: SemianalyticSet, npoints: int, seed: int,
               cache: SliceCache | None) -> list[float]:
    """The largest distance from a point of each slice cloud of ``clouds``
    to the germ of s (0.0 for an empty cloud), with the nearest-point
    solver run, and the set's cloud queried, only on the points that can
    hold a maximum.

    The cache holds each cloud's maximum, keyed on its content key, s's
    signature, ``npoints`` and ``seed``, so the limit fit and the horn
    criterion compute a direction once; a cloud without a key is computed
    afresh.

    Each cloud's points take the set's cloud at the cloud's own radius
    ``r``. A cloud whose median norm is r so gets ``max(dist_to_set_batch(
    cloud.points, s, ...))`` bit for bit; one whose median norm is an ulp
    or two off r (a curve's slice of a few points can be) still measures
    against the cloud at r, which the limit fit also used, not against a
    cloud sampled at the off-schedule radius.

    Every row's bound is a candidate that needs no neighbour query (see
    :func:`_bounds`): 0 for a point of the set's cloud, else its landing
    distance or norm. A row that does not land also takes its cloud
    distance at once, so a target where nothing lands (a non-reduced
    equation) still has bounds to screen by. The rows of each cloud then
    come by falling bound, in chunks of ``_FIRST_CHUNK`` rows and 4 times
    the last chunk after that, and a cloud stops at the first row whose
    bound is at most its largest distance refined so far. A chunk's rows
    are queried in the set's cloud's tree (:func:`_multistart`), and the
    solver runs every start of those whose distance is still above that
    maximum. Refinement only lowers a distance, so no row left out can
    exceed the maximum; a poor bound costs time, not bits. The clouds not
    in the cache are stacked, so one call finds every bound and one solver
    call runs each round's chunks. Rows never mix, so every row gets the
    bits of a call on its cloud alone.
    """
    if cache is None:
        cache = _DEFAULT_CACHE
    sig = s.signature()
    keys = [None if c.key is None else ("max_dist", c.key, sig, npoints, seed)
            for c in clouds]
    out = [None if k is None else cache.lookup(k) for k in keys]
    todo = [i for i, d in enumerate(out) if d is None]
    if not todo:
        return out
    clouds = [clouds[i] for i in todo]
    sizes = [len(c) for c in clouds]
    batch = np.repeat(np.arange(len(clouds)), sizes)
    X = np.concatenate([c.points for c in clouds])
    ends = np.cumsum(sizes)
    groups = [(np.arange(end - len(c), end), c.r)
              for c, end in zip(clouds, ends) if len(c)]
    best, near, far = _bounds(X, s, groups, npoints, seed, cache)

    def multistart(mask):
        return _multistart(X, best, [(rows[mask[rows]], cloud)
                                     for rows, cloud in near])

    early = multistart(far)
    # each row's rank within its batch, largest bound first
    rank = np.empty(len(X), dtype=np.intp)
    rank[np.lexsort((-best, batch))] = np.arange(len(X))
    rank -= (ends - sizes)[batch]
    dmax = np.zeros(len(clouds))
    lo, size = 0, _FIRST_CHUNK
    while True:
        # a batch's rows come by falling bound, unrefined rows still hold
        # theirs, and its maximum only grows: once no row of a round can
        # pass it, no later row can
        pick = (rank >= lo) & (rank < lo + size) & (best > dmax[batch])
        if not pick.any():
            break
        own, starts = (np.concatenate(a) for a in zip(
            early, multistart(pick & ~far)))
        # the cloud distance may take a row to the maximum already
        pick &= best > dmax[batch]
        go = pick[own]
        _refine(X, s, best, own[go], starts[go])
        np.maximum.at(dmax, batch[pick], best[pick])
        lo, size = lo + size, 4 * size
    np.maximum.at(dmax, batch, best)
    for i, d in zip(todo, dmax.tolist()):
        out[i] = d
        if keys[i] is not None:
            cache.store(keys[i], d)
    return out


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
    clouds = [_nonempty(c, s.name).directions()
              for c in sample_slices(s, radii, npoints=npoints, seed=seed,
                                     cache=cache)]
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
    anchors = np.linspace(0, len(pts) - 1, num=min(8, len(pts)),
                          dtype=int)
    anchors = np.unique(anchors)
    rank_max = 0
    for ai in anchors:
        idx = cloud.tree.query_ball_point(pts[ai], h)
        local = pts[idx]
        if len(local) < 2:
            continue
        centered = local - local.mean(axis=0)
        # the slice lies on the sphere, so the radial direction is the
        # sphere's curvature, not a direction of the slice
        u = pts[ai] / np.linalg.norm(pts[ai])
        centered -= np.outer(centered @ u, u)
        cov = centered.T @ centered / len(local)
        evals = np.linalg.eigvalsh(cov)[::-1]
        if evals[0] <= 0.0:
            continue
        significant = (evals >= 1e-6 * evals[0]) & (np.sqrt(
            np.maximum(evals, 0.0)) >= 0.05 * h)
        rank_max = max(rank_max, int(significant.sum()))
    return int(np.clip(1 + rank_max, 0, s.nvars))
