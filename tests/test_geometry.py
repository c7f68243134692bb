import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import germapprox as ga
from conftest import make_collection
from germapprox import expr as ex
from germapprox import geometry as gg
from germapprox import sets as gs


def parabola_slice_x(r):
    """On {y = x^2} the sphere equation x^2 + x^4 = r^2 solves in x^2."""
    return math.sqrt((math.sqrt(1.0 + 4.0 * r * r) - 1.0) / 2.0)


ISOLATED = gs.SemianalyticSet(
    name="origin_only", nvars=2, omega=0.5,
    parts=(gs.BasicPresentation(
        nvars=2, eqs=(ex.Var(0), ex.Var(1))),))


class TestSphereDirections:
    def test_one_var_is_both_signs(self):
        np.testing.assert_array_equal(
            ga.sphere_directions(1, 10), [[1.0], [-1.0]])

    @pytest.mark.parametrize("nvars", [2, 3, 4])
    def test_unit_norm_and_shape(self, nvars):
        d = ga.sphere_directions(nvars, 100, seed=3)
        assert d.shape == (100, nvars)
        np.testing.assert_allclose(
            np.linalg.norm(d, axis=1), 1.0, rtol=1e-12)

    def test_deterministic_per_seed(self):
        a = ga.sphere_directions(3, 50, seed=1)
        b = ga.sphere_directions(3, 50, seed=1)
        c = ga.sphere_directions(3, 50, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_count_validation(self):
        with pytest.raises(gg.GeometryError):
            ga.sphere_directions(2, 0)


class TestProjectToSlice:
    def test_parabola_lands_on_closed_form(self):
        r = 0.25
        eqs = [ex.parse("y - x^2", 2)]
        starts = ga.sphere_directions(2, 64, seed=0) * r
        X, ok = gg.project_to_sphere_slice(eqs, starts, r)
        assert ok.sum() >= 60
        xs = parabola_slice_x(r)
        assert xs == pytest.approx(0.24293413587832288, abs=1e-16)
        targets = np.array([[xs, xs * xs], [-xs, xs * xs]])
        d = cdist(X[ok], targets).min(axis=1)
        assert d.max() < 1e-12
        np.testing.assert_allclose(np.linalg.norm(X[ok], axis=1), r,
                                   rtol=1e-12)

    def test_no_equations_accepts_everything(self):
        starts = ga.sphere_directions(2, 16, seed=0) * 0.1
        X, ok = gg.project_to_sphere_slice([], starts, 0.1)
        assert ok.all()
        np.testing.assert_array_equal(X, starts)

    def test_rank_deficient_redundant_system_converges(self, curves):
        # both equations share a factor, so the Jacobian is singular ON the
        # curve; the truncated pseudoinverse must not amplify rounding noise
        # into a limit cycle
        eqs = curves.get("cusp_product").parts[0].eqs
        r = 0.25
        starts = ga.sphere_directions(2, 64, seed=0) * r
        X, ok = gg.project_to_sphere_slice(eqs, starts, r)
        assert ok.all()
        res = np.linalg.norm(ex.eval_system(eqs, X), axis=1)
        assert res.max() < 1e-12


def _project_reference(eqs, starts, r):
    """The sphere projection with its halvings tried one at a time and a
    final re-linearization of every row: the loop the batched line search
    must reproduce bit for bit."""
    X = np.array(starts, dtype=float)
    N = len(X)
    if not eqs:
        return X, np.ones(N, dtype=bool)
    res = gg._system_residual(eqs, X)
    active = np.ones(N, dtype=bool)
    for _ in range(gg._PROJECT_ITERS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        Xa = X[idx]
        steps = gg._gn_steps(eqs, Xa)
        slen = np.linalg.norm(steps, axis=-1)
        conv = slen <= gg._STEP_TARGET * r
        cand = gg._renormalize(Xa + steps, r, Xa)
        cres = gg._system_residual(eqs, cand)
        t = np.ones(idx.size)
        for _ in range(25):
            pending = ~(cres < res[idx]) & ~conv
            if not pending.any():
                break
            t[pending] *= 0.5
            trial = gg._renormalize(
                Xa[pending] + t[pending, None] * steps[pending], r,
                Xa[pending])
            cand[pending] = trial
            cres[pending] = gg._system_residual(eqs, trial)
        improved = cres < res[idx]
        move = improved & ~conv
        X[idx[move]] = cand[move]
        res[idx[move]] = cres[move]
        active[idx[conv | ~improved]] = False
    final_steps = gg._gn_steps(eqs, X)
    accepted = np.linalg.norm(final_steps, axis=-1) <= gg._STEP_ACCEPT * r
    accepted &= np.isfinite(gg._system_residual(eqs, X))
    return X, accepted


def _corpus_systems(curves, surfaces):
    for coll in (curves, surfaces):
        for s in coll.sets.values():
            for part in s.parts:
                for eqs, _ in gg._part_strata(part, gg.SLICE_DEPTH):
                    eqs = gg._normalize_system(eqs)
                    if eqs:
                        yield s.nvars, eqs


class TestProjectMatchesReference:
    """The batched line search and the reused last step change how many
    evaluations the projection makes, never what it returns."""

    @staticmethod
    def _check(eqs, starts, r):
        X, ok = gg.project_to_sphere_slice(eqs, starts, r)
        X_ref, ok_ref = _project_reference(eqs, starts, r)
        assert np.array_equal(X, X_ref)
        assert np.array_equal(ok, ok_ref)
        return X, ok

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("r", [0.25, 0.25 * 2.0 ** -6])
    def test_corpus_strata(self, curves, surfaces, r, seed):
        systems = list(_corpus_systems(curves, surfaces))
        assert len(systems) > 30
        for nvars, eqs in systems:
            self._check(eqs, ga.sphere_directions(nvars, 64, seed) * r, r)

    @pytest.mark.parametrize("iters", [1, 2, 3, 5])
    def test_budget_runs_out(self, curves, surfaces, monkeypatch, iters):
        # rows still iterating when the budget ends are linearized again
        monkeypatch.setattr(gg, "_PROJECT_ITERS", iters)
        r = 0.25
        for nvars, eqs in _corpus_systems(curves, surfaces):
            self._check(eqs, ga.sphere_directions(nvars, 64, 0) * r, r)

    def test_inflated_strata(self, curves):
        part = curves.get("cusp_product").parts[0]
        proj, _ = gs.generic_projection(part.eqs, 2, 1, seed=0)
        infl = gs.inflated_part(part, proj, m=1)
        r = 0.25
        starts = ga.sphere_directions(2, 64, seed=0) * r
        for eqs, _ in gg._part_strata(infl, gg.SLICE_DEPTH):
            self._check(gg._normalize_system(eqs), starts, r)

    def test_every_row_stalls(self):
        # a fourfold root: Gauss-Newton only creeps, so rows stall with
        # all halvings spent
        r = 0.25
        eqs = (ex.parse("x^4", 2),)
        _, ok = self._check(eqs, ga.sphere_directions(2, 64, seed=0) * r, r)
        assert not ok.any()

    def test_rows_outside_the_domain(self):
        # log1p(3x) is nan for x < -1/3, which this sphere reaches
        r = 0.5
        eqs = (ex.parse("y - log1p(3*x)", 2),)
        starts = ga.sphere_directions(2, 64, seed=0) * r
        assert np.isnan(ex.eval_system(eqs, starts)).any()
        _, ok = self._check(eqs, starts, r)
        assert ok.any() and not ok.all()

    def test_single_row(self, curves):
        r = 0.25
        eqs = curves.get("exp_curve").parts[0].eqs
        _, ok = self._check(eqs, ga.sphere_directions(2, 1, seed=0) * r, r)
        assert ok.all()


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def _jacobian_batch(rng, m, n, size=40):
    """Random (size, m, n) Jacobians plus rows that stress the closed forms:
    all-zero rows and rows scaled by 1e-200 and 1e200."""
    J = rng.standard_normal((size, m, n))
    J[:3] = 0.0
    J[3:6] *= 1e-200
    J[6:9] *= 1e200
    return J


def _assert_near_svd(J, got):
    """Zero rows give exactly zero; every other row is within
    16 eps cond(J) of the SVD pseudo-inverse, relative to its largest
    entry (the rounding of either path; about 5 is seen)."""
    want = np.linalg.pinv(J, rcond=gg._PINV_RCOND)
    live = np.abs(J).max(axis=(1, 2)) > 0.0
    assert not got[~live].any() and not want[~live].any()
    svals = np.linalg.svd(J[live], compute_uv=False)
    cond = svals[:, 0] / svals[:, -1]
    err = np.abs(got[live] - want[live]).max(axis=(1, 2))
    size = np.abs(want[live]).max(axis=(1, 2))
    assert np.all(err <= 16 * np.finfo(float).eps * cond * size)


class TestPinv:
    """The closed forms agree with the SVD pseudo-inverse, and every row the
    cut-off can act on still goes through the SVD."""

    @staticmethod
    def _svd(J):
        return np.linalg.pinv(J, rcond=gg._PINV_RCOND)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_equation(self, n):
        J = _jacobian_batch(np.random.default_rng(n), 1, n)
        got = gg._pinv(J)
        assert got.shape == (len(J), n, 1)
        _assert_near_svd(J, got)
        # leading batch dimensions are kept
        stacked = J[9:].reshape(-1, 1, 1, n)
        assert np.array_equal(gg._pinv(stacked), got[9:].reshape(-1, 1, n, 1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_rows(self, n):
        J = _jacobian_batch(np.random.default_rng(2), 2, n)
        got = gg._pinv(J)
        assert got.shape == (len(J), n, 2)
        _assert_near_svd(J, got)
        # a zero first row over a nonzero second one goes to the SVD
        J = J[9:]
        J[:, 0] = 0.0
        assert np.array_equal(gg._pinv(J), self._svd(J))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("ratio,closed", [
        (1e-5, True), (1e-8, False), (1e-10, False)])
    def test_two_rows_ill_conditioned(self, ratio, closed, n):
        # sigma2/sigma1 on both sides of the guard and of the cut-off
        rng = np.random.default_rng(3)
        J = np.stack([
            _rotation(a) @ np.diag([s, s * ratio])
            @ np.linalg.qr(rng.standard_normal((n, 2)))[0].T
            for a, s in zip(rng.uniform(0, 2 * np.pi, 20),
                            10.0 ** rng.uniform(-3, 3, 20))])
        svals = np.linalg.svd(J, compute_uv=False)
        fro = (J * J).sum(axis=(1, 2))
        assert np.all((svals[:, 0] * svals[:, 1]
                       >= gg._PINV_CLOSED_GUARD * fro) == closed)
        got, want = gg._pinv(J), self._svd(J)
        if closed:
            _assert_near_svd(J, got)
        else:
            # the SVD itself, so the cut-off acts exactly as before: at
            # 1e-10 it drops the small singular value, at 1e-8 it keeps it
            assert np.array_equal(got, want)
            svals = np.linalg.svd(got, compute_uv=False)
            rank = (svals > 1e-12 * svals[:, :1]).sum(axis=1)
            assert np.all(rank == (2 if ratio > gg._PINV_RCOND else 1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_rows_singular(self, n):
        # exactly singular rows: the second row is a power-of-two multiple
        # of the first, so the rows are exactly parallel and the SVD decides
        rng = np.random.default_rng(4)
        top = rng.standard_normal((20, 1, n))
        J = np.concatenate([top, top * 2.0 ** rng.integers(-3, 4, (20, 1, 1))],
                           axis=1)
        assert not np.any(J[:, 0] * J[:, 1, :1] - J[:, 1] * J[:, 0, :1])
        J[::5] *= 1e200
        J[1::5] *= 1e-200
        assert np.array_equal(gg._pinv(J), self._svd(J))

    def test_other_shapes_are_the_svd(self):
        rng = np.random.default_rng(5)
        for shape in [(30, 3, 2), (30, 3, 3)]:
            J = rng.standard_normal(shape)
            J[0] = 0.0
            J[1, -1] = J[1, 0]
            assert np.array_equal(gg._pinv(J), self._svd(J))

    def test_space_curve_needs_no_svd(self, monkeypatch):
        # two equations in three variables: every Jacobian is (rows, 2, 3)
        curve = make_collection(
            {"vars": ["x", "y", "z"], "omega": 0.5,
             "sets": {"c": {"parts": [{"eqs": ["y - x^2", "z - x^3"]}]}}}
        ).get("c")
        calls = []
        svd_pinv = np.linalg.pinv

        def counting(*args, **kw):
            calls.append(1)
            return svd_pinv(*args, **kw)

        monkeypatch.setattr(np.linalg, "pinv", counting)
        cloud = ga.sample_slice(curve, 0.25, cache=ga.SliceCache())
        assert len(cloud) > 0
        assert not calls


def _dedup_reference(points, cell):
    """Grid-hash dedup as a dict loop: the first point of each cell, in
    input order, with the cell's hit count."""
    seen = {}
    keep = []
    counts = []
    cells = np.floor(points / cell).astype(np.int64)
    for i, key in enumerate(map(tuple, cells)):
        j = seen.get(key)
        if j is None:
            seen[key] = len(keep)
            keep.append(i)
            counts.append(1)
        else:
            counts[j] += 1
    return points[keep], np.array(counts)


class TestDedup:
    @pytest.mark.parametrize("n,nvars,cell", [
        (1, 2, 1e-3), (50, 2, 1e-15), (300, 2, 0.05), (300, 3, 0.1),
        (1000, 3, 0.3), (200, 1, 0.01), (500, 4, 0.5)])
    def test_matches_loop(self, n, nvars, cell):
        rng = np.random.default_rng(n + nvars)
        pts = rng.uniform(-0.25, 0.25, size=(n, nvars))
        # repeated rows and points on cell boundaries, both signs
        pts[n // 2:] = pts[: n - n // 2]
        pts[::7] = np.round(pts[::7] / cell) * cell
        got_pts, got_counts = gg._dedup(pts, cell)
        want_pts, want_counts = _dedup_reference(pts, cell)
        assert np.array_equal(got_pts, want_pts)
        assert np.array_equal(got_counts, want_counts)
        assert got_counts.sum() == n

    def test_matches_loop_on_slice_samples(self, curves, surfaces):
        # accepted samples pile onto isolated slice points or spread along
        # slice curves, at the cell size sample_slice uses
        r = 0.25
        for nvars, eqs in _corpus_systems(curves, surfaces):
            raw, ok = gg.project_to_sphere_slice(
                eqs, ga.sphere_directions(nvars, 128, 0) * r, r)
            raw = raw[ok]
            cell = gg._cloud_resolution(raw, np.ones(len(raw))) / 4.0
            got_pts, got_counts = gg._dedup(raw, cell)
            want_pts, want_counts = _dedup_reference(raw, cell)
            assert np.array_equal(got_pts, want_pts)
            assert np.array_equal(got_counts, want_counts)


def _merge_reference(points, counts, tol):
    """Leader clustering as a plain loop: each point joins the first kept
    point within tol, else it is kept."""
    kept = []
    summed = []
    for i, p in enumerate(points):
        for j, k in enumerate(kept):
            if np.sum((points[k] - p) ** 2) <= tol * tol:
                summed[j] += counts[i]
                break
        else:
            kept.append(i)
            summed.append(counts[i])
    return points[kept], np.array(summed)


class TestMergeClose:
    @pytest.mark.parametrize("n,nvars,tol", [
        (1, 2, 1e-3), (50, 2, 1e-15), (300, 2, 0.05), (300, 3, 0.1),
        (1000, 3, 0.3), (200, 1, 0.01), (500, 4, 0.5)])
    def test_matches_loop(self, n, nvars, tol):
        rng = np.random.default_rng(n + nvars)
        pts = rng.uniform(-0.25, 0.25, size=(n, nvars))
        # repeated rows, near-copies a few ulps apart, and points on a
        # grid of spacing tol, both signs
        pts[n // 2:] = pts[: n - n // 2]
        pts[1::5] = pts[::5][: len(pts[1::5])] * (1.0 + 4e-16)
        pts[::7] = np.round(pts[::7] / tol) * tol
        counts = rng.integers(1, 4, size=n)
        got_pts, got_counts = gg._merge_close(pts, counts, tol)
        want_pts, want_counts = _merge_reference(pts, counts, tol)
        assert np.array_equal(got_pts, want_pts)
        assert np.array_equal(got_counts, want_counts)
        assert got_counts.sum() == counts.sum()

    def test_matches_loop_on_slice_samples(self, curves, surfaces):
        # the grid survivors of accepted samples, at the tolerance
        # sample_slice merges them with
        r = 0.25
        for nvars, eqs in _corpus_systems(curves, surfaces):
            raw, ok = gg.project_to_sphere_slice(
                eqs, ga.sphere_directions(nvars, 128, 0) * r, r)
            raw = raw[ok]
            pts, counts = gg._dedup(
                raw, gg._cloud_resolution(raw, np.ones(len(raw))) / 4.0)
            tol = gg._STEP_ACCEPT * r
            got_pts, got_counts = gg._merge_close(pts, counts, tol)
            want_pts, want_counts = _merge_reference(pts, counts, tol)
            assert np.array_equal(got_pts, want_pts)
            assert np.array_equal(got_counts, want_counts)

    @pytest.mark.parametrize("npoints", [256, 2000])
    @pytest.mark.parametrize("r", [0.0625, 2.0 ** -8])
    def test_isolated_slice_points_collapse(self, curves, r, npoints):
        # exp_curve meets each sphere in two points; every accepted copy
        # of one collapses to a single cloud point
        c = ga.sample_slice(curves.get("exp_curve"), r, npoints=npoints,
                            seed=0, cache=ga.SliceCache())
        assert len(c.points) == 2
        assert np.linalg.norm(c.points[0] - c.points[1]) > r


class TestSampleSlice:
    def test_parabola_cloud_geometry(self, curves, shared_cache):
        r = 0.25
        c = ga.sample_slice(curves.get("parabola"), r, cache=shared_cache)
        assert c.set_name == "parabola" and c.r == r
        np.testing.assert_allclose(np.linalg.norm(c.points, axis=1), r,
                                   rtol=1e-12)
        resid = np.abs(c.points[:, 1] - c.points[:, 0] ** 2)
        assert resid.max() < 1e-12
        # the slice is two isolated points; every sample coincides with one
        # of them to solver accuracy, and piling drives the spacing to the
        # machine-noise guard
        xs = parabola_slice_x(r)
        targets = np.array([[xs, xs * xs], [-xs, xs * xs]])
        assert cdist(c.points, targets).min(axis=1).max() < 1e-12
        assert len(c.points) <= 16
        assert c.spacing == gg._SPACING_GUARD
        assert c.converged_fraction > 0.9

    def test_halfline_single_point(self, curves, shared_cache):
        c = ga.sample_slice(curves.get("halfline"), 0.25, cache=shared_cache)
        d = cdist(c.points, [[0.25, 0.0]])
        assert d.max() < 1e-12

    def test_continuum_spacing_scale(self, curves, shared_cache):
        # a 2-d slice is a curve on the sphere: the spacing reflects sample
        # coverage (~ r / npoints), many orders above the pile-up guard
        c = ga.sample_slice(curves.get("halfdisk"), 0.25, cache=shared_cache)
        assert 1e-4 < c.spacing < 1e-2

    def test_members_only(self, curves, shared_cache):
        c = ga.sample_slice(curves.get("exp_sin"), 0.25, cache=shared_cache)
        assert gs.membership_mask(curves.get("exp_sin"), c.points).all()
        assert (c.points[:, 0] >= -1e-10).all()

    def test_deterministic_across_fresh_caches(self, curves):
        a = ga.sample_slice(curves.get("exp_curve"), 0.125,
                            cache=ga.SliceCache())
        b = ga.sample_slice(curves.get("exp_curve"), 0.125,
                            cache=ga.SliceCache())
        assert np.array_equal(a.points, b.points)
        assert a.spacing == b.spacing

    def test_cache_returns_same_object(self, curves):
        cache = ga.SliceCache()
        a = ga.sample_slice(curves.get("line"), 0.25, cache=cache)
        b = ga.sample_slice(curves.get("line"), 0.25, cache=cache)
        assert a is b
        cache.clear()
        c = ga.sample_slice(curves.get("line"), 0.25, cache=cache)
        assert c is not a and np.array_equal(a.points, c.points)

    def test_cache_hit_relabels_same_geometry(self, curves):
        # the cache is keyed by presentation, so two sets with identical
        # geometry share entries; the label must follow the query
        twin = make_collection(
            {"vars": ["x", "y"], "omega": 0.5,
             "sets": {"pb_twin": {"parts": [{"eqs": ["y - x^2"]}]}}})
        cache = ga.SliceCache()
        a = ga.sample_slice(twin.get("pb_twin"), 0.25, cache=cache)
        b = ga.sample_slice(curves.get("parabola"), 0.25, cache=cache)
        assert a.set_name == "pb_twin"
        assert b.set_name == "parabola"
        assert np.array_equal(a.points, b.points)

    def test_empty_slice_cache_hit_relabels(self, fresh_cache):
        twin = make_collection(
            {"vars": ["x", "y"], "omega": 0.5,
             "sets": {"origin_twin": {"parts": [{"eqs": ["x", "y"]}]}}})
        with pytest.raises(ga.EmptySliceError):
            ga.sample_slice(ISOLATED, 0.25, cache=fresh_cache)
        with pytest.raises(ga.EmptySliceError) as e2:
            ga.sample_slice(twin.get("origin_twin"), 0.25, cache=fresh_cache)
        assert e2.value.set_name == "origin_twin"

    def test_empty_slice_raises_and_caches(self, fresh_cache):
        with pytest.raises(ga.EmptySliceError) as e1:
            ga.sample_slice(ISOLATED, 0.25, cache=fresh_cache)
        with pytest.raises(ga.EmptySliceError) as e2:
            ga.sample_slice(ISOLATED, 0.25, cache=fresh_cache)
        assert e1.value is e2.value
        err = e1.value
        assert err.set_name == "origin_only" and err.r == 0.25
        assert err.converged_fraction == 0.0 and err.attempts > 0

    def test_radius_validation(self, curves):
        p = curves.get("parabola")
        with pytest.raises(gg.GeometryError):
            ga.sample_slice(p, 0.0)
        with pytest.raises(gg.GeometryError):
            ga.sample_slice(p, 0.75)

    def test_directions_property(self, curves, shared_cache):
        c = ga.sample_slice(curves.get("line"), 0.125, cache=shared_cache)
        np.testing.assert_allclose(c.directions() * c.r, c.points)


class TestDirectedDeviation:
    def test_small_brute_force(self):
        P = np.array([[0.0, 0.0], [1.0, 0.0]])
        Q = np.array([[0.0, 1.0]])
        assert ga.directed_deviation(P, Q) == pytest.approx(math.sqrt(2.0))
        assert ga.directed_deviation(Q, P) == pytest.approx(1.0)

    def test_empty_conventions(self):
        P = np.zeros((3, 2))
        assert ga.directed_deviation(np.zeros((0, 2)), P) == 0.0
        assert ga.directed_deviation(P, np.zeros((0, 2))) == math.inf

    def test_zero_on_self(self):
        P = np.random.default_rng(0).normal(size=(40, 3))
        assert ga.directed_deviation(P, P) == 0.0

    def test_tree_path_matches_dense(self):
        # sizes from a 2x2 pair past 4e6 pairs, each compared exactly
        rng = np.random.default_rng(1)
        for n in (2, 40, 300, 2001):
            for dim in (2, 3):
                P = rng.normal(size=(n, dim))
                Q = rng.normal(size=(n, dim))
                dense = float(np.max(np.min(cdist(P, Q), axis=1)))
                assert ga.directed_deviation(P, Q) == dense, (n, dim)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("size", [2, 2001])
    def test_non_finite_row_raises(self, size, bad):
        P = np.random.default_rng(2).normal(size=(size, 2))
        Q = P[::-1].copy()
        P[size // 2, 0] = bad
        with pytest.raises(ValueError):
            ga.directed_deviation(P, Q)
        with pytest.raises(ValueError):
            ga.directed_deviation(Q, P)


class TestSliceDistance:
    def test_parabola_vs_line_closed_form(self, curves, shared_cache):
        r = 0.25
        d = ga.slice_distance(curves.get("parabola"), curves.get("line"), r,
                              cache=shared_cache)
        xs = parabola_slice_x(r)
        want = math.hypot(r - xs, xs * xs)
        assert d.delta_ab == pytest.approx(want, rel=1e-9)
        assert d.delta_ba == pytest.approx(want, rel=1e-9)
        assert d.d_full == max(d.delta_ab, d.delta_ba)
        assert d.floor == gg._SPACING_GUARD
        assert d.r == r

    def test_reflexive_distance_vanishes(self, curves, shared_cache):
        d = ga.slice_distance(curves.get("exp_curve"),
                              curves.get("exp_curve"), 0.125,
                              cache=shared_cache)
        assert d.delta_ab == 0.0 and d.delta_ba == 0.0


class TestDistToSet:
    def test_vertex_distance(self, curves, shared_cache):
        p = curves.get("parabola")
        assert ga.dist_to_set(np.array([0.0, 0.2]), p,
                              cache=shared_cache) == pytest.approx(0.2,
                                                                   abs=1e-9)

    def test_member_distance_zero(self, curves, shared_cache):
        p = curves.get("parabola")
        assert ga.dist_to_set(np.array([0.2, 0.04]), p,
                              cache=shared_cache) == 0.0

    def test_matches_variational_oracle(self, curves, shared_cache):
        # nearest point of {y = x^2} to (a, b) solves 4x^3 + (2-4b)x - 2a = 0
        p = curves.get("parabola")
        for a, b in [(0.3, 0.0), (0.2, 0.14), (-0.25, 0.1)]:
            roots = np.roots([4.0, 0.0, 2.0 - 4.0 * b, -2.0 * a])
            real = roots[np.abs(roots.imag) < 1e-12].real
            want = min(math.hypot(x - a, x * x - b) for x in real)
            got = ga.dist_to_set(np.array([a, b]), p, cache=shared_cache)
            assert got == pytest.approx(want, rel=1e-6)

    def test_halfline_endpoint(self, curves, shared_cache):
        h = curves.get("halfline")
        assert ga.dist_to_set(np.array([-0.1, 0.0]), h,
                              cache=shared_cache) == pytest.approx(
            0.1, abs=1e-9)
        assert ga.dist_to_set(np.array([-0.3, 0.4]), h,
                              cache=shared_cache) == pytest.approx(
            0.5, abs=1e-9)

    def test_batch_shape(self, curves, shared_cache):
        X = np.array([[0.0, 0.2], [0.2, 0.04]])
        out = ga.dist_to_set_batch(X, curves.get("parabola"),
                                   cache=shared_cache)
        assert out.shape == (2,)
        assert out[1] == 0.0

    def test_rows_outside_the_domain_are_not_members(self, fresh_cache):
        # log1p(100x) is nan for x < -0.01, where a start takes no step;
        # every point of the set has x > -0.01, which bounds each distance
        # from below by the query's gap to that line
        s = make_collection(
            {"vars": ["x", "y"], "omega": 0.5,
             "sets": {"log_graph": {"parts": [{"eqs": ["y - log1p(100*x)"]}]}}}
        ).get("log_graph")
        X = np.array([[-0.1, 0.0], [-0.05, 0.05]])
        got = ga.dist_to_set_batch(X, s, cache=fresh_cache)
        assert np.all(np.isfinite(got))
        assert np.all(got >= -0.01 - X[:, 0])

    def test_empty_germ_is_infinitely_far(self):
        empty = gs.SemianalyticSet(name="none", nvars=2, omega=0.5)
        assert ga.dist_to_set(np.array([0.1, 0.1]), empty) == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_non_finite_queries_rejected(self, curves, shared_cache, rows,
                                         bad):
        X = np.tile([[0.1, 0.05]], (rows, 1))
        X[rows // 2, 0] = bad
        with pytest.raises(gg.GeometryError, match="must be finite"):
            ga.dist_to_set_batch(X, curves.get("parabola"),
                                 cache=shared_cache)


def _dist_reference(X, s, npoints, seed, cache):
    """dist_to_set_batch assembled from a dense queries x cloud matrix, its
    argsort, and a multistart rebuilt per stratum: the path the k-d tree
    query must reproduce."""
    X = np.asarray(X, dtype=float)
    best = np.full(len(X), math.inf)
    member = gs.membership_mask(s, X)
    best[member] = 0.0
    norms = np.linalg.norm(X, axis=-1)
    if any(p.through_origin for p in s.parts):
        best = np.minimum(best, norms)
    r_med = float(np.median(norms))
    cloud = None
    if 0.0 < r_med <= s.omega:
        try:
            cloud = ga.sample_slice(s, r_med, npoints=npoints, seed=seed,
                                    cache=cache)
        except gg.EmptySliceError:
            cloud = None
    near_idx = None
    if cloud is not None and len(cloud.points):
        D = cdist(X, cloud.points)
        best = np.minimum(best, D.min(axis=1))
        near_idx = np.argsort(D, axis=1)[:, :min(3, len(cloud.points))]
    todo = np.flatnonzero(~member)
    ineq_tol = 1e-8 * np.maximum(1.0, norms)
    for part in s.parts:
        for eqs, rest in gg._part_strata(part, gg._DIST_DEPTH):
            eqs = gg._normalize_system(eqs)
            if not eqs:
                continue
            starts, targets, owners = [X[todo]], [X[todo]], [todo]
            if near_idx is not None:
                for c in range(near_idx.shape[1]):
                    starts.append(cloud.points[near_idx[todo, c]])
                    targets.append(X[todo])
                    owners.append(todo)
            S0 = np.concatenate(starts, axis=0)
            T0 = np.concatenate(targets, axis=0)
            own = np.concatenate(owners, axis=0)
            Y, ok = gg._nearest_on_variety(eqs, S0, T0)
            Y, T0, own = Y[ok], T0[ok], own[ok]
            keep = np.linalg.norm(Y, axis=-1) <= s.omega * (1.0 + 1e-9)
            for g in rest:
                vals = ex.eval_many(g, Y)
                keep &= np.isfinite(vals) & (vals >= -ineq_tol[own])
            Y, T0, own = Y[keep], T0[keep], own[keep]
            np.minimum.at(best, own, np.linalg.norm(Y - T0, axis=-1))
    return best


class TestDistMatchesDense:
    @staticmethod
    def _both(a, b, r, npoints, seed, cache):
        X = ga.sample_slice(a, r, npoints=npoints, seed=seed,
                            cache=cache).points
        got = ga.dist_to_set_batch(X, b, npoints=npoints, seed=seed,
                                   cache=cache)
        return X, got, _dist_reference(X, b, npoints, seed, cache)

    @pytest.mark.parametrize("j", [0, 3, 6])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_graph_exp_truncations(self, surfaces, shared_cache, h, j):
        g = surfaces.get("graph_exp")
        _, got, want = self._both(g, gs.truncate_eqs(g, h), 0.25 * 2.0 ** -j,
                                  1000, 0, shared_cache)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed,j", [(0, 2), (0, 6), (1, 6)])
    def test_curve_cloud_ties(self, curves, shared_cache, seed, j):
        # exp_curve's slice is two points, each one cloud point; near-copies
        # would be tied nearest starts that the tree and argsort may break
        # differently, so without them the two paths agree to the bit
        b = curves.get("exp_curve")
        X, got, want = self._both(curves.get("trunc2"), b, 0.25 * 2.0 ** -j,
                                  2000, seed, shared_cache)
        cloud = ga.sample_slice(b, float(np.median(np.linalg.norm(X, axis=1))),
                                npoints=2000, seed=seed, cache=shared_cache)
        assert len(cloud.points) == 2
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["line", "halfline"])
    def test_cloud_below_three_points(self, curves, shared_cache, name):
        s = curves.get(name)
        r = 0.125
        assert len(ga.sample_slice(s, r, cache=shared_cache).points) < 3
        angles = np.linspace(0.3, 2.8, 5)
        X = r * np.column_stack([np.cos(angles), np.sin(angles)])
        got = ga.dist_to_set_batch(X, s, cache=shared_cache)
        assert np.array_equal(got, _dist_reference(X, s, 128, 0,
                                                   shared_cache))


class TestHornMember:
    def test_against_distance_oracle(self, curves, shared_cache):
        p = curves.get("parabola")
        for x, sigma in [((0.2, 0.05), 2.0), ((0.2, 0.14), 2.0),
                         ((0.1, 0.0101), 2.0), ((0.1, 0.02), 3.0)]:
            x = np.array(x)
            d = ga.dist_to_set(x, p, cache=shared_cache)
            want = d < np.linalg.norm(x) ** sigma
            assert ga.horn_member(x, p, sigma, cache=shared_cache) == want

    def test_origin_rejected(self, curves):
        with pytest.raises(gg.GeometryError):
            ga.horn_member(np.zeros(2), curves.get("parabola"), 2.0)


class TestJacobianRegularity:
    def test_matches_svd(self):
        eqs = [ex.parse("y - x^2", 2), ex.parse("x + y", 2)]
        x = np.array([0.3, 0.09])
        J = np.array([[-0.6, 1.0], [1.0, 1.0]])
        want = np.linalg.svd(J, compute_uv=False)[-1]
        assert ga.jacobian_regularity(eqs, x) == pytest.approx(want,
                                                               rel=1e-12)

    def test_rank_deficient_reports_zero(self, curves):
        eqs = curves.get("cusp_product").parts[0].eqs
        assert ga.jacobian_regularity(eqs, np.array([0.2, 0.008])) == 0.0

    def test_overdetermined_reports_zero(self):
        eqs = [ex.parse("x", 1), ex.parse("x^2", 1)]
        assert ga.jacobian_regularity(eqs, np.array([0.5])) == 0.0

    def test_empty_system_rejected(self):
        with pytest.raises(gg.GeometryError):
            ga.jacobian_regularity([], np.zeros(2))


class TestTangentCone:
    def test_parabola_directions_settle(self, curves, shared_cache):
        radii = [2.0 ** -7, 2.0 ** -8, 2.0 ** -9]
        rep = ga.tangent_cone_cloud(curves.get("parabola"), radii,
                                    cache=shared_cache)
        assert rep.radii == tuple(sorted(radii, reverse=True))
        # at radius r the two slice directions sit at angle ~atan(r) off the
        # x-axis, so by r = 2^-9 they are within 0.002 rad of (+-1, 0)
        last = rep.direction_clouds[-1]
        angles = np.arctan2(last[:, 1], np.abs(last[:, 0]))
        assert np.abs(angles).max() < math.atan(2.0 ** -9) + 1e-9
        assert rep.drift[0] > rep.drift[1] > 0.0

    def test_radii_accepted_in_any_order(self, curves, shared_cache):
        rep = ga.tangent_cone_cloud(curves.get("line"), [0.125, 0.25],
                                    cache=shared_cache)
        assert rep.radii == (0.25, 0.125)
        assert len(rep.drift) == 1

    def test_empty_radii_rejected(self, curves):
        with pytest.raises(gg.GeometryError):
            ga.tangent_cone_cloud(curves.get("line"), [])


class TestNumericDimension:
    @pytest.mark.parametrize("name,dim", [
        ("line", 1), ("parabola", 1), ("disk", 2), ("halfdisk", 2)])
    def test_plane_germs(self, curves, shared_cache, name, dim):
        assert ga.numeric_dimension(curves.get(name), 0.25,
                                    cache=shared_cache) == dim

    @pytest.mark.parametrize("name,dim", [
        ("plane_z", 2), ("space", 3), ("line3d", 1), ("graph_exp", 2)])
    def test_space_germs(self, surfaces, shared_cache, name, dim):
        assert ga.numeric_dimension(surfaces.get(name), 0.25,
                                    cache=shared_cache) == dim

    def test_isolated_origin_dimension_zero(self, fresh_cache):
        assert ga.numeric_dimension(ISOLATED, 0.25, cache=fresh_cache) == 0


class TestCache:
    def test_lookup_store_clear(self):
        c = ga.SliceCache()
        assert c.lookup("k") is None
        c.store("k", 1)
        assert c.lookup("k") == 1
        c.clear()
        assert c.lookup("k") is None

    def test_default_cache_is_shared(self):
        assert gg.default_cache() is gg.default_cache()


class TestStratumCache:
    """Sets that share a stratum share its projection, with the same clouds
    and diagnostics as sampling each set into a fresh cache."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []
        project = gg.project_to_sphere_slice

        def counting(eqs, starts, r):
            seen.append((tuple(eqs), r, len(starts)))
            return project(eqs, starts, r)

        monkeypatch.setattr(gg, "project_to_sphere_slice", counting)
        return seen

    @staticmethod
    def _same_as_fresh(s, cloud, r, **kw):
        fresh = ga.sample_slice(s, r, cache=ga.SliceCache(), **kw)
        assert np.array_equal(cloud.points, fresh.points)
        assert cloud.spacing == fresh.spacing
        assert cloud.converged_fraction == fresh.converged_fraction

    def test_inflation_exponents_share_the_primary_stratum(self, curves,
                                                           calls):
        part = curves.get("exp_curve").parts[0]
        inflated = [gs.set_of(gs.inflated_part(part, part.eqs, m), f"m{m}",
                              0.5) for m in (1, 2, 3)]
        cache = ga.SliceCache()
        clouds = [ga.sample_slice(s, 0.25, cache=cache) for s in inflated]
        assert [eqs for eqs, *_ in calls].count(part.eqs) == 1
        # the primary stratum once, then one promoted slack per exponent
        assert len(calls) == 4
        for s, cloud in zip(inflated, clouds):
            self._same_as_fresh(s, cloud, 0.25)

    def test_union_reuses_its_parts(self, curves, calls):
        a, b = curves.get("halfline_neg"), curves.get("parabola")
        cache = ga.SliceCache()
        ga.sample_slice(a, 0.25, cache=cache)
        ga.sample_slice(b, 0.25, cache=cache)
        before = len(calls)
        u = gs.union_sets("u", a, b)
        cloud = ga.sample_slice(u, 0.25, cache=cache)
        assert len(calls) == before
        self._same_as_fresh(u, cloud, 0.25)

    def test_same_string_in_more_variables(self, calls):
        plane = make_collection(
            {"vars": ["x", "y", "z"], "omega": 0.5,
             "sets": {"plane": {"parts": [{"eqs": ["y"]}]}}}).get("plane")
        line = make_collection(
            {"vars": ["x", "y"], "omega": 0.5,
             "sets": {"line": {"parts": [{"eqs": ["y"]}]}}}).get("line")
        assert plane.signature()[2][0][1] == line.signature()[2][0][1]
        cache = ga.SliceCache()
        a = ga.sample_slice(line, 0.25, cache=cache)
        b = ga.sample_slice(plane, 0.25, cache=cache)
        assert len(calls) == 2
        assert a.points.shape[1] == 2 and b.points.shape[1] == 3
        self._same_as_fresh(line, a, 0.25)
        self._same_as_fresh(plane, b, 0.25)

    @pytest.mark.parametrize("r,npoints,seed", [
        (0.125, 256, 0), (0.25, 128, 0), (0.25, 256, 1)])
    def test_other_radius_count_or_seed_projects_again(self, curves, calls,
                                                       r, npoints, seed):
        cache = ga.SliceCache()
        ga.sample_slice(curves.get("parabola"), 0.25, cache=cache)
        twin = make_collection(
            {"vars": ["x", "y"], "omega": 0.5,
             "sets": {"pb_twin": {"parts": [{"eqs": ["y - x^2"]}]}}})
        cloud = ga.sample_slice(twin.get("pb_twin"), r, npoints=npoints,
                                seed=seed, cache=cache)
        assert len(calls) == 2
        assert calls[1][1:] == (r, npoints)
        self._same_as_fresh(twin.get("pb_twin"), cloud, r, npoints=npoints,
                            seed=seed)

    def test_empty_slice_from_cached_strata(self, calls):
        coll = make_collection(
            {"vars": ["x", "y"], "omega": 0.5,
             "sets": {"pos": {"parts": [{"eqs": ["y"], "ineqs": ["x"]}]},
                      "neg": {"parts": [{"eqs": ["y"], "ineqs": ["-x"]}]},
                      "both": {"parts": [{"eqs": ["y"],
                                          "ineqs": ["x", "-x"]}]}}})
        cache = ga.SliceCache()
        ga.sample_slice(coll.get("pos"), 0.25, cache=cache)
        ga.sample_slice(coll.get("neg"), 0.25, cache=cache)
        before = len(calls)
        with pytest.raises(ga.EmptySliceError) as warm:
            ga.sample_slice(coll.get("both"), 0.25, cache=cache)
        assert len(calls) == before
        with pytest.raises(ga.EmptySliceError) as fresh:
            ga.sample_slice(coll.get("both"), 0.25, cache=ga.SliceCache())
        assert warm.value.converged_fraction == \
            fresh.value.converged_fraction == 1.0
        assert warm.value.attempts == fresh.value.attempts == 3 * 256
