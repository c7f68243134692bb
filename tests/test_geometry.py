import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq, minimize
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import germapprox as ga
from conftest import CURVE_PAIRS, make_collection
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


# values numpy's norm treats specially: signed zeros, subnormals, squares
# that underflow or overflow, infinities and nan
_ROW_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-200, -1e-200,
                 1e200, -1e200, 1.0, -3.5, math.inf, -math.inf, math.nan)


@st.composite
def _row_batches(draw, widths):
    """A float array of shape (N, n) or (N, k, n), n drawn from
    ``widths``, as a C-ordered array, a Fortran-ordered copy or a strided
    view of a larger array."""
    n = draw(widths)
    lead = draw(st.sampled_from([(0,), (1,), (7,), (3, 1), (2, 5), (4, 3)]))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    shape = lead + (n,)
    if layout == "strided":
        shape = tuple(2 * d for d in shape)
    # entries of one magnitude make the order of the sum show in the last
    # bit; entries of any magnitude reach underflow and overflow
    values = st.one_of(st.sampled_from(_ROW_SPECIALS),
                       st.floats(-4.0, 4.0),
                       st.floats(allow_nan=True, allow_infinity=True))
    A = draw(hnp.arrays(np.float64, shape, elements=values))
    if layout == "F":
        return np.asfortranarray(A)
    if layout == "strided":
        return A[(slice(None, None, 2),) * A.ndim]
    return A


def _same_floats(a, b):
    """Equal shapes, nan at the same entries, and every other entry equal
    bit for bit."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64),
                               b[~nan].view(np.uint64)))


class TestRowNorm:
    """The short-row kernels give numpy's own reductions bit for bit. They
    rest on numpy summing a last axis of fewer than 8 entries left to
    right, so this also checks that the installed numpy still does."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_row_batches(st.integers(0, 9)))
    def test_matches_numpy_norm(self, X):
        with np.errstate(all="ignore"):
            got = ex._row_norm(X)
            want = np.linalg.norm(X, axis=-1)
        assert _same_floats(got, want)

    @pytest.mark.parametrize("n", range(10))
    def test_every_width_on_random_rows(self, n):
        # rows of one magnitude, where the order of the sum shows, then
        # rows whose squares underflow or overflow
        rng = np.random.default_rng(n)
        X = rng.standard_normal((1000, 3, n))
        X[500:] *= 10.0 ** rng.integers(-170, 170, (500, 3, n))
        for Y in (X, np.asfortranarray(X), X[::2, 1:], X[..., ::-1],
                  X[:, 0]):
            with np.errstate(all="ignore"):
                assert _same_floats(ex._row_norm(Y),
                                    np.linalg.norm(Y, axis=-1))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_row_batches(st.integers(0, 9)))
    def test_finite_rows_match_numpy(self, X):
        assert np.array_equal(gg._finite_rows(X),
                              np.isfinite(X).all(axis=-1))


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


def _reference_residual(eqs, X):
    """|f(x)| per row by numpy's own norm, inf where it is not finite."""
    res = np.linalg.norm(ex.eval_system(eqs, X), axis=-1)
    return np.where(np.isfinite(res), res, np.inf)


def _reference_renormalize(X, r, fallback):
    """Each row of X scaled onto the sphere of radius r by numpy's own
    norm, or ``fallback`` where X is too close to the origin."""
    norms = np.linalg.norm(X, axis=-1)
    ok = norms > 1e-8 * r
    scaled = X * (r / np.where(ok, norms, 1.0))[..., None]
    return np.where(ok[..., None], scaled, fallback)


def _project_reference(eqs, starts, r):
    """The sphere projection with its halvings tried one at a time, its
    stall rule kept in full-size arrays and a final re-linearization of
    every row: the loop the batched line search must reproduce bit for
    bit."""
    X = np.array(starts, dtype=float)
    N = len(X)
    if not eqs:
        return X, np.ones(N, dtype=bool)
    res = _reference_residual(eqs, X)
    active = np.ones(N, dtype=bool)
    back = X.copy()
    span = np.full(N, np.inf)
    run = np.zeros(N, dtype=int)
    stalled = np.zeros(N, dtype=bool)
    for k in range(gg._PROJECT_ITERS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        Xa = X[idx]
        steps, _ = gg._gn_steps(eqs, Xa)
        slen = np.linalg.norm(steps, axis=-1)
        conv = slen <= gg._STEP_TARGET * r
        cand = _reference_renormalize(Xa + steps, r, Xa)
        cres = _reference_residual(eqs, cand)
        t = np.ones(idx.size)
        for _ in range(25):
            pending = ~(cres < res[idx]) & ~conv
            if not pending.any():
                break
            t[pending] *= 0.5
            trial = _reference_renormalize(
                Xa[pending] + t[pending, None] * steps[pending], r,
                Xa[pending])
            cand[pending] = trial
            cres[pending] = _reference_residual(eqs, trial)
        improved = cres < res[idx]
        move = improved & ~conv
        # |X_{k+1} - X_{k-1}|, from the second iteration on
        disp = np.linalg.norm(cand - back[idx], axis=-1) if k else np.inf
        stall = (move & (disp <= gg._STALL_SPAN * slen)
                 & (disp <= gg._STALL_GROWTH * span[idx])
                 & (slen > gg._STEP_ACCEPT * r))
        run[idx] = np.where(stall, run[idx] + 1, 0)
        stop = run[idx] >= gg._STALL_RUN
        stalled[idx[stop]] = True
        back[idx] = Xa
        span[idx] = disp
        X[idx[move]] = cand[move]
        res[idx[move]] = cres[move]
        active[idx[conv | ~improved | stop]] = False
    final_steps, _ = gg._gn_steps(eqs, X)
    accepted = np.linalg.norm(final_steps, axis=-1) <= gg._STEP_ACCEPT * r
    accepted &= np.isfinite(_reference_residual(eqs, X))
    return X, accepted & ~stalled


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

    def test_per_row_radii_match_one_call_per_radius(self, curves,
                                                     surfaces):
        radii = (0.25, 0.25 * 2.0 ** -3, 0.25 * 2.0 ** -7)
        sizes = set()
        for nvars, eqs in _corpus_systems(curves, surfaces):
            dirs = ga.sphere_directions(nvars, 32, 0)
            each = [gg.project_to_sphere_slice(eqs, dirs * r, r)
                    for r in radii]
            X, ok = gg.project_to_sphere_slice(
                eqs, np.concatenate([dirs * r for r in radii]),
                np.repeat(radii, len(dirs)))
            assert np.array_equal(X, np.concatenate([x for x, _ in each]))
            assert np.array_equal(ok, np.concatenate([k for _, k in each]))
            sizes.add(len(eqs))
        assert {1, 2} <= sizes

    def test_lone_row_steps_like_a_batch(self, curves, surfaces):
        for nvars, eqs in _corpus_systems(curves, surfaces):
            X = ga.sphere_directions(nvars, 16, 0) * 0.25
            steps, res = gg._gn_steps(eqs, X)
            alone = np.concatenate([gg._gn_steps(eqs, x[None])[0]
                                    for x in X])
            assert np.array_equal(alone, steps)
            # the linearization's residual is the system's own
            assert np.array_equal(res, _reference_residual(eqs, X))

    def test_starts_are_not_evaluated_apart(self, monkeypatch):
        # a row's residual comes from its linearization, and a full step's
        # trial point is evaluated with its Jacobian: one iteration on the
        # parabola linearizes the 64 starts and their 64 trial points, and
        # evaluates the system nowhere else
        monkeypatch.setattr(gg, "_PROJECT_ITERS", 1)
        evaluate, linearize = ex.eval_system, ex.eval_system_jacobian
        rows, jac_rows = [], []

        def counting(eqs, X):
            rows.append(int(np.prod(np.shape(X)[:-1])))
            return evaluate(eqs, X)

        def counting_jacobians(eqs, X):
            jac_rows.append(int(np.prod(np.shape(X)[:-1])))
            return linearize(eqs, X)

        r = 0.25
        eqs = (ex.parse("y - x^2", 2),)
        starts = ga.sphere_directions(2, 64, seed=0) * r
        with monkeypatch.context() as m:
            m.setattr(ex, "eval_system", counting)
            m.setattr(ex, "eval_system_jacobian", counting_jacobians)
            X, ok = gg.project_to_sphere_slice(eqs, starts, r)
        assert jac_rows == [64, 64]
        assert rows == []
        X_ref, ok_ref = _project_reference(eqs, starts, r)
        assert np.array_equal(X, X_ref)
        assert np.array_equal(ok, ok_ref)

    @pytest.mark.parametrize("texts", [
        ("y - x^2", "z - x^3 - 0.5*y"),
        ("y - sin(x)^2", "z - x^3 - exp(x)*x^4"),
    ])
    def test_lone_landing_row_like_a_batch(self, texts):
        s = gs.SemianalyticSet(
            name="space_curve", nvars=3, omega=1.0,
            parts=(gs.BasicPresentation(
                nvars=3, eqs=tuple(ex.parse(t, 3) for t in texts)),))
        X = np.random.default_rng(0).uniform(-0.3, 0.3, (300, 3))
        batch = gg._landing(X, s)
        # most rows land, some do not
        assert 0.5 < np.isfinite(batch).mean() < 1.0
        alone = np.concatenate([gg._landing(x[None], s) for x in X])
        assert np.array_equal(alone, batch)

    def test_lone_nearest_row_like_a_stack(self):
        # two equations in three variables: two-column pseudo-inverses, the
        # shape whose matmul numpy rounds one way for a lone row (BLAS) and
        # another for a stack (its own loop)
        eqs = tuple(ex.parse(t, 3) for t in ("y - x^2", "z - x^3 - 0.5*y"))
        rng = np.random.default_rng(0)
        S, T = rng.uniform(-0.3, 0.3, (2, 200, 3))
        for s, t in zip(S, T):
            alone = gg._nearest_on_variety(eqs, s[None], t[None])
            pair = gg._nearest_on_variety(eqs, np.stack([s, s]),
                                          np.stack([t, t]))
            assert np.array_equal(alone[0], pair[0][:1])
            assert np.array_equal(alone[1], pair[1][:1])

    def test_nearest_rows_converge_alone(self, monkeypatch):
        # a batch whose rows stop after 1 iteration, after several, and at
        # the cap; the last iterations run on a single row
        eqs = tuple(ex.parse(t, 3) for t in ("y - x^2", "z - x^3 - 0.5*y"))
        steps = gg._nearest_steps
        active = []

        def counted(eqs, Y, T):
            active.append(len(Y))
            return steps(eqs, Y, T)

        monkeypatch.setattr(gg, "_nearest_steps", counted)

        def alone(s, t):
            """Iterations a one-row call runs, and its row."""
            active.clear()
            Y, ok = gg._nearest_on_variety(eqs, s[None], t[None])
            return len(active), (s, t, Y[0], ok[0])

        # a start on the variety at its own target has nothing to do
        on = np.array([0.5, 0.25, 0.25])
        n, row = alone(on, on)
        assert n == 1
        rows = {n: row}
        # random rows with distinct counts, so one row reaches the cap
        rng = np.random.default_rng(0)
        while len(rows) < 8 or gg._NEAREST_ITERS not in rows:
            n, row = alone(*rng.uniform(-0.6, 0.6, (2, 3)))
            rows.setdefault(n, row)
        S, T, Y_alone, ok_alone = (np.array(c) for c in zip(*rows.values()))
        counts = np.array(list(rows))
        active.clear()
        Y, ok = gg._nearest_on_variety(eqs, S, T)
        # the k-th iteration updates exactly the rows not yet stopped
        assert active == [int((counts > k).sum())
                          for k in range(gg._NEAREST_ITERS)]
        assert active[-1] == 1
        assert np.array_equal(Y, Y_alone)
        assert np.array_equal(ok, ok_alone)

    def test_chunked_line_search_matches_one_batch(self, curves,
                                                   monkeypatch):
        # the cusp's end {y^2 - x^3, x} misses every sphere, so all 16,000
        # rows reach the 21-halving batch at the first iteration; a few
        # iterations show the chunks, the rest only cost time
        monkeypatch.setattr(gg, "_PROJECT_ITERS", 5)
        s = curves.get("cusp")
        (eqs, _), (end, _) = gg._part_strata(s.parts[0], gg.SLICE_DEPTH)
        radii = ga.RadiiSchedule(0.25).radii()
        dirs = ga.sphere_directions(2, 2000, 0)
        starts = np.concatenate([dirs * r for r in radii])
        rad = np.repeat(radii, len(dirs))
        residual = gg._residual
        batches = []

        def counting(vals):
            if vals.ndim == 3:
                batches.append(vals.shape[0] * vals.shape[1])
            return residual(vals)

        monkeypatch.setattr(gg, "_residual", counting)
        for system in (eqs, end):
            batches.clear()
            X, ok = gg.project_to_sphere_slice(system, starts, rad)
            chunked = len(batches)
            assert max(batches) <= gg._LINE_SEARCH_TRIALS
            with monkeypatch.context() as m:
                m.setattr(gg, "_LINE_SEARCH_TRIALS", 10 ** 9)
                batches.clear()
                X1, ok1 = gg.project_to_sphere_slice(system, starts, rad)
            assert np.array_equal(X, X1)
            assert np.array_equal(ok, ok1)
            if system is end:
                assert max(batches) == 16000 * 21
                assert chunked > len(batches)

    def test_full_step_tried_alone_first(self, monkeypatch):
        # on the parabola the full step lowers every start's residual, so
        # the first iteration evaluates one trial point per pending row, in
        # one batch with its Jacobian, and tries no halving: every residual
        # comes from a linearization, (rows, 1) for one equation, and none
        # from a (rows, k, 1) batch of halvings
        monkeypatch.setattr(gg, "_PROJECT_ITERS", 1)
        residual = gg._residual
        batches = []

        def counting(vals):
            batches.append(vals.shape)
            return residual(vals)

        monkeypatch.setattr(gg, "_residual", counting)
        r = 0.25
        starts = ga.sphere_directions(2, 64, seed=0) * r
        eqs = (ex.parse("y - x^2", 2),)
        X, ok = gg.project_to_sphere_slice(eqs, starts, r)
        assert batches == [(64, 1), (64, 1)]
        X_ref, ok_ref = _project_reference(eqs, starts, r)
        assert np.array_equal(X, X_ref)
        assert np.array_equal(ok, ok_ref)

    @pytest.mark.parametrize("iters", [1, 2, 3, 5, 8, gg._PROJECT_ITERS])
    def test_rows_moved_by_a_halving_are_linearized_there(self, monkeypatch,
                                                          iters):
        # on the cusp {y^2 = x^3} at r = 0.125 hundreds of rows lower their
        # residual only at a halving, and most of them step on from there;
        # a budget that ends right after a halving judges the row by the
        # linearization at its new point
        whole = iters == gg._PROJECT_ITERS
        monkeypatch.setattr(gg, "_PROJECT_ITERS", iters)
        r = 0.125
        eqs = (ex.parse("y^2 - x^3", 2),)
        starts = ga.sphere_directions(2, 256, 0) * r
        search, linearize = gg._line_search, gg._linearize
        renormalize = gg._renormalize
        calls = []

        def searching(*args):
            cand, hit = search(*args)
            calls.append(("halved", cand[hit]))
            return cand, hit

        def linearizing(eqs, X):
            calls.append(("linearized", X.copy()))
            return linearize(eqs, X)

        def renormalizing(X, r, fallback):
            # a batch of full steps, tried from the rows' positions
            if X.ndim == 2:
                calls.append(("stepped from", fallback.copy()))
            return renormalize(X, r, fallback)

        with monkeypatch.context() as m:
            m.setattr(gg, "_line_search", searching)
            m.setattr(gg, "_linearize", linearizing)
            m.setattr(gg, "_renormalize", renormalizing)
            X, ok = gg.project_to_sphere_slice(eqs, starts, r)
        X_ref, ok_ref = _project_reference(eqs, starts, r)
        assert np.array_equal(X, X_ref)
        assert np.array_equal(ok, ok_ref)
        # each halving's new points are linearized next, in one batch
        halved = [k for k, (what, pts) in enumerate(calls)
                  if what == "halved" and len(pts)]
        assert len(halved) == min(iters, 15)
        for k in halved:
            assert calls[k + 1][0] == "linearized"
            assert np.array_equal(calls[k + 1][1], calls[k][1])
        points = {tuple(p) for k in halved for p in calls[k][1]}
        stepped = {tuple(p) for what, pts in calls if what == "stepped from"
                   for p in pts}
        # past the first iteration rows step on from a halving's point, and
        # over the whole budget most of them do
        assert bool(points & stepped) == (iters > 1)
        if whole:
            assert len(points & stepped) > len(points) // 2

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


def _line_search_reference(eqs, X, res, ra, steps, pend):
    """:func:`gg._line_search` one row and one fraction at a time, in plain
    indexing, with numpy's own norm. Returns each row's trial point and
    its residual (inf for a row that found none), and the position in
    ``_LINE_SEARCH`` of each row's accepted fraction (-1 for none)."""
    fractions = np.concatenate(gg._LINE_SEARCH)
    cand = np.zeros_like(steps)
    cres = np.full(len(steps), np.inf)
    hit_at = np.full(len(steps), -1)
    for p in pend:
        x = X[p]
        for j, t in enumerate(fractions):
            trial = _reference_renormalize(x + t * steps[p], ra[p], x)
            tres = _reference_residual(eqs, trial[None])[0]
            if tres < res[p]:
                cand[p], cres[p], hit_at[p] = trial, tres, j
                break
    return cand, cres, hit_at


class TestLineSearch:
    """The batched line search picks what trying one fraction at a time
    picks, whether a stage fits one chunk or is cut into several."""

    @staticmethod
    def _planted_rows(rng, count):
        """Rows on circles about the origin whose residual |y| first drops
        at a fraction chosen per row, or never.

        From x = r (cos a, sin a), y > 0, the step (0, -c) lowers |y| after
        renormalization exactly when 0 < t c < 2 y. With c = 1.5 y / t_j the
        fraction t_j is the largest that does, so it is the first; a step
        away from the axis never lowers it. (A zero step can: renormalizing
        x itself may round |y| an ulp lower.)"""
        fractions = np.concatenate(gg._LINE_SEARCH)
        r = 10.0 ** rng.uniform(-3.0, 0.0, count)
        a = rng.uniform(0.05, 1.4, count)
        X = r[:, None] * np.stack([np.cos(a) * rng.choice([-1.0, 1.0], count),
                                   np.sin(a)], axis=1)
        # a stage, or none (-1), per row, then one of the stage's fractions
        sizes = [len(f) for f in gg._LINE_SEARCH]
        first = np.cumsum([0] + sizes[:-1])
        stage = rng.integers(-1, len(sizes), count)
        target = np.array([-1 if k < 0 else first[k] + rng.integers(sizes[k])
                           for k in stage])
        c = 1.5 * X[:, 1] / fractions[target]
        never = np.flatnonzero(target < 0)
        c[never] = -rng.uniform(0.0, 1.0, never.size) * X[never, 1]
        steps = np.stack([np.zeros(count), -c], axis=1)
        return X, r, steps, target, stage

    @pytest.mark.parametrize("short", [0, 1, 5])
    def test_renormalize_matches_reference(self, short):
        # trial points (rows, k, n) with per-row radii; ``short`` of them
        # are too close to the origin and take the fallback
        rng = np.random.default_rng(short)
        r = 10.0 ** rng.uniform(-4.0, 0.0, (40, 1))
        X = rng.standard_normal((40, 3, 2)) * r[..., None]
        X.reshape(-1, 2)[rng.permutation(120)[:short]] *= 1e-9
        base = rng.standard_normal((40, 1, 2))
        want = _reference_renormalize(X, r, base)
        assert np.array_equal(gg._renormalize(X.copy(), r, base), want)
        assert (want == base).all(axis=-1).sum() == short

    @pytest.mark.parametrize("trials", [gg._LINE_SEARCH_TRIALS, 3 * 21])
    def test_planted_stages_match_one_at_a_time(self, monkeypatch, trials):
        monkeypatch.setattr(gg, "_LINE_SEARCH_TRIALS", trials)
        rng = np.random.default_rng(0)
        eqs = (ex.parse("y", 2),)
        X, r, steps, target, stage = self._planted_rows(rng, 600)
        res = _reference_residual(eqs, X)
        # the line search's rows are a shuffled subset of X's, and only
        # some of them are pending
        idx = rng.permutation(len(X))[:500]
        pend = np.sort(rng.permutation(len(idx))[:450])
        args = (eqs, X[idx], res[idx], r[idx], steps[idx], pend)
        cand, hit = gg._line_search(*args)
        want, wres, hit_at = _line_search_reference(*args)
        assert np.array_equal(hit_at[pend], target[idx[pend]])
        # every stage, and no stage, has rows enough to fill several chunks
        # of the smaller budget
        assert np.bincount(stage[idx[pend]] + 1).min() >= 80
        assert np.array_equal(hit, np.isfinite(wres))
        assert np.array_equal(_reference_residual(eqs, cand[hit]), wres[hit])
        assert np.array_equal(cand[hit], want[hit])

    @pytest.mark.parametrize("trials", [gg._LINE_SEARCH_TRIALS, 3 * 21])
    def test_overshooting_steps_match_one_at_a_time(self, monkeypatch,
                                                    trials):
        # Gauss-Newton steps on a space curve, lengthened by 2^0 to 2^30 so
        # that rows first improve at every depth of the search
        monkeypatch.setattr(gg, "_LINE_SEARCH_TRIALS", trials)
        rng = np.random.default_rng(1)
        eqs = tuple(ex.parse(t, 3) for t in ("y - x^2", "z - x^3 - 0.5*y"))
        r = np.repeat([0.25, 0.25 * 2.0 ** -5], 200)
        X = ga.sphere_directions(3, 200, seed=0)
        X = np.concatenate([X, X]) * r[:, None]
        stretch = 2.0 ** rng.integers(0, 31, (400, 1))
        steps = gg._gn_steps(eqs, X)[0] * stretch
        res = _reference_residual(eqs, X)
        idx = rng.permutation(len(X))
        pend = np.flatnonzero(rng.random(len(idx)) < 0.9)
        args = (eqs, X[idx], res[idx], r[idx], steps[idx], pend)
        cand, hit = gg._line_search(*args)
        want, wres, hit_at = _line_search_reference(*args)
        assert (hit_at[pend] >= 5).sum() >= 200
        assert np.array_equal(hit, np.isfinite(wres))
        assert np.array_equal(_reference_residual(eqs, cand[hit]), wres[hit])
        assert np.array_equal(cand[hit], want[hit])


def _inflated_systems(curves, surfaces):
    """The slice strata of every corpus part thickened by its own equations
    at m = 1, the shape approx's inflation step projects."""
    for coll in (curves, surfaces):
        for s in coll.sets.values():
            for part in s.parts:
                if not part.eqs:
                    continue
                infl = gs.inflated_part(part, part.eqs, m=1)
                for eqs, _ in gg._part_strata(infl, gg.SLICE_DEPTH):
                    eqs = gg._normalize_system(eqs)
                    if eqs:
                        yield s.nvars, eqs


class TestProjectStalls:
    """Rows that stall off the set stop early and are rejected. No row that
    runs on to acceptance is stopped, so accepted rows keep their bits."""

    @staticmethod
    def _linearized(monkeypatch, eqs, starts, r):
        """The projection, and the row count of each batch of Gauss-Newton
        steps: the starts', then one per iteration that rows continue."""
        sizes = []
        steps = gg._newton_steps

        def counted(vals, jacs):
            sizes.append(len(vals))
            return steps(vals, jacs)

        with monkeypatch.context() as m:
            m.setattr(gg, "_newton_steps", counted)
            X, ok = gg.project_to_sphere_slice(eqs, starts, r)
        return X, ok, sizes

    @staticmethod
    def _unstopped(monkeypatch, eqs, starts, r):
        """The projection with no row ever stopped as stalled."""
        with monkeypatch.context() as m:
            m.setattr(gg, "_STALL_RUN", gg._PROJECT_ITERS + 1)
            return gg.project_to_sphere_slice(eqs, starts, r)

    def _stopped(self, monkeypatch, eqs, starts, r):
        """Check that stopping keeps every accepted row and its bits; return
        how many rows it left somewhere else."""
        X, ok = gg.project_to_sphere_slice(eqs, starts, r)
        X0, ok0 = self._unstopped(monkeypatch, eqs, starts, r)
        assert np.array_equal(ok, ok0)
        assert np.array_equal(X[ok], X0[ok])
        return int((X != X0).any(axis=1).sum())

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("r", [0.25, 0.25 * 2.0 ** -6])
    def test_accepted_rows_keep_their_bits(self, curves, surfaces,
                                           monkeypatch, r, seed):
        systems = (list(_corpus_systems(curves, surfaces))
                   + list(_inflated_systems(curves, surfaces)))
        stopped = sum(
            self._stopped(monkeypatch, eqs,
                          ga.sphere_directions(nvars, 64, seed) * r, r)
            for nvars, eqs in systems)
        assert stopped > 0

    def test_curve_strata_at_2000_starts(self, curves, monkeypatch):
        # the most starts, so the starts nearest a saddle of the residual,
        # which escape slowest
        radii = (0.25, 0.25 * 2.0 ** -6)
        dirs = ga.sphere_directions(2, 2000, 0)
        starts = np.concatenate([dirs * r for r in radii])
        rad = np.repeat(radii, len(dirs))
        stopped = 0
        for s in curves.sets.values():
            for part in s.parts:
                for eqs, _ in gg._part_strata(part, gg.SLICE_DEPTH):
                    eqs = gg._normalize_system(eqs)
                    if eqs:
                        stopped += self._stopped(monkeypatch, eqs, starts,
                                                 rad)
        assert stopped > 0

    def test_rounding_level_hops_are_not_stalls(self, curves, monkeypatch):
        # at this radius a few rows keep moving with steps that stay above
        # _STEP_TARGET but below _STEP_ACCEPT times r, so they look stalled
        # but for the step test; they run out the budget and are accepted
        r = 2.0 ** -12
        eqs = curves.get("exp_sin").parts[0].eqs
        self._stopped(monkeypatch, eqs,
                      ga.sphere_directions(2, 500, 0) * r, r)

    def test_two_cycle_stops(self, monkeypatch):
        # on the cusp {y^2 = x^3} some starts with x < 0 end up hopping
        # between (-0.9986, +-0.0531) r
        r = 0.125
        eqs = (ex.parse("y^2 - x^3", 2),)
        X, ok = self._unstopped(monkeypatch, eqs,
                                ga.sphere_directions(2, 256, 0) * r, r)
        cycle = (X[:, 0] < 0) & (np.abs(X[:, 1]) > 0.05 * r)
        assert cycle.sum() > 20 and not ok[cycle].any()
        hop = np.abs(X[cycle]) / r - [0.99858681, 0.05314495]
        assert np.abs(hop).max() < 1e-6
        _, ok, sizes = self._linearized(monkeypatch, eqs, X[cycle], r)
        assert not ok.any()
        assert len(sizes) <= gg._STALL_RUN + 1

    def test_creep_toward_the_origin_stops(self, monkeypatch):
        # a boundary stratum whose only root is the origin: Gauss-Newton
        # steps point at it, and the line search creeps along the sphere
        r = 2.0 ** -9
        eqs = (ex.parse("y - exp(x) + 1", 2), ex.parse("x", 2))
        starts = ga.sphere_directions(2, 64, 0) * r
        _, ok, sizes = self._linearized(monkeypatch, eqs, starts, r)
        assert not ok.any()
        assert len(sizes) < gg._PROJECT_ITERS
        # unstopped, the rows creep through the whole budget
        with monkeypatch.context() as m:
            m.setattr(gg, "_STALL_RUN", gg._PROJECT_ITERS + 1)
            _, _, sizes = self._linearized(monkeypatch, eqs, starts, r)
        assert len(sizes) == gg._PROJECT_ITERS + 1

    def test_saddle_escaper_is_accepted(self, monkeypatch):
        # near a saddle of the residual on the sphere a row first moves
        # 6e-5 r, doubling each iteration, and escapes at the seventh
        r = 0.0625
        eqs = (ex.parse("y - x - x^2/2", 2),)
        dirs = ga.sphere_directions(2, 2000, 0)
        x = dirs[np.argmin(np.linalg.norm(dirs - [-0.69, 0.72], axis=1))]
        with monkeypatch.context() as m:
            m.setattr(gg, "_PROJECT_ITERS", 1)
            X1, _ = gg.project_to_sphere_slice(eqs, x[None] * r, r)
        assert np.linalg.norm(X1[0] - x * r) < 1e-4 * r
        X, ok, sizes = self._linearized(monkeypatch, eqs, x[None] * r, r)
        assert ok.all()
        assert len(sizes) > gg._STALL_RUN + 1
        assert abs(ex.eval_system(eqs, X)).max() < 1e-12 * r

    def test_slow_convergence_is_not_a_stall(self, monkeypatch):
        # a double root converges linearly, each step half the one before,
        # and runs the whole budget
        r = 0.25
        eqs = (ex.parse("y^2", 2),)
        _, ok, sizes = self._linearized(
            monkeypatch, eqs, ga.sphere_directions(2, 64, 0) * r, r)
        assert ok.all()
        assert len(sizes) == gg._PROJECT_ITERS + 1


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


def _regular_reference(jacs, X, r):
    """Row by row, by the SVD: the row-normalized [J_f(x); x/r] has
    sigma_min / sigma_max above ``_ISOLATED_GUARD``."""
    M = np.concatenate([jacs, (X / r)[:, None]], axis=1)
    M[~np.isfinite(M).all(axis=(1, 2))] = 0.0
    norms = np.linalg.norm(M, axis=-1, keepdims=True)
    M /= np.where(norms > 0.0, norms, 1.0)
    svals = np.linalg.svd(M, compute_uv=False)
    return svals[:, -1] > gg._ISOLATED_GUARD * svals[:, 0]


def _pair_rows(rng, rho):
    """(n, 2, 2) stacks whose two rows are unit vectors at the angle
    2 atan(rho), so sigma2 / sigma1 = rho, each row then scaled by a
    random power of ten."""
    a = rng.uniform(0.0, 2.0 * np.pi, len(rho))
    b = a + 2.0 * np.arctan(rho) * rng.choice([-1.0, 1.0], len(rho))
    M = np.stack([np.stack([np.cos(a), np.sin(a)], axis=1),
                  np.stack([np.cos(b), np.sin(b)], axis=1)], axis=1)
    return M * 10.0 ** rng.uniform(-3.0, 3.0, (len(rho), 2, 1))


class TestIsolatedRadii:
    """The regularity test of the stratum-skip rule: a closed form for the
    2 x 2 shape, which must decide every row as the SVD does."""

    @staticmethod
    def _check(monkeypatch, jacs, X):
        """Each row's verdict against the reference's; the Jacobians are
        injected, and row i sits alone at its own radius, so the returned
        radii name the regular rows."""
        radii = 0.25 + 1e-7 * np.arange(len(X))
        pts = X * radii[:, None]
        entries = {float(r): x[None] for r, x in zip(radii, pts)}

        def given(eqs, at):
            assert np.array_equal(at, pts)
            return None, jacs

        want = _regular_reference(jacs, pts, radii[:, None])
        monkeypatch.setattr(ex, "eval_system_jacobian", given)
        got = gg._isolated_radii((ex.Var(0),) * jacs.shape[1], entries, 1,
                                 X.shape[1])
        assert np.array_equal([float(r) in got for r in radii], want)
        return want

    def test_random_ratios(self, monkeypatch):
        rng = np.random.default_rng(0)
        g = gg._ISOLATED_GUARD
        rho = np.concatenate([10.0 ** rng.uniform(-9.0, 0.0, 4000),
                              g * (1.0 + rng.uniform(-1e-6, 1e-6, 2000))])
        M = _pair_rows(rng, rho)
        regular = self._check(monkeypatch, M[:, :1], M[:, 1])
        # both sides of the guard are drawn, also next to it
        assert regular[4000:].any() and not regular[4000:].all()

    def test_zero_and_rank_deficient_rows(self, monkeypatch):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((8, 2, 2))
        M[0] = 0.0
        M[1, 0] = 0.0
        M[2, 1] = 0.0
        M[3, 1] = -3.0 * M[3, 0]
        M[4, 1] = 1e-300 * M[4, 0]
        want = self._check(monkeypatch, M[:, :1], M[:, 1])
        assert not want[:5].any() and want[5:].all()

    def test_non_finite_jacobians(self, monkeypatch):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((6, 2, 2))
        M[0, 0, 0] = np.nan
        M[1, 0, 1] = np.inf
        M[2, 0] = -np.inf
        want = self._check(monkeypatch, M[:, :1], M[:, 1])
        assert not want[:3].any() and want[3:].all()

    def test_other_shapes_match_the_svd(self, monkeypatch):
        # two equations in three variables: (3, 3); two in two: (3, 2)
        rng = np.random.default_rng(3)
        for m, n in [(2, 3), (2, 2)]:
            jacs = rng.standard_normal((50, m, n))
            jacs[:5, 1] = jacs[:5, 0]
            self._check(monkeypatch, jacs, rng.standard_normal((50, n)))

    @pytest.mark.parametrize("r", [0.25, 2.0 ** -8])
    def test_corpus_curve_strata(self, curves, r):
        dirs = ga.sphere_directions(2, 256, 0)
        checked = 0
        for s in curves.sets.values():
            for part in s.parts:
                if not part.ineqs or not part.eqs:
                    continue
                (eqs, _), *_ = gg._part_strata(part, gg.SLICE_DEPTH)
                eqs = gg._normalize_system(eqs)
                X, ok = gg.project_to_sphere_slice(eqs, dirs * r, r)
                entries = {r: X[ok]}
                _, jacs = ex.eval_system_jacobian(eqs, X[ok])
                full = ok.all() and _regular_reference(jacs, X[ok], r).all()
                got = gg._isolated_radii(eqs, entries, len(dirs), 2)
                assert got == ({r} if full else set())
                checked += full
        assert checked

    def test_halfline_needs_no_svd(self, curves, monkeypatch):
        calls, svd = [], np.linalg.svd
        isolated = gg._isolated_radii

        def counting_svd(*args, **kw):
            calls.append("svd")
            return svd(*args, **kw)

        def recording(*args, **kw):
            calls.append("isolated")
            return isolated(*args, **kw)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(gg, "_isolated_radii", recording)
        ga.sample_slice(curves.get("halfline"), 0.25, cache=ga.SliceCache())
        assert calls == ["isolated"]


def _dedup_reference(points):
    """Exact-row dedup as a dict loop (0.0 and -0.0 hash alike): the first
    of each group of equal rows, in input order, with the group's size."""
    seen = {}
    keep = []
    counts = []
    for i, key in enumerate(map(tuple, points)):
        j = seen.get(key)
        if j is None:
            seen[key] = len(keep)
            keep.append(i)
            counts.append(1)
        else:
            counts[j] += 1
    return points[keep], np.array(counts)


def _dedup_radius(points):
    """A radius whose merge tolerance lies below every nonzero gap between
    the rows, so its cloud merges only equal rows."""
    distinct, _ = _dedup_reference(points)
    gap = 1.0
    if len(distinct) > 1:
        gap = cKDTree(distinct).query(distinct, k=2)[0][:, 1].min()
    return gap / 4.0 / gg._STEP_ACCEPT


def _deduped(monkeypatch, points):
    """The points and counts of the cloud of the rows at a radius that
    merges only equal rows (see _built)."""
    cloud = _built(monkeypatch, _dedup_radius(points), points)[0]
    return cloud.points, cloud.counts


class TestDedup:
    """Equal rows, 0.0 and -0.0 alike, are one cloud point led by the
    first of them; at a merge tolerance below every other gap the cloud is
    the dict-loop dedup's."""

    @pytest.mark.parametrize("n,nvars,cell", [
        (1, 2, 1e-3), (50, 2, 1e-15), (300, 2, 0.05), (300, 3, 0.1),
        (1000, 3, 0.3), (200, 1, 0.01), (500, 4, 0.5)])
    def test_matches_loop(self, n, nvars, cell, monkeypatch):
        rng = np.random.default_rng(n + nvars)
        pts = rng.uniform(-0.25, 0.25, size=(n, nvars))
        # repeated rows, and points rounded to a grid of spacing cell,
        # which makes more copies and zeros of both signs
        pts[n // 2:] = pts[: n - n // 2]
        pts[::7] = np.round(pts[::7] / cell) * cell
        got_pts, got_counts = _deduped(monkeypatch, pts)
        want_pts, want_counts = _dedup_reference(pts)
        assert np.array_equal(got_pts, want_pts)
        assert np.array_equal(got_counts, want_counts)
        assert got_counts.sum() == n

    @pytest.mark.parametrize("nvars,cell", [(2, 1e-3), (3, 0.05)])
    def test_matches_loop_far_from_origin(self, nvars, cell, monkeypatch):
        # coordinates near 1e4, both signs
        rng = np.random.default_rng(nvars)
        pts = rng.uniform(-1.0, 1.0, size=(400, nvars))
        pts[:, 0] += 1e4
        pts[1::2, -1] -= 2e4
        pts[200:] = pts[:200]
        pts[::5] = np.round(pts[::5] / cell) * cell
        got_pts, got_counts = _deduped(monkeypatch, pts)
        want_pts, want_counts = _dedup_reference(pts)
        assert np.array_equal(got_pts, want_pts)
        assert np.array_equal(got_counts, want_counts)
        assert len(got_pts) < len(pts)

    def test_matches_loop_on_slice_samples(self, curves, surfaces,
                                           monkeypatch):
        # accepted samples pile onto isolated slice points or spread along
        # slice curves
        r = 0.25
        for nvars, eqs in _corpus_systems(curves, surfaces):
            raw, ok = gg.project_to_sphere_slice(
                eqs, ga.sphere_directions(nvars, 128, 0) * r, r)
            raw = raw[ok]
            got_pts, got_counts = _deduped(monkeypatch, raw)
            want_pts, want_counts = _dedup_reference(raw)
            assert np.array_equal(got_pts, want_pts)
            assert np.array_equal(got_counts, want_counts)


def _merge_reference(points, counts, tol):
    """Leader clustering as a plain loop: each point joins the first kept
    point within tol, else it is kept."""
    kept = []
    summed = []
    for i, p in enumerate(points):
        near = np.flatnonzero(
            np.sum((points[kept] - p) ** 2, axis=1) <= tol * tol)
        if near.size:
            summed[near[0]] += counts[i]
        else:
            kept.append(i)
            summed.append(counts[i])
    return points[kept], np.array(summed, dtype=int)


def _slice_cloud_reference(r, raw):
    """A slice cloud's distinct rows, and its points, counts and spacing,
    from the dict-loop dedup, the plain-loop merge and the median gap over
    a fresh k-d tree of the points, whatever the counts."""
    distinct, counts = _dedup_reference(raw)
    pts, counts = _merge_reference(distinct, counts, gg._STEP_ACCEPT * r)
    spacing = gg._SPACING_GUARD
    if len(pts) >= 2:
        gaps = cKDTree(pts).query(pts, k=2)[0][:, 1]
        spacing = max(float(np.median(np.where(
            counts > 1, gg._SPACING_GUARD, gaps))), gg._SPACING_GUARD)
    return distinct, pts, counts, spacing


def _tree_group_rows(rows):
    """Equal rows (0.0 equals -0.0) by a stable lexsort: each group's first
    row index, with the groups in the order of those indices, and the
    group sizes."""
    n = len(rows)
    col = np.sort(rows[:, 0])
    if not (col[1:] == col[:-1]).any():
        return np.arange(n), np.ones(n, dtype=np.intp)
    order = np.lexsort(rows.T)
    ranked = rows.take(order, axis=0)
    starts = np.empty(n + 1, dtype=bool)
    starts[0] = starts[n] = True
    np.not_equal(ranked[1:, 0], ranked[:-1, 0], out=starts[1:n])
    for c in range(1, rows.shape[1]):
        starts[1:n] |= ranked[1:, c] != ranked[:-1, c]
    heads = np.flatnonzero(starts)
    first = order[heads[:-1]]
    by_input = np.argsort(first)
    return first[by_input], np.diff(heads)[by_input]


def _tree_slice_cloud(r, raw):
    """A slice cloud's points and counts by the k-d tree builder: a tree
    over the distinct rows, a k=2 gap query bounded at twice the merge
    tolerance where two sorted first coordinates lie that close, and one
    ball query per leader over the rows with a neighbour within it."""
    kept, counts = _tree_group_rows(raw)
    points = raw if len(kept) == len(raw) else raw.take(kept, axis=0)
    tree = cKDTree(points)
    tol = gg._STEP_ACCEPT * r
    todo = np.zeros(0, dtype=np.intp)
    if (len(points) > 1
            and (np.diff(np.sort(points[:, 0])) <= 2.0 * tol).any()):
        gaps = tree.query(points, k=2, distance_upper_bound=2.0 * tol)[0]
        todo = np.flatnonzero(gaps[:, 1] <= tol)
    if todo.size:
        leader = np.arange(len(points))
        free = np.zeros(len(points), dtype=bool)
        free[todo] = True
        while todo.size:
            i = todo[0]
            ball = np.asarray(tree.query_ball_point(points[i], tol))
            ball = ball[free[ball]]
            leader[ball] = i
            free[ball] = False
            todo = todo[free[todo]]
        lead = leader == np.arange(len(points))
        if not lead.all():
            cluster = (np.cumsum(lead) - 1)[leader]
            points = points[lead]
            counts = np.bincount(cluster, weights=counts).astype(counts.dtype)
    return points, counts


def _count_nearest(m):
    """Make every neighbour query (``_nearest``) record its query rows and
    its point rows, through the monkeypatch ``m``; returns the record."""
    queries = []
    nearest = gg._nearest

    def counted(X, P, k):
        queries.append((len(X), len(P)))
        return nearest(X, P, k)

    m.setattr(gg, "_nearest", counted)
    return queries


def _built(monkeypatch, r, raw):
    """The cloud of raw at radius r and the query and point rows of each
    neighbour query, checked against the reference cloud, the k-d tree
    builder's points and counts, and the rule: no neighbour query at
    build; a gap query of the final points against themselves only when
    the spacing is first read, and then only when at most half of at least
    two points are piled. A second read queries nothing."""
    with monkeypatch.context() as m:
        queries = _count_nearest(m)
        cloud = gg._slice_cloud(r, 1.0, len(raw), raw)
        assert queries == []
        spacing = cloud.spacing
        assert cloud.spacing == spacing
    distinct, want_pts, want_counts, want_spacing = _slice_cloud_reference(
        r, raw)
    assert np.array_equal(cloud.points, want_pts)
    assert np.array_equal(cloud.counts, want_counts)
    tree_pts, tree_counts = _tree_slice_cloud(r, raw)
    assert np.array_equal(cloud.points, tree_pts)
    assert np.array_equal(cloud.counts, tree_counts)
    assert spacing == want_spacing
    n = len(want_pts)
    read = bool(n > 1 and 2 * np.count_nonzero(want_counts > 1) <= n)
    assert queries == [(n, n)] * read
    assert cloud.continuum == (spacing > gg._SPACING_GUARD)
    return cloud, queries, distinct


def _copies_raw(n, copied, nvars=2, seed=0):
    """n random rows, exactly `copied` of which (0 or at least 2) have an
    exact copy: pairs, and one triple when `copied` is odd; shuffled."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-0.25, 0.25, size=(n, nvars))
    leader = 2 * np.minimum(np.arange(copied) // 2, copied // 2 - 1)
    raw[:copied] = raw[leader]
    raw = raw[rng.permutation(n)]
    _, sizes = np.unique(raw, axis=0, return_counts=True)
    assert sizes[sizes > 1].sum() == copied
    return raw


class TestGridCell:
    """The builder queries no neighbours, any gap query is over the
    cloud's points, and the cloud equals the reference's, bit for bit (see
    _built)."""

    @pytest.mark.parametrize("npoints", [128, 2000])
    @pytest.mark.parametrize("r", [0.25, 2.0 ** -8, 2.0 ** -10, 2.0 ** -12])
    def test_matches_reference_on_slice_samples(self, curves, surfaces, r,
                                                npoints, monkeypatch):
        # surface slices are continuum clouds of distinct rows, kept whole;
        # curve slices pile copies onto isolated points, which merge
        kept = merged = 0
        for nvars, eqs in _corpus_systems(curves, surfaces):
            raw, ok = gg.project_to_sphere_slice(
                eqs, ga.sphere_directions(nvars, npoints, 0) * r, r)
            cloud, _, distinct = _built(monkeypatch, r, raw[ok])
            kept += len(cloud) == ok.sum() > 100
            merged += len(cloud) < len(distinct)
        assert kept > 0
        assert merged > 0

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8])
    def test_all_copies(self, n, monkeypatch):
        raw = np.tile([[0.1, -0.2]], (n, 1))
        cloud, queries, _ = _built(monkeypatch, 0.25, raw)
        assert len(cloud) == min(n, 1)
        assert queries == []

    @pytest.mark.parametrize("n", [9, 10, 255, 256])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_half_the_rows_copied(self, n, extra, monkeypatch):
        # however many rows have a copy, the points are the distinct rows,
        # n minus the copies beyond the first of each group, and any gap
        # query is over them
        copied = n // 2 + extra
        raw = _copies_raw(n, copied, seed=n)
        cloud, queries, _ = _built(monkeypatch, 0.25, raw)
        groups = copied // 2
        assert len(cloud) == n - copied + groups
        assert all(q == (len(cloud), len(cloud)) for q in queries)

    def test_signed_zeros_are_copies(self, monkeypatch):
        raw = np.array([[0.0, 0.1], [-0.0, 0.1], [0.0, -0.1],
                        [0.3, 0.0], [0.3, -0.0], [0.2, 0.2]])
        cloud, queries, _ = _built(monkeypatch, 0.25, raw)
        assert np.array_equal(cloud.points, raw[[0, 2, 3, 5]])
        assert cloud.counts.tolist() == [2, 1, 2, 1]
        # half the four points are piled, so the spacing's first read
        # queries the gaps of the four, whichever copy comes first
        assert queries == [(4, 4)]
        assert _built(monkeypatch, 0.25, raw[[0, 2, 3, 5, 1]])[1] == [(4, 4)]

    @pytest.mark.parametrize("copied", [0, 3, 50, 51])
    def test_one_variable(self, copied, monkeypatch):
        _built(monkeypatch, 0.25, _copies_raw(101, copied, nvars=1,
                                              seed=copied))

    def test_no_tree_over_piled_up_copies(self, curves, monkeypatch):
        # exp_curve meets the sphere in two points, so its accepted samples
        # are copies of two points; no neighbour query runs over them all,
        # and the spacing's read queries the two points
        raw_sizes = []

        def recording_slice_cloud(r, fraction, attempts, raw, *key):
            raw_sizes.append(len(raw))
            return slice_cloud(r, fraction, attempts, raw, *key)

        slice_cloud = gg._slice_cloud
        queries = _count_nearest(monkeypatch)
        monkeypatch.setattr(gg, "_slice_cloud", recording_slice_cloud)
        c = ga.sample_slice(curves.get("exp_curve"), 0.0625, npoints=2000,
                            cache=ga.SliceCache())
        assert len(c) == 2
        assert raw_sizes and min(raw_sizes) > 1000
        assert c.spacing == gg._SPACING_GUARD
        assert max(map(max, queries), default=0) < min(raw_sizes)

    @pytest.mark.parametrize("name", ["exp_curve", "cusp"])
    def test_no_neighbour_query_at_build(self, curves, name, monkeypatch):
        # the slices are a few isolated points, each sampled by hundreds
        # of accepted copies; building the cloud queries no neighbours
        queries = _count_nearest(monkeypatch)
        c = ga.sample_slice(curves.get(name), 0.0625, npoints=2000,
                            cache=ga.SliceCache())
        assert len(c) < 5 and c.counts.min() > 100
        assert queries == []


class TestTreeBuilder:
    """Every corpus cloud's points and counts equal the k-d tree
    builder's, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("npoints", [256, 2000])
    @pytest.mark.parametrize("r0", [0.25, 2.0 ** -9])
    def test_corpus_clouds(self, curves, surfaces, loj, r0, npoints, seed,
                           monkeypatch):
        merged = []

        def checked(r, fraction, attempts, raw, *key):
            cloud = slice_cloud(r, fraction, attempts, raw, *key)
            points, counts = _tree_slice_cloud(r, raw)
            assert np.array_equal(cloud.points, points)
            assert np.array_equal(cloud.counts, counts)
            merged.append(len(cloud) < len(raw))
            return cloud

        slice_cloud = gg._slice_cloud
        monkeypatch.setattr(gg, "_slice_cloud", checked)
        radii = ga.RadiiSchedule(r0).radii()
        cache = ga.SliceCache()
        for coll in (curves, surfaces, loj):
            for s in coll.sets.values():
                gg.sample_slices(s, radii, npoints=npoints, seed=seed,
                                 cache=cache)
        assert any(merged) and not all(merged)


def _circle_raw(n, r=0.25, seed=0):
    """n distinct points on the circle of radius r, a golden-angle walk."""
    return r * gg.sphere_directions(2, n, seed)


class TestSliceCloud:
    """A slice cloud equals the reference's, bit for bit, and makes the
    queries the rule names (see _built)."""

    def test_nothing_dropped_builds_one_tree(self, monkeypatch):
        # every row is a point, and the spacing's first read queries the
        # gaps of them all once
        raw = _circle_raw(500)
        cloud, queries, _ = _built(monkeypatch, 0.25, raw)
        assert len(cloud) == len(raw)
        assert queries == [(len(raw), len(raw))]

    def test_copies_are_queried_once(self, monkeypatch):
        # exact copies of 20 points: the distinct rows are the points, and
        # the spacing's first read queries their gaps once
        circle = _circle_raw(500)
        raw = np.concatenate([circle, circle[::25]])
        cloud, queries, _ = _built(monkeypatch, 0.25, raw)
        assert np.array_equal(cloud.points, circle)
        assert queries == [(len(circle), len(circle))]

    def test_near_copies_above_the_merge_tolerance_are_kept(self,
                                                            monkeypatch):
        # near-copies a few 1e-9 apart are distinct points, far above the
        # merge tolerance _STEP_ACCEPT * r; the spacing is the median gap,
        # so ten close pairs leave it at the circle's
        raw = _circle_raw(500)
        raw[1::50] = raw[::50] * (1.0 + 1e-8)
        cloud, queries, _ = _built(monkeypatch, 0.25, raw)
        assert np.array_equal(cloud.points, raw)
        assert queries == [(len(raw), len(raw))]
        assert cloud.spacing > 1e-4


class TestSliceCloudFarFromOrigin:
    """Slices far from the origin keep their points."""

    SETS = make_collection(
        {"vars": ["x", "y"], "omega": 1e5,
         "sets": {"line": {"parts": [{"eqs": ["y - x"]}]},
                  "half": {"parts": [{"ineqs": ["x"]}]}}})

    @pytest.mark.parametrize("r", [3000.0, 5e4])
    def test_far_slices_keep_their_points(self, r):
        line = ga.sample_slice(self.SETS.get("line"), r,
                               cache=ga.SliceCache())
        assert len(line) == 2
        assert np.linalg.norm(line.points[0] - line.points[1]) > r
        # the half-plane's slice is a half circle, sampled as at r = 1
        half = ga.sample_slice(self.SETS.get("half"), r,
                               cache=ga.SliceCache())
        near = ga.sample_slice(self.SETS.get("half"), 1.0,
                               cache=ga.SliceCache())
        assert len(half) == len(near) > 100


class TestMergeClose:
    @pytest.mark.parametrize("n,nvars,tol", [
        (1, 2, 1e-3), (50, 2, 1e-15), (300, 2, 0.05), (300, 3, 0.1),
        (1000, 3, 0.3), (200, 1, 0.01), (500, 4, 0.5)])
    def test_matches_loop(self, n, nvars, tol, monkeypatch):
        # the builder merges at _STEP_ACCEPT * r, so r sets the tolerance
        rng = np.random.default_rng(n + nvars)
        pts = rng.uniform(-0.25, 0.25, size=(n, nvars))
        # repeated rows, near-copies a few ulps apart, and points on a
        # grid of spacing tol, both signs
        pts[n // 2:] = pts[: n - n // 2]
        pts[1::5] = pts[::5][: len(pts[1::5])] * (1.0 + 4e-16)
        pts[::7] = np.round(pts[::7] / tol) * tol
        r = tol / gg._STEP_ACCEPT
        cloud, _, distinct = _built(monkeypatch, r, pts)
        assert len(cloud) < len(distinct) or n == 1

    # the last three radii put the merge tolerance below _SPACING_GUARD
    RADII = [0.25, 2.0 ** -10, 2.0 ** -11, 2.0 ** -12]

    @pytest.mark.parametrize("r", RADII)
    def test_screen_fires_without_a_merge(self, r, monkeypatch):
        # copies 1.5 tol off in each coordinate: their first coordinates
        # are within twice the tolerance, so the rows are grouped, but they
        # are farther than it from every row and merge with none. The one
        # query is the spacing's first read, of the final points
        tol = gg._STEP_ACCEPT * r
        base = _circle_raw(200, r=r)
        raw = np.concatenate([base, base[::10] + 1.5 * tol])
        cloud, queries, _ = _built(monkeypatch, r, raw)
        assert len(cloud) == len(raw)
        assert queries == [(len(raw), len(raw))]

    @staticmethod
    def _boundary_pairs(nvars, tol, zero):
        """Nine pairs of rows exactly d apart, d = tol * (1 + k eps) for
        k = -4..4: one row's first coordinate is ``zero`` (0.0 or -0.0),
        the other's +d or -d, and their other coordinates are equal; the
        pairs lie 0.01 apart. The second row comes first in every other
        pair."""
        eps = np.finfo(float).eps
        rows = []
        for i, k in enumerate(range(-4, 5)):
            rest = [0.01 * (i + 1)] * (nvars - 1)
            d = tol * (1.0 + k * eps) * (-1.0) ** i
            pair = [[zero, *rest], [d, *rest]]
            rows += pair[::-1] if i % 2 else pair
        return np.array(rows)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("nvars", [2, 3])
    @pytest.mark.parametrize("r", RADII)
    def test_pairs_at_the_tolerance(self, r, nvars, zero, monkeypatch):
        # pairs within 4 ulps of the tolerance, on both sides: the builder
        # merges the ones the plain loop merges, and those at or below it
        # at least
        raw = self._boundary_pairs(nvars, gg._STEP_ACCEPT * r, zero)
        cloud, queries, _ = _built(monkeypatch, r, raw)
        # the rows are not queried: any query is over the final points
        assert all(q == (len(cloud), len(cloud)) for q in queries)
        assert 5 <= len(raw) - len(cloud) < 9

    @pytest.mark.parametrize("k", [-4, -1, 0, 1, 4])
    @pytest.mark.parametrize("r", RADII)
    def test_one_variable_pairs_at_the_tolerance(self, r, k, monkeypatch):
        # one pair d = tol * (1 + k eps) apart, signed zero first, among
        # rows far from it and from each other
        d = gg._STEP_ACCEPT * r * (1.0 + k * np.finfo(float).eps)
        raw = np.array([[0.3 * r], [-0.0], [-0.5 * r], [d], [0.9 * r]])
        cloud = _built(monkeypatch, r, raw)[0]
        # 4 ulps above the tolerance squares to more than its square
        assert len(cloud) == 4 if k <= 0 else len(cloud) == 5 or k < 4

    @pytest.mark.parametrize("r", RADII)
    def test_signed_zero_first_coordinates(self, r, monkeypatch):
        # 0.0 and -0.0 compare equal, so rows that differ only in its sign
        # are copies, and rows that share it are grouped; only the pair
        # within the tolerance merges. Half the four points are piled, so
        # the spacing's first read queries them
        tol = gg._STEP_ACCEPT * r
        raw = np.array([[0.0, 0.5 * r], [-0.0, -0.5 * r], [-0.0, 0.5 * r],
                        [0.0, 0.25 * r], [-0.0, 0.25 * r + 0.5 * tol],
                        [0.0, -0.25 * r]])
        cloud, queries, distinct = _built(monkeypatch, r, raw)
        assert len(distinct) == 5 and len(cloud) == 4
        assert queries == [(4, 4)]

    def test_matches_loop_on_slice_samples(self, curves, surfaces,
                                           monkeypatch):
        # accepted samples, at the tolerance sample_slice merges them
        # with; copies of isolated slice points differ in their last bits
        r, merged = 0.25, 0
        for nvars, eqs in _corpus_systems(curves, surfaces):
            raw, ok = gg.project_to_sphere_slice(
                eqs, ga.sphere_directions(nvars, 128, 1) * r, r)
            cloud, _, distinct = _built(monkeypatch, r, raw[ok])
            merged += len(cloud) < len(distinct)
        assert merged > 0

    @pytest.mark.parametrize("npoints", [256, 2000])
    @pytest.mark.parametrize("r", [0.0625, 2.0 ** -8])
    def test_isolated_slice_points_collapse(self, curves, r, npoints):
        # exp_curve meets each sphere in two points; every accepted copy
        # of one collapses to a single cloud point
        c = ga.sample_slice(curves.get("exp_curve"), r, npoints=npoints,
                            seed=0, cache=ga.SliceCache())
        assert len(c.points) == 2
        assert np.linalg.norm(c.points[0] - c.points[1]) > r


class TestWideGroups:
    """Rows whose group is wider than the merge tolerance in every
    coordinate it is cut by are clustered row by row, as the plain loop
    and the k-d tree builder cluster them (see _built)."""

    RADII = [0.25, 2.0 ** -10, 2.0 ** -11, 2.0 ** -12]

    @staticmethod
    def _chains(nvars, r, steps):
        """Rows 0.6 tol apart along the diagonal: one chain per base point
        0.1 r, 0.5 r and -0.7 r along it, the row at `steps` multiples of
        the step from its base, then 20 random rows."""
        tol = gg._STEP_ACCEPT * r
        u = np.ones(nvars) / np.sqrt(nvars)
        rows = [(b * r + 0.6 * tol * k) * u
                for b in (0.1, 0.5, -0.7) for k in steps]
        far = np.random.default_rng(nvars).uniform(-r, r, size=(20, nvars))
        return np.concatenate([np.array(rows), far])

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @pytest.mark.parametrize("r", RADII)
    def test_chains_in_input_order(self, r, nvars, monkeypatch):
        # nine rows 0.6 tol apart: each second row leads the one after it
        raw = self._chains(nvars, r, range(9))
        cloud = _built(monkeypatch, r, raw)[0]
        assert len(cloud) == 3 * 5 + 20
        assert cloud.counts.tolist()[:5] == [2, 2, 2, 2, 1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @pytest.mark.parametrize("r", RADII)
    def test_chains_shuffled(self, r, nvars, seed, monkeypatch):
        steps = np.random.default_rng(seed).permutation(9)
        raw = self._chains(nvars, r, steps)
        raw = raw[np.random.default_rng(seed).permutation(len(raw))]
        cloud = _built(monkeypatch, r, raw)[0]
        assert 3 * 3 + 20 <= len(cloud) <= 3 * 5 + 20

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("k", [-4, 4])
    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @pytest.mark.parametrize("r", RADII)
    def test_row_at_the_tolerance(self, r, nvars, k, reverse, monkeypatch):
        # first coordinates 0, 0.6 tol and d = tol * (1 + k eps), the
        # others equal, then a far row: the middle row joins the first
        # one's cluster, and the last joins it too when at or below the
        # tolerance
        tol = gg._STEP_ACCEPT * r
        d = tol * (1.0 + k * np.finfo(float).eps)
        raw = np.full((4, nvars), 0.01 * r)
        raw[:, 0] = [0.0, 0.6 * tol, d, 0.5 * r]
        if reverse:
            raw[:3] = raw[2::-1]
        cloud = _built(monkeypatch, r, raw)[0]
        assert cloud.counts.tolist() == ([3, 1] if k < 0 else [2, 1, 1])

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @pytest.mark.parametrize("r", RADII)
    def test_signed_zero_coordinates(self, r, nvars, monkeypatch):
        # the last coordinate runs 0.6 tol apart, every other coordinate
        # and every zero last one alternates between 0.0 and -0.0: two
        # clusters, led by the first row and the first at 1.2 tol
        tol = gg._STEP_ACCEPT * r
        steps = np.array([0, 0, 1, 0, 2, 2, 1, 0])
        zeros = np.where(np.arange(len(steps)) % 2, -0.0, 0.0)
        raw = np.repeat(zeros[:, None], nvars, axis=1)
        raw[:, -1] = np.where(steps == 0, zeros, 0.6 * tol * steps)
        cloud = _built(monkeypatch, r, raw)[0]
        assert np.array_equal(cloud.points, raw[[0, 4]])
        assert cloud.counts.tolist() == [6, 2]

    @pytest.mark.parametrize("y", [0.3, 0.6e-12])
    @pytest.mark.parametrize("nvars", [2, 3])
    @pytest.mark.parametrize("r", RADII)
    def test_symmetric_pairs(self, r, nvars, y, monkeypatch):
        # copies of (x, y) and (x, -y) a few ulps apart share their first
        # coordinates: cut by the second, they are two points, whether
        # far apart or 1.2 tol apart
        rng = np.random.default_rng(nvars)
        point = np.array([0.4, y] + [0.2] * (nvars - 2)) * r
        raw = point * (1.0 + rng.integers(-2, 3, size=(40, nvars))
                       * np.finfo(float).eps)
        raw[1::2, 1] *= -1.0
        cloud = _built(monkeypatch, r, raw)[0]
        assert np.array_equal(cloud.points, raw[:2])
        assert cloud.counts.tolist() == [20, 20]


def _circle_roots(part, r, grid=200_000):
    """The points where the plane curve part meets the circle of radius r,
    found with no Gauss-Newton: the roots of g(t) = f(r cos t, r sin t),
    f the part's first equation, from sign changes on a grid of t refined
    by brentq, kept where its other equations vanish and its inequalities
    hold. A root of even multiplicity, where g keeps its sign, is a sign
    change of g' refined by brentq at which g is 0 to rounding (at most
    1e-13 of g's largest value on the grid)."""
    def on_circle(t):
        t = np.atleast_1d(t)
        return r * np.stack([np.cos(t), np.sin(t)], axis=1)

    def g(t):
        return ex.eval_many(part.eqs[0], on_circle(t))

    def dg(t):
        X = on_circle(t)
        _, grad = ex.value_and_grad_many(part.eqs[0], X)
        return grad[:, 1] * X[:, 0] - grad[:, 0] * X[:, 1]

    def refined(fun, vals):
        return [brentq(lambda u: fun(u)[0], t[i], t[i + 1], xtol=1e-300,
                       rtol=4.0 * np.finfo(float).eps)
                for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]

    t = np.linspace(0.0, 2.0 * math.pi, grid + 1)
    v = g(t)
    roots = list(t[:-1][v[:-1] == 0.0]) + refined(g, v)
    tol = 1e-13 * np.abs(v).max()
    roots += [u for u in refined(dg, dg(t))
              if abs(g(u)[0]) <= tol
              and min((abs(u - w) for w in roots), default=1.0) > 1e-9]
    X = on_circle(np.array(roots))
    keep = np.ones(len(X), dtype=bool)
    for h in part.eqs[1:]:
        keep &= np.abs(ex.eval_many(h, X)) <= 1e-12 * r
    for q in part.ineqs:
        keep &= ex.eval_many(q, X) >= 0.0
    return X[keep]


def _curve_distance(part, P, grid=20_001):
    """Each row of P's distance to the germ of the plane curve part, found
    with no Gauss-Newton: the least |gamma(t) - p| over the critical points
    of t -> |gamma(t) - p|^2, refined by brentq from sign changes of
    gamma'(t).(gamma(t) - p) on a grid of t, and the ends t = 0 and the
    domain's lower end. gamma parametrizes the graph y = phi(x) of the
    part's first equation y - phi(x) (phi read from it on the axis y = 0),
    or, for y^2 - x^3, the cusp as (t^2, t^3); a part with an inequality,
    x >= 0, takes t >= 0."""
    f = part.eqs[0]
    probe = np.linspace(-0.5, 0.5, 101)

    def at(x, y):
        return ex.eval_many(f, np.column_stack([x, y]))

    if np.allclose(at(probe, probe * 0.0 + 2.0) - at(probe, probe * 0.0),
                   2.0, rtol=0.0, atol=1e-12):
        def gamma(t):
            phi, grad = ex.value_and_grad_many(
                f, np.column_stack([t, np.zeros_like(t)]))
            return (np.column_stack([t, -phi]),
                    np.column_stack([np.ones_like(t), -grad[:, 0]]))
    else:
        def gamma(t):
            return (np.column_stack([t * t, t ** 3]),
                    np.column_stack([2.0 * t, 3.0 * t * t]))
        assert np.abs(at(*gamma(probe)[0].T)).max() <= 1e-15

    lo = 0.0 if part.ineqs else -0.5
    t = np.linspace(lo, 0.5, grid)
    G, dG = gamma(t)
    out = []
    for p in P:
        def slope(u):
            Gu, dGu = gamma(np.atleast_1d(u))
            return float((Gu[0] - p) @ dGu[0])

        v = ((G - p) * dG).sum(axis=1)
        ts = [lo, 0.0, *t[v == 0.0]]
        ts += [brentq(slope, t[i], t[i + 1], xtol=1e-300,
                      rtol=4.0 * np.finfo(float).eps)
               for i in np.flatnonzero(v[:-1] * v[1:] < 0.0)]
        out.append(np.linalg.norm(gamma(np.array(ts))[0] - p, axis=1).min())
    return np.array(out)


# non-reduced lines in the plane, each with the unit direction it spans
NON_REDUCED_LINES = [("x^3", (0.0, 1.0)), ("x^4", (0.0, 1.0)),
                     ("(x - y)^4", (math.sqrt(0.5), math.sqrt(0.5)))]


def _line_set(f):
    return make_collection(
        {"vars": ["x", "y"], "omega": 0.5,
         "sets": {"line": {"parts": [{"eqs": [f]}]}}}).get("line")


class TestSliceOracle:
    """Every plane-curve set whose parts all have equations samples, at
    each radius of the schedule, exactly its slice points: one cloud point
    per root of the oracle, within 1e-12 r."""

    @staticmethod
    def _mismatched_radii(s):
        """The radii of the schedule at which the set's cloud and the
        oracle's roots are not one to one within 1e-12 r."""
        radii = ga.RadiiSchedule(0.25).radii()
        clouds = gg.sample_slices(s, radii, npoints=256, seed=0,
                                  cache=ga.SliceCache())
        bad = []
        for r, cloud in zip(radii, clouds):
            roots = np.concatenate([_circle_roots(p, r) for p in s.parts])
            if len(cloud) != len(roots):
                bad.append(r)
                continue
            d = cdist(cloud.points, roots)
            match = d.argmin(axis=1)
            if (sorted(match) != list(range(len(roots)))
                    or d[np.arange(len(d)), match].max() > 1e-12 * r):
                bad.append(r)
        return bad

    def test_curves_match_the_roots(self, curves):
        checked = 0
        for name, s in curves.sets.items():
            if not all(p.eqs for p in s.parts):
                continue
            assert self._mismatched_radii(s) == [], name
            checked += 1
        assert checked == 20

    def test_curve_deviations_match_the_roots(self, curves):
        # both directed deviations of each pair, at every radius, are the
        # oracle's own between the root sets, within its matching tolerance
        cfg = ga.CompareConfig(schedule=ga.RadiiSchedule(0.25), npoints=256,
                               seed=0)
        roots = {}

        def slice_roots(name, r):
            if (name, r) not in roots:
                roots[name, r] = np.concatenate(
                    [_circle_roots(p, r) for p in curves.get(name).parts])
            return roots[name, r]

        def directed(P, Q):
            if not len(P):
                return 0.0
            if not len(Q):
                return math.inf
            return cdist(P, Q).min(axis=1).max()

        for a, b, _ in CURVE_PAIRS:
            samples, *_ = ga.deviation_profile(
                curves.get(a), curves.get(b), cfg, ga.SliceCache())
            assert [d.r for d in samples] == cfg.schedule.radii()
            for d in samples:
                P, Q = slice_roots(a, d.r), slice_roots(b, d.r)
                for got, want in ((d.delta_ab, directed(P, Q)),
                                  (d.delta_ba, directed(Q, P))):
                    assert abs(got - want) <= 1e-12 * d.r, (a, b, d.r)

    def test_germ_maxima_match_the_curves(self, curves, fresh_cache):
        # the early-stopped maximum kernel, at every radius and both ways:
        # A's largest distance to B's germ, found along B's parametrization
        # with no Gauss-Newton, within the solver's acceptance
        radii = ga.RadiiSchedule(0.25).radii()
        got = {}
        for a, b, _ in CURVE_PAIRS:
            for x, y in ((a, b), (b, a)):
                sx, sy = curves.get(x), curves.get(y)
                clouds = gg.sample_slices(sx, radii, npoints=256, seed=0,
                                          cache=fresh_cache)
                maxima = gg._max_dists(clouds, sy, 256, 0, fresh_cache)
                for r, c, d in zip(radii, clouds, maxima):
                    want = _curve_distance(sy.parts[0], c.points).max()
                    assert abs(d - want) <= gg._NEAREST_ACCEPT * r, (x, y, r)
                    got[x, y, r] = d
        # exp_curve's slice points lie 1.6e-7 r from trunc2's germ at
        # r = 2^-9, and are members of trunc2 by membership's absolute
        # tolerance; the distance reads no membership
        r = 2.0 ** -9
        for x, y in (("exp_curve", "trunc2"), ("trunc2", "exp_curve")):
            assert got[x, y, r] > 1e-7 * r
            clouds = gg.sample_slices(curves.get(x), [r], cache=fresh_cache)
            assert gs.membership_mask(curves.get(y), clouds[0].points).all()

    @pytest.mark.parametrize("f,direction", NON_REDUCED_LINES)
    def test_oracle_finds_non_reduced_roots(self, f, direction):
        # g keeps its sign across an even root: only g' changes sign there
        part = _line_set(f).parts[0]
        for r in ga.RadiiSchedule(0.25).radii():
            want = r * np.array([direction, [-c for c in direction]])
            d = cdist(_circle_roots(part, r), want)
            assert d.shape == (2, 2)
            assert d.min(axis=0).max() <= 1e-12 * r, (f, r)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: Gauss-Newton converges only linearly on a "
               "root of multiplicity k >= 3 and accepts no row within its "
               "budget, so the cloud is empty")
    @pytest.mark.parametrize("f,direction", NON_REDUCED_LINES)
    def test_non_reduced_lines_match_the_roots(self, f, direction):
        assert self._mismatched_radii(_line_set(f)) == []


class TestSampleSlice:
    def test_parabola_cloud_geometry(self, curves, shared_cache):
        r = 0.25
        c = ga.sample_slice(curves.get("parabola"), r, cache=shared_cache)
        assert c.r == r
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

    def test_same_geometry_shares_one_cloud(self, curves):
        # the cache is keyed by presentation, so two sets with identical
        # geometry share entries; a cloud carries no set name
        twin = make_collection(
            {"vars": ["x", "y"], "omega": 0.5,
             "sets": {"pb_twin": {"parts": [{"eqs": ["y - x^2"]}]}}})
        cache = ga.SliceCache()
        a = ga.sample_slice(twin.get("pb_twin"), 0.25, cache=cache)
        b = ga.sample_slice(curves.get("parabola"), 0.25, cache=cache)
        assert a is b

    def test_empty_slice_cache_hit_relabels(self, fresh_cache):
        # the error is built for the set that asks, also on a cache hit
        twin = make_collection(
            {"vars": ["x", "y"], "omega": 0.5,
             "sets": {"origin_twin": {"parts": [{"eqs": ["x", "y"]}]}}})
        with pytest.raises(ga.EmptySliceError) as e1:
            ga.sample_slice(ISOLATED, 0.25, cache=fresh_cache)
        with pytest.raises(ga.EmptySliceError) as e2:
            ga.sample_slice(twin.get("origin_twin"), 0.25, cache=fresh_cache)
        assert e1.value.set_name == "origin_only"
        assert e2.value.set_name == "origin_twin"
        assert str(e2.value) == str(e1.value).replace("origin_only",
                                                      "origin_twin")

    def test_empty_slice_raises_and_caches(self, fresh_cache):
        with pytest.raises(ga.EmptySliceError) as e1:
            ga.sample_slice(ISOLATED, 0.25, cache=fresh_cache)
        with pytest.raises(ga.EmptySliceError) as e2:
            ga.sample_slice(ISOLATED, 0.25, cache=fresh_cache)
        fields = [(e.set_name, e.r, e.converged_fraction, e.attempts, str(e))
                  for e in (e1.value, e2.value)]
        assert fields[0] == fields[1]
        err = e1.value
        assert err.set_name == "origin_only" and err.r == 0.25
        assert err.converged_fraction == 0.0 and err.attempts > 0
        # the cache holds the empty cloud, never an exception
        assert not any(isinstance(v, BaseException)
                       for v in fresh_cache._store.values())

    def test_empty_slice_error_keeps_no_caller_alive(self, fresh_cache):
        class Payload:
            pass

        def caller():
            # a large local of a frame on the raising call's stack
            payload = Payload()
            with pytest.raises(ga.EmptySliceError):
                ga.sample_slice(ISOLATED, 0.25, cache=fresh_cache)
            return weakref.ref(payload)

        ref = caller()
        gc.collect()
        assert ref() is None
        assert fresh_cache._store

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

    def test_nearest_distance_is_column_0_of_a_k3_query(self, surfaces,
                                                         shared_cache):
        # the limit fit reads its deviations from column 0 of the k = 3
        # query it shares with the horn criterion; _nearest must give that
        # column the bits of a k-d tree's k = 1 query, ties and near-copies
        # included
        rng = np.random.default_rng(3)
        cloud = ga.sample_slice(surfaces.get("graph_exp"), 0.25, npoints=1000,
                                seed=0, cache=shared_cache).points
        tied = rng.integers(-3, 4, size=(300, 2)).astype(float)
        for P, Q in [(rng.normal(size=(500, 3)), rng.normal(size=(700, 3))),
                     (cloud + 1e-3 * rng.normal(size=cloud.shape), cloud),
                     (tied + 0.5, tied)]:
            nearest = cKDTree(Q).query(P)[0]
            for k in (1, 2, 3):
                assert np.array_equal(gg._nearest(P, Q, k)[0][:, 0], nearest)

    @pytest.mark.parametrize("data", ["random", "near_copies", "ties"])
    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_nearest_matches_a_k_d_tree(self, surfaces, shared_cache, nvars,
                                        data):
        # _nearest against scipy's k-d tree: the distances bit for bit, and
        # each index a row at its reported distance, so the indices differ
        # only among exactly tied rows
        rng = np.random.default_rng(nvars)
        if data == "random":
            P, X = rng.normal(size=(700, nvars)), rng.normal(size=(500, nvars))
        elif data == "near_copies":
            cloud = ga.sample_slice(surfaces.get("graph_exp"), 0.25,
                                    npoints=1000, seed=0,
                                    cache=shared_cache).points
            P = np.concatenate([cloud, cloud[:, :1]], axis=1)[:, :nvars]
            X = P + 1e-3 * rng.normal(size=P.shape)
        else:
            P = rng.integers(-3, 4, size=(300, nvars)).astype(float)
            X = rng.integers(-3, 4, size=(1000, nvars)) + 0.5
        for k in (1, 2, 3, len(P)):
            dists, idx = gg._nearest(X, P, k)
            want, want_idx = cKDTree(P).query(X, k=list(range(1, k + 1)))
            assert np.array_equal(dists, want)
            for i in (idx, want_idx):
                assert np.array_equal(
                    np.linalg.norm(X[:, None] - P[i], axis=-1), dists)
            assert (np.sort(idx, axis=1)[:, 1:] != np.sort(idx, axis=1)[
                :, :-1]).all()
        # more pairs than one chunk: the rows get the bits of one call each
        assert len(X) * len(P) > gg._NEAREST_PAIRS
        dists, idx = gg._nearest(X, P, 3)
        for i in range(0, len(X), 37):
            lone = gg._nearest(X[i:i + 1], P, 3)
            assert np.array_equal(lone[0], dists[i:i + 1])
            assert np.array_equal(lone[1], idx[i:i + 1])

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

    def test_mismatched_widths_raise(self):
        # rows of 2 against rows of 3 are an input error, not a distance
        # over the columns they share
        with pytest.raises(ValueError):
            ga.directed_deviation(np.zeros((3, 2)), np.ones((4, 3)))
        with pytest.raises(ValueError):
            ga.directed_deviation(np.ones((4, 3)), np.zeros((3, 2)))


class TestDistToSet:
    @staticmethod
    def _dist(x, s, **kw):
        """Distance from one point, shape (n,), through the batch form."""
        d = ga.dist_to_set_batch(np.array(x), s, **kw)
        assert d.shape == (1,)
        return float(d[0])

    def test_vertex_distance(self, curves, shared_cache):
        p = curves.get("parabola")
        assert self._dist([0.0, 0.2], p, cache=shared_cache) == \
            pytest.approx(0.2, abs=1e-9)

    @staticmethod
    def _to_parabola(a, b):
        """The distance from (a, b) to {y = x^2} at 50 digits: the nearest
        point's x solves 4x^3 + (2 - 4b)x - 2a = 0, whose real root near a
        is the one for a point near the parabola's arm."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            x = mpmath.findroot(lambda x: 4 * x ** 3 + (2 - 4 * b) * x - 2 * a,
                                a)
            return float(mpmath.sqrt((x - a) ** 2 + (x * x - b) ** 2))

    def test_member_distance_zero(self, curves, shared_cache):
        # the float point (0.2, 0.04) lies 6.9e-18 off the parabola, far
        # below the solver's floor; membership's 0 is not read
        p = curves.get("parabola")
        want = self._to_parabola(0.2, 0.04)
        assert 0.0 < want < 1e-17
        got = self._dist([0.2, 0.04], p, cache=shared_cache)
        assert abs(got - want) <= gg._NEAREST_ACCEPT * math.hypot(0.2, 0.04)

    def test_matches_variational_oracle(self, curves, shared_cache):
        # nearest point of {y = x^2} to (a, b) solves 4x^3 + (2-4b)x - 2a = 0
        p = curves.get("parabola")
        for a, b in [(0.3, 0.0), (0.2, 0.14), (-0.25, 0.1)]:
            roots = np.roots([4.0, 0.0, 2.0 - 4.0 * b, -2.0 * a])
            real = roots[np.abs(roots.imag) < 1e-12].real
            want = min(math.hypot(x - a, x * x - b) for x in real)
            got = self._dist([a, b], p, cache=shared_cache)
            assert got == pytest.approx(want, rel=1e-6)

    def test_halfline_endpoint(self, curves, shared_cache):
        h = curves.get("halfline")
        assert self._dist([-0.1, 0.0], h, cache=shared_cache) == \
            pytest.approx(0.1, abs=1e-9)
        assert self._dist([-0.3, 0.4], h, cache=shared_cache) == \
            pytest.approx(0.5, abs=1e-9)

    def test_batch_shape(self, curves, shared_cache):
        X = np.array([[0.0, 0.2], [0.2, 0.04]])
        out = ga.dist_to_set_batch(X, curves.get("parabola"),
                                   cache=shared_cache)
        assert out.shape == (2,)
        for x, d in zip(X, out):
            want = self._to_parabola(*x)
            assert abs(d - want) <= gg._NEAREST_ACCEPT * np.linalg.norm(x)

    def test_member_by_tolerance_is_not_at_distance_zero(self, fresh_cache):
        # the points of y = 1.5x on the sphere r = 2^-9 are members of
        # {y (y - 2x)^2 = 0} by membership's absolute tolerance, but lie
        # 0.5 / sqrt(16.25) r from its line y = 2x, a double factor
        b = _one_part_set(["y*(y - 2*x)^2"], [])
        r = 2.0 ** -9
        X = ga.sample_slice(_one_part_set(["y - 1.5*x"], []), r,
                            cache=fresh_cache).points
        assert len(X) == 2 and gs.membership_mask(b, X).all()
        got = ga.dist_to_set_batch(X, b, cache=fresh_cache)
        assert np.abs(got - 0.5 / math.sqrt(16.25) * r).max() <= 1e-9 * r

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
        assert self._dist([0.1, 0.1], empty) == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_non_finite_queries_rejected(self, curves, shared_cache, rows,
                                         bad):
        X = np.tile([[0.1, 0.05]], (rows, 1))
        X[rows // 2, 0] = bad
        with pytest.raises(gg.GeometryError, match="must be finite"):
            ga.dist_to_set_batch(X, curves.get("parabola"),
                                 cache=shared_cache)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (1, 3)],
                             ids=["2x3", "1x1", "1x3"])
    def test_wrong_width_rejected(self, curves, shared_cache, shape):
        # a batch of another width is an input error, whatever the width,
        # not an answer or an error from inside numpy or scipy
        with pytest.raises(gg.GeometryError, match=r"needs \(N, 2\)"):
            ga.dist_to_set_batch(np.full(shape, 0.1), curves.get("line"),
                                 cache=shared_cache)


def _dist_reference(X, s, npoints, seed, cache):
    """dist_to_set_batch assembled from a dense queries x cloud matrix, its
    argsort, and a multistart rebuilt per stratum: the path the neighbour
    query must reproduce."""
    X = np.asarray(X, dtype=float)
    best = np.full(len(X), math.inf)
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
    todo = np.arange(len(X))
    ineq_tol = 1e-8 * np.maximum(1.0, norms)
    # the landing: three Gauss-Newton steps from the query onto a part's
    # own equations, kept at a point of the ball that meets the part's
    # inequalities where the residual is finite, the next step is at most
    # tol = 1e-9 |x| and |f| <= |J|_F tol: the solver's acceptance, written
    # out here rather than read from _nearest_on_variety. A part without
    # equations keeps the query where it meets the inequalities
    for part in s.parts:
        eqs = gg._normalize_system(part.eqs)
        if eqs is None:
            continue
        if not eqs:
            land = np.linalg.norm(X, axis=1) <= s.omega * (1.0 + 1e-9)
            for g in part.ineqs:
                vals = ex.eval_many(g, X)
                land &= np.isfinite(vals) & (vals >= -ineq_tol)
            best[land] = 0.0
            continue
        Y = x = X[todo]
        for _ in range(3):
            Y = Y + gg._gn_steps(eqs, Y)[0]
        tol = 1e-9 * norms[todo]
        res = _reference_residual(eqs, Y)
        vals, jacs = ex.eval_system_jacobian(eqs, Y)
        vals = np.where(np.isfinite(vals), vals, 0.0)
        jacs = np.where(np.isfinite(jacs), jacs, 0.0)
        land = np.isfinite(res)
        land &= (np.linalg.norm(gg._gn_steps(eqs, Y)[0], axis=1) <= tol)
        land &= (np.linalg.norm(vals, axis=1)
                 <= np.linalg.norm(jacs, axis=(1, 2)) * tol)
        land &= np.linalg.norm(Y, axis=1) <= s.omega * (1.0 + 1e-9)
        for g in part.ineqs:
            vals = ex.eval_many(g, Y)
            land &= np.isfinite(vals) & (vals >= -ineq_tol[todo])
        np.minimum.at(best, todo[land], np.linalg.norm(Y - x, axis=1)[land])
    for part in s.parts:
        for eqs, rest in gg._part_strata(part, gg._DIST_DEPTH):
            eqs = gg._normalize_system(eqs)
            if eqs is None:
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
            Y, ok = (gg._nearest_on_variety(eqs, S0, T0) if eqs
                     else (S0, np.ones(len(S0), dtype=bool)))
            Y, T0, own = Y[ok], T0[ok], own[ok]
            keep = np.linalg.norm(Y, axis=-1) <= s.omega * (1.0 + 1e-9)
            for g in rest:
                vals = ex.eval_many(g, Y)
                keep &= np.isfinite(vals) & (vals >= -ineq_tol[own])
            Y, T0, own = Y[keep], T0[keep], own[keep]
            np.minimum.at(best, own, np.linalg.norm(Y - T0, axis=-1))
    return best


class TestDistMatchesSLSQP:
    """dist_to_set_batch against scipy's SLSQP, which minimizes |y - t|^2
    subject to f(y) = 0 without any of geometry's solvers. On the plane
    (h = 1) the leading Gauss-Newton steps from the query already land on
    the nearest point; the quadric (h = 2) needs the tangential pull."""

    @pytest.mark.parametrize("h,j", [(1, 0), (1, 5), (2, 0)])
    def test_graph_exp_truncations(self, surfaces, shared_cache, h, j):
        g = surfaces.get("graph_exp")
        b = gs.truncate_eqs(g, h)
        (part,) = b.parts
        eqs = part.eqs
        X = ga.sample_slice(g, 0.25 * 2.0 ** -j, npoints=1000, seed=0,
                            cache=shared_cache).points
        got = ga.dist_to_set_batch(X, b, npoints=1000, seed=0,
                                   cache=shared_cache)
        deviation = got.max()
        # y = t + deviation·u, so SLSQP works on an offset u of size ~1;
        # it may report its iteration limit on a row already solved to
        # rounding, so the distances, not its flag, are compared
        want = []
        for t in X:
            res = minimize(
                lambda u: (u @ u, 2.0 * u), np.zeros(3), jac=True,
                method="SLSQP", options={"ftol": 1e-12},
                constraints=[{
                    "type": "eq",
                    "fun": lambda u: ex.eval_system(
                        eqs, (t + deviation * u)[None])[0] / deviation,
                    "jac": lambda u: ex.eval_system_jacobian(
                        eqs, (t + deviation * u)[None])[1][0]}])
            want.append(deviation * np.linalg.norm(res.x))
        assert np.abs(got - np.array(want)).max() <= 1e-6 * deviation


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
        # would be tied nearest starts that _nearest and argsort may break
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

    def test_rank_deficient_landing(self, curves, shared_cache):
        # cusp_product's Jacobian has rank 1 on y = x^3, where its residual
        # is 0: a row of the disk's slice lands there by the solver's rule,
        # though a rank test refuses it, and that landing is shorter than
        # the row's refined distances
        _, got, want = self._both(curves.get("disk"),
                                  curves.get("cusp_product"), 2.0 ** -8,
                                  128, 1, shared_cache)
        assert np.array_equal(got, want)


def _get(sets, name):
    """A set of the collection, or its truncation where the name ends in
    ``~h<order>``."""
    base, _, h = name.partition("~h")
    return gs.truncate_eqs(sets.get(base), int(h)) if h else sets.get(name)


def _count_refined(monkeypatch):
    """Record how many solver starts each refinement call runs."""
    calls = []
    refine = gg._refine

    def counted(X, s, best, own, starts):
        calls.append(len(own))
        return refine(X, s, best, own, starts)

    monkeypatch.setattr(gg, "_refine", counted)
    return calls


def _query_cloud(X):
    """Query rows X as a slice cloud at their median norm, outside any
    cache, as dist_to_set_batch reads them."""
    X = np.asarray(X, dtype=float)
    return gg.SliceCloud(r=float(np.median(np.linalg.norm(X, axis=1))),
                         points=X, converged_fraction=1.0,
                         counts=np.ones(len(X), dtype=int), attempts=len(X))


class TestMaxDist:
    """``_max_dists`` screens each radius's rows by a bound that needs no
    solver (the cloud distance, or the landing distance where a row lands),
    refines them in growing chunks, largest bound first, until no bound
    left exceeds the maximum refined, and returns each radius's
    ``max(dist_to_set_batch)`` bit for bit."""

    RADII = ga.RadiiSchedule(0.25).radii()

    def _check_schedule(self, x, y, cache, radii=RADII, npoints=256):
        """One ``_max_dists`` call over x's clouds at ``radii`` against
        ``dist_to_set_batch`` at each radius (0.0 for an empty cloud). Each
        cloud's median norm is its radius, so both take y's cloud there."""
        clouds = gg.sample_slices(x, radii, npoints=npoints, seed=0,
                                  cache=cache)
        got = gg._max_dists(clouds, y, npoints, 0, cache)
        want = []
        for c in clouds:
            if len(c):
                assert np.median(np.linalg.norm(c.points, axis=1)) == c.r
            want.append(float(np.max(ga.dist_to_set_batch(
                c.points, y, npoints=npoints, seed=0, cache=cache),
                initial=0.0)))
        assert got == want, (x.name, y.name)
        return clouds

    @pytest.mark.parametrize("coll,a,b", [
        # acceptance criterion 3, and the horn tests of test_equivalence
        ("curves", "exp_curve", "trunc1"),
        ("curves", "exp_curve", "trunc2"),
        ("curves", "exp_curve", "trunc3"),
        # B's cloud holds fewer than 3 points, so fewer starts per row
        ("curves", "parabola", "line"),
        ("curves", "halfline", "line"),
        # a union, and a redundant presentation with a singular Jacobian
        ("curves", "exp_union", "t3_union"),
        ("curves", "cusp_product", "line"),
        ("surfaces", "graph_exp", "graph_exp~h1"),
        ("surfaces", "graph_exp", "graph_exp~h2"),
        ("surfaces", "graph_exp", "graph_exp~h3"),
    ])
    def test_screened_maximum_is_exact(self, request, shared_cache, coll, a,
                                       b):
        sets = request.getfixturevalue(coll)
        a, b = _get(sets, a), _get(sets, b)
        for x, y in ((a, b), (b, a)):
            self._check_schedule(x, y, shared_cache)

    def test_schedule_with_empty_radii_and_mixed_start_counts(
            self, fresh_cache, monkeypatch):
        # A: the diagonal outside the disk of radius 0.04, empty at the
        # five smallest radii. B: the x-axis (2 slice points), and the
        # y-axis inside the disk of radius 0.1 (2 more at r <= 0.1)
        def part(eq, ineqs=(), through_origin=True):
            return gs.BasicPresentation(
                nvars=2, eqs=(ex.parse(eq, 2),),
                ineqs=tuple(ex.parse(g, 2) for g in ineqs),
                through_origin=through_origin)

        a = gs.SemianalyticSet(name="a", nvars=2, omega=0.5, parts=(
            part("y - x", ["x^2 + y^2 - 0.0016"], through_origin=False),))
        b = gs.SemianalyticSet(name="b", nvars=2, omega=0.5, parts=(
            part("y"), part("x", ["0.01 - x^2 - y^2"])))
        refined = _count_refined(monkeypatch)
        clouds = self._check_schedule(a, b, fresh_cache)
        assert [len(c) > 0 for c in clouds] == [True] * 3 + [False] * 5
        # the rows at 0.25 and 0.125 have 1 + 2 starts, those at 0.0625
        # 1 + 3; each row gets its own cloud's neighbours, no padding
        X = np.concatenate([c.points for c in clouds])
        sizes = [len(c) for c in clouds]
        ends = np.cumsum(sizes)
        groups = [(np.arange(end - len(c), end), c.r)
                  for c, end in zip(clouds[:3], ends)]
        best, near, _ = gg._bounds(X, b, groups, 256, 0, fresh_cache)
        own, _ = gg._multistart(X, best, near)
        starts = np.bincount(own, minlength=len(X))
        big = np.repeat([c.r for c in clouds], sizes) > 0.1
        assert set(starts[big]) == {3}
        assert set(starts[~big]) == {4}
        assert 0 < sum(refined)

    @pytest.mark.parametrize("coll,a,b", [
        ("surfaces", "graph_exp", "graph_exp~h1"),
        ("surfaces", "graph_exp", "graph_exp~h2"),
        ("surfaces", "graph_exp", "graph_exp~h3"),
        ("surfaces", "graph_exp~h2", "graph_exp"),
        # each of A's slice points is a point of B's cloud
        ("curves", "halfline", "line"),
    ])
    def test_neighbours_only_for_refined_rows(self, request, fresh_cache,
                                              monkeypatch, coll, a, b):
        # the bounds need no neighbour query: only the rows of the chunks
        # the screen refines are queried in B's cloud, and a point of it is at
        # distance 0 without a landing
        sets = request.getfixturevalue(coll)
        a, b = _get(sets, a), _get(sets, b)
        on_b = {(p + 0.0).tobytes() for c in gg.sample_slices(
            b, self.RADII, npoints=1000, seed=0, cache=fresh_cache)
            for p in c.points}
        asked, landed = [], []
        neighbours, landing = gg._neighbours, gg._landing

        def counted_neighbours(X, cloud):
            asked.append(len(X))
            return neighbours(X, cloud)

        def counted_landing(X, s):
            landed.extend((x + 0.0).tobytes() for x in X)
            return landing(X, s)

        clouds = gg.sample_slices(a, self.RADII, npoints=1000, seed=0,
                                  cache=fresh_cache)
        monkeypatch.setattr(gg, "_neighbours", counted_neighbours)
        monkeypatch.setattr(gg, "_landing", counted_landing)
        gg._max_dists(clouds, b, 1000, 0, fresh_cache)
        rows = sum(len(c) for c in clouds)
        assert sum(asked) <= rows / 4
        assert not on_b.intersection(landed)
        if a.name == "halfline":
            assert asked == landed == []
        monkeypatch.undo()
        fresh_cache.clear()
        self._check_schedule(a, b, fresh_cache, npoints=1000)

    def test_early_stop_runs_a_minority(self, surfaces, fresh_cache,
                                        monkeypatch):
        g = surfaces.get("graph_exp")
        b = gs.truncate_eqs(g, 1)
        cloud = ga.sample_slice(g, 0.25, npoints=1000, seed=0,
                                cache=fresh_cache)
        X = cloud.points
        calls = _count_refined(monkeypatch)
        ga.dist_to_set_batch(X, b, npoints=1000, seed=0, cache=fresh_cache)
        (full,) = calls
        calls.clear()
        gg._max_dists([cloud], b, 1000, 0, fresh_cache)
        # every row lands, and the first chunk of 8 rows (4 starts each)
        # already holds the maximum
        assert np.isfinite(gg._landing(X, b)).all()
        assert calls == [4 * gg._FIRST_CHUNK] and calls[0] < full / 100

    def test_row_subset_at_the_batch_radius_keeps_its_bits(self, surfaces,
                                                           fresh_cache):
        # about a quarter of a slice's points lie an ulp or so off r, so a
        # subset of those has a median of its own, which the cache would
        # key a new cloud on
        g = surfaces.get("graph_exp")
        b = gs.truncate_eqs(g, 2)
        X = ga.sample_slice(g, 0.25, npoints=1000, seed=0,
                            cache=fresh_cache).points
        norms = np.linalg.norm(X, axis=1)
        r = float(np.median(norms))
        full = ga.dist_to_set_batch(X, b, npoints=1000, seed=0,
                                    cache=fresh_cache)
        rows = np.flatnonzero((norms > r) & (full > 0.0))[:40]
        assert rows.size and np.median(norms[rows]) != r
        keys = len(fresh_cache._store)
        Y = X[rows]
        got, near, _ = gg._bounds(Y, b, [(np.arange(rows.size), r)], 1000, 0,
                                  fresh_cache)
        gg._refine(Y, b, got, *gg._multistart(Y, got, near))
        assert np.array_equal(got, full[rows])
        assert len(fresh_cache._store) == keys

    def test_landings_refused(self, curves):
        # each case pairs a row that must not land with one near the set
        # that does
        def lands(s, X):
            return np.isfinite(gg._landing(np.array(X), s)).tolist()

        # log1p(10x) is nan past x = -0.1, where `_linearize` would read a
        # zero step
        log_graph = _one_part_set(["y - log1p(10*x)"], [])
        assert lands(log_graph, [[-0.2, 0.0], [0.02, math.log1p(0.2) + 1e-4]]
                     ) == [False, True]
        # x^2 - 0.2x has a zero gradient, so a zero step, on x = 0.1
        flat = _one_part_set(["x^2 - 0.2*x"], [])
        assert lands(flat, [[0.1, 0.3], [0.2001, 0.1]]) == [False, True]
        # two equations whose Jacobian has rank 1 on the curve y = x^3: a
        # point of it takes a zero step, and its residual is 0 there, so
        # the solver accepts it as it accepts its refined points
        assert lands(curves.get("cusp_product"), [[0.1, 0.001]]) == [True]
        # the half-line y = 0, x >= 0: a row by the other half lands on a
        # point that breaks the inequality
        assert lands(curves.get("halfline"), [[-0.2, 0.01], [0.2, 0.01]]
                     ) == [False, True]
        # a row landing outside the ball of radius omega = 0.5
        line = _one_part_set(["y"], [])
        assert lands(line, [[0.6, 0.01], [0.4, 0.01]]) == [False, True]

    def test_ball_edge_is_membership_edge(self, curves, fresh_cache):
        # the solver keeps a point in the ball by membership's own rule,
        # |y| <= omega + 1e-9: just past omega = 0.5 a point of the line is
        # a member, and a row beside it lands on it
        line = curves.get("line")
        X = np.array([[0.5 + 8e-10, 0.0], [0.5 + 8e-10, 1e-3],
                      [0.5 - 8e-10, 1e-3]])
        assert gs.membership_mask(line, X).tolist() == [True, False, False]
        got = ga.dist_to_set_batch(X, line, cache=fresh_cache)
        np.testing.assert_allclose(got, [0.0, 1e-3, 1e-3], rtol=1e-12,
                                   atol=0.0)
        assert np.isfinite(gg._landing(X[1:2], line)).all()

    def test_critical_locus_start_is_not_converged(self, fresh_cache):
        # x^2 - 0.2x is the lines x = 0 and x = 0.2, and its gradient
        # vanishes on x = 0.1, where a start of the solver takes a zero step
        flat = _one_part_set(["x^2 - 0.2*x"], [])
        X = np.array([[0.1, 0.3], [0.1, 0.05]])
        got = ga.dist_to_set_batch(X, flat, cache=fresh_cache)
        np.testing.assert_allclose(got, 0.1, rtol=1e-9)
        assert gg._max_dists([_query_cloud(X)], flat, 128, 0,
                             fresh_cache) == [float(np.max(got))]

    def test_redundant_presentation_converges_on_its_set(self, curves,
                                                         fresh_cache):
        # cusp_product's Jacobian has rank 1 everywhere on y = x^3, where
        # its residual is 0: the solver's rows land there as they do on
        # the plain cubic
        X = np.array([[0.1, 0.05], [-0.2, 0.1], [0.3, -0.1]])
        assert np.isfinite(gg._landing(X, curves.get("cusp_product"))).all()
        got = ga.dist_to_set_batch(X, curves.get("cusp_product"),
                                   cache=fresh_cache)
        want = ga.dist_to_set_batch(X, _one_part_set(["y - x^3"], []),
                                    cache=fresh_cache)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("eqs,want", [
        # three equations whose zero set is the origin, full rank 2
        (["x", "y", "x - y"], [0.0, 0.0]),
        # three equations whose zero set is the line y = 0, rank 1 on it
        (["y", "2*y", "x*y"], [0.1, 0.0]),
    ])
    def test_more_equations_than_variables_converge(self, eqs, want):
        system = tuple(ex.parse(e, 2) for e in eqs)
        start = np.array([[0.1, 0.05]])
        Y, ok = gg._nearest_on_variety(system, start, start)
        assert ok.tolist() == [True]
        np.testing.assert_allclose(Y[0], want, atol=1e-12)

    def test_screen_off_by_a_factor_keeps_the_maximum(self, surfaces,
                                                      fresh_cache,
                                                      monkeypatch):
        # on a squared equation Gauss-Newton converges only linearly, so no
        # row lands and each row's bound is its cloud distance, from one
        # neighbour query of every row before the screen
        squared = _one_part_set(["(z - x^2)^2"], [], nvars=3)
        cloud = ga.sample_slice(surfaces.get("plane_z"), 0.25, npoints=256,
                                seed=0, cache=fresh_cache)
        X = cloud.points
        assert np.isinf(gg._landing(X, squared)).all()
        calls = _count_refined(monkeypatch)
        want = float(np.max(ga.dist_to_set_batch(X, squared, npoints=256,
                                                 seed=0, cache=fresh_cache)))
        (full,) = calls
        calls.clear()
        asked = []
        neighbours = gg._neighbours
        monkeypatch.setattr(gg, "_neighbours", lambda Y, c: asked.append(
            len(Y)) or neighbours(Y, c))
        assert gg._max_dists([cloud], squared, 256, 0, fresh_cache) == [want]
        assert 0 < sum(calls) < full / 4
        assert asked == [len(X)]

    def test_factors_of_mixed_multiplicity(self, fresh_cache):
        # near the double line y = 2x of B Gauss-Newton converges linearly,
        # and near the simple line y = 0 A's rows by y = 0.1x are too far
        # to land in three steps: every bound is a cloud distance
        b = _one_part_set(["y*(y - 2*x)^2"], [])
        a = _one_part_set(["(y - 0.1*x)*(y - 1.5*x)"], [])
        clouds = self._check_schedule(a, b, fresh_cache)
        for c in clouds:
            assert np.isinf(gg._landing(c.points, b)).all()

    @pytest.mark.parametrize("coll,a,b", [
        ("curves", "exp_curve", "trunc2"),
        ("curves", "exp_union", "t3_union"),
        ("surfaces", "graph_exp", "graph_exp~h1"),
    ])
    def test_any_screen_keeps_the_maximum(self, request, fresh_cache,
                                          monkeypatch, coll, a, b):
        # the bound picks only which rows go first: with no row landing,
        # so each bound is the cloud distance, the maximum is still exact.
        # A fresh cache holds no maximum computed with the landings
        sets = request.getfixturevalue(coll)
        monkeypatch.setattr(gg, "_landing",
                            lambda X, s: np.full(len(X), math.inf))
        a, b = _get(sets, a), _get(sets, b)
        for x, y in ((a, b), (b, a)):
            self._check_schedule(x, y, fresh_cache, self.RADII[::3])


def _space_set(parts):
    return make_collection({"vars": ["x", "y", "z"], "omega": 0.5,
                            "sets": {"s": {"parts": parts}}}).get("s")


def _to_plane(P):
    """Distances from P to the plane {z = 0}."""
    return np.abs(P[:, 2])


def _to_half(P):
    """Distances from P to the half-plane {z = 0, x >= 0}: to the plane
    where x >= 0, else to the edge x = z = 0."""
    return np.hypot(np.minimum(P[:, 0], 0.0), P[:, 2])


def _to_union(P):
    """Distances from P to {z = 0, x >= 0} u {z = x}."""
    return np.minimum(_to_half(P), np.abs(P[:, 2] - P[:, 0]) / math.sqrt(2.0))


class TestSliceDistances:
    """The maximum kernel measures distances from slice points to a set's
    germ, below the spacing of the set's cloud, against closed forms."""

    RADII = [0.25 * 2.0 ** -k for k in range(8)]
    SETS = {
        "plane": ([{"eqs": ["z"]}], _to_plane),
        "half": ([{"eqs": ["z"], "ineqs": ["x"]}], _to_half),
        "union": ([{"eqs": ["z"], "ineqs": ["x"]}, {"eqs": ["z - x"]}],
                  _to_union),
    }

    @classmethod
    def _clouds(cls):
        """Low-discrepancy points on each sphere, 200 to 284 a radius."""
        clouds = []
        for k, r in enumerate(cls.RADII):
            X = gg.sphere_directions(3, 200 + 12 * k, seed=k) * r
            clouds.append(gg.SliceCloud(
                r=r, points=X, converged_fraction=1.0,
                counts=np.ones(len(X), dtype=int), attempts=len(X)))
        return clouds

    @staticmethod
    def _row_dists(clouds, s, cache):
        """Each cloud point's distance to s's germ, by the kernel's
        candidates and refinement, all clouds stacked."""
        X = np.concatenate([c.points for c in clouds])
        sizes = [len(c) for c in clouds]
        ends = np.cumsum(sizes)
        groups = [(np.arange(end - len(c), end), c.r)
                  for c, end in zip(clouds, ends)]
        best, near, _ = gg._bounds(X, s, groups, 256, 0, cache)
        gg._refine(X, s, best, *gg._multistart(X, best, near))
        return best

    @pytest.mark.parametrize("name", list(SETS))
    def test_closed_forms(self, shared_cache, name):
        parts, closed = self.SETS[name]
        s = _space_set(parts)
        clouds = self._clouds()
        r = np.concatenate([np.full(len(c), c.r) for c in clouds])
        want = np.concatenate([closed(c.points) for c in clouds])
        got = self._row_dists(clouds, s, shared_cache)
        assert (np.abs(got - want) <= 1e-12 * r).all()
        # the distance to s's cloud alone is off by far more
        near = np.concatenate([gg._neighbours(c.points, ga.sample_slice(
            s, c.r, npoints=256, seed=0, cache=shared_cache))[0][:, 0]
            for c in clouds])
        assert (np.abs(near - want) / r).max() > 1e-3
        maxima = gg._max_dists(clouds, s, 256, 0, shared_cache)
        for d, c in zip(maxima, clouds):
            assert abs(d - closed(c.points).max()) <= 1e-12 * c.r

    @pytest.mark.parametrize("name", list(SETS))
    def test_stacked_radii_like_one_call_each(self, shared_cache, name):
        s = _space_set(self.SETS[name][0])
        clouds = self._clouds()
        stacked = gg._max_dists(clouds, s, 256, 0, shared_cache)
        alone = [gg._max_dists([c], s, 256, 0, shared_cache)[0]
                 for c in clouds]
        assert stacked == alone
        rows = self._row_dists(clouds, s, shared_cache)
        each = np.concatenate([self._row_dists([c], s, shared_cache)
                               for c in clouds])
        assert np.array_equal(rows, each)

    @pytest.mark.parametrize("name", list(SETS))
    def test_lone_rows_like_the_batch(self, shared_cache, name):
        s = _space_set(self.SETS[name][0])
        clouds = self._clouds()
        rows = self._row_dists(clouds, s, shared_cache)
        X = np.concatenate([c.points for c in clouds])
        r = np.repeat([c.r for c in clouds], [len(c) for c in clouds])
        for i in range(0, len(X), 47):
            lone = gg.SliceCloud(r=r[i], points=X[i:i + 1],
                                 converged_fraction=1.0,
                                 counts=np.ones(1, dtype=int), attempts=1)
            assert np.array_equal(self._row_dists([lone], s, shared_cache),
                                  rows[i:i + 1])
            assert gg._max_dists([lone], s, 256, 0, shared_cache) == [rows[i]]

    def test_part_without_equations(self, fresh_cache):
        # the half-plane y >= 0 in the plane: a point in it keeps its own
        # position, at distance 0; one outside is nearest at (x, 0)
        s = _one_part_set([], ["y"])
        r = 0.125
        angles = np.linspace(-3.0, 3.0, 61)
        X = r * np.column_stack([np.cos(angles), np.sin(angles)])
        cloud = gg.SliceCloud(r=r, points=X, converged_fraction=1.0,
                              counts=np.ones(len(X), dtype=int),
                              attempts=len(X))
        want = np.maximum(-X[:, 1], 0.0)
        got = self._row_dists([cloud], s, fresh_cache)
        assert (np.abs(got - want) <= 1e-12 * r).all()
        assert (got[X[:, 1] >= 0.0] == 0.0).all()

    @pytest.mark.parametrize("h,order", [(1, 2.0), (2, 3.0), (3, 4.0)])
    def test_graph_exp_truncation_orders(self, surfaces, shared_cache, h,
                                         order):
        # B's cloud at 1000 points is spaced about 2.5e-3 r apart, which
        # hides these deviations at most radii; its germ does not
        g = surfaces.get("graph_exp")
        b = gs.truncate_eqs(g, h)
        radii = np.array(ga.RadiiSchedule(0.25).radii())
        for x, y in ((g, b), (b, g)):
            clouds = gg.sample_slices(x, radii, npoints=1000, seed=0,
                                      cache=shared_cache)
            d = np.array(gg._max_dists(clouds, y, 1000, 0, shared_cache))
            above = d > gg._NEAREST_ACCEPT * radii
            assert above.sum() >= 6
            slope = np.polyfit(np.log(radii[above]), np.log(d[above]), 1)[0]
            assert abs(slope - order) <= 0.05, (x.name, slope)


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

    @pytest.mark.parametrize("r", [0.1, 0.01, 0.001])
    @pytest.mark.parametrize("eqs,ineqs,dim", [
        (["y - sin(x)", "z - exp(x) + 1", "w - x^2"], [], 1),
        (["z - sin(x + y)", "w - x*y - exp(x) + 1"], [], 2),
        # a cone: singular at the origin
        (["w^2 - x^2 - y^2", "z"], [], 2),
        # a 2-dimensional slice: unless the radial direction is taken out,
        # a neighbourhood of 10 spacings reads the sphere's curvature as a
        # third direction
        (["w - exp(x) - exp(y) - exp(z) + 3"], [], 3),
        ([], ["x"], 4),
    ])
    def test_germs_in_r4(self, shared_cache, eqs, ineqs, dim, r):
        s = _one_part_set(eqs, ineqs, nvars=4)
        assert ga.numeric_dimension(s, r, npoints=256,
                                    cache=shared_cache) == dim


def _continuum_by_counts(cloud):
    """Whether the cloud's count-based continuum test needed no spacing,
    checked against ``spacing > _SPACING_GUARD``."""
    got = cloud.continuum
    by_counts = "spacing" not in cloud._memo
    assert got == (cloud.spacing > gg._SPACING_GUARD)
    return by_counts


def _count_gap_queries(monkeypatch):
    """Make the cloud builder record each cloud's size, and the neighbour
    query each k=2 query of a cloud's points against themselves (the query
    of a cloud's gaps); returns both records."""
    built, whole = [], []
    slice_cloud, nearest = gg._slice_cloud, gg._nearest

    def counted_cloud(*args):
        cloud = slice_cloud(*args)
        built.append(len(cloud))
        return cloud

    def counted_nearest(X, P, k):
        if k == 2 and X is P:
            whole.append(len(X))
        return nearest(X, P, k)

    monkeypatch.setattr(gg, "_slice_cloud", counted_cloud)
    monkeypatch.setattr(gg, "_nearest", counted_nearest)
    return built, whole


class TestContinuum:
    """``SliceCloud.continuum``, which the limit fit chooses between the
    solver and the cloud by, equals ``spacing > _SPACING_GUARD`` and needs
    no neighbour query where the counts decide it."""

    @pytest.mark.parametrize("npoints", [256, 1000])
    @pytest.mark.parametrize("r0", [0.25, 2.0 ** -9])
    def test_corpus_clouds(self, curves, surfaces, loj, r0, npoints):
        radii = ga.RadiiSchedule(r0).radii()
        by_counts = {True: [], False: []}
        for coll in (curves, surfaces, loj):
            for s in coll.sets.values():
                # a fresh cache: no twin's read has computed the spacing
                for c in gg.sample_slices(s, radii, npoints=npoints,
                                          cache=ga.SliceCache()):
                    if _continuum_by_counts(c):
                        by_counts[c.continuum].append(c.r)
        # below r = 1e-3 the merge tolerance is under the guard, so only
        # piled clouds are decided by their counts there
        assert by_counts[False] and by_counts[True]
        assert min(by_counts[True]) > 1e-3

    @pytest.mark.parametrize("r", [0.25, 2.0 ** -12])
    @pytest.mark.parametrize("n,piled", [
        (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (10, 5), (10, 4),
        (10, 6), (256, 128)])
    def test_small_and_half_piled_clouds(self, r, n, piled):
        # n distinct points, the first `piled` of them sampled twice
        pts = _circle_raw(n, r=r) if n else np.zeros((0, 2))
        raw = np.concatenate([pts, pts[:piled]])
        cloud = gg._slice_cloud(r, 1.0, len(raw), raw)
        assert len(cloud) == n
        assert np.count_nonzero(cloud.counts > 1) == piled
        # exactly half piled leaves the median to the gaps: the spacing
        # decides
        decided = n < 2 or 2 * piled > n or (2 * piled < n and r == 0.25)
        assert _continuum_by_counts(cloud) == decided

    def test_no_gap_query_on_continuum_clouds(self, surfaces, monkeypatch):
        # graph_exp's slices and its truncation's are curves of distinct
        # points: the limit fit measures both directions with the solver
        # and the horn criterion reads no spacing, so no cloud's gaps are
        # queried
        built, whole = _count_gap_queries(monkeypatch)
        g = surfaces.get("graph_exp")
        b = gs.truncate_eqs(g, 2)
        cfg = ga.CompareConfig(ga.RadiiSchedule(0.25), npoints=1000, seed=0)
        cache = ga.SliceCache()
        ga.decide_equivalent(g, b, 2.5, cfg, cache)
        ga.horn_criterion(g, b, 2.5, cfg, cache)
        ga.horn_criterion(b, g, 2.5, cfg, cache)
        assert len(built) == 2 * len(cfg.schedule.radii())
        assert whole == []

    def test_spacing_queried_once_per_point_set(self, surfaces,
                                                monkeypatch):
        # graph_exp and its inflation sample equal points, so they share
        # one cloud and its spacing: numeric_dimension reads it on both,
        # and the gaps are queried once
        _, whole = _count_gap_queries(monkeypatch)
        g = surfaces.get("graph_exp")
        cache = ga.SliceCache()
        dims = [ga.numeric_dimension(x, 0.125, npoints=1000, cache=cache)
                for x in (g, _inflate(g))]
        assert dims == [2, 2]
        assert len(whole) == 1


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
        # the primary stratum once; its slice is two regular points that
        # every start reaches, so no promoted slack is projected
        assert len(calls) == 1
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
        _, radii, rows = calls[1]
        assert rows == npoints
        assert np.all(np.asarray(radii) == r)
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

    def test_schedule_matches_one_radius_at_a_time(self, curves, calls):
        # three strata: the half-disk itself and both boundary curves, one
        # of which (x^2 + y^2 = 1) misses every small sphere
        s = curves.get("halfdisk")
        radii = [0.25 * 0.5 ** i for i in range(4)]
        cache = ga.SliceCache()
        for r in radii[::2]:
            ga.sample_slice(s, r, cache=cache)
        assert len(calls) == 2 * 3
        clouds = gg.sample_slices(s, radii, cache=cache)
        # only the missing radii are projected, all in one call per stratum
        assert len(calls) == 3 * 3
        for _, rows_r, rows in calls[6:]:
            assert rows == 2 * 256
            assert np.array_equal(rows_r, np.repeat(radii[1::2], 256))
        for r, cloud in zip(radii, clouds):
            assert cloud.r == r
            self._same_as_fresh(s, cloud, r)
        # the same schedule again, in any order, comes from the cache
        before = len(calls)
        again = gg.sample_slices(s, radii[::-1], cache=cache)
        assert len(calls) == before
        assert all(a is b for a, b in zip(again, clouds[::-1]))

    def test_schedule_of_empty_slices(self):
        both = make_collection(
            {"vars": ["x", "y"], "omega": 0.5,
             "sets": {"both": {"parts": [{"eqs": ["y"],
                                          "ineqs": ["x", "-x"]}]}}}
        ).get("both")
        radii = [0.25, 0.125, 0.0625]
        clouds = gg.sample_slices(both, radii, cache=ga.SliceCache())
        for r, cloud in zip(radii, clouds):
            assert isinstance(cloud, ga.SliceCloud)
            assert len(cloud) == 0 and cloud.points.shape == (0, 2)
            assert cloud.spacing == gg._SPACING_GUARD
            with pytest.raises(ga.EmptySliceError) as fresh:
                ga.sample_slice(both, r, cache=ga.SliceCache())
            assert cloud.r == fresh.value.r == r
            assert cloud.converged_fraction == \
                fresh.value.converged_fraction == 1.0
            assert cloud.attempts == fresh.value.attempts == 3 * 256


def _inflate(s, m=1):
    """The set's one part thickened by its own equations, as approx's
    inflation step builds it when the projected system is the part's."""
    part, = s.parts
    return gs.set_of(gs.inflated_part(part, part.eqs, m),
                     f"inflate({s.name},{m})", s.omega)


class TestCloudReuse:
    """Sets whose accepted samples at a radius are equal bit for bit share
    one cloud's points and spacing, and one deviation per pair of point
    sets; each keeps its own converged fraction and attempts."""

    @staticmethod
    def _same_as_fresh(s, cloud):
        fresh = gg.sample_slices(s, [cloud.r], cache=ga.SliceCache())[0]
        assert np.array_equal(cloud.points, fresh.points)
        assert (cloud.spacing, cloud.converged_fraction, cloud.attempts) == \
            (fresh.spacing, fresh.converged_fraction, fresh.attempts)
        assert cloud.key == fresh.key

    @pytest.mark.parametrize("name", ["exp_curve", "halfline", "cusp"])
    def test_inflation_shares_the_part_cloud(self, curves, name):
        s = curves.get(name)
        infl = _inflate(s)
        radii = ga.RadiiSchedule(0.25).radii()
        cache = ga.SliceCache()
        own = gg.sample_slices(s, radii, cache=cache)
        inflated = gg.sample_slices(infl, radii, cache=cache)
        for a, b in zip(own, inflated):
            assert b is not a
            assert b.points is a.points
            assert b.counts is a.counts and b._memo is a._memo
            assert b.key == a.key and b.spacing == a.spacing
            # the slack's boundary is one stratum more, and never projected
            assert b.attempts == a.attempts + 256
            self._same_as_fresh(s, a)
            self._same_as_fresh(infl, b)

    def test_one_deviation_per_pair_of_point_sets(self, curves,
                                                  monkeypatch):
        queried = _count_nearest(monkeypatch)
        s = curves.get("exp_curve")
        cache = ga.SliceCache()
        a, b, c = (gg.sample_slices(x, [0.25], cache=cache)[0]
                   for x in (s, _inflate(s), curves.get("trunc2")))
        assert a.points is b.points and a.key != c.key

        def entries():
            return {k: v for k, v in cache._store.items()
                    if k[0] == "deviation"}

        assert gg._deviation(a, b, cache) == gg._deviation(b, a, cache) == 0.0
        # a cloud against its own copy: one entry for both directions
        assert list(entries()) == [("deviation", a.key, a.key)]
        # the part and its inflation share each entry against trunc2's
        # cloud, in both directions
        for x, y in ((a, c), (c, a), (b, c), (c, b)):
            want = ga.directed_deviation(x.points, y.points)
            assert gg._deviation(x, y, cache) == want
        assert entries() == {
            ("deviation", a.key, a.key): 0.0,
            ("deviation", a.key, c.key):
                ga.directed_deviation(a.points, c.points),
            ("deviation", c.key, a.key):
                ga.directed_deviation(c.points, a.points)}
        # a repeat call reads the entry and queries nothing
        queried.clear()
        for x, y in ((a, b), (b, c), (c, b)):
            gg._deviation(x, y, cache)
        assert queried == []
        # a cloud without a key is measured afresh and stores nothing
        bare = gg.SliceCloud(r=0.25, points=a.points, converged_fraction=1.0,
                             counts=a.counts, attempts=1)
        keys = len(cache._store)
        for x, y in ((bare, c), (c, bare)):
            want = ga.directed_deviation(x.points, y.points)
            queried.clear()
            assert gg._deviation(x, y, cache) == want
            assert len(queried) == 1
        assert len(cache._store) == keys

    def test_one_maximum_per_cloud_and_set(self, surfaces, monkeypatch):
        # the cache holds each cloud's largest distance to a set, keyed on
        # the cloud's content, the set, npoints and seed: a second call
        # and a copy of the cloud find no row to measure; a cloud with no
        # key stores nothing
        g = surfaces.get("graph_exp")
        b = gs.truncate_eqs(g, 2)
        cache = ga.SliceCache()
        clouds = gg.sample_slices(g, [0.25, 0.125], npoints=256, cache=cache)
        copy = gg.sample_slices(_inflate(g), [0.125], npoints=256,
                                cache=cache)[0]
        assert copy.points is clouds[1].points
        rows = []
        bounds = gg._bounds

        def counted(X, *args):
            rows.append(len(X))
            return bounds(X, *args)

        monkeypatch.setattr(gg, "_bounds", counted)
        first = gg._max_dists(clouds, b, 256, 0, cache)
        assert rows == [sum(len(c) for c in clouds)]
        assert gg._max_dists([copy, clouds[0]], b, 256, 0, cache) == \
            first[::-1]
        gg._max_dists(clouds, b, 128, 0, cache)
        assert rows[1:] == [sum(len(c) for c in clouds)]
        keys = len(cache._store)
        bare = gg.SliceCloud(r=0.25, points=clouds[0].points,
                             converged_fraction=1.0, counts=clouds[0].counts,
                             attempts=1)
        assert gg._max_dists([bare], b, 256, 0, cache) == first[:1]
        assert len(rows) == 3 and len(cache._store) == keys

    def test_shared_arrays_are_read_only(self, curves):
        cache = ga.SliceCache()
        a = gg.sample_slices(curves.get("parabola"), [0.25], cache=cache)[0]
        assert not a.points.flags.writeable
        with pytest.raises(ValueError):
            a.points[0, 0] = 1.0


def _one_part_set(eqs, ineqs, nvars=2):
    names = ["x", "y", "z", "w"][:nvars]
    return make_collection(
        {"vars": names, "omega": 0.5,
         "sets": {"s": {"parts": [{"eqs": eqs, "ineqs": ineqs}]}}}).get("s")


class TestBoundaryStrata:
    """A boundary stratum is skipped at a radius only where the part's own
    slice is a finite set of regular points that every start reached; the
    clouds are the same as when every stratum is projected."""

    @pytest.mark.parametrize("r", [0.25, 0.01])
    def test_partly_converged_parent_keeps_its_boundary(self, r):
        # (y-x)^3 is not reduced, so starts that head for y = x stall; those
        # points come from the boundary {f, y - x} alone
        s = _one_part_set(["(y - x)^3 * (y + x)"], ["y - x"])
        cloud = ga.sample_slice(s, r, cache=ga.SliceCache())
        assert cloud.converged_fraction < 1.0
        c = r / math.sqrt(2.0)
        want = np.array([[c, c], [-c, -c], [-c, c]])
        assert len(cloud.points) == 3
        assert cdist(want, cloud.points).min(axis=1).max() < 1e-9 * r

    def test_redundant_presentation_keeps_its_boundary(self):
        # two equations, one surface: the slice is a curve, although the
        # count of equations would say it is finite
        s = _one_part_set(["z - x^2", "x*(z - x^2)"], ["y"], nvars=3)
        r = 0.25
        cloud = ga.sample_slice(s, r, cache=ga.SliceCache())
        assert np.abs(cloud.points[:, 1]).min() <= 1e-9 * r

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []
        project = gg.project_to_sphere_slice

        def counting(eqs, starts, r):
            calls.append(tuple(eqs))
            return project(eqs, starts, r)

        monkeypatch.setattr(gg, "project_to_sphere_slice", counting)
        return calls

    @pytest.mark.parametrize("seed", [0, 1])
    def test_corpus_clouds_match_projecting_every_stratum(
            self, curves, surfaces, loj, monkeypatch, seed):
        radii = ga.RadiiSchedule(0.25).radii()
        calls = self._count_calls(monkeypatch)
        skipping = every = 0
        for coll in (curves, surfaces, loj):
            for s in coll.sets.values():
                before = len(calls)
                got = gg.sample_slices(s, radii, seed=seed,
                                       cache=ga.SliceCache())
                skipping += len(calls) - before
                with monkeypatch.context() as m:
                    m.setattr(gg, "_isolated_radii", lambda *a: set())
                    before = len(calls)
                    want = gg.sample_slices(s, radii, seed=seed,
                                            cache=ga.SliceCache())
                    every += len(calls) - before
                for a, b in zip(got, want):
                    assert np.array_equal(a.points, b.points)
                    assert (a.spacing, a.converged_fraction, a.attempts) \
                        == (b.spacing, b.converged_fraction, b.attempts)
        assert skipping < every

    def test_skipped_stratum_is_projected_as_a_set_of_its_own(
            self, curves, monkeypatch):
        calls = self._count_calls(monkeypatch)
        half = curves.get("halfline")
        end = _one_part_set(["y", "x"], [])
        (_, _, ((_, eq_strs, ineq_strs),)) = half.signature()
        end_strs, _ = gg._strata(eq_strs, ineq_strs, 1)[1]
        assert end.signature()[2][0][1] == end_strs
        cache = ga.SliceCache()
        ga.sample_slice(half, 0.25, cache=cache)
        assert calls == [half.parts[0].eqs]
        assert cache.lookup((2, end_strs, 0.25, 256, 0)) is None
        with pytest.raises(ga.EmptySliceError) as warm:
            ga.sample_slice(end, 0.25, cache=cache)
        assert calls[1:] == [end.parts[0].eqs]
        assert cache.lookup((2, end_strs, 0.25, 256, 0)) is not None
        with pytest.raises(ga.EmptySliceError) as fresh:
            ga.sample_slice(end, 0.25, cache=ga.SliceCache())
        assert (warm.value.converged_fraction, warm.value.attempts) == \
            (fresh.value.converged_fraction, fresh.value.attempts)


class TestOriginSlack:
    """The boundary stratum of an inflation slack over its part's own
    equations, {f = 0, |x|^(2m) - sum f_i^2 = 0}, is the origin alone.
    Sphere sampling skips it; nothing else does."""

    def test_slack_boundary_meets_no_sphere(self, curves, surfaces):
        # the no-op oracle: at m = 1 and 2, projecting the skipped stratum
        # accepts no row. At m = 3 and r <= 2^-7 the slack's gradient on
        # {f = 0}, 6 |x|^4 x, falls under the pseudo-inverse cut-off, so
        # rows pass the step test with the slack still at |x|^6: they lie
        # on {f = 0} but not on the stratum
        radii = ga.RadiiSchedule(0.25).radii()
        parts = {(p.nvars, p.eqs): p for coll in (curves, surfaces)
                 for s in coll.sets.values() for p in s.parts if p.eqs}
        for part in parts.values():
            dirs = ga.sphere_directions(part.nvars, 256, seed=0)
            rows_r = np.repeat(radii, len(dirs))
            starts = np.concatenate([dirs * r for r in radii])
            for m in (1, 2, 3):
                infl = gs.inflated_part(part, part.eqs, m)
                eqs, _ = gg._part_strata(infl, gg.SLICE_DEPTH)[1]
                assert gs.is_origin_slack(eqs[-1], infl.eqs, part.nvars)
                X, ok = gg.project_to_sphere_slice(eqs, starts, rows_r)
                if m < 3:
                    assert not ok.any(), (part.eqs, m)
                    continue
                assert (rows_r[ok] <= 2.0 ** -7).all(), part.eqs
                np.testing.assert_allclose(
                    ex.eval_many(eqs[-1], X[ok]), rows_r[ok] ** 6, rtol=1e-9)
        assert len(parts) == 13

    def test_recognizes_only_the_slack_over_own_equations(self, curves):
        x, y = ex.Var(0), ex.Var(1)
        pair = curves.get("cusp_product").parts[0]
        for m in (1, 2, 3):
            own = gs.inflated_part(pair, pair.eqs, m)
            assert gs.is_origin_slack(own.ineqs[0], own.eqs, 2)
            assert gs.is_origin_slack(own.ineqs[0], own.eqs + (x,), 2)
            assert not gs.is_origin_slack(own.ineqs[0], own.eqs[:1], 2)
            assert not gs.is_origin_slack(own.ineqs[0], own.eqs, 3)
        # a generic projection F != f: f is not among the stratum's
        # equations, and {F = 0, slack = 0} can meet the sphere
        F, _ = gs.generic_projection(pair.eqs, 2, 1, seed=0)
        generic = gs.inflated_part(pair, F, 1)
        assert not gs.is_origin_slack(generic.ineqs[0], generic.eqs, 2)
        # truncated slacks, ~t1.1 among them
        cusp = _inflate(curves.get("cusp"))
        for h, k in [(1, 1), (2, 2), (4, 4)]:
            t = gs.truncate_full(cusp, h, k).parts[0]
            assert not gs.is_origin_slack(t.ineqs[0], t.eqs, 2)
        # a plain half-plane
        assert not gs.is_origin_slack(x, (y,), 2)

    @pytest.mark.parametrize("name", ["cusp", "exp_sin", "graph_exp"])
    def test_distances_do_not_use_it(self, curves, surfaces, monkeypatch,
                                     name):
        s = curves.sets.get(name) or surfaces.get(name)
        infl = _inflate(s)
        X = ga.sphere_directions(s.nvars, 64, seed=3) * 0.1
        got = ga.dist_to_set_batch(X, infl, cache=ga.SliceCache())
        monkeypatch.setattr(gg, "is_origin_slack", lambda *a: False)
        want = ga.dist_to_set_batch(X, infl, cache=ga.SliceCache())
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["cusp", "graph_exp", "plane_z"])
    def test_clouds_match_projecting_the_slack(self, curves, surfaces,
                                               monkeypatch, name):
        s = curves.sets.get(name) or surfaces.get(name)
        radii = ga.RadiiSchedule(0.25).radii()
        calls = []
        project = gg.project_to_sphere_slice

        def counting(eqs, starts, r):
            calls.append(tuple(eqs))
            return project(eqs, starts, r)

        monkeypatch.setattr(gg, "project_to_sphere_slice", counting)
        infl = _inflate(s)
        got = gg.sample_slices(infl, radii, cache=ga.SliceCache())
        skipping = len(calls)
        with monkeypatch.context() as m:
            m.setattr(gg, "is_origin_slack", lambda *a: False)
            want = gg.sample_slices(infl, radii, cache=ga.SliceCache())
        assert len(calls) - skipping == skipping + 1
        for a, b in zip(got, want):
            assert np.array_equal(a.points, b.points)
            assert (a.spacing, a.converged_fraction, a.attempts) == \
                (b.spacing, b.converged_fraction, b.attempts)
