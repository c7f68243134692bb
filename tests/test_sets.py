import numpy as np
import pytest

from conftest import make_collection
from germapprox import expr as ex
from germapprox import sets as gs
from germapprox.sets import (
    BasicPresentation,
    SemianalyticSet,
    SetError,
    SetFileError,
)


def part_of(eqs, ineqs=(), nvars=2, **kw):
    return BasicPresentation(
        nvars=nvars,
        eqs=tuple(ex.parse(t, nvars) for t in eqs),
        ineqs=tuple(ex.parse(t, nvars) for t in ineqs),
        **kw)


class TestPresentations:
    def test_through_origin_enforced(self):
        with pytest.raises(SetError):
            part_of(["y - x^2 + 1"])
        with pytest.raises(SetError):
            part_of([], ineqs=["x - 1"])
        # opting out disables the check
        part_of(["y - x^2 + 1"], through_origin=False)

    @pytest.mark.parametrize("eqs,ineqs,fragment", [
        (["y - 1 - x*" + "*".join(["(1 + x)"] * 400)], [],
         "equation does not vanish at the origin: 'y - 1 - x*(1 + x)"),
        (["y"], ["x - 1 - " + " - ".join(["x^2"] * 100)],
         "inequality is negative at the origin: 'x - 1 - x^2")])
    def test_origin_error_quotes_a_prefix(self, eqs, ineqs, fragment):
        with pytest.raises(SetError) as err:
            part_of(eqs, ineqs=ineqs)
        msg = str(err.value)
        assert msg.startswith(fragment) and msg.endswith("…")
        assert len(msg) < len(fragment) + 90

    def test_origin_error_quotes_a_short_expression_whole(self):
        with pytest.raises(SetError) as err:
            part_of(["y - x^2 + 1"])
        assert str(err.value) == \
            "equation does not vanish at the origin: 'y - x^2 + 1'"

    def test_variable_count_enforced(self):
        with pytest.raises(SetError):
            BasicPresentation(nvars=1, eqs=(ex.parse("x*y", 2),))
        with pytest.raises(SetError):
            BasicPresentation(nvars=0, eqs=())

    def test_set_rejects_mismatched_parts(self):
        p = part_of(["y"])
        with pytest.raises(SetError):
            SemianalyticSet(name="s", nvars=3, omega=0.5, parts=(p,))
        with pytest.raises(SetError):
            SemianalyticSet(name="s", nvars=2, omega=-1.0, parts=(p,))
        with pytest.raises(SetError):
            SemianalyticSet(name="s", nvars=2, omega=float("inf"), parts=(p,))

    def test_signatures_hashable_and_stable(self):
        a = gs.set_of(part_of(["y - x^2"]), "a", 0.5)
        b = gs.set_of(part_of(["y - x^2"]), "b", 0.5)
        assert a.signature() == b.signature()
        hash(a.signature())

    def test_is_polynomial(self):
        assert gs.set_of(part_of(["y - x^2"]), "p", 0.5).is_polynomial()
        assert not gs.set_of(
            part_of(["y - exp(x) + 1"]), "e", 0.5).is_polynomial()


class TestUnion:
    def test_union_concatenates_parts_min_omega(self):
        a = gs.set_of(part_of(["y"]), "a", 0.5)
        b = gs.set_of(part_of(["y - x^2"]), "b", 0.25)
        u = gs.union_sets("u", a, b)
        assert u.omega == 0.25
        assert len(u.parts) == 2
        assert u.parts == a.parts + b.parts

    def test_union_validation(self):
        a = gs.set_of(part_of(["y"]), "a", 0.5)
        c = gs.set_of(part_of(["y"], nvars=3), "c", 0.5)
        with pytest.raises(SetError):
            gs.union_sets("u", a, c)
        with pytest.raises(SetError):
            gs.union_sets("u")


class TestTruncation:
    def test_polynomial_purity(self, curves):
        t = gs.truncate_full(curves.get("exp_sin"), 3, 2)
        assert t.is_polynomial()
        assert t.name == "exp_sin~t3.2"

    def test_exact_on_low_degree_polynomials(self, curves):
        p = curves.get("parabola")
        t = gs.truncate_eqs(p, 5)
        assert t.parts[0].eqs[0] == p.parts[0].eqs[0]

    def test_truncation_idempotent(self, curves):
        e = curves.get("exp_curve")
        once = gs.truncate_eqs(e, 3)
        twice = gs.truncate_eqs(once, 3)
        assert twice.parts[0].eqs == once.parts[0].eqs

    def test_eq_ineq_truncation_commute(self, curves):
        s = curves.get("exp_sin")
        ab = gs.truncate_ineqs(gs.truncate_eqs(s, 4), 2)
        ba = gs.truncate_eqs(gs.truncate_ineqs(s, 2), 4)
        assert ab.parts[0].eqs == ba.parts[0].eqs
        assert ab.parts[0].ineqs == ba.parts[0].ineqs

    def test_truncated_exp_matches_series(self, curves):
        t = gs.truncate_eqs(curves.get("exp_curve"), 3)
        got = ex.taylor(t.parts[0].eqs[0], 3, 2).coeffs
        assert got == pytest.approx(
            {(0, 1): 1.0, (1, 0): -1.0, (2, 0): -0.5, (3, 0): -1.0 / 6.0})

    def test_negative_order_rejected(self, curves):
        with pytest.raises(SetError):
            gs.truncate_eqs(curves.get("line"), -1)
        with pytest.raises(SetError):
            gs.truncate_full(curves.get("line"), 2, -1)


class TestBoundaryPart:
    def test_inequality_appended_after_equations(self):
        p = part_of(["y - x^2"], ineqs=["x", "1 - x^2 - y^2"])
        first, second = (gs.boundary_part(p, j) for j in range(2))
        assert first.eqs == (ex.parse("y - x^2", 2), ex.parse("x", 2))
        assert first.ineqs == (ex.parse("1 - x^2 - y^2", 2),)
        assert second.eqs == (ex.parse("y - x^2", 2),
                              ex.parse("1 - x^2 - y^2", 2))
        assert second.ineqs == (ex.parse("x", 2),)
        assert not first.through_origin and not second.through_origin

    def test_boundary_points_satisfy_edge(self, curves):
        # points on the halfdisk's straight edge satisfy boundary part 0
        hd = curves.get("halfdisk")
        edge = gs.set_of(gs.boundary_part(hd.parts[0], 0), "edge", hd.omega)
        for y in (0.3, -0.2, 0.0):
            assert gs.membership_mask(edge, [0.0, y])
            assert not gs.membership_mask(edge, [0.1, y])

    def test_boundary_part_index_checked(self):
        p = part_of([], ineqs=["x"])
        b = gs.boundary_part(p, 0)
        assert b.eqs == (ex.parse("x", 2),) and b.ineqs == ()
        with pytest.raises(SetError):
            gs.boundary_part(p, 1)


class TestMinors:
    def test_jacobian_exprs(self):
        eqs = [ex.parse("x*y", 2), ex.parse("x + y", 2)]
        jac = gs.jacobian_exprs(eqs, 2)
        assert jac[0][0] == ex.Var(1) and jac[0][1] == ex.Var(0)
        assert jac[1][0] == ex.Const(1.0) and jac[1][1] == ex.Const(1.0)

    def test_two_by_two_determinant(self):
        eqs = [ex.parse("x*y", 2), ex.parse("x + y", 2)]
        (det,) = gs.minor_determinants(eqs, 2, 2)
        # det [[y, x], [1, 1]] = y - x
        X = np.random.default_rng(0).uniform(-1, 1, (50, 2))
        np.testing.assert_allclose(
            ex.eval_many(det, X), X[:, 1] - X[:, 0], atol=1e-14)

    def test_minors_match_numeric_determinants(self):
        eqs = [ex.parse(t, 3) for t in
               ("x*y - z^2", "x + y*z", "exp(x) - 1 + y^2")]
        dets = gs.minor_determinants(eqs, 3, 2)
        assert len(dets) == 9
        X = np.random.default_rng(1).uniform(-0.5, 0.5, (20, 3))
        _, jacs = ex.eval_system_jacobian(eqs, X)
        import itertools
        idx = 0
        for rows in itertools.combinations(range(3), 2):
            for cols in itertools.combinations(range(3), 2):
                want = np.linalg.det(jacs[:, rows][:, :, cols])
                np.testing.assert_allclose(
                    ex.eval_many(dets[idx], X), want, atol=1e-12)
                idx += 1

    def test_size_validation(self):
        eqs = [ex.parse("x", 2)]
        with pytest.raises(SetError):
            gs.minor_determinants(eqs, 2, 2)
        with pytest.raises(SetError):
            gs.minor_determinants(eqs, 2, 0)
        with pytest.raises(SetError):
            gs.minor_determinants([], 2, 1)

    def test_minor_depth_bounded(self):
        # differentiating a quotient adds three levels per division, so a
        # chain well inside the parse limit can have a minor too deep for
        # the later tree walks; a product chain at the limit stays in range
        def chain(unit, n):
            return [ex.parse("y - x" + unit * n, 2)]

        # the minors are the partial derivatives in x and in y (= 1)
        prod, _ = gs.minor_determinants(chain("*(1 + x)", 447), 2, 1)
        assert ex.depth(prod) == 2 * 447 + 2 <= gs._MAX_MINOR_DEPTH
        # a residual part holds such a minor: its construction walks the
        # tree for the largest variable index, one stack frame per level
        assert ex.max_index(prod) == 0
        part = gs.BasicPresentation(nvars=2, eqs=(prod,),
                                    through_origin=False)
        assert part.eqs == (prod,)
        quot, _ = gs.minor_determinants(chain("/(1 + x)", 299), 2, 1)
        assert ex.depth(quot) == gs._MAX_MINOR_DEPTH - 1
        with pytest.raises(SetError, match="minor is deeper than 900"):
            gs.minor_determinants(chain("/(1 + x)", 300), 2, 1)


class TestMembership:
    def test_parabola_points(self, curves):
        p = curves.get("parabola")
        assert gs.membership_mask(p, [0.3, 0.09])
        assert not gs.membership_mask(p, [0.3, 0.10])
        assert not gs.membership_mask(p, [0.6, 0.36]), "outside the ball"

    def test_inequality_sign(self, curves):
        h = curves.get("halfline")
        assert gs.membership_mask(h, [0.2, 0.0])
        assert gs.membership_mask(h, [0.0, 0.0])
        assert not gs.membership_mask(h, [-0.2, 0.0])

    def test_union_parts_or(self, curves):
        u = curves.get("mixed_union")
        assert gs.membership_mask(u, [-0.3, 0.09])   # parabola branch
        assert gs.membership_mask(u, [0.3, 0.0])     # half-line branch
        assert not gs.membership_mask(u, [-0.3, 0.0])

    def test_batch_shape_and_width_check(self, curves):
        p = curves.get("parabola")
        X = np.array([[0.1, 0.01], [0.1, 0.2]])
        np.testing.assert_array_equal(
            gs.membership_mask(p, X), [True, False])
        with pytest.raises(SetError):
            gs.membership_mask(p, np.zeros((3, 3)))


class TestProjection:
    def test_deterministic_and_shaped(self):
        eqs = [ex.parse(t, 2) for t in ("y - x^3", "x*y - x^4")]
        out1, M1 = gs.generic_projection(eqs, 2, 1, seed=7)
        out2, M2 = gs.generic_projection(eqs, 2, 1, seed=7)
        assert np.array_equal(M1, M2) and out1 == out2
        assert M1.shape == (1, 2)
        _, M3 = gs.generic_projection(eqs, 2, 1, seed=8)
        assert not np.array_equal(M1, M3)

    def test_projection_is_linear_combination(self):
        eqs = [ex.parse(t, 2) for t in ("y - x^3", "x*y - x^4", "x^2*y")]
        out, M = gs.generic_projection(eqs, 2, 2, seed=0)
        X = np.random.default_rng(5).uniform(-0.5, 0.5, (30, 2))
        vals = ex.eval_system(eqs, X)
        for i, F in enumerate(out):
            np.testing.assert_allclose(
                ex.eval_many(F, X), vals @ M[i], atol=1e-14)

    def test_target_validation(self):
        eqs = [ex.parse("y", 2)]
        with pytest.raises(SetError):
            gs.generic_projection(eqs, 2, 2)
        with pytest.raises(SetError):
            gs.generic_projection([], 2, 1)


class TestInflation:
    def test_norm_power(self):
        e = gs.norm_power_expr(2, 3)
        X = np.random.default_rng(6).uniform(-1, 1, (20, 2))
        np.testing.assert_allclose(
            ex.eval_many(e, X), np.linalg.norm(X, axis=1) ** 6, rtol=1e-12)

    def test_slack_value(self, curves):
        part = curves.get("cusp_product").parts[0]
        proj, _ = gs.generic_projection(part.eqs, 2, 1, seed=0)
        infl = gs.inflated_part(part, proj, m=2)
        assert infl.eqs == tuple(proj)
        X = np.random.default_rng(7).uniform(-0.4, 0.4, (25, 2))
        want = (np.linalg.norm(X, axis=1) ** 4
                - ex.eval_system(part.eqs, X) ** 2 @ np.ones(2))
        np.testing.assert_allclose(
            ex.eval_many(infl.ineqs[0], X), want, atol=1e-13)

    def test_original_points_stay_members(self, curves):
        s = curves.get("cusp_product")
        part = s.parts[0]
        proj, _ = gs.generic_projection(part.eqs, 2, 1, seed=0)
        infl = gs.set_of(gs.inflated_part(part, proj, m=1), "infl", s.omega)
        t = np.linspace(-0.45, 0.45, 11)
        for x in np.stack([t, t ** 3], axis=1):
            assert gs.membership_mask(infl, x)

    def test_keeps_original_inequalities(self, curves):
        part = curves.get("exp_sin").parts[0]
        proj, _ = gs.generic_projection(part.eqs, 2, 1, seed=0)
        infl = gs.inflated_part(part, proj, m=1)
        assert infl.ineqs[1:] == part.ineqs


class TestFileFormat:
    GOOD = {
        "vars": ["x", "y"],
        "omega": 0.5,
        "sets": {"p": {"parts": [{"eqs": ["y - x^2"]}]}},
    }

    def test_minimal_document(self):
        col = make_collection(self.GOOD)
        assert col.names == ["x", "y"] and col.omega == 0.5
        p = col.get("p")
        assert p.nvars == 2 and len(p.parts) == 1

    def test_manifest_key_tolerated(self):
        doc = dict(self.GOOD, manifest={"tool": "t"})
        make_collection(doc)

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.update(extra=1), "unknown key(s) ['extra']"),
        (lambda d: d.pop("omega"), "missing key(s) ['omega']"),
        (lambda d: d.update(omega=-1), "positive"),
        (lambda d: d.update(vars=["x", "x"]), "duplicate"),
        (lambda d: d.update(vars=[]), "nonempty"),
        (lambda d: d.update(sets={}), "nonempty"),
        (lambda d: d["sets"].update(q={"parts": []}), "nonempty 'parts'"),
        (lambda d: d["sets"]["p"].update(bogus=1), "unknown key(s)"),
        (lambda d: d["sets"]["p"]["parts"][0].update(extra=[]),
         "unknown key(s)"),
        (lambda d: d["sets"]["p"].update(good_presentation="yes"),
         "must be a bool"),
        (lambda d: d["sets"]["p"]["parts"][0].update(eqs=["y - q"]),
         "bad expression 'y - q' in 'eqs' of part 0 of set 'p'"),
        (lambda d: d["sets"]["p"]["parts"][0].update(eqs=["y - 1"]),
         "invalid part 0 of set 'p'"),
    ])
    def test_rejections_with_context(self, mutate, fragment):
        import copy
        doc = copy.deepcopy(self.GOOD)
        mutate(doc)
        with pytest.raises(SetFileError) as ei:
            make_collection(doc)
        assert fragment in str(ei.value)

    @pytest.mark.parametrize("omega", [
        "true", "false", "Infinity", "1e400", "NaN", "1" + "0" * 400],
        ids=["true", "false", "Infinity", "1e400", "NaN", "int_1e400"])
    def test_omega_must_be_finite_number(self, omega):
        text = ('{"vars": ["x", "y"], "omega": %s, '
                '"sets": {"p": {"parts": [{"eqs": ["y - x^2"]}]}}}' % omega)
        with pytest.raises(SetFileError) as ei:
            gs.collection_from_text(text)
        assert "'omega' must be a positive finite number" in str(ei.value)

    @pytest.mark.parametrize("text, fragment", [
        ("(" * 2000 + "y" + ")" * 2000, "nested more than 100 levels"),
        ("-" * 3000 + "y", "nested more than 100 levels"),
        ("-" * 500 + "y", "nested more than 100 levels"),
        (" + ".join(["y"] * 2000), "expression tree deeper than 450 levels"),
    ], ids=["parentheses", "minuses", "negations", "long-sum"])
    def test_deep_nesting_is_a_file_error(self, text, fragment):
        # each once ended in a RecursionError: in the parser, while the part
        # was built, or (500 negations) only when a comparison printed it
        doc = '{"vars": ["x", "y"], "omega": 0.5, "sets": {"p": ' \
              '{"parts": [{"eqs": ["x"]}, {"eqs": ["%s"]}]}}}' % text
        with pytest.raises(SetFileError) as ei:
            gs.collection_from_text(doc)
        assert fragment in str(ei.value)
        assert "part 1 of set 'p'" in str(ei.value)

    def test_not_json(self):
        with pytest.raises(SetFileError):
            gs.collection_from_text("{nope")

    def test_load_collection_adds_path(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("[]")
        with pytest.raises(SetFileError) as ei:
            gs.load_collection(f)
        assert str(f) in str(ei.value)

    def test_unknown_set_lists_known(self, curves):
        with pytest.raises(SetFileError) as ei:
            curves.get("nope")
        msg = str(ei.value)
        assert "no set named 'nope'" in msg and "parabola" in msg

    def test_dump_round_trip(self, curves):
        s = curves.get("exp_sin")
        doc = {"vars": ["x", "y"], "omega": s.omega,
               "sets": {"exp_sin": gs.dump_set(s)}}
        again = make_collection(doc).get("exp_sin")
        assert again.signature() == s.signature()

    def test_dump_omits_empty_ineqs(self, curves):
        d = gs.dump_set(curves.get("parabola"))
        assert d == {"parts": [{"eqs": ["y - x^2"]}]}


class TestCorpus:
    def test_collections_load(self, curves, surfaces, loj):
        assert len(curves.sets) == 22
        assert surfaces.names == ["x", "y", "z"]
        assert loj.omega == 1.0

    def test_good_presentation_key_still_loads(self):
        # corpus files carry the key; it is checked for its type and
        # otherwise ignored, so a set loads the same with it or without it
        doc = {"vars": ["x", "y"], "omega": 0.5,
               "sets": {"p": {"parts": [{"eqs": ["y - x^2"]}]}}}
        plain = make_collection(doc).get("p")
        doc["sets"]["p"]["good_presentation"] = True
        flagged = make_collection(doc).get("p")
        assert flagged == plain and flagged.signature() == plain.signature()
