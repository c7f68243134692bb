"""Semianalytic set presentations and the operations that rewrite them.

A set germ at the origin is described by a union of basic parts, each the
locus {f_1 = ... = f_p = 0, g_1 >= 0, ..., g_l >= 0} of analytic expressions
inside a ball of radius omega. The operations here are symbolic: truncating
defining functions to Taylor polynomials, promoting an inequality to an
equation on a boundary slice, taking Jacobian minors, projecting a map to
fewer generic components, and building the inflated variety used by the
approximation search. Numeric sampling lives in :mod:`.geometry`.
"""
from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import expr as ex
from .expr import Expr, _row_norm

_ORIGIN_TOL = 1e-12
# membership residual tolerances, relative to max(1, |x|)
_MEMBER_TOL_EQ = 1e-9
_MEMBER_TOL_INEQ = 1e-8


def _in_ball(norms: np.ndarray, omega: float) -> np.ndarray:
    """Rows whose norm puts them in the germ's ball of radius omega, to
    ``_MEMBER_TOL_EQ``: membership's rule, and the distance layer's for the
    points its solver finds."""
    return norms <= omega + _MEMBER_TOL_EQ


class SetError(ValueError):
    pass


class SetFileError(SetError):
    """Raised for malformed set-collection files."""


def _excerpt(text: str) -> str:
    """An expression as an error message quotes it: its first 80
    characters, then ``…`` if there are more."""
    return repr(text[:80]) + ("…" if text[80:] else "")


@dataclass(frozen=True)
class BasicPresentation:
    """One basic part: equations f_i = 0 and inequalities g_j >= 0.

    ``through_origin`` asserts that the origin satisfies the constraints and
    is checked at construction.
    """

    nvars: int
    eqs: tuple[Expr, ...]
    ineqs: tuple[Expr, ...] = ()
    through_origin: bool = True
    # signature() computes it on the first call
    _signature: tuple | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        if self.nvars < 1:
            raise SetError("a presentation needs at least one variable")
        object.__setattr__(self, "eqs", tuple(self.eqs))
        object.__setattr__(self, "ineqs", tuple(self.ineqs))
        for e in self.eqs + self.ineqs:
            if ex.max_index(e) >= self.nvars:
                raise SetError(
                    f"expression uses variable index {ex.max_index(e)} but "
                    f"the presentation has {self.nvars} variables")
        if self.through_origin:
            for e in self.eqs:
                if abs(ex.const_term(e)) > _ORIGIN_TOL:
                    raise SetError(
                        "equation does not vanish at the origin: "
                        + _excerpt(ex.to_string(e, self.nvars)))
            for g in self.ineqs:
                if ex.const_term(g) < -_ORIGIN_TOL:
                    raise SetError(
                        "inequality is negative at the origin: "
                        + _excerpt(ex.to_string(g, self.nvars)))

    def signature(self) -> tuple:
        """Hashable identity used for caching sampled slices, printed once
        per presentation."""
        if self._signature is None:
            names = ex._resolve_names(self.nvars)
            object.__setattr__(self, "_signature", (
                self.nvars,
                tuple(ex.to_string(e, names) for e in self.eqs),
                tuple(ex.to_string(g, names) for g in self.ineqs),
            ))
        return self._signature

    def is_polynomial(self) -> bool:
        return all(ex.is_polynomial(e) for e in self.eqs + self.ineqs)


@dataclass(frozen=True)
class SemianalyticSet:
    """A named finite union of basic parts inside the ball of radius omega.

    Derived intermediates (residual loci, boundary pieces) may legitimately
    have no parts, representing the empty germ; the file loader is stricter
    and rejects part-free sets.
    """

    name: str
    nvars: int
    omega: float
    parts: tuple[BasicPresentation, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.omega <= 0.0 or not np.isfinite(self.omega):
            raise SetError("omega must be a positive finite radius")
        object.__setattr__(self, "parts", tuple(self.parts))
        for p in self.parts:
            if p.nvars != self.nvars:
                raise SetError(
                    f"part has {p.nvars} variables, set {self.name!r} "
                    f"declares {self.nvars}")

    def signature(self) -> tuple:
        return (self.nvars, round(self.omega, 15),
                tuple(p.signature() for p in self.parts))

    def is_polynomial(self) -> bool:
        return all(p.is_polynomial() for p in self.parts)


def set_of(part: BasicPresentation, name: str, omega: float) -> SemianalyticSet:
    return SemianalyticSet(name=name, nvars=part.nvars, omega=omega,
                           parts=(part,))


def union_sets(name: str, *sets: SemianalyticSet) -> SemianalyticSet:
    if not sets:
        raise SetError("union needs at least one operand")
    nvars = sets[0].nvars
    omega = min(s.omega for s in sets)
    parts: list[BasicPresentation] = []
    for s in sets:
        if s.nvars != nvars:
            raise SetError("cannot union sets over different variable counts")
        parts.extend(s.parts)
    return SemianalyticSet(name=name, nvars=nvars, omega=omega,
                           parts=tuple(parts))


# ---------------------------------------------------------------------------
# truncation


def _truncate_part(part: BasicPresentation, h: int | None,
                   k: int | None) -> BasicPresentation:
    eqs = part.eqs
    ineqs = part.ineqs
    if h is not None:
        eqs = tuple(
            ex.poly_to_expr(ex.taylor(e, h, part.nvars)) for e in eqs)
    if k is not None:
        ineqs = tuple(
            ex.poly_to_expr(ex.taylor(g, k, part.nvars)) for g in ineqs)
    return BasicPresentation(
        nvars=part.nvars, eqs=eqs, ineqs=ineqs,
        through_origin=part.through_origin)


def truncate_eqs(s: SemianalyticSet, h: int) -> SemianalyticSet:
    """Replace every equation by its order-h Taylor polynomial."""
    if h < 0:
        raise SetError("truncation order must be nonnegative")
    parts = tuple(_truncate_part(p, h, None) for p in s.parts)
    return replace(s, name=f"{s.name}~eq{h}", parts=parts)


def truncate_ineqs(s: SemianalyticSet, k: int) -> SemianalyticSet:
    """Replace every inequality by its order-k Taylor polynomial."""
    if k < 0:
        raise SetError("truncation order must be nonnegative")
    parts = tuple(_truncate_part(p, None, k) for p in s.parts)
    return replace(s, name=f"{s.name}~ineq{k}", parts=parts)


def truncate_full(s: SemianalyticSet, h: int, k: int) -> SemianalyticSet:
    """Truncate equations at order h and inequalities at order k."""
    if h < 0 or k < 0:
        raise SetError("truncation orders must be nonnegative")
    parts = tuple(_truncate_part(p, h, k) for p in s.parts)
    return replace(s, name=f"{s.name}~t{h}.{k}", parts=parts)


# ---------------------------------------------------------------------------
# boundary slices


def boundary_part(part: BasicPresentation, j: int) -> BasicPresentation:
    """The slice of a part where inequality ``j`` holds with equality."""
    if not 0 <= j < len(part.ineqs):
        raise SetError("inequality index out of range")
    g = part.ineqs[j]
    rest = part.ineqs[:j] + part.ineqs[j + 1:]
    return BasicPresentation(
        nvars=part.nvars, eqs=part.eqs + (g,), ineqs=rest,
        through_origin=False)


# ---------------------------------------------------------------------------
# Jacobian minors


def jacobian_exprs(eqs, nvars: int) -> list[list[Expr]]:
    return [[ex.diff(e, j) for j in range(nvars)] for e in eqs]


def _minor_det(rows: list[list[Expr]]) -> Expr:
    """Symbolic determinant by Laplace expansion along the first row."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    acc: Expr | None = None
    for j in range(size):
        sub = [[row[c] for c in range(size) if c != j] for row in rows[1:]]
        term = ex.mk_mul(rows[0][j], _minor_det(sub))
        if acc is None:
            acc = term if j % 2 == 0 else ex.mk_neg(term)
        elif j % 2 == 0:
            acc = ex.mk_add(acc, term)
        else:
            acc = ex.mk_sub(acc, term)
    return acc


# levels a Jacobian minor may have: tree walks recurse per level, and a 1x1
# minor of a product chain is twice as deep as the chain, of a quotient chain
# three times, so every product that parses keeps its 1x1 minors in range
_MAX_MINOR_DEPTH = 2 * ex.MAX_DEPTH


def minor_determinants(eqs, nvars: int, r: int) -> list[Expr]:
    """All r x r minors of the Jacobian of ``eqs`` as expressions."""
    if r < 1:
        raise SetError("minor size must be at least 1")
    p = len(eqs)
    if r > p or r > nvars:
        raise SetError(
            f"cannot take {r}x{r} minors of a {p}x{nvars} Jacobian")
    jac = jacobian_exprs(eqs, nvars)
    dets = []
    for rows in itertools.combinations(range(p), r):
        for cols in itertools.combinations(range(nvars), r):
            sub = [[jac[i][j] for j in cols] for i in rows]
            dets.append(_minor_det(sub))
    if any(ex.depth(d) > _MAX_MINOR_DEPTH for d in dets):
        raise SetError(f"a {r}x{r} Jacobian minor is deeper than "
                       f"{_MAX_MINOR_DEPTH} levels")
    return dets


# ---------------------------------------------------------------------------
# membership


def membership_mask(s: SemianalyticSet, X: np.ndarray) -> np.ndarray:
    """Approximate membership for a batch of points, shape (N, n) -> (N,).

    Tolerances scale with max(1, |x|) so membership is meaningful both very
    close to the origin and near the ball boundary.
    """
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[-1] != s.nvars:
        raise SetError(
            f"points have {X.shape[-1]} coordinates, set {s.name!r} "
            f"has {s.nvars} variables")
    norms = _row_norm(X)
    scale = np.maximum(1.0, norms)
    inside = _in_ball(norms, s.omega)
    result = np.zeros(X.shape[0], dtype=bool)
    for part in s.parts:
        ok = inside.copy()
        for e in part.eqs:
            v = ex.eval_many(e, X)
            ok &= np.abs(v) <= _MEMBER_TOL_EQ * scale
        for g in part.ineqs:
            v = ex.eval_many(g, X)
            ok &= v >= -_MEMBER_TOL_INEQ * scale
        result |= ok
    return bool(result[0]) if single else result


# ---------------------------------------------------------------------------
# generic projection and the inflated variety


def generic_projection(eqs, nvars: int, target: int, seed: int = 0
                       ) -> tuple[list[Expr], np.ndarray]:
    """Compose an equation system with a seeded random linear map.

    Returns ``target`` linear combinations of the ``p`` input equations,
    with coefficients drawn once from a standard normal stream, plus the
    (target, p) matrix itself so runs can be reproduced and reported.
    """
    p = len(eqs)
    if p == 0:
        raise SetError("cannot project an empty equation system")
    if not 1 <= target <= p:
        raise SetError(f"projection target must be in 1..{p}, got {target}")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((target, p))
    out = []
    for i in range(target):
        acc: Expr | None = None
        for j in range(p):
            term = ex.mk_mul(ex.Const(float(M[i, j])), eqs[j])
            acc = term if acc is None else ex.mk_add(acc, term)
        out.append(acc)
    return out, M


def sum_of_squares(exprs) -> Expr:
    acc: Expr = ex.Const(0.0)
    for e in exprs:
        acc = ex.mk_add(acc, ex.mk_int_pow(e, 2))
    return acc


def norm_power_expr(nvars: int, m: int) -> Expr:
    """|x|^(2m) as the polynomial (x_1^2 + ... + x_n^2)^m."""
    sq = sum_of_squares([ex.Var(j) for j in range(nvars)])
    return ex.mk_int_pow(sq, m)


def inflated_part(part: BasicPresentation, proj_eqs, m: int
                  ) -> BasicPresentation:
    """The thickened locus {F = 0, |x|^(2m) - sum f_i^2 >= 0, g_j >= 0}.

    ``proj_eqs`` is the projected system F; the slack inequality keeps every
    point of the original part (where all f_i vanish) while trimming the
    extra components of {F = 0} whose original residual exceeds |x|^m.
    """
    slack = ex.mk_sub(norm_power_expr(part.nvars, m),
                      sum_of_squares(part.eqs))
    return BasicPresentation(
        nvars=part.nvars, eqs=tuple(proj_eqs),
        ineqs=(slack,) + part.ineqs, through_origin=True)


def is_origin_slack(g: Expr, eqs, nvars: int) -> bool:
    """Whether ``g`` is exactly |x|^(2m) - sum_{e in E'} e^2 for some m >= 1
    and equations E' among ``eqs``: the slack :func:`inflated_part` builds
    when the projected system is the part's own. On {eqs = 0} it is then
    |x|^(2m), so {eqs = 0, g = 0} is the origin alone and meets no sphere
    of positive radius. The test is structural: a slack over other
    equations (a generic projection F != f) or a truncated one is not
    recognized."""
    if isinstance(g, ex.Sub):
        g, squares = g.left, g.right
        while isinstance(squares, ex.Add):
            if not _is_square_of(squares.right, eqs):
                return False
            squares = squares.left
        if not _is_square_of(squares, eqs):
            return False
    norm = sum_of_squares([ex.Var(j) for j in range(nvars)])
    return g == norm or (isinstance(g, ex.IntPow) and g.base == norm)


def _is_square_of(e: Expr, eqs) -> bool:
    return isinstance(e, ex.IntPow) and e.exponent == 2 and e.base in eqs


# ---------------------------------------------------------------------------
# file format
#
# {
#   "vars": ["x", "y"],
#   "omega": 0.5,
#   "sets": {
#     "name": {"parts": [{"eqs": [...], "ineqs": [...]}, ...],
#              "good_presentation": true}
#   }
# }


@dataclass(frozen=True)
class SetCollection:
    names: list[str]
    omega: float
    sets: dict[str, SemianalyticSet]

    def get(self, name: str) -> SemianalyticSet:
        if name not in self.sets:
            known = ", ".join(sorted(self.sets))
            raise SetFileError(f"no set named {name!r} (have: {known})")
        return self.sets[name]


def _require_keys(d: dict, allowed: set[str], required: set[str],
                  where: str):
    extra = set(d) - allowed
    if extra:
        raise SetFileError(
            f"unknown key(s) {sorted(extra)} in {where} "
            f"(allowed: {sorted(allowed)})")
    missing = required - set(d)
    if missing:
        raise SetFileError(f"missing key(s) {sorted(missing)} in {where}")


def parse_collection(doc: dict) -> SetCollection:
    if not isinstance(doc, dict):
        raise SetFileError("top level must be a JSON object")
    # "manifest" is tolerated so emitted collections stay loadable
    _require_keys(doc, {"vars", "omega", "sets", "manifest"},
                  {"vars", "omega", "sets"}, "the top-level object")
    names = doc["vars"]
    if (not isinstance(names, list) or not names
            or not all(isinstance(v, str) for v in names)):
        raise SetFileError("'vars' must be a nonempty list of names")
    if len(set(names)) != len(names):
        raise SetFileError("'vars' contains duplicate names")
    omega = doc["omega"]
    # bool is an int; the bound also rejects inf, nan and ints past float range
    if (isinstance(omega, bool) or not isinstance(omega, (int, float))
            or not 0 < omega <= sys.float_info.max):
        raise SetFileError("'omega' must be a positive finite number")
    raw_sets = doc["sets"]
    if not isinstance(raw_sets, dict) or not raw_sets:
        raise SetFileError("'sets' must be a nonempty object")
    nvars = len(names)
    sets: dict[str, SemianalyticSet] = {}
    for set_name, body in raw_sets.items():
        where = f"set {set_name!r}"
        if not isinstance(body, dict):
            raise SetFileError(f"{where} must be an object")
        _require_keys(body, {"parts", "good_presentation"}, {"parts"}, where)
        raw_parts = body["parts"]
        if not isinstance(raw_parts, list) or not raw_parts:
            raise SetFileError(f"{where} needs a nonempty 'parts' list")
        # an advisory claim about the equations, checked only for its type
        if not isinstance(body.get("good_presentation", False), bool):
            raise SetFileError(f"'good_presentation' of {where} must be a bool")
        parts = []
        for idx, raw in enumerate(raw_parts):
            pwhere = f"part {idx} of {where}"
            if not isinstance(raw, dict):
                raise SetFileError(f"{pwhere} must be an object")
            _require_keys(raw, {"eqs", "ineqs"}, set(), pwhere)
            eqs, ineqs = [], []
            for key, sink in (("eqs", eqs), ("ineqs", ineqs)):
                items = raw.get(key, [])
                if not isinstance(items, list) or not all(
                        isinstance(t, str) for t in items):
                    raise SetFileError(
                        f"'{key}' of {pwhere} must be a list of strings")
                for text in items:
                    try:
                        sink.append(ex.parse(text, names))
                    except ex.ExprError as exc:
                        # the position locates the fault
                        raise SetFileError(
                            f"bad expression {_excerpt(text)} in '{key}' of "
                            f"{pwhere}: {exc}") from None
            try:
                parts.append(BasicPresentation(
                    nvars=nvars, eqs=tuple(eqs), ineqs=tuple(ineqs)))
            except (SetError, ex.ExprError) as exc:
                raise SetFileError(f"invalid {pwhere}: {exc}") from None
        sets[set_name] = SemianalyticSet(
            name=set_name, nvars=nvars, omega=float(omega),
            parts=tuple(parts))
    return SetCollection(names=list(names), omega=float(omega), sets=sets)


def load_collection(path) -> SetCollection:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SetFileError(f"{path}: not valid JSON: {exc}") from None
    try:
        return parse_collection(doc)
    except SetFileError as exc:
        raise SetFileError(f"{path}: {exc}") from None


def collection_from_text(text: str) -> SetCollection:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SetFileError(f"not valid JSON: {exc}") from None
    return parse_collection(doc)


def dump_set(s: SemianalyticSet, names=None) -> dict:
    """Serialize one set back to the file-format fragment for its parts."""
    if names is None:
        names = ex._resolve_names(s.nvars)
    parts = []
    for part in s.parts:
        entry: dict = {"eqs": [ex.to_string(e, names) for e in part.eqs]}
        if part.ineqs:
            entry["ineqs"] = [ex.to_string(g, names) for g in part.ineqs]
        parts.append(entry)
    return {"parts": parts}
