"""Order-s closeness of set germs at the origin, and polynomial approximants.

The package measures how fast the deviation between two semianalytic set
germs decays on shrinking sphere slices, decides order-s closeness by limit
fits and by horn containment, and searches for semialgebraic sets (Taylor
truncations of inflated presentations) that stay within a requested order
of a given germ.
"""
from .approx import (
    ApproxConfig,
    ApproxError,
    ApproxResult,
    PartApproxResult,
    SearchExhausted,
    approximate,
    child_seed,
)
from .equivalence import (
    CompareConfig,
    ComparisonError,
    ExponentEstimate,
    ExponentPreconditionError,
    OrderEstimate,
    RadiiSchedule,
    SignAgreementReport,
    UnionPropertyReport,
    Verdict,
    decide_equivalent,
    decide_le,
    deviation_profile,
    estimate_exponent,
    horn_criterion,
    sign_agreement_check,
    union_property_check,
)
from .expr import (
    Expr,
    ExprError,
    NonAnalyticError,
    ParseError,
    diff,
    eval_many,
    parse,
    poly_to_expr,
    taylor,
    to_string,
)
from .geometry import (
    DistanceSample,
    EmptySliceError,
    GeometryError,
    SliceCache,
    SliceCloud,
    TangentConeReport,
    directed_deviation,
    dist_to_set_batch,
    numeric_dimension,
    sample_slice,
    sphere_directions,
    tangent_cone_cloud,
)
from .series import Poly, SeriesError, TruncatedSeries
from .sets import (
    BasicPresentation,
    SemianalyticSet,
    SetCollection,
    SetError,
    SetFileError,
    boundary_part,
    collection_from_text,
    generic_projection,
    inflated_part,
    load_collection,
    minor_determinants,
    set_of,
    truncate_eqs,
    truncate_full,
    truncate_ineqs,
    union_sets,
)
from .version import __version__

__all__ = [
    "ApproxConfig", "ApproxError", "ApproxResult", "PartApproxResult",
    "SearchExhausted", "approximate", "child_seed",
    "CompareConfig", "ComparisonError", "ExponentEstimate",
    "ExponentPreconditionError", "OrderEstimate", "RadiiSchedule",
    "SignAgreementReport", "UnionPropertyReport", "Verdict",
    "decide_equivalent", "decide_le", "deviation_profile",
    "estimate_exponent", "horn_criterion",
    "sign_agreement_check", "union_property_check",
    "Expr", "ExprError", "NonAnalyticError", "ParseError",
    "diff", "eval_many", "parse", "poly_to_expr", "taylor", "to_string",
    "DistanceSample", "EmptySliceError", "GeometryError", "SliceCache",
    "SliceCloud", "TangentConeReport", "directed_deviation",
    "dist_to_set_batch", "numeric_dimension", "sample_slice",
    "sphere_directions", "tangent_cone_cloud",
    "Poly", "SeriesError", "TruncatedSeries",
    "BasicPresentation", "SemianalyticSet", "SetCollection", "SetError",
    "SetFileError", "boundary_part", "collection_from_text",
    "generic_projection", "inflated_part", "load_collection",
    "minor_determinants", "set_of", "truncate_eqs", "truncate_full",
    "truncate_ineqs", "union_sets",
    "__version__",
]
