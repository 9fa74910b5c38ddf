"""Exact arithmetic for filling curves on P1 x P1 over small finite fields.

A curve is *filling* when its rational points are all of
P1(GF(q)) x P1(GF(q)).  The package constructs the minimal-bi-degree
smooth irreducible examples for every prime power, certifies their
smoothness and absolute irreducibility in exact arithmetic, counts points,
compares against the space-curve bound through the degree-(a+b) embedding
into P3, and exhaustively classifies whole filling spaces at desk scale.
"""

from .analysis import (
    IrreducibilityResult,
    ReducedSystem,
    SmoothCertificate,
    Witness,
    certify_smooth,
    common_zeros,
    conjugate_norms,
    find_factor,
    is_abs_irreducible,
    jacobian_system,
    reduced_system,
    singular_points,
    validate_setup,
    verify_witness,
    witness_point,
)
from .bipoly import (
    CHARTS,
    AffinePoly,
    BiPoly,
    divides,
    eval_bipoly,
    homogenize,
    parse_bipoly,
    resultant_elim,
)
from .bounds import BoundReport, check_attainment, segre_degree, space_curve_bound
from .errors import (
    BadCoefficient,
    BadParameters,
    BadShape,
    BidegreeMismatch,
    BidegreeTooSmall,
    BifillError,
    DivisionByZero,
    FieldMismatch,
    Infeasible,
    MixedBidegree,
    NotASubfield,
    NotFilling,
    NotPrime,
    ParseError,
    SetupViolation,
    UnsupportedQ,
    ZeroDivisor,
    ZeroPolynomial,
)
from .families import FamilyParams, construct, fiber_union, pair_curve, pick_params
from .filling import (
    Decomposition,
    decompose,
    frobenius_forms,
    is_filling,
    min_bidegree_check,
)
from .geom import (
    P3Point,
    PointPair,
    ProjPoint,
    count_points,
    enum_p1,
    fiber_forms,
    projective_count,
    rational_pairs,
    segre,
)
from .gf import (
    Field,
    UniPoly,
    extension_field,
    parse_field_spec,
    unipoly_factor,
    unipoly_gcd,
    unipoly_is_irreducible,
    unipoly_roots,
)
from .search import (
    CensusReport,
    ScanCell,
    candidate_index_of,
    candidate_poly,
    census,
    filling_space_basis,
    merge_reports,
    min_bidegree_scan,
)

__version__ = "0.1.0"
