"""Exact arithmetic for filling curves on P1 x P1 over small finite fields.

A curve is *filling* when its rational points are all of
P1(GF(q)) x P1(GF(q)).  The package constructs the minimal-bi-degree
smooth irreducible examples for every prime power, certifies their
smoothness and absolute irreducibility in exact arithmetic, counts points,
compares each count against the space-curve bound at degree a+b, the
degree of the curve's image in P3, and exhaustively classifies whole
filling spaces at desk scale.  It exports what the commands use and what
checks or reads their results; the slow reference implementations that
the tests compare against are kept with the tests.
"""

from .analysis import (
    IrreducibilityResult,
    SmoothCertificate,
    Witness,
    certify_smooth,
    conjugate_norms,
    find_factor,
    is_abs_irreducible,
    jacobian_system,
    validate_setup,
    verify_witness,
)
from .bipoly import (
    CHARTS,
    AffinePoly,
    BiPoly,
    divides,
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
from .families import FamilyParams, construct, pair_curve, pick_params
from .filling import (
    Decomposition,
    decompose,
    frobenius_forms,
    is_filling,
)
from .geom import count_points, projective_count
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
