"""Smoothness certificates, the setup check on paired ruling forms, and
absolute irreducibility testing.

The smoothness certificate works chart by chart. In each chart the system
is the dehomogenized form together with its four partials (the form itself
is kept: in characteristic p the Euler relations can degenerate). Candidate
x-coordinates of singular points are pinned down by a gcd accumulated over
the members that only involve x and over pairwise resultants of the rest:
a common zero roots every one of those, so the accumulated gcd is a
complete filter, and it usually collapses to a constant after one or two
resultants, which certifies the chart without any factoring. Surviving
irreducible factors m(x) are checked exactly: substitute a root of m over
GF(q^deg m) into every member and take the monic gcd in y; positive degree
certifies a singular point, and the (m, gcd) pair is the witness.

Absolute irreducibility runs two routes. Route A: a smooth form with both
bi-degree entries positive is irreducible over the closure, because on this
surface two effective divisors whose bi-degrees are both nonzero in total
meet (type pairing a1*b2 + a2*b1), and a meeting or repeated component
forces a singular point. Route B is a direct search: a proper factor over
GF(q), or, for GF(q)-irreducible forms, a conjugate-norm match
F = G * G^sigma * ... over GF(q^k) for some k dividing gcd(a,b).
is_abs_irreducible is the one place that orders them: its "auto" method
tries the divisor cells of total degree at most 2, then route A, then the
remaining divisor cells, then the conjugate-norm check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd as int_gcd
from typing import Optional

from .bipoly import CHARTS, BiPoly, divides, resultant_elim
from .errors import BadParameters, BadShape, Infeasible, ZeroPolynomial
from .geom import projective_count, projective_vectors
from .gf import (
    UniPoly,
    extension_field,
    unipoly_factor,
    unipoly_gcd,
    unipoly_is_irreducible,
    unipoly_linear_part,
    unipoly_roots,
)

__all__ = [
    "jacobian_system",
    "SmoothCertificate",
    "Witness",
    "certify_smooth",
    "verify_witness",
    "validate_setup",
    "IrreducibilityResult",
    "is_abs_irreducible",
    "conjugate_norms",
]

def jacobian_system(F):
    """The five forms whose common zeros are the singular points."""
    return (
        F,
        F.partial("X0"),
        F.partial("X1"),
        F.partial("Y0"),
        F.partial("Y1"),
    )


# -- smoothness certificate ------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    chart: str
    orientation: str  # "y": modulus constrains x; "x": modulus constrains y
    modulus: UniPoly  # irreducible over the owner field
    common: UniPoly  # positive-degree common divisor over GF(q^deg m)

    def to_json(self):
        return {
            "chart": self.chart,
            "orientation": self.orientation,
            "modulus": list(self.modulus.coeffs),
            "common": list(self.common.coeffs),
            "common_field": self.common.field.describe(),
        }


@dataclass(frozen=True)
class SmoothCertificate:
    verdict: str  # Smooth | Singular | Inconclusive
    witness: Optional[Witness]
    trace: tuple

    def to_json(self):
        return {
            "verdict": self.verdict,
            "witness": self.witness.to_json() if self.witness else None,
            "trace": [dict(t) for t in self.trace],
        }


def _chart_members(F, chart, orientation):
    """Nonzero dehomogenized system members, deduplicated; orientation "x"
    swaps the chart coordinates so the shared machinery always eliminates
    the second variable."""
    members = []
    seen = set()
    for form in jacobian_system(F):
        aff = form.dehomogenize(chart)
        if aff.is_zero():
            continue
        if orientation == "x":
            aff = aff.transpose()
        if aff.rows not in seen:
            seen.add(aff.rows)
            members.append(aff)
    return members


def _root_in_splitting_field(K, mpoly):
    """(E, xbar): the degree-(deg m) extension and the least root of m."""
    E = extension_field(K, mpoly.degree)
    roots = unipoly_roots(mpoly, E)
    if not roots:
        raise AssertionError("irreducible factor has no root in its splitting field")
    return E, min(roots)


def _substitute(members, E, xbar):
    """Specialize each member at x = xbar, giving y-polynomials over E."""
    out = []
    for mem in members:
        coeffs = [xp.map_field(E).eval_at(xbar) for xp in mem.y_coeffs()]
        out.append(UniPoly(E, coeffs))
    return out


def _factor_verdict(members, K, mpoly):
    """Monic gcd in y of the system specialized at a root of m, or the
    formal certificate y when every member vanishes there."""
    E, xbar = _root_in_splitting_field(K, mpoly)
    subs = [s for s in _substitute(members, E, xbar) if not s.is_zero()]
    if not subs:
        return UniPoly(E, (0, 1))  # any y: certify with the root y = 0
    G = subs[0].monic()
    for s in subs[1:]:
        G = unipoly_gcd(G, s)
        if G.degree == 0:
            return None
    return G if G.degree >= 1 else None


def _modulus_avoiding(K, lcpoly):
    """Least irreducible monic polynomial that does not divide lcpoly."""
    for c in range(K.order):
        if lcpoly.eval_at(c) != 0:
            return UniPoly(K, (K.neg(c), 1))
    for deg in range(2, lcpoly.degree + 2):
        for tail in itertools.product(range(K.order), repeat=deg):
            cand = UniPoly(K, list(tail) + [1])
            if unipoly_is_irreducible(cand) and not (lcpoly % cand).is_zero():
                return cand
    raise AssertionError("unreachable: finitely many roots")


def _certify_chart(K, members, chart, orientation, trace):
    """One chart, one elimination orientation. Returns ("smooth", None),
    ("singular", Witness) or ("degenerate", None)."""
    xonly = []
    ypos = []
    for mem in members:
        if mem.deg_y == 0:
            xonly.append(mem.as_unipoly())
        else:
            ypos.append(mem)
    D = None
    for u in xonly:
        D = u.monic() if D is None else unipoly_gcd(D, u)
        trace.append(
            {"chart": chart, "orientation": orientation,
             "pair": "x-only", "degree": D.degree}
        )
        if D.degree == 0:
            return "smooth", None
    if D is None and len(ypos) == 1:
        # a single bivariate equation always has zeros over the closure
        A = ypos[0]
        lc = A.y_coeffs()[A.deg_y]
        mpoly = _modulus_avoiding(K, lc)
        G = _factor_verdict(ypos, K, mpoly)
        if G is None:
            raise AssertionError(f"chart {chart} has no zero over the root of {mpoly}")
        trace.append(
            {"chart": chart, "orientation": orientation,
             "pair": "single", "degree": mpoly.degree}
        )
        return "singular", Witness(chart, orientation, mpoly, G)
    for i in range(len(ypos)):
        if D is not None and D.degree == 0:
            break
        for j in range(i + 1, len(ypos)):
            R = resultant_elim(ypos[i], ypos[j])
            trace.append(
                {"chart": chart, "orientation": orientation,
                 "pair": [i, j],
                 "degree": R.degree if not R.is_zero() else None}
            )
            if R.is_zero():
                continue
            D = R.monic() if D is None else unipoly_gcd(D, R)
            if D.degree == 0:
                break
    if D is None:
        return "degenerate", None
    if D.degree == 0:
        return "smooth", None
    for mpoly, _mult in unipoly_factor(D):
        G = _factor_verdict(members, K, mpoly)
        if G is not None:
            return "singular", Witness(chart, orientation, mpoly, G)
    return "smooth", None


def certify_smooth(F):
    """Exact smoothness certificate for the projective zero set of F.

    Smooth means the five-form system has only trivial solutions over the
    algebraic closure. Singular comes with an independently checkable
    witness. Inconclusive is reserved for a chart whose members defeat both
    elimination orientations (all pairwise resultants identically zero).
    """
    if F.is_zero():
        raise ZeroPolynomial("the zero polynomial does not define a curve")
    K = F.field
    trace = []
    inconclusive = False
    for chart in CHARTS:
        for orientation in ("y", "x"):
            members = _chart_members(F, chart, orientation)
            state, witness = _certify_chart(K, members, chart, orientation, trace)
            if state == "singular":
                return SmoothCertificate("Singular", witness, tuple(trace))
            if state == "smooth":
                break
        else:
            inconclusive = True
    if inconclusive:
        return SmoothCertificate("Inconclusive", None, tuple(trace))
    return SmoothCertificate("Smooth", None, tuple(trace))


def verify_witness(F, cert):
    """Re-derive a Singular certificate from scratch: the modulus must be
    irreducible and the specialized system must reproduce the stored common
    divisor."""
    if cert.verdict != "Singular" or cert.witness is None:
        return False
    w = cert.witness
    K = F.field
    if w.modulus.field is not K or not unipoly_is_irreducible(w.modulus):
        return False
    members = _chart_members(F, w.chart, w.orientation)
    G = _factor_verdict(members, K, w.modulus)
    if G is None:
        return False
    return G == w.common and G.degree >= 1


# -- paired ruling forms ----------------------------------------------------------

def _require_ruling_shapes(f, g):
    K = f.field
    q = K.order
    if f.bidegree != (0, q + 1):
        raise BadShape(f"first form must have bi-degree (0,{q + 1})")
    if g.bidegree != (q + 1, 0):
        raise BadShape(f"second form must have bi-degree ({q + 1},0)")
    if f.is_zero() or g.is_zero():
        raise BadShape("ruling forms must be nonzero")


def validate_setup(f, g):
    """Both ruling forms squarefree as binary forms and nonvanishing at
    every rational point of P1: in the inhomogeneous variable each has full
    degree q+1 (no zero at (0:1)), no repeated factor and no root in GF(q)."""
    _require_ruling_shapes(f, g)
    K = f.field

    def binary_ok(coeffs):
        # coeffs low-first in the inhomogeneous variable
        u = UniPoly(K, list(coeffs))
        return (
            u.degree == K.order + 1
            and unipoly_gcd(u, u.derivative()).degree == 0
            and unipoly_linear_part(u).degree == 0
        )

    return binary_ok(f.rows[0]) and binary_ok([r[0] for r in g.rows])


# -- absolute irreducibility -------------------------------------------------------

@dataclass(frozen=True)
class IrreducibilityResult:
    irreducible: bool
    method: str


_FORM_CACHE = {}
_NORM_CACHE = {}


def _proj_forms(field, a, b):
    """All bi-degree (a,b) forms with first nonzero coefficient 1, in
    row-major coefficient order; cached per cell."""
    key = (id(field), a, b)
    if key not in _FORM_CACHE:
        _FORM_CACHE[key] = tuple(
            BiPoly._raw(
                field, a, b,
                tuple(flat[i * (b + 1): (i + 1) * (b + 1)] for i in range(a + 1)),
            )
            for flat in projective_vectors(field.order, (a + 1) * (b + 1))
        )
    return _FORM_CACHE[key]


def _canonical_scale(F):
    for row in F.rows:
        for c in row:
            if c:
                if c == 1:
                    return F
                return F.scale(F.field.inv(c))
    raise ZeroPolynomial("cannot normalize the zero polynomial")


def _frob_rows(L, rows, q):
    return tuple(tuple(L.pow_(c, q) for c in row) for row in rows)


def conjugate_norms(field, a, b, k):
    """Canonical coefficient matrices of every norm N(G) = G * G^s * ... of
    bi-degree (a/k, b/k) forms over GF(q^k); such a product is never
    irreducible over the closure, and a GF(q)-irreducible form that is
    reducible over the closure is such a norm. Cached per cell."""
    key = (id(field), a, b, k)
    if key in _NORM_CACHE:
        return _NORM_CACHE[key]
    q = field.order
    L = extension_field(field, k)
    norms = set()
    for G in _proj_forms(L, a // k, b // k):
        N = G
        H = G
        for _ in range(k - 1):
            H = BiPoly._raw(L, H.a, H.b, _frob_rows(L, H.rows, q))
            N = N * H
        norms.add(_canonical_scale(N).rows)
    _NORM_CACHE[key] = frozenset(norms)
    return _NORM_CACHE[key]


# Most projective candidates the divisor cells of one form, or one of its
# conjugate-norm cells, may hold.
FACTOR_SEARCH_BUDGET = 1 << 22


def _divisor_cells(F):
    """The bi-degrees (a2,b2) of F's proper divisors up to total degree
    (a+b)//2, in scan order: ascending total degree, then lexicographic.
    Raises Infeasible, before any divisor is tried, when their candidates
    exceed FACTOR_SEARCH_BUDGET."""
    a, b = F.a, F.b
    cells = sorted(
        ((a2, b2) for a2 in range(a + 1) for b2 in range(b + 1) if 0 < a2 + b2 <= (a + b) // 2),
        key=lambda cell: (cell[0] + cell[1], cell),
    )
    q = F.field.order
    total = sum(projective_count(q, (a2 + 1) * (b2 + 1)) for a2, b2 in cells)
    if total > FACTOR_SEARCH_BUDGET:
        raise Infeasible(
            f"{total} division candidates exceed the budget {FACTOR_SEARCH_BUDGET}"
        )
    return cells


def _first_factor(F, cells):
    """First candidate G of the given cells, each in census order, that
    divides F, or None."""
    for a2, b2 in cells:
        for G in _proj_forms(F.field, a2, b2):
            if divides(G, F) is not None:
                return G
    return None


def find_factor(F):
    """Least proper GF(q)-factor of F in the fixed scan order (ascending
    total degree, then lexicographic cell order), or None."""
    return _first_factor(F, _divisor_cells(F))


def _is_conjugate_norm(F):
    """Whether F is, up to scalar, a norm G * G^s * ... over GF(q^k) for
    some k >= 2 dividing gcd(a,b). A GF(q)-irreducible F is reducible over
    the closure exactly when this holds. Raises Infeasible, before any norm
    is formed, when one of those cells exceeds FACTOR_SEARCH_BUDGET."""
    a, b = F.a, F.b
    g = int_gcd(a, b)
    degrees = [k for k in range(2, g + 1) if g % k == 0]
    if any(
        projective_count(F.field.order**k, (a // k + 1) * (b // k + 1)) > FACTOR_SEARCH_BUDGET
        for k in degrees
    ):
        raise Infeasible("conjugate search exceeds the budget")
    canon = _canonical_scale(F).rows
    return any(canon in conjugate_norms(F.field, a, b, k) for k in degrees)


def is_abs_irreducible(F, method="auto", cert=None):
    """True iff F is irreducible over the algebraic closure.

    method "A" is route A, the smoothness shortcut: F has both bi-degree
    entries positive and is certified Smooth. It abstains (Infeasible)
    otherwise. cert, when given, is F's smoothness certificate already
    taken, and route A reads it; otherwise route A certifies F itself,
    and only when both entries are positive. method "B" scans every
    divisor cell, then checks conjugate norms. "auto" runs both, cheapest
    first: the divisor cells of total degree at most 2, then A, then the
    remaining cells, then the conjugate-norm check. When the divisor cells
    exceed FACTOR_SEARCH_BUDGET, "auto" is A alone. Both routes are sound,
    so the order changes the cost and never the verdict: a reducible form
    with both bi-degree entries positive is never certified smooth.
    """
    if F.is_zero():
        raise ZeroPolynomial("the zero polynomial is not a curve")
    if method not in ("auto", "A", "B"):
        raise BadParameters(f"unknown method {method!r}")

    def route_a():
        if F.a < 1 or F.b < 1:
            return False
        return (cert if cert is not None else certify_smooth(F)).verdict == "Smooth"

    if method == "A":
        if route_a():
            return IrreducibilityResult(True, "A")
        raise Infeasible("smoothness shortcut cannot decide this form")
    try:
        cells = _divisor_cells(F)
    except Infeasible:
        if method == "auto" and route_a():
            return IrreducibilityResult(True, "A")
        raise
    if method == "auto":
        small = [cell for cell in cells if cell[0] + cell[1] <= 2]
        if _first_factor(F, small) is not None:
            return IrreducibilityResult(False, "B")
        if route_a():
            return IrreducibilityResult(True, "A")
        cells = cells[len(small):]
    if _first_factor(F, cells) is not None:
        return IrreducibilityResult(False, "B")
    return IrreducibilityResult(not _is_conjugate_norm(F), "B")
