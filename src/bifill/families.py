"""Explicit filling curves of minimal bi-degree over every small field.

The generic shape is ``F = f(Y0,Y1)*KX + g(X0,X1)*KY`` where KX, KY are the
rational-component forms of :func:`bifill.filling.frobenius_forms`: both
summands vanish at every rational pair, so F is filling by construction, and
the whole game is choosing f and g so that F is also smooth and irreducible.
Four variants cover all prime powers:

  odd   q odd, q >= 5:  f = Y0^{q+1} + d*Y1^{q+1},  g = X0^{q+1} + c*X1^{q+1}
                        with -d, -c distinct non-squares;
  even  q = 2^e >= 4:   f = Y0^{q+1} + Y0*Y1^q + d*Y1^{q+1} and the analogous
                        g, with d, c distinct and outside {u + u^2};
  q3    a fixed pair over GF(3) (the odd recipe needs two non-squares and
        GF(3) has only one);
  q2    bi-degree (q+1,q+1) = (3,3) is impossible over GF(2), so a dedicated
        (4,3) curve is assembled from four small factors instead.

``pick_params`` makes the d/c ("delta"/"gamma") choice deterministic: any
valid pair works, so we take the first two in enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analysis import validate_setup
from .bipoly import BiPoly, parse_bipoly
from .errors import FieldMismatch, SetupViolation, UnsupportedQ
from .filling import frobenius_forms
from .gf import field_for


@dataclass(frozen=True)
class FamilyParams:
    q: int
    variant: str  # "odd" | "even" | "q3" | "q2"
    delta: Optional[int] = None  # element indices of GF(q)
    gamma: Optional[int] = None


def pick_params(q):
    """First-in-enumeration-order admissible (delta, gamma) for the generic
    variants.  q = 2 and q = 3 have dedicated constructions and are rejected
    here."""
    if q in (2, 3):
        raise UnsupportedQ(f"q={q} uses a dedicated construction, not the generic family")
    K = field_for(q)
    elements = range(K.order)
    if K.p == 2:
        image = {K.add(u, K.mul(u, u)) for u in elements}
        pool = [c for c in elements if c not in image]
        variant = "even"
    else:
        squares = {K.mul(u, u) for u in elements}
        pool = [c for c in elements if K.neg(c) not in squares]
        variant = "odd"
    # |pool| = q/2 (even) or (q-1)/2 (odd), both >= 2 once q >= 4
    return FamilyParams(q=q, variant=variant, delta=pool[0], gamma=pool[1])


def pair_curve(f, g):
    """Assemble f*KX + g*KY from ruling forms f (bi-degree (0,q+1)) and
    g ((q+1,0)) that pass validate_setup: squarefree as binary forms and
    nonvanishing on the rational points."""
    if f.field is not g.field:
        raise FieldMismatch("ruling forms live over different fields")
    if not validate_setup(f, g):
        raise SetupViolation("ruling forms must be squarefree with no rational zeros")
    kx, ky = frobenius_forms(f.field)
    return f * kx + g * ky


def _ruling_pair(q):
    K = field_for(q)
    n = q + 1
    if q == 3:
        f = parse_bipoly("Y0^4 + Y1^4", K)
        g = parse_bipoly("X0^4 + X0*X1^3 + 2*X1^4", K)
        return f, g
    params = pick_params(q)
    f = BiPoly.monomial(K, 0, n, 0, 0) + BiPoly.monomial(K, 0, n, 0, n, params.delta)
    g = BiPoly.monomial(K, n, 0, 0, 0) + BiPoly.monomial(K, n, 0, n, 0, params.gamma)
    if params.variant == "even":
        f = f + BiPoly.monomial(K, 0, n, 0, q)
        g = g + BiPoly.monomial(K, n, 0, q, 0)
    return f, g


def construct(q, transposed=False):
    """A smooth absolutely irreducible filling curve over GF(q) of minimal
    bi-degree: (q+1,q+1) for q >= 3, (4,3) for q = 2.  transposed=True swaps
    the two ruling directions (bi-degree reversed)."""
    if q == 2:
        K = field_for(2)
        a = parse_bipoly("X0*Y0^3 + X1*Y1^3", K)
        b = parse_bipoly("X0^2*X1 + X0*X1^2", K)
        c = parse_bipoly("X0^2 + X0*X1 + X1^2", K)
        d = parse_bipoly("Y0^2*Y1 + Y0*Y1^2", K)
        F = a * b + c * c * d
    else:
        f, g = _ruling_pair(q)
        F = pair_curve(f, g)
    return F.transpose() if transposed else F

