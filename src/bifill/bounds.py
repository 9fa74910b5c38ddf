"""Point-count bound for nondegenerate irreducible space curves, and the
bookkeeping that connects it to curves on P1 x P1 via their degree-(a+b)
image in P3.

The bound itself,

    N <= floor( (q-1) * (q^(r+1)-1) * d / (q*(q^r-1) - r*(q-1)) ),

applies to irreducible nondegenerate curves of degree d in P^r over GF(q).
check_attainment compares it (at r = 3) against the rational point count of
a bi-homogeneous form.  The bound's hypotheses are not re-proved here:
reducible forms can and do exceed it, so the report carries an explicit
hypotheses_met field (irreducibility as established by the certifier;
smooth curves of bi-degree >= (1,1) are taken to be nondegenerate in P3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BadParameters
from .geom import count_points
from .gf import prime_power


@dataclass(frozen=True)
class BoundReport:
    q: int
    r: int
    d: int
    bound: int
    observed: Optional[int] = None
    attained: Optional[bool] = None
    hypotheses_met: Optional[bool] = None


def space_curve_bound(q, r, d):
    """floor((q-1)(q^(r+1)-1)d / (q(q^r-1) - r(q-1))), in exact integer
    arithmetic."""
    if prime_power(q) is None:
        raise BadParameters(f"q={q} is not a prime power")
    if r < 2:
        raise BadParameters(f"need r >= 2, got {r}")
    if d < 0:
        raise BadParameters(f"need d >= 0, got {d}")
    den = q * (q**r - 1) - r * (q - 1)
    if den <= 0:
        raise BadParameters(f"denominator {den} not positive at q={q}, r={r}")
    return (q - 1) * (q ** (r + 1) - 1) * d // den


def segre_degree(a, b):
    """Degree in P3 of the image of a bi-degree (a,b) curve under the
    product embedding."""
    if a < 0 or b < 0 or (a, b) == (0, 0):
        raise BadParameters(f"bad bi-degree ({a},{b})")
    return a + b


def check_attainment(F, irreducible):
    """Compare F's rational point count against the r=3 bound at its image
    degree.

    irreducible: the absolute-irreducibility verdict, reported as
    hypotheses_met; None means undecided.  attained=True is only meaningful
    when hypotheses_met is True: reducible curves are outside the bound's
    scope."""
    a, b = F.bidegree
    q = F.field.order
    d = segre_degree(a, b)
    bound = space_curve_bound(q, 3, d)
    observed = count_points(F, 1)
    return BoundReport(
        q=q,
        r=3,
        d=d,
        bound=bound,
        observed=observed,
        attained=observed == bound,
        hypotheses_met=irreducible,
    )
