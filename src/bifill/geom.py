"""Projective enumeration and point counting by fiber roots for curves.

A point of P^(n-1) over the field of order s is a tuple of element indices
with first nonzero coordinate 1, numbered in one fixed counting order: the
census walks its candidates and the divisor search its cells in that
order. Point counting restricts the form to fibers over P1(L) and counts
the distinct roots of each univariate restriction: one fiber (1:t) per
orbit of Frobenius t -> t^q, q the order of the form's field, weighted by
the orbit's size, and then (0:1). Frobenius fixes the form's coefficients,
so it maps the points of a fiber one to one onto the next fiber of the
orbit, and a count takes about |L|/m gcds instead of |L| + 1.
"""

from __future__ import annotations

import itertools

from .errors import BadParameters, Infeasible, ZeroPolynomial
from .gf import UniPoly, extension_field, frobenius_orbits, unipoly_linear_part

__all__ = ["count_points"]


def projective_count(s, n):
    """Number of points of P^(n-1) over the field of order s."""
    return (s**n - 1) // (s - 1)


def projective_vectors(s, n, start=0):
    """Points of P^(n-1) over the field of order s, as tuples of element
    indices with first nonzero coordinate 1, from number start on: the
    leading 1 runs left to right, and behind it the remaining coordinates
    count up base s with the last one fastest."""
    for lead in range(n):
        m = n - lead - 1
        if start >= s**m:
            start -= s**m
            continue
        digits = []
        for _ in range(m):
            start, d = divmod(start, s)
            digits.append(d)
        first = (0,) * lead + (1,) + tuple(reversed(digits))
        yield first
        # count on from first: raise one position, then run every position
        # behind it through all values
        for pos in range(n - 1, lead, -1):
            for x in range(first[pos] + 1, s):
                head = first[:pos] + (x,)
                for rest in itertools.product(range(s), repeat=n - pos - 1):
                    yield head + rest


def projective_index(v, s):
    """Number of v in projective_vectors(s, len(v)), the inverse of that
    order; v has first nonzero coordinate 1."""
    n = len(v)
    lead = next(i for i, x in enumerate(v) if x)
    offset = 0
    for x in v[lead + 1:]:
        offset = offset * s + x
    return projective_count(s, n) - projective_count(s, n - lead) + offset


# Most points of P1xP1 one enumeration may visit. It also bounds the field a
# count may use, though a count visits only the fibers, and a count over too
# large a field raises the same Infeasible text.
POINT_BUDGET = 10**8


def enumerable_extension(field, m):
    """The degree-m extension of field, or Infeasible when its P1xP1 has
    more than POINT_BUDGET points."""
    order = field.order**m
    if (order + 1) ** 2 > POINT_BUDGET:
        raise Infeasible(
            f"({order}+1)^2 points exceed the enumeration budget {POINT_BUDGET}"
        )
    return extension_field(field, m)


def count_points(F, m=1):
    """Rational point count of the zero set over the degree-m extension L,
    fiber by fiber over the first component. A fiber where the restriction
    vanishes holds all |L|+1 points. Otherwise it holds (0:1) when the top
    coefficient is zero, plus deg gcd(g, t^|L| - t) affine points, g the
    restriction at Y0 = 1: t^|L| - t is the squarefree product of t - a
    over a in L, so that degree is the number of distinct roots of g in L.

    Only the least fiber (1:t) of each Frobenius orbit is counted, times
    the orbit's size. That is exact: with q = |K| for the form's field K,
    sigma(t) = t^q fixes K, so (x, y) -> (sigma x, sigma y) maps the points
    over (1:t) one to one onto those over (1:sigma t). About |L|/m gcds
    are taken in all, plus the one at (0:1).
    """
    if F.is_zero():
        raise ZeroPolynomial("the zero polynomial does not define a curve")
    if m < 1:
        raise BadParameters("extension degree must be >= 1")
    L = enumerable_extension(F.field, m)
    G = F.map_field(L)
    fibers = [(1, orbit[0], len(orbit)) for orbit in frobenius_orbits(L, F.field.order)]
    total = 0
    for u0, u1, size in fibers + [(0, 1, 1)]:
        coeffs = G.restrict(u0, u1)
        if not any(coeffs):
            total += size * (L.order + 1)
            continue
        points = unipoly_linear_part(UniPoly(L, coeffs)).degree
        if coeffs[-1] == 0:
            points += 1
        total += size * points
    return total
