"""Rational points of P1 and P1xP1, the quadric embedding into P3, and
point counting by fiber roots for curves.

Points are kept normalized: a P1 point is (1:t) or (0:1), so membership
checks and prints are canonical. Point counting restricts the form one
ruling at a time and counts the distinct roots of each univariate
restriction.
"""

from __future__ import annotations

import itertools

from .bipoly import BiPoly
from .errors import BadParameters, FieldMismatch, Infeasible, ZeroPolynomial
from .gf import UniPoly, extension_field, unipoly_linear_part

__all__ = [
    "ProjPoint",
    "PointPair",
    "P3Point",
    "enum_p1",
    "rational_pairs",
    "fiber_forms",
    "segre",
    "count_points",
]


class ProjPoint:
    """A point of P1, normalized to (1:t) or (0:1)."""

    __slots__ = ("field", "u0", "u1")

    def __init__(self, field, u0, u1):
        if u0 == 0 and u1 == 0:
            raise BadParameters("(0:0) is not a projective point")
        if u0 != 0:
            u1 = field.div(u1, u0)
            u0 = 1
        else:
            u1 = 1
        self.field = field
        self.u0 = u0
        self.u1 = u1

    @classmethod
    def affine(cls, field, t):
        return cls(field, 1, t)

    @classmethod
    def infinity(cls, field):
        return cls(field, 0, 1)

    def is_infinity(self):
        return self.u0 == 0

    def coords(self):
        return (self.u0, self.u1)

    def text(self):
        F = self.field
        return f"({F.text_of(self.u0)}:{F.text_of(self.u1)})"

    def __eq__(self, other):
        return (
            isinstance(other, ProjPoint)
            and self.field is other.field
            and self.u0 == other.u0
            and self.u1 == other.u1
        )

    def __hash__(self):
        return hash((id(self.field), self.u0, self.u1))

    def __repr__(self):
        return self.text()


class PointPair:
    """A point of P1xP1 with both components over one field."""

    __slots__ = ("field", "first", "second")

    def __init__(self, first, second):
        if first.field is not second.field:
            raise FieldMismatch("components over different fields")
        self.field = first.field
        self.first = first
        self.second = second

    def coords(self):
        return self.first.coords() + self.second.coords()

    def text(self):
        return f"{self.first.text()}x{self.second.text()}"

    def __eq__(self, other):
        return (
            isinstance(other, PointPair)
            and self.first == other.first
            and self.second == other.second
        )

    def __hash__(self):
        return hash((self.first, self.second))

    def __repr__(self):
        return self.text()


class P3Point:
    """A point of P3 with the first nonzero coordinate scaled to 1."""

    __slots__ = ("field", "t")

    def __init__(self, field, coords):
        t = tuple(coords)
        if len(t) != 4:
            raise BadParameters("P3 point needs 4 coordinates")
        lead = next((c for c in t if c != 0), None)
        if lead is None:
            raise BadParameters("(0:0:0:0) is not a projective point")
        if lead != 1:
            s = field.inv(lead)
            t = tuple(field.mul(c, s) for c in t)
        self.field = field
        self.t = t

    def coords(self):
        return self.t

    def text(self):
        F = self.field
        return "(" + ":".join(F.text_of(c) for c in self.t) + ")"

    def __eq__(self, other):
        return (
            isinstance(other, P3Point)
            and self.field is other.field
            and self.t == other.t
        )

    def __hash__(self):
        return hash((id(self.field), self.t))

    def __repr__(self):
        return self.text()


def enum_p1(field):
    """All |field|+1 points: (1:t) in element enumeration order, then (0:1)."""
    pts = [ProjPoint.affine(field, t) for t in range(field.order)]
    pts.append(ProjPoint.infinity(field))
    return tuple(pts)


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


def rational_pairs(field):
    """All (|field|+1)^2 points of P1xP1, row-major in enum_p1 order."""
    pts = enum_p1(field)
    return tuple(PointPair(P, Q) for P in pts for Q in pts)


def fiber_forms(field, axis="x"):
    """The |field|+1 ruling forms: for axis 'x', the bi-degree (1,0) form
    u1*X0 - u0*X1 vanishing exactly where the first component is (u0:u1)."""
    out = []
    for P in enum_p1(field):
        u0, u1 = P.coords()
        rows = [[u1], [field.neg(u0)]]
        G = BiPoly(field, 1, 0, rows)
        out.append(G if axis == "x" else G.transpose())
    return tuple(out)


def segre(pair):
    """Image (u0*v0 : u0*v1 : u1*v0 : u1*v1) on the quadric T0*T3 = T1*T2."""
    F = pair.field
    u0, u1 = pair.first.coords()
    v0, v1 = pair.second.coords()
    return P3Point(
        F, (F.mul(u0, v0), F.mul(u0, v1), F.mul(u1, v0), F.mul(u1, v1))
    )


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
    """
    if F.is_zero():
        raise ZeroPolynomial("the zero polynomial does not define a curve")
    if m < 1:
        raise BadParameters("extension degree must be >= 1")
    L = enumerable_extension(F.field, m)
    G = F.map_field(L)
    total = 0
    for P in enum_p1(L):
        coeffs = G.restrict(*P.coords())
        if not any(coeffs):
            total += L.order + 1
            continue
        if coeffs[-1] == 0:
            total += 1
        total += unipoly_linear_part(UniPoly(L, coeffs)).degree
    return total
