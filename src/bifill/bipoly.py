"""Bi-homogeneous polynomials in (X0,X1;Y0,Y1) and their affine charts.

A form of bi-degree (a,b) is stored as an (a+1) x (b+1) matrix of element
indices; entry [i][j] multiplies X0^(a-i) X1^i Y0^(b-j) Y1^j. The zero
polynomial is representable at every declared bi-degree, and bi-homogeneity
is structural. Affine chart polynomials are read-only views of a form in
one chart, for the smoothness certificate and the resultants; their
matrices are trimmed so the declared degrees are the actual ones.

Text grammar:  poly := term ('+' term)*
               term := [coeff '*'] factor ('*' factor)*
               factor := var ['^' nat]        var := X0|X1|Y0|Y1
               coeff := nat | '[' nat (',' nat)* ']'
Whitespace is insignificant. A bare nat coefficient is the image of the
integer (reduced mod p); the bracket form lists polynomial-basis digits,
constant first, and must match the field degree exactly. As conveniences
beyond the grammar, '-' is accepted between terms and a bare coefficient
may stand as a (0,0)-degree term; canonical output uses neither.
"""

from __future__ import annotations

import re

from .errors import (
    BadCoefficient,
    BadShape,
    BidegreeMismatch,
    FieldMismatch,
    MixedBidegree,
    ParseError,
    ZeroDivisor,
    ZeroPolynomial,
)
from .gf import UniPoly, extension_field, frobenius_orbits

__all__ = [
    "BiPoly",
    "AffinePoly",
    "parse_bipoly",
    "divides",
    "resultant_elim",
]

CHARTS = ("X0Y0", "X0Y1", "X1Y0", "X1Y1")


class BiPoly:
    __slots__ = ("field", "a", "b", "rows")

    def __init__(self, field, a, b, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != a + 1 or any(len(r) != b + 1 for r in rows):
            raise BadShape(f"matrix shape does not match bi-degree ({a},{b})")
        for r in rows:
            for c in r:
                if not isinstance(c, int) or not 0 <= c < field.order:
                    raise BadShape(f"coefficient index {c!r} out of range")
        self.field = field
        self.a = a
        self.b = b
        self.rows = rows

    @classmethod
    def _raw(cls, field, a, b, rows):
        self = object.__new__(cls)
        self.field = field
        self.a = a
        self.b = b
        self.rows = rows
        return self

    @classmethod
    def zero(cls, field, a, b):
        return cls._raw(field, a, b, tuple((0,) * (b + 1) for _ in range(a + 1)))

    @classmethod
    def monomial(cls, field, a, b, i, j, c=1):
        """c * X0^(a-i) X1^i Y0^(b-j) Y1^j inside bi-degree (a,b)."""
        rows = [[0] * (b + 1) for _ in range(a + 1)]
        rows[i][j] = c
        return cls(field, a, b, rows)

    @property
    def bidegree(self):
        return (self.a, self.b)

    def is_zero(self):
        return all(c == 0 for r in self.rows for c in r)

    def __eq__(self, other):
        return (
            isinstance(other, BiPoly)
            and self.field is other.field
            and self.a == other.a
            and self.b == other.b
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((id(self.field), self.a, self.b, self.rows))

    def _check(self, other):
        if self.field is not other.field:
            raise FieldMismatch("forms over different fields")

    def __add__(self, other):
        self._check(other)
        if (self.a, self.b) != (other.a, other.b):
            raise BidegreeMismatch(f"{self.bidegree} vs {other.bidegree}")
        F = self.field
        rows = tuple(
            tuple(F.add(x, y) for x, y in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)
        )
        return BiPoly._raw(F, self.a, self.b, rows)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        F = self.field
        rows = tuple(tuple(F.neg(x) for x in r) for r in self.rows)
        return BiPoly._raw(F, self.a, self.b, rows)

    def scale(self, c):
        F = self.field
        rows = tuple(tuple(F.mul(x, c) for x in r) for r in self.rows)
        return BiPoly._raw(F, self.a, self.b, rows)

    def __mul__(self, other):
        self._check(other)
        rows = _convolve(self.field, self.rows, other.rows)
        return BiPoly._raw(
            self.field, self.a + other.a, self.b + other.b, tuple(map(tuple, rows))
        )

    def transpose(self):
        """Swap the roles of the X and Y variable blocks."""
        return BiPoly._raw(self.field, self.b, self.a, _transpose_rows(self.rows))

    # -- evaluation ----------------------------------------------------------

    def restrict(self, x0, x1):
        """Coefficients of the Y-form left after fixing the first component
        at (x0:x1); entry j multiplies Y0^(b-j) Y1^j. Any homogeneous
        coordinates are accepted, normalized or not."""
        return _restrict_rows(self.field, self.rows, x0, x1)

    def eval(self, x0, x1, y0, y1):
        """Value at raw coordinate indices over the owner field."""
        return binary_eval(self.field, self.restrict(x0, x1), y0, y1)

    # -- calculus ------------------------------------------------------------

    def partial(self, var):
        """Formal partial derivative; a depleted variable block yields the
        zero polynomial at the clamped bi-degree."""
        if var in ("Y0", "Y1"):
            return self.transpose().partial("X" + var[1]).transpose()
        F = self.field
        p = F.p
        a, b = self.a, self.b
        if var not in ("X0", "X1"):
            raise ValueError(f"unknown variable {var!r}")
        if a == 0:
            return BiPoly.zero(F, 0, b)
        if var == "X0":
            scaled = [(self.rows[i], a - i) for i in range(a)]
        else:
            scaled = [(self.rows[i + 1], i + 1) for i in range(a)]
        rows = tuple(tuple(F.mul(c, k % p) for c in row) for row, k in scaled)
        return BiPoly._raw(F, a - 1, b, rows)

    # -- charts --------------------------------------------------------------

    def dehomogenize(self, chart):
        """Affine polynomial with the two chart variables set to 1.

        Chart X0Y0 reads (x,y) = (X1, Y1); each killed index is reversed,
        so chart X1Y0 reads (x,y) = (X0, Y1), and so on.
        """
        return AffinePoly(self.field, _chart_rows(self.rows, self.a, self.b, chart))

    # -- text and JSON -------------------------------------------------------

    def text(self):
        a, b = self.a, self.b
        return _text(self.field, self.rows, lambda i, j: (
            _power("X0", a - i) + _power("X1", i) + _power("Y0", b - j) + _power("Y1", j)
        ))

    def to_json(self):
        return {
            "bidegree": [self.a, self.b],
            "coeffs": [list(r) for r in self.rows],
            "field": self.field.describe(),
        }

    def map_field(self, other):
        """The same form read over extension_field(self.field, m)."""
        self.field.check_lift(other)
        return BiPoly._raw(other, self.a, self.b, self.rows)

    def __repr__(self):
        return self.text()


def _power(var, k):
    """The factor var^k as a list of at most one string."""
    if k == 0:
        return []
    return [var if k == 1 else f"{var}^{k}"]


def _text(F, rows, factors):
    """Canonical text of a coefficient matrix: one term per nonzero entry
    [i][j], the coefficient (left out when it is 1 and a factor follows)
    times the strings of factors(i, j), joined by ' + '."""
    parts = []
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            if c == 0:
                continue
            fs = factors(i, j)
            if not fs:
                parts.append(F.text_of(c))
            elif c == 1:
                parts.append("*".join(fs))
            else:
                parts.append("*".join([F.text_of(c)] + fs))
    return " + ".join(parts) if parts else "0"


def _restrict_rows(F, rows, x0, x1):
    """Entry j of the sum over i of rows[i] * x0^(a-i) * x1^i, with
    a = len(rows) - 1: Horner in x1/x0, scaled back by x0^a."""
    a = len(rows) - 1
    if x0 == 0:
        if x1 == 1:
            return rows[a]
        s = F.pow_(x1, a)
        return [F.mul(c, s) for c in rows[a]]
    t = x1 if x0 == 1 else F.div(x1, x0)
    out = rows[a]
    for i in range(a - 1, -1, -1):
        out = [F.add(F.mul(c, t), r) for c, r in zip(out, rows[i])]
    if x0 == 1:
        return out
    s = F.pow_(x0, a)
    return [F.mul(c, s) for c in out]


def binary_eval(F, coeffs, y0, y1):
    """Value at (y0:y1) of the binary form whose entry j multiplies
    Y0^(n-j) Y1^j, n = len(coeffs) - 1; any homogeneous coordinates."""
    n = len(coeffs) - 1
    if y0 == 0:
        return coeffs[n] if y1 == 1 else F.mul(coeffs[n], F.pow_(y1, n))
    t = y1 if y0 == 1 else F.div(y1, y0)
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, t), c)
    return acc if y0 == 1 else F.mul(acc, F.pow_(y0, n))


def _convolve(F, rows1, rows2):
    """Coefficient matrix of the product of two polynomials held as 2-D
    coefficient matrices, entry [i][j] on bi-index (i, j)."""
    out = [
        [0] * (len(rows1[0]) + len(rows2[0]) - 1)
        for _ in range(len(rows1) + len(rows2) - 1)
    ]
    for i1, r1 in enumerate(rows1):
        for j1, c1 in enumerate(r1):
            if c1 == 0:
                continue
            for i2, r2 in enumerate(rows2):
                for j2, c2 in enumerate(r2):
                    if c2:
                        out[i1 + i2][j1 + j2] = F.add(
                            out[i1 + i2][j1 + j2], F.mul(c1, c2)
                        )
    return out


def _transpose_rows(rows):
    return tuple(zip(*rows))


def _chart_rows(rows, a, b, chart):
    """The (a+1) x (b+1) matrix of a form from its chart polynomial's rows,
    or back: each killed index is reversed. The map is its own inverse."""
    if chart not in CHARTS:
        raise ValueError(f"unknown chart {chart!r}")
    rev_i = chart[:2] == "X1"
    rev_j = chart[2:] == "Y1"
    out = [[0] * (b + 1) for _ in range(a + 1)]
    for i, row in enumerate(rows):
        ti = a - i if rev_i else i
        for j, c in enumerate(row):
            out[ti][b - j if rev_j else j] = c
    return out


class AffinePoly:
    """Read-only bivariate chart polynomial; [i][j] multiplies x^i y^j; the
    stored matrix is trimmed so deg_x, deg_y are exact (the zero polynomial
    is the 1 x 1 zero matrix). Certificates and resultants read it; all
    arithmetic happens on forms (BiPoly) and coefficients (UniPoly)."""

    __slots__ = ("field", "deg_x", "deg_y", "rows")

    def __init__(self, field, rows):
        rows = [list(r) for r in rows]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise BadShape("ragged coefficient matrix")
        while len(rows) > 1 and all(c == 0 for c in rows[-1]):
            rows.pop()
        w = len(rows[0])
        while w > 1 and all(r[w - 1] == 0 for r in rows):
            w -= 1
        rows = [r[:w] for r in rows]
        self.field = field
        self.deg_x = len(rows) - 1
        self.deg_y = w - 1
        self.rows = tuple(tuple(r) for r in rows)

    def is_zero(self):
        return self.deg_x == 0 and self.deg_y == 0 and self.rows[0][0] == 0

    def __eq__(self, other):
        return (
            isinstance(other, AffinePoly)
            and self.field is other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((id(self.field), self.rows))

    def transpose(self):
        """Swap the roles of x and y."""
        return AffinePoly(self.field, _transpose_rows(self.rows))

    def eval_at(self, x, y):
        F = self.field
        return binary_eval(F, _restrict_rows(F, self.rows, 1, x), 1, y)

    def y_coeffs(self):
        """Coefficients as polynomials in x: entry j is the x-polynomial
        multiplying y^j."""
        F = self.field
        return [
            UniPoly(F, [self.rows[i][j] for i in range(self.deg_x + 1)])
            for j in range(self.deg_y + 1)
        ]

    def as_unipoly(self):
        """The x-polynomial of a chart polynomial free of y."""
        if self.deg_y != 0:
            raise BadShape("polynomial still involves y")
        return UniPoly(self.field, [r[0] for r in self.rows])

    def text(self):
        return _text(self.field, self.rows, lambda i, j: _power("x", i) + _power("y", j))

    def __repr__(self):
        return self.text()


# -- parsing -------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<var>X0|X1|Y0|Y1)|(?P<nat>\d+)|(?P<lb>\[)|(?P<rb>\])"
    r"|(?P<op>[*^+,-]))"
)


def _tokenize(text):
    pos = 0
    out = []
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = n - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, field, textlen):
        self.toks = tokens
        self.k = 0
        self.field = field
        self.textlen = textlen

    def peek(self):
        return self.toks[self.k] if self.k < len(self.toks) else (None, None, self.textlen)

    def take(self):
        t = self.peek()
        self.k += 1
        return t

    def expect(self, kind, value=None):
        t = self.take()
        if t[0] != kind or (value is not None and t[1] != value):
            raise ParseError(f"expected {value or kind}", t[2])
        return t

    def parse(self):
        terms = [self.term(negate=False)]
        while True:
            kind, val, pos = self.peek()
            if kind is None:
                break
            if kind == "op" and val in "+-":
                self.take()
                terms.append(self.term(negate=(val == "-")))
            else:
                raise ParseError("expected '+' between terms", pos)
        return terms

    def term(self, negate):
        F = self.field
        coeff = 1
        exps = {"X0": 0, "X1": 0, "Y0": 0, "Y1": 0}
        kind, val, pos = self.peek()
        saw_any = False
        if kind == "nat" or kind == "lb":
            coeff = self.coefficient()
            saw_any = True
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                self.factor(exps)
                saw_any = True
            elif kind == "var":
                raise ParseError("missing '*' after coefficient", pos)
        else:
            self.factor(exps)
            saw_any = True
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                self.factor(exps)
            else:
                break
        if not saw_any:
            raise ParseError("empty term", pos)
        if negate:
            coeff = F.neg(coeff)
        return coeff, exps

    def coefficient(self):
        F = self.field
        kind, val, pos = self.take()
        if kind == "nat":
            return int(val) % F.p  # integer literals act through 1
        if kind == "lb":
            digits = []
            while True:
                t = self.take()
                if t[0] != "nat":
                    raise ParseError("expected digit inside coefficient", t[2])
                digits.append(int(t[1]))
                t = self.take()
                if t[0] == "rb":
                    break
                if not (t[0] == "op" and t[1] == ","):
                    raise ParseError("expected ',' or ']' in coefficient", t[2])
            if len(digits) != F.e or any(not 0 <= d < F.s for d in digits):
                raise BadCoefficient(
                    f"{digits} is not a digit vector for GF({F.order})"
                )
            return F.index_of(digits)
        raise ParseError("expected coefficient", pos)

    def factor(self, exps):
        t = self.take()
        if t[0] != "var":
            raise ParseError("expected variable", t[2])
        var = t[1]
        kind, val, pos = self.peek()
        exp = 1
        if kind == "op" and val == "^":
            self.take()
            t2 = self.expect("nat")
            exp = int(t2[1])
        exps[var] += exp


def parse_bipoly(text, field):
    """Parse polynomial text over the given field; all terms must share one
    bi-degree and like terms combine."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text", 0)
    terms = _Parser(tokens, field, len(text)).parse()
    bidegrees = {
        (e["X0"] + e["X1"], e["Y0"] + e["Y1"]) for _c, e in terms
    }
    if len(bidegrees) != 1:
        raise MixedBidegree(f"terms of bi-degrees {sorted(bidegrees)}")
    a, b = bidegrees.pop()
    F = field
    rows = [[0] * (b + 1) for _ in range(a + 1)]
    for c, e in terms:
        i, j = e["X1"], e["Y1"]
        rows[i][j] = F.add(rows[i][j], c)
    return BiPoly(field, a, b, rows)


# -- divisibility ---------------------------------------------------------------

def divides(G, F):
    """Exact cofactor H with G*H = F, or None, by 2-D division.

    The pivot is G's lexicographically last nonzero entry (ig, jg): the
    largest row index, then the largest column in that row. H[i][j] is read
    off F[i+ig][j+jg], less every other term of G times the H entry it
    meets there; that entry is later than (i, j) in row-major order, so
    solving H from its last entry back reads only entries already solved.
    The solve reads only the F entries of that shifted window, so H is
    returned only when G*H reproduces all of F (mul by a nonzero form is
    injective, so H is unique when it exists)."""
    if G.is_zero():
        raise ZeroDivisor("zero divisor")
    G._check(F)
    ah, bh = F.a - G.a, F.b - G.b
    if ah < 0 or bh < 0:
        return None
    K = F.field
    terms = [(u, v, c) for u, row in enumerate(G.rows) for v, c in enumerate(row) if c]
    ig, jg, lead = terms.pop()
    inv = K.inv(lead)
    H = [[0] * (bh + 1) for _ in range(ah + 1)]
    for i in range(ah, -1, -1):
        for j in range(bh, -1, -1):
            acc = F.rows[i + ig][j + jg]
            for u, v, c in terms:
                ii, jj = i + ig - u, j + jg - v
                if ii <= ah and 0 <= jj <= bh and H[ii][jj]:
                    acc = K.sub(acc, K.mul(c, H[ii][jj]))
            H[i][j] = K.mul(acc, inv)
    H = BiPoly._raw(K, ah, bh, tuple(map(tuple, H)))
    if G * H == F:
        return H
    return None


def row_reduce(K, mat):
    """Gauss-Jordan elimination in place over mat, a list of rows of
    element indices of equal length. Returns the pivot columns: row r of
    the result has a 1 at pivots[r] and 0 in every other pivot column, and
    rows past the last pivot are zero."""
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        sel = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        lead = mat[r]
        if lead[c] != 1:
            inv = K.inv(lead[c])
            lead = mat[r] = [K.mul(x, inv) for x in lead]
        for i in range(nrows):
            f = mat[i][c]
            if i != r and f != 0:
                mat[i] = [K.sub(x, K.mul(f, y)) for x, y in zip(mat[i], lead)]
        pivots.append(c)
        r += 1
    return pivots


# -- resultants -----------------------------------------------------------------

def _uni_resultant(a, b):
    """Exact Sylvester determinant of two univariate polynomials by the
    Euclidean recurrence, signs included."""
    L = a.field
    if a.is_zero() or b.is_zero():
        return 0
    res = 1
    while True:
        da, db = a.degree, b.degree
        if db == 0:
            return L.mul(res, L.pow_(b.coeffs[0], da))
        if da == 0:
            return L.mul(res, L.pow_(a.coeffs[0], db))
        if da < db:
            if (da * db) % 2 == 1:
                res = L.neg(res)
            a, b = b, a
            continue
        r = a % b
        if r.is_zero():
            return 0
        res = L.mul(res, L.pow_(b.lc(), da - r.degree))
        if (da * db) % 2 == 1:
            res = L.neg(res)
        a, b = b, r


def resultant_elim(A, B):
    """Resultant of two chart polynomials eliminating y: a univariate
    polynomial in x over the owner field. Transpose both to eliminate x.

    Computed as the exact Sylvester determinant by evaluation at enough
    points of an extension field L of the owner field K and interpolation
    back; specialization is valid at points where neither leading
    coefficient vanishes, and the interpolated coefficients land in K
    exactly.

    One resultant is taken per Frobenius orbit, as gf.frobenius_orbits
    lists them.  With q = |K| and sigma(x) = x^q, R = Res(A, B) lies in
    K[x], so R(sigma x) = sigma R(x); the leading coefficients also lie in
    K[x], so the set of points where one of them vanishes is sigma-closed.
    Each orbit x, x^q, x^(q^2), ... is therefore all good nodes or all bad
    ones, and its values are r, r^q, r^(q^2), ... from the single value r
    at its least element.
    """
    if A.is_zero() or B.is_zero():
        raise ZeroPolynomial("resultant of the zero polynomial")
    if A.field is not B.field:
        raise FieldMismatch("polynomials over different fields")
    K = A.field
    ca = A.y_coeffs()
    cb = B.y_coeffs()
    na, nb = A.deg_y, B.deg_y
    lca, lcb = ca[na], cb[nb]
    bound = na * B.deg_x + nb * A.deg_x
    need = bound + 1
    k = 1
    while K.order**k < need + lca.degree + lcb.degree:
        k += 1
    L = extension_field(K, k)
    ca_l = [p.map_field(L) for p in ca]
    cb_l = [p.map_field(L) for p in cb]
    q = K.order
    xs = []
    ys = []
    for orbit in frobenius_orbits(L, q):
        xi = orbit[0]
        if ca_l[na].eval_at(xi) == 0 or cb_l[nb].eval_at(xi) == 0:
            continue
        fa = UniPoly(L, [p.eval_at(xi) for p in ca_l])
        fb = UniPoly(L, [p.eval_at(xi) for p in cb_l])
        r = _uni_resultant(fa, fb)
        for x in orbit:
            xs.append(x)
            ys.append(r)
            r = L.pow_(r, q)
        if len(xs) >= need:
            break
    if len(xs) < need:
        raise AssertionError("extension field too small for interpolation")
    coeffs = _newton_interp(L, xs[:need], ys[:need])
    if any(c >= K.order for c in coeffs):
        raise AssertionError("resultant coefficient escaped the owner field")
    return UniPoly(K, coeffs)


def _newton_interp(L, xs, ys):
    """Coefficient list (constant first) of the polynomial of least degree
    through the points (xs[i], ys[i]), the xs distinct: divided differences,
    then Horner's rule from the Newton form to the monomial basis (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 5).

    Both run on logarithms, with the tables of L.zech() (see Field.zech):
    a difference is la + zsub[lb - la], a product la + lb, a quotient
    la - lb, and a read of norm takes each back into range, zero included.
    So every step is list reads and integer arithmetic, with no field call
    and no branch on zero, and the same code serves every characteristic."""
    zsub, norm, zero = L.zech()
    log, exp = L._log, L._exp
    unit = L.order - 1
    n = len(xs)
    X = [log[x] if x else zero for x in xs]
    D = [log[y] if y else zero for y in ys]
    for j in range(1, n):
        # D[i] <- (D[i] - D[i-1]) / (x_i - x_{i-j}), holding the old D[i-1]
        prev = D[j - 1]
        for i in range(j, n):
            cur = D[i]
            x = X[i]
            D[i] = norm[cur + zsub[prev - cur] - norm[x + zsub[X[i - j] - x]]]
            prev = cur
    # C <- C*(t - x_k) + D[k], that is C[d] <- C[d-1] - x_k*C[d]
    C = [zero] * n
    C[0] = D[n - 1]
    for k in range(n - 2, -1, -1):
        xk = X[k] + unit  # norm reads a product shifted by unit
        top = n - 1 - k
        high = C[top] = C[top - 1]  # the old C[top] is 0
        for d in range(top - 1, 0, -1):
            low = C[d - 1]
            C[d] = norm[low + zsub[norm[high + xk] - low]]
            high = low
        low = D[k]
        C[0] = norm[low + zsub[norm[high + xk] - low]]
    coeffs = [exp[c] if c != zero else 0 for c in C]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
