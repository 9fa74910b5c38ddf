"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths under test: field sums
add digit by digit in the base field, forms are evaluated from power tables
of all four coordinates, point counts enumerate raw coordinate tuples, ranks
come from a local row reduction over a prime field, cofactors from the
linear system of G*H = F solved by a local Gauss-Jordan elimination, and
resultants from fraction-free elimination on the literal Sylvester matrix.
Seven oracles are the exception and keep a former algorithm instead: the
census classifier's runs method B in full and method A only when B is over
budget, and auto_a_then_b runs method A before any of method B, to check
that is_abs_irreducible's "auto" order gives every verdict and method
unchanged; resultant_every_node evaluates at every good node rather than
once per Frobenius orbit, sharing bifill's univariate resultant and
interpolating with newton_interp, the interpolation kernel as it was before
it read the log tables inline; certify_smooth_four_charts walks all four
affine charts by resultants, sharing certify_smooth's chart step, where
certify_smooth takes one chart and reads the two lines it misses by gcds;
canonical_modulus_scan runs Rabin's test on every candidate modulus, with
no root pre-filter; exp_table_by_products finds the generator and builds
the exp table with one _mul_raw product per power, as Field._build_mul did
before it read a linear map.

The slow enumerators and fixtures that once lived in the package are the
other exception, and share package code as noted: common_zeros, and
singular_points through it, restrict each form with BiPoly.restrict and
evaluate the restriction with bipoly.binary_eval; witness_point finds its
first coordinate with the certificate's own splitting-field root and
checks the point with BiPoly.eval, which eval_bipoly also calls;
homogenize inverts dehomogenize through the same chart map;
binary_form_ok is validate_setup's former per-form test, which also checks
the reversed polynomial and evaluates at every rational point.
"""

import itertools

from bifill.analysis import (
    SmoothCertificate,
    _certify_chart,
    _chart_members,
    _require_ruling_shapes,
    _root_in_splitting_field,
    is_abs_irreducible,
    jacobian_system,
)
from bifill.bipoly import (
    CHARTS,
    BiPoly,
    _chart_rows,
    _uni_resultant,
    binary_eval,
)
from bifill.errors import (
    BadParameters,
    BidegreeMismatch,
    FieldMismatch,
    Infeasible,
    ZeroPolynomial,
)
from bifill.filling import frobenius_forms
from bifill.geom import enumerable_extension
from bifill.gf import (
    UniPoly,
    _prime_factors,
    extension_field,
    field_for,
    unipoly_factor,
    unipoly_gcd,
    unipoly_is_irreducible,
    unipoly_roots,
)

# The minimal curve over GF(2), spelled out once and frozen.  construct(2)
# and the parser must both reproduce it exactly.
T42 = (
    "X0^4*Y0^2*Y1 + X0^4*Y0*Y1^2 + X0^3*X1*Y0^3 + X0^2*X1^2*Y0^3 + "
    "X0^2*X1^2*Y0^2*Y1 + X0^2*X1^2*Y0*Y1^2 + X0^2*X1^2*Y1^3 + "
    "X0*X1^3*Y1^3 + X1^4*Y0^2*Y1 + X1^4*Y0*Y1^2"
)


def digit_add(K, a, b):
    """a + b in K digit by digit: unpack both indices base K.s, add each
    digit pair with the base field's add (mod p over the prime field) and
    pack the sums back.  Reads none of K's own tables."""
    s = K.s
    badd = K.base.add if K.base is not None else (lambda x, y: (x + y) % K.p)
    out = 0
    for k in range(K.e):
        out += badd(a // s**k % s, b // s**k % s) * s**k
    return out


def _powers(K, x, n):
    out = [1] * (n + 1)
    for k in range(1, n + 1):
        out[k] = K.mul(out[k - 1], x)
    return out


def power_table_eval(F, x0, x1, y0, y1):
    """Value of the form F at raw coordinate indices, term by term:
    the sum of c[i][j] * x0^(a-i) x1^i y0^(b-j) y1^j."""
    K = F.field
    a, b = F.a, F.b
    px0 = _powers(K, x0, a)
    px1 = _powers(K, x1, a)
    py0 = _powers(K, y0, b)
    py1 = _powers(K, y1, b)
    acc = 0
    for i, row in enumerate(F.rows):
        xf = K.mul(px0[a - i], px1[i])
        if xf == 0:
            continue
        rowacc = 0
        for j, c in enumerate(row):
            if c:
                rowacc = K.add(rowacc, K.mul(c, K.mul(py0[b - j], py1[j])))
        acc = K.add(acc, K.mul(xf, rowacc))
    return acc


def _rref(K, mat, ncols):
    """Gauss-Jordan elimination of mat in place over the field K; returns
    the pivot columns."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = K.inv(mat[r][c])
        mat[r] = [K.mul(x, inv) for x in mat[r]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                mat[i] = [K.sub(x, K.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return pivots


def linear_divides(G, F):
    """Cofactor H with G*H = F, or None, from the linear system in H's
    coefficients: one equation per entry of F, solved by _rref.  Every
    entry of F is an equation, so a consistent system is the cofactor."""
    K = F.field
    ah, bh = F.a - G.a, F.b - G.b
    if ah < 0 or bh < 0:
        return None
    n = (ah + 1) * (bh + 1)
    mat = []
    for fi in range(F.a + 1):
        for fj in range(F.b + 1):
            row = [0] * (n + 1)
            for hi in range(ah + 1):
                for hj in range(bh + 1):
                    if 0 <= fi - hi <= G.a and 0 <= fj - hj <= G.b:
                        row[hi * (bh + 1) + hj] = G.rows[fi - hi][fj - hj]
            row[n] = F.rows[fi][fj]
            mat.append(row)
    pivots = _rref(K, mat, n)
    if any(row[n] for row in mat[len(pivots):]):
        return None
    sol = [0] * n
    for row, c in zip(mat, pivots):
        sol[c] = row[n]
    return BiPoly(K, ah, bh, [sol[i * (bh + 1):(i + 1) * (bh + 1)] for i in range(ah + 1)])


def filling_kernel_rows(K, a, b):
    """Reduced row echelon basis, as flat row-major coefficient lists, of
    the kernel of the matrix evaluating every bi-degree (a,b) monomial at
    every rational pair of P1xP1 over K."""
    pts = [(1, t) for t in range(K.order)] + [(0, 1)]
    nc = (a + 1) * (b + 1)
    mat = []
    for u0, u1 in pts:
        pu0, pu1 = _powers(K, u0, a), _powers(K, u1, a)
        for v0, v1 in pts:
            pv0, pv1 = _powers(K, v0, b), _powers(K, v1, b)
            mat.append([
                K.mul(K.mul(pu0[a - i], pu1[i]), K.mul(pv0[b - j], pv1[j]))
                for i in range(a + 1) for j in range(b + 1)
            ])
    pivots = _rref(K, mat, nc)
    kernel = []
    for fc in (c for c in range(nc) if c not in pivots):
        v = [0] * nc
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = K.neg(mat[r][fc])
        kernel.append(v)
    _rref(K, kernel, nc)
    return kernel


def brute_point_count(F, m=1):
    """Projective pair count by enumerating affine coordinate 4-tuples and
    normalizing by hand."""
    E = extension_field(F.field, m)
    F = F.map_field(E)
    n = E.order

    def classes():
        pts = [(1, t) for t in range(n)] + [(0, 1)]
        return pts

    count = 0
    for u in classes():
        for v in classes():
            if power_table_eval(F, u[0], u[1], v[0], v[1]) == 0:
                count += 1
    return count


def rref_rank_mod_p(mat, p):
    """Rank of an integer matrix over GF(p), p prime."""
    rows = [[x % p for x in r] for r in mat]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _poly_det_bareiss(mat, K):
    """Determinant of a matrix of UniPoly entries by fraction-free
    elimination; all divisions are exact."""
    n = len(mat)
    m = [[e for e in row] for row in mat]
    one = UniPoly(K, [1])
    sign = 1
    prev = one
    for k in range(n - 1):
        if m[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if piv is None:
                return UniPoly(K, [])
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                quo, rem = num.divmod_poly(prev)
                # not an assert: pytest rewrites only test modules, -O would drop it
                if not rem.is_zero():
                    raise AssertionError("Bareiss step left a remainder")
                m[i][j] = quo
        prev = m[k][k]
    det = m[n - 1][n - 1]
    if sign < 0:
        det = UniPoly(K, [K.neg(c) for c in det.coeffs])
    return det


def sylvester_resultant(A, B, var="y"):
    """Resultant of two chart polynomials by the literal Sylvester
    determinant, eliminating var.  Returns a UniPoly in the surviving
    variable, or None when either input is zero."""
    K = A.field

    def coeff_lists(F):
        seq = list(F.y_coeffs() if var == "y" else F.transpose().y_coeffs())
        while seq and seq[-1].is_zero():
            seq.pop()
        return seq

    a = coeff_lists(A)
    b = coeff_lists(B)
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0:
        return None
    if da == 0 and db == 0:
        return UniPoly(K, [1])
    n = da + db
    zero = UniPoly(K, [])
    mat = []
    for i in range(db):
        row = [zero] * n
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        mat.append(row)
    for i in range(da):
        row = [zero] * n
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        mat.append(row)
    return _poly_det_bareiss(mat, K)


def resultant_every_node(A, B, var):
    """resultant_elim as it was before the orbit walk: evaluate both chart
    polynomials and take a univariate resultant at each of the first
    deg-bound + 1 elements of L where neither leading coefficient
    vanishes, then interpolate."""
    if var == "x":
        return resultant_every_node(A.transpose(), B.transpose(), "y")
    K = A.field
    ca, cb = A.y_coeffs(), B.y_coeffs()
    na, nb = A.b, B.b
    if na == 0 or nb == 0:
        base, n = (ca[0], nb) if na == 0 else (cb[0], na)
        out = UniPoly(K, (1,))
        for _ in range(n):
            out = out * base
        return out
    need = na * B.a + nb * A.a + 1
    k = 1
    while K.order**k < need + ca[na].degree + cb[nb].degree:
        k += 1
    L = extension_field(K, k)
    ca_l = [p.map_field(L) for p in ca]
    cb_l = [p.map_field(L) for p in cb]
    xs, ys = [], []
    for xi in range(L.order):
        if ca_l[na].eval_at(xi) == 0 or cb_l[nb].eval_at(xi) == 0:
            continue
        fa = UniPoly(L, [p.eval_at(xi) for p in ca_l])
        fb = UniPoly(L, [p.eval_at(xi) for p in cb_l])
        xs.append(xi)
        ys.append(_uni_resultant(fa, fb))
        if len(xs) == need:
            break
    return UniPoly(K, newton_interp(L, xs, ys))


def newton_interp(L, xs, ys):
    """Coefficient list (constant first) of the interpolating polynomial."""
    add, sub, mul, div = L.add, L.sub, L.mul, L.div
    n = len(xs)
    divided = list(ys)
    for j in range(1, n):
        # forward, holding the previous order-(j-1) difference
        prev = divided[j - 1]
        for i in range(j, n):
            cur = divided[i]
            divided[i] = div(sub(cur, prev), sub(xs[i], xs[i - j]))
            prev = cur
    # Horner expansion of the Newton form into monomial coefficients
    coeffs = [0] * n
    coeffs[0] = divided[n - 1]
    deg = 0
    for k in range(n - 2, -1, -1):
        # multiply by (t - xs[k]) then add divided[k]
        nxk = L.neg(xs[k])
        for d in range(deg + 1, 0, -1):
            coeffs[d] = add(coeffs[d - 1], mul(coeffs[d], nxk))
        coeffs[0] = mul(coeffs[0], nxk)
        deg += 1
        coeffs[0] = add(coeffs[0], divided[k])
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def exp_table_by_products(K):
    """(generator, [g^0, ..., g^(order-2)]) of K: the least element whose
    order is order - 1, and its powers, each the previous one times g by
    K._mul_raw (a UniPoly product reduced by the modulus)."""
    order = K.order
    if order == 2:
        g = 1
    else:
        n = order - 1
        checks = [n // r for r in _prime_factors(n)]
        g = None
        for cand in range(2, order):
            if all(K._pow_raw(cand, c) != 1 for c in checks):
                g = cand
                break
    exp = [1] * (order - 1)
    for i in range(1, order - 1):
        exp[i] = K._mul_raw(exp[i - 1], g)
    return g, exp


def canonical_modulus_scan(base, e):
    """The first monic irreducible of degree e over base, coefficient tuples
    constant digit first in lexicographic order, each decided by Rabin's
    test alone."""
    for tail in itertools.product(range(base.order), repeat=e):
        cand = tail + (1,)
        if unipoly_is_irreducible(UniPoly(base, cand)):
            return cand
    raise AssertionError("an irreducible of every degree exists")


def certify_smooth_four_charts(F):
    """certify_smooth's former walk: every affine chart in turn, each by
    resultants in orientation "y" and then "x", sharing the package's chart
    step; Inconclusive when any chart defeats both orientations and no
    chart finds a singular point."""
    if F.is_zero():
        raise ZeroPolynomial("the zero polynomial does not define a curve")
    K = F.field
    system = jacobian_system(F)
    trace = []
    inconclusive = False
    for chart in CHARTS:
        for orientation in ("y", "x"):
            members = _chart_members(system, chart, orientation)
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


def auto_a_then_b(F):
    """is_abs_irreducible(F) in its former "auto" order: method A, then
    method B in full, which raises Infeasible when it is over budget."""
    try:
        return is_abs_irreducible(F, method="A")
    except Infeasible:
        return is_abs_irreducible(F, method="B")


def classify_b_then_a(F):
    """Census verdict, 'irreducible', 'reducible' or 'unknown', from
    method B first and method A only when B exceeds its budget."""
    try:
        res = is_abs_irreducible(F, method="B")
        return "irreducible" if res.irreducible else "reducible"
    except Infeasible:
        pass
    try:
        is_abs_irreducible(F, method="A")
        return "irreducible"
    except Infeasible:
        return "unknown"


# -- points of P1 and P1xP1 ------------------------------------------------------

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


def enum_p1(field):
    """All |field|+1 points: (1:t) in element enumeration order, then (0:1)."""
    pts = [ProjPoint.affine(field, t) for t in range(field.order)]
    pts.append(ProjPoint.infinity(field))
    return tuple(pts)


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


def fiber_union(q):
    """The union of the q+1 rational horizontal fibers: filling, reducible,
    every component smooth.  Bi-degree (0, q+1)."""
    return frobenius_forms(field_for(q))[1]


def eval_bipoly(F, point):
    """Evaluate at a PointPair or a raw 4-tuple of coordinate indices.

    A PointPair over extension_field(F.field, m) lifts F to the pair's
    field, and one over any other field raises NotASubfield; a raw tuple is
    read over F.field. The result is an element index of that field.
    """
    if hasattr(point, "first"):
        return F.map_field(point.field).eval(*point.coords())
    return F.eval(*point)


def homogenize(aff, a, b, chart="X0Y0"):
    """Inverse of dehomogenize at a declared bi-degree (a,b): the chart
    polynomial's matrix padded with zeros to (a+1) x (b+1), then read back
    through the chart map."""
    if aff.a > a or aff.b > b:
        raise BidegreeMismatch(
            f"chart degrees ({aff.a},{aff.b}) exceed target ({a},{b})"
        )
    rows = [list(r) + [0] * (b - aff.b) for r in aff.rows]
    rows += [[0] * (b + 1) for _ in range(a - aff.a)]
    return BiPoly(aff.field, a, b, _chart_rows(rows, chart))


# -- exhaustive solving ----------------------------------------------------------

def common_zeros(forms, m=1):
    """All points of P1xP1 over the degree-m extension where every given
    form vanishes."""
    if not forms:
        raise BadParameters("empty system")
    L = enumerable_extension(forms[0].field, m)
    mapped = [f.map_field(L) for f in forms]
    pts = enum_p1(L)
    coords = [P.coords() for P in pts]
    out = set()
    for P, (x0, x1) in zip(pts, coords):
        rests = [G.restrict(x0, x1) for G in mapped]
        for Q, (y0, y1) in zip(pts, coords):
            if all(binary_eval(L, r, y0, y1) == 0 for r in rests):
                out.add(PointPair(P, Q))
    return out


def _min_subfield_degree(L, q, m, pair):
    """Smallest m' dividing m with all four coordinates fixed by the
    q^m'-power map."""
    coords = pair.coords()
    for mp in range(1, m):
        if m % mp:
            continue
        e = q**mp
        if all(L.pow_(c, e) == c for c in coords):
            return mp
    return m


def singular_points(F, m_max=1):
    """Singular points over GF(q^m) for all m <= m_max, each tagged with
    the minimal extension degree containing it."""
    if F.is_zero():
        raise ZeroPolynomial("the zero polynomial does not define a curve")
    if m_max < 1:
        raise BadParameters("extension bound must be >= 1")
    K = F.field
    system = jacobian_system(F)
    out = set()
    for m in range(1, m_max + 1):
        L = enumerable_extension(K, m)
        for pair in common_zeros(system, m):
            if _min_subfield_degree(L, K.order, m, pair) == m:
                out.add((pair, m))
    return out


# Largest field witness_point builds a singular point over.
WITNESS_ORDER_CAP = 6561


def witness_point(F, cert):
    """A concrete singular point rebuilt from a certificate: (pair, m)
    over the smallest field housing a root of the modulus and of the
    common divisor, or None when that field exceeds the supported tower
    height or WITNESS_ORDER_CAP."""
    if cert.verdict != "Singular":
        return None
    w = cert.witness
    K = F.field
    E, x0 = _root_in_splitting_field(K, w.modulus)
    roots = unipoly_roots(w.common, E)
    if roots:
        L, y0 = E, min(roots)
    else:
        factors = unipoly_factor(w.common)
        k = min(f.degree for f, _ in factors)
        mf = next(f for f, _ in factors if f.degree == k)
        if E.base is not None:
            return None  # would need a third tower layer
        if E.order**k > WITNESS_ORDER_CAP:
            return None
        L = extension_field(E, k)
        y0 = min(unipoly_roots(mf, L))
    if L.order > WITNESS_ORDER_CAP:
        return None
    if w.orientation == "x":
        x0, y0 = y0, x0
    chart = w.chart
    u = (1, x0) if chart[:2] == "X0" else (x0, 1)
    v = (1, y0) if chart[2:] == "Y0" else (y0, 1)
    pair = PointPair(ProjPoint(L, *u), ProjPoint(L, *v))
    degree = 1
    while K.order**degree < L.order:
        degree += 1
    for form in jacobian_system(F):
        G = form.map_field(L)
        if G.eval(*pair.coords()) != 0:
            return None
    return pair, degree


def reduced_system(f, g):
    """The four bi-degree (q,q) equations (e1, e2, e3, e4) equivalent to
    the five-form singularity system for a paired-ruling curve
    f*kx + g*ky."""
    _require_ruling_shapes(f, g)
    K = f.field
    q = K.order
    X0q = BiPoly.monomial(K, q, 0, 0, 0)
    X1q = BiPoly.monomial(K, q, 0, q, 0)
    Y0q = BiPoly.monomial(K, 0, q, 0, 0)
    Y1q = BiPoly.monomial(K, 0, q, 0, q)
    fy1 = f.partial("Y1")
    fy0 = f.partial("Y0")
    gx1 = g.partial("X1")
    gx0 = g.partial("X0")
    return (
        X0q * fy1 + Y0q * gx1,
        X0q * fy0 - Y1q * gx1,
        X1q * fy1 - Y0q * gx0,
        X1q * fy0 + Y1q * gx0,
    )


def binary_form_ok(K, coeffs):
    """validate_setup's former test of one ruling form, coefficients
    low-first in the inhomogeneous variable: both dehomogenizations
    squarefree, no zero at any rational t, and full degree q+1, so no zero
    at (0:1) either."""
    u = UniPoly(K, list(coeffs))
    w = UniPoly(K, list(reversed(coeffs)))
    for h in (u, w):
        d = h.derivative()
        if d.is_zero():
            if h.degree > 0:
                return False
            continue
        if unipoly_gcd(h, d).degree != 0:
            return False
    for t in range(K.order):
        if u.eval_at(t) == 0:
            return False
    return u.degree == K.order + 1
