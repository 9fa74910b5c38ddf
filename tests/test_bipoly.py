import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from _oracles import (
    PointPair,
    ProjPoint,
    eval_bipoly,
    homogenize,
    linear_divides,
    newton_interp,
    power_table_eval,
    resultant_every_node,
    sylvester_resultant,
)
from bifill import bipoly
from bifill.bipoly import (
    CHARTS,
    BiPoly,
    divides,
    parse_bipoly,
    resultant_elim,
)
from bifill.errors import (
    BadCoefficient,
    MixedBidegree,
    ParseError,
    ZeroDivisor,
)
from bifill.gf import UniPoly, extension_field, parse_field_spec


def field(q):
    return parse_field_spec(f"q={q}")


@st.composite
def bipolys(draw, orders=(2, 3, 5), max_deg=3):
    K = field(draw(st.sampled_from(orders)))
    a = draw(st.integers(0, max_deg))
    b = draw(st.integers(0, max_deg))
    rows = [
        [draw(st.integers(0, K.order - 1)) for _ in range(b + 1)]
        for _ in range(a + 1)
    ]
    return BiPoly(K, a, b, rows)


# -- parsing and printing ------------------------------------------------------

def test_canonical_text_examples(gf2, gf3, gf4):
    assert parse_bipoly("X0^2*X1 + X0*X1^2", gf2).text() == "X0^2*X1 + X0*X1^2"
    assert parse_bipoly("X0^3*X1 + 2*X0*X1^3", gf3).text() == "X0^3*X1 + 2*X0*X1^3"
    F = parse_bipoly("[0,1]*X0*Y0 + [1,1]*X1*Y1", gf4)
    assert F.text() == "[0,1]*X0*Y0 + [1,1]*X1*Y1"


def test_text_omits_units_and_one_exponents(gf3):
    F = parse_bipoly("1*X0^1*Y0^1", gf3)
    assert F.text() == "X0*Y0"
    assert parse_bipoly("2", gf3).text() == "2"
    assert BiPoly.zero(gf3, 0, 0).text() == "0"


def test_minus_and_zero_term_conveniences(gf3):
    assert parse_bipoly("X0^2 - X1^2", gf3) == parse_bipoly("X0^2 + 2*X1^2", gf3)
    assert parse_bipoly("X0 + 0*X1", gf3) == parse_bipoly("X0 + 2*X1 + X1", gf3)


def test_integer_literals_reduce_mod_p(gf3):
    assert parse_bipoly("7*X0", gf3) == parse_bipoly("X0", gf3)
    assert parse_bipoly("7*X0", gf3).bidegree == (1, 0)


@given(F=bipolys())
def test_parse_print_round_trip(F):
    if F.is_zero():
        return
    assert parse_bipoly(F.text(), F.field) == F


def test_parse_error_carries_position(gf2):
    with pytest.raises(ParseError) as err:
        parse_bipoly("X0*Y0 ++ X1*Y1", gf2)
    assert err.value.position == 7
    with pytest.raises(ParseError):
        parse_bipoly("", gf2)
    with pytest.raises(ParseError):
        parse_bipoly("X2", gf2)


def test_mixed_bidegree_rejected(gf2):
    with pytest.raises(MixedBidegree):
        parse_bipoly("X0*Y0 + X1", gf2)


def test_bad_coefficient_digit_counts(gf4):
    with pytest.raises(BadCoefficient):
        parse_bipoly("[1]*X0", gf4)
    with pytest.raises(BadCoefficient):
        parse_bipoly("[1,1,0]*X0", gf4)
    with pytest.raises(BadCoefficient):
        parse_bipoly("[2,0]*X0", gf4)


# -- ring structure --------------------------------------------------------------

@given(F=bipolys(max_deg=2), G=bipolys(max_deg=2), H=bipolys(max_deg=2))
def test_ring_axioms(F, G, H):
    if not (F.field is G.field is H.field):
        return
    assert (F * G) * H == F * (G * H)
    assert F * G == G * F
    if F.bidegree == G.bidegree:
        assert F + G == G + F
        assert (F + G) * H == F * H + G * H


@given(F=bipolys())
def test_transpose_is_an_involution(F):
    assert F.transpose().transpose() == F
    assert F.transpose().bidegree == (F.b, F.a)


def test_transpose_swaps_variable_blocks(gf3):
    F = parse_bipoly("X0^2*Y1 + 2*X1^2*Y0", gf3)
    assert F.transpose() == parse_bipoly("Y0^2*X1 + 2*Y1^2*X0", gf3)


@given(F=bipolys())
def test_euler_identity_with_char_p_caveat(F):
    K = F.field
    a, b = F.bidegree
    x_side = BiPoly.monomial(K, 1, 0, 0, 0) * F.partial("X0") + BiPoly.monomial(
        K, 1, 0, 1, 0
    ) * F.partial("X1")
    y_side = BiPoly.monomial(K, 0, 1, 0, 0) * F.partial("Y0") + BiPoly.monomial(
        K, 0, 1, 0, 1
    ) * F.partial("Y1")
    # a depleted block leaves the recombination at bi-degree (1, b) resp.
    # (a, 1), so compare values only
    if a == 0:
        assert x_side.is_zero()
    else:
        assert x_side == F.scale(a % K.p)
    if b == 0:
        assert y_side.is_zero()
    else:
        assert y_side == F.scale(b % K.p)


def test_partial_keeps_other_degree(gf3):
    F = parse_bipoly("Y0^2 + Y1^2", gf3)
    assert F.partial("X0").bidegree == (0, 2)
    assert F.partial("X0").is_zero()
    assert F.partial("Y0").bidegree == (0, 1)


# -- charts ----------------------------------------------------------------------

@given(F=bipolys(), chart=st.sampled_from(CHARTS))
def test_dehomogenize_homogenize_round_trip(F, chart):
    aff = F.dehomogenize(chart)
    assert homogenize(aff, F.a, F.b, chart) == F


def test_dehomogenize_reverses_killed_indices(gf3):
    F = parse_bipoly("X0^2*Y0 + 2*X0*X1*Y1", gf3)
    aff = F.dehomogenize("X1Y0")  # X1 = Y0 = 1, X0 direction reversed
    # the chart polynomial at (x, y) is its form's value at (1:x; 1:y)
    assert aff.eval(1, 0, 1, 0) == F.eval(0, 1, 1, 0)
    assert aff.eval(1, 1, 1, 1) == F.eval(1, 1, 1, 1)


def test_dehomogenize_trims_to_the_least_bidegree(gf3, gf4):
    # a form with nonzero last row and column is its own X0Y0 chart
    F = parse_bipoly(
        "X0*X1^2*Y0^2*Y1 + 2*X1^3*Y1^3 + X0^3*Y0^3 + 2*X0^2*X1*Y0*Y1^2", gf3
    )
    assert F.dehomogenize("X0Y0") == F
    # x = X0, y = Y1: 1 + 2*x*y^2 read in chart X1Y0 of a (3,3) form
    G = parse_bipoly("X1^3*Y0^3 + 2*X0*X1^2*Y0*Y1^2", gf3)
    assert G.dehomogenize("X1Y0") == parse_bipoly("X0*Y0^2 + 2*X1*Y1^2", gf3)
    assert BiPoly.zero(gf4, 2, 3).dehomogenize("X1Y1") == BiPoly.zero(gf4, 0, 0)


# -- evaluation -------------------------------------------------------------------

def _eval_fields():
    # prime, extension and tower fields, in both characteristics
    return (field(2), field(3), field(9), field(16), extension_field(field(4), 2))


@st.composite
def forms_and_points(draw):
    K = draw(st.sampled_from(_eval_fields()))
    a = draw(st.integers(0, 4))
    b = draw(st.integers(0, 4))
    # 0 and 1 drawn often: sparse forms, and normalized, zero-containing
    # and even (0:0) coordinates next to unnormalized ones
    element = st.one_of(st.sampled_from((0, 1)), st.integers(0, K.order - 1))
    rows = [[draw(element) for _ in range(b + 1)] for _ in range(a + 1)]
    coords = draw(st.tuples(element, element, element, element))
    return BiPoly(K, a, b, rows), coords


@given(case=forms_and_points())
def test_eval_matches_the_power_table_oracle(case):
    F, coords = case
    assert F.eval(*coords) == power_table_eval(F, *coords)


def test_eval_bipoly_accepts_tuples_and_lifts(gf2):
    F = parse_bipoly("X0*Y0 + X1*Y1", gf2)
    E = extension_field(gf2, 2)
    assert eval_bipoly(F, (1, 1, 0, 1)) == 1
    pair = PointPair(ProjPoint(E, 1, 2), ProjPoint(E, 1, 3))
    assert eval_bipoly(F, pair) == E.add(1, E.mul(2, 3))


# -- divisibility ------------------------------------------------------------------

@given(G=bipolys(max_deg=2), H=bipolys(max_deg=2))
def test_divides_on_actual_products(G, H):
    if G.field is not H.field or G.is_zero() or H.is_zero():
        return
    F = G * H
    got = divides(G, F)
    assert got is not None
    assert G * got == F


def _blank(rows, blank):
    """Zero the last row, the last column or the corner of a coefficient
    matrix, in place, or nothing for "none"."""
    if blank == "corner":
        rows[-1][-1] = 0
    elif blank == "last row":
        rows[-1] = [0] * len(rows[-1])
    elif blank == "last column":
        for r in rows:
            r[-1] = 0
    return rows


BLANKS = ("none", "corner", "last row", "last column")


@st.composite
def division_cases(draw):
    """(G, dividends): a nonzero G and, for it, a product G*H, a random
    form and the zero form of that product's bi-degree, and (unless G is
    constant) a random form below G in one bi-degree entry."""
    K = draw(st.sampled_from(
        (field(2), field(3), field(4), field(9), extension_field(field(4), 2))
    ))

    def form(a, b):
        element = st.integers(0, K.order - 1)
        return BiPoly(K, a, b, [[draw(element) for _ in range(b + 1)] for _ in range(a + 1)])

    G = form(draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    # a zero corner, last row or last column puts the pivot inside G's
    # matrix; a zero corner leaves terms right of the pivot column
    rows = _blank([list(r) for r in G.rows], draw(st.sampled_from(BLANKS)))
    G = BiPoly(K, G.a, G.b, rows)
    assume(not G.is_zero())
    ah, bh = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    F = form(G.a + ah, G.b + bh)
    dividends = [G * form(ah, bh), F, BiPoly.zero(K, F.a, F.b)]
    if G.a:
        dividends.append(form(G.a - 1, F.b))
    elif G.b:
        dividends.append(form(F.a, G.b - 1))
    return G, dividends


@given(case=division_cases())
def test_divides_matches_the_linear_solve(case):
    G, dividends = case
    assert divides(G, dividends[0]) is not None
    for F in dividends:
        assert divides(G, F) == linear_divides(G, F)


def test_divides_negative_and_zero_cases(gf2):
    kx = parse_bipoly("X0^2*X1 + X0*X1^2", gf2)
    assert divides(parse_bipoly("X0*X1", gf2), kx) is not None
    assert divides(parse_bipoly("Y0", gf2), kx) is None
    assert divides(parse_bipoly("X0^2 + X0*X1 + X1^2", gf2), kx) is None
    with pytest.raises(ZeroDivisor):
        divides(BiPoly.zero(gf2, 1, 1), kx)


def _random_form(rng, K, a, b, blank="none"):
    while True:
        rows = [[rng.randrange(K.order) for _ in range(b + 1)] for _ in range(a + 1)]
        if any(map(any, _blank(rows, blank))):
            return BiPoly(K, a, b, rows)


@pytest.mark.parametrize("blank", BLANKS)
@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_divides_rejects_every_near_miss_outside_the_window(q, blank):
    # the solve reads only the window F[ig..ig+ah][jg..jg+bh]; a change to
    # any other entry of a product must be caught by the check outside it
    K = field(q)
    rng = random.Random(1000 * q + len(blank))
    G = _random_form(rng, K, 2, 2, blank)
    H = _random_form(rng, K, 1, 2)
    F = G * H
    ig, jg = max((u, v) for u, row in enumerate(G.rows) for v, c in enumerate(row) if c)
    assert divides(G, F) == H
    outside = 0
    for r in range(F.a + 1):
        for s in range(F.b + 1):
            if ig <= r <= ig + H.a and jg <= s <= jg + H.b:
                continue
            outside += 1
            for c in range(1, q):
                near = F + BiPoly.monomial(K, F.a, F.b, r, s, c)
                assert divides(G, near) is None
                assert linear_divides(G, near) is None
    assert outside == (F.a + 1) * (F.b + 1) - (H.a + 1) * (H.b + 1)


def test_divides_forms_no_product(gf3, monkeypatch):
    G = parse_bipoly("X0*Y0 + 2*X1*Y1 + X0*Y1", gf3)
    H = parse_bipoly("X0^2*Y1 + X1^2*Y0 + 2*X0*X1*Y1", gf3)
    F = G * H
    miss = F + BiPoly.monomial(gf3, F.a, F.b, 0, 0, 1)

    def no_product(*args):
        raise AssertionError("divides formed a product")

    monkeypatch.setattr(bipoly, "_convolve", no_product)
    got = divides(G, F)
    assert got is not None
    assert divides(G, miss) is None
    monkeypatch.undo()
    assert G * got == F


# -- resultants ---------------------------------------------------------------------

def aff(text, K):
    return parse_bipoly(text, K).dehomogenize("X0Y0")


def chart(K, rows):
    """The chart polynomial whose matrix is rows, [i][j] on x^i y^j."""
    return BiPoly(K, len(rows) - 1, len(rows[0]) - 1, rows).dehomogenize("X0Y0")


def test_resultant_sign_oracles():
    K = field(7)
    # res_y(y^2 - x, y) = -x
    A = aff("X0*Y1^2 + 6*X1*Y0^2", K)
    B = aff("Y1", K)
    r = resultant_elim(A, B)
    assert list(r.coeffs) == [0, 6]
    # res_y(y - x, y - 2x) = a1*b0 - a0*b1 = -x
    A = aff("X0*Y1 + 6*X1*Y0", K)
    B = aff("X0*Y1 + 5*X1*Y0", K)
    r = resultant_elim(A, B)
    assert list(r.coeffs) == [0, 6]


@given(data=st.data())
def test_resultant_matches_literal_sylvester(data):
    K = field(data.draw(st.sampled_from([3, 5])))

    def rand_aff():
        dx = data.draw(st.integers(0, 2))
        dy = data.draw(st.integers(1, 2))
        rows = [
            [data.draw(st.integers(0, K.order - 1)) for _ in range(dy + 1)]
            for _ in range(dx + 1)
        ]
        return chart(K, rows)

    A, B = rand_aff(), rand_aff()
    if A.is_zero() or B.is_zero() or A.b < 1 or B.b < 1:
        return
    assert resultant_elim(A, B) == sylvester_resultant(A, B, "y")


@given(data=st.data())
def test_resultant_trims_zero_rows_and_columns(data):
    # a form padded with zero last rows and columns has the same X0Y0
    # chart, so the same resultant, as the padding-free one
    K = field(data.draw(st.sampled_from([2, 3, 4])))

    def padded():
        dx = data.draw(st.integers(0, 2))
        dy = data.draw(st.integers(0, 2))
        pa = data.draw(st.integers(0, 2))
        pb = data.draw(st.integers(0, 2))
        rows = [
            [data.draw(st.integers(0, K.order - 1)) for _ in range(dy + 1)] + [0] * pb
            for _ in range(dx + 1)
        ]
        rows += [[0] * (dy + pb + 1) for _ in range(pa)]
        return BiPoly(K, dx + pa, dy + pb, rows)

    A, B = padded(), padded()
    assume(not A.is_zero() and not B.is_zero())
    r = resultant_elim(A, B)
    assert r == resultant_elim(A.dehomogenize("X0Y0"), B.dehomogenize("X0Y0"))
    assert r == sylvester_resultant(A, B, "y")


@given(data=st.data())
def test_resultant_multiplicative(data):
    K = field(3)

    def rand_form(dy):
        dx = data.draw(st.integers(0, 1))
        rows = [
            [data.draw(st.integers(0, 2)) for _ in range(dy + 1)]
            for _ in range(dx + 1)
        ]
        return BiPoly(K, dx, dy, rows)

    F, G, H = rand_form(1), rand_form(1), rand_form(2)
    charts = [P.dehomogenize("X0Y0") for P in (F, G, H)]
    if any(P.is_zero() or P.b < 1 for P in charts):
        return
    f, g, h = charts
    lhs = resultant_elim((F * G).dehomogenize("X0Y0"), h)
    rhs = resultant_elim(f, h) * resultant_elim(g, h)
    assert lhs == rhs


def test_resultant_x_elimination_transposes(gf3):
    A = parse_bipoly("X0*X1*Y1 + X1^2*Y0", gf3).dehomogenize("X0Y0")
    B = parse_bipoly("X1^2*Y1 + X0^2*Y0", gf3).dehomogenize("X0Y0")
    At = BiPoly(A.field, A.b, A.a, zip(*A.rows))
    Bt = BiPoly(B.field, B.b, B.a, zip(*B.rows))
    assert (At, Bt) == (A.transpose(), B.transpose())
    assert resultant_elim(At, Bt) == sylvester_resultant(A, B, "x")


def _orbit_fields():
    # GF(2), GF(4), GF(9) and a tower; the tower cannot be extended
    # further, so its pairs keep x-degree <= 1 to fit the bound in GF(16)
    return [(field(2), 3), (field(4), 3), (field(9), 3),
            (extension_field(field(4), 2), 1)]


@given(data=st.data())
def test_resultant_orbits_match_every_node_and_sylvester(data):
    K, max_dx = data.draw(st.sampled_from(_orbit_fields()))

    def rand_aff():
        dx = data.draw(st.integers(0, max_dx))
        dy = data.draw(st.integers(1, 4))
        rows = [
            [data.draw(st.integers(0, K.order - 1)) for _ in range(dy + 1)]
            for _ in range(dx + 1)
        ]
        return chart(K, rows)

    A, B = rand_aff(), rand_aff()
    assume(not A.is_zero() and not B.is_zero() and A.b >= 1 and B.b >= 1)
    r = resultant_elim(A, B)
    assert r == resultant_every_node(A, B, "y")
    assert r == sylvester_resultant(A, B, "y")


# (y + x)(y + x^2 + 1) and (y + x)(x*y + 1) over GF(2)
COMMON = ([[0, 1, 1], [1, 1, 0], [0, 1, 0], [1, 0, 0]],
          [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


# rows[i][j] multiplies x^i y^j
@pytest.mark.parametrize("q,A_rows,B_rows", [
    # leading y-coefficients 1 + x + x^2 and x: L = GF(16) holds the
    # GF(4) orbit of roots of the first and the fixed point 0 of the second
    (2, [[1, 1], [0, 1], [0, 1], [1, 0]], [[1, 0], [0, 1], [1, 0]]),
    # over GF(3) the leading coefficient 1 + x^2 has its two roots in
    # L = GF(9), one bad orbit of size 2
    (3, [[2, 1], [1, 0], [0, 1]], [[2, 0, 1], [0, 1, 0]]),
    # a member constant in y
    (2, [[1], [1], [0], [1]], [[0, 1, 1], [1, 0, 1]]),
    (4, [[1, 2, 3], [0, 1, 0]], [[2], [3], [1]]),
    # a common factor: the resultant is zero
    (2, *COMMON),
])
def test_resultant_orbit_edge_cases(q, A_rows, B_rows):
    K = field(q)
    A, B = chart(K, A_rows), chart(K, B_rows)
    for var, (P, Q) in (("y", (A, B)), ("x", (A.transpose(), B.transpose()))):
        r = resultant_elim(P, Q)
        assert r == resultant_every_node(A, B, var)
        assert r == sylvester_resultant(A, B, var)


# one field per addition scheme: XOR (GF(32), GF(64/4)), mod p (GF(7)),
# a flat table (GF(9), GF(81/9), GF(125)) and Zech logarithms (GF(343),
# GF(729/9)); then the fields the benchmark's resultants interpolate in:
# GF(1331), GF(2197), GF(4096/16) and GF(1024)
INTERP_FIELDS = [(32, 1), (4, 3), (7, 1), (9, 1), (9, 2), (125, 1), (343, 1), (9, 3),
                 (1331, 1), (2197, 1), (16, 3), (1024, 1)]


@given(data=st.data())
def test_interpolation_kernel_matches_the_reference(data):
    q, m = data.draw(st.sampled_from(INTERP_FIELDS))
    L = extension_field(field(q), m)
    n = data.draw(st.integers(1, min(60, L.order)))
    xs = data.draw(st.lists(st.integers(0, L.order - 1), min_size=n, max_size=n, unique=True))
    if 0 not in xs and data.draw(st.booleans()):
        xs[data.draw(st.integers(0, n - 1))] = 0
    value = st.one_of(st.just(0), st.integers(0, L.order - 1))
    ys = data.draw(st.lists(value, min_size=n, max_size=n))
    assert bipoly._newton_interp(L, xs, ys) == newton_interp(L, xs, ys)


@pytest.mark.parametrize("q", [8, 9, 25])
def test_interpolation_through_every_element(q):
    L = field(q)
    rng = random.Random(q)
    xs = list(range(L.order))
    rng.shuffle(xs)
    low = UniPoly(L, [rng.randrange(L.order) for _ in range(4)])
    for ys in (
        [rng.randrange(L.order) for _ in xs],
        [rng.choice([0, 1, L.order - 1]) for _ in xs],
        [0] * L.order,
        [low.eval_at(x) for x in xs],  # the high divided differences vanish
    ):
        assert bipoly._newton_interp(L, xs, ys) == newton_interp(L, xs, ys)
    assert bipoly._newton_interp(L, xs, [low.eval_at(x) for x in xs]) == list(low.coeffs)


@pytest.mark.parametrize("q,m", [(32, 1), (343, 1), (16, 3)])
def test_interpolation_kernel_calls_no_field_arithmetic(q, m):
    L = extension_field(field(q), m)
    rng = random.Random(L.order)
    xs = [0] + rng.sample(range(1, L.order), 29)
    ys = [rng.choice([0, rng.randrange(L.order)]) for _ in xs]

    def refuse(*args):
        raise AssertionError("field arithmetic inside the interpolation kernel")

    saved = {name: L.__dict__.get(name) for name in ("add", "sub", "mul", "neg")}
    try:
        for name in saved:
            setattr(L, name, refuse)
        got = bipoly._newton_interp(L, xs, ys)
    finally:
        for name, method in saved.items():
            if method is None:
                delattr(L, name)
            else:
                setattr(L, name, method)
    assert got == newton_interp(L, xs, ys)


def test_resultant_of_common_factor_is_zero(gf2):
    A, B = (chart(gf2, rows) for rows in COMMON)
    assert resultant_elim(A, B).is_zero()
    assert resultant_elim(A.transpose(), B.transpose()).is_zero()


def test_resultant_takes_one_uni_resultant_per_orbit(gf2, monkeypatch):
    # degree 3 in x and in y on both sides: need = 19 nodes, so L = GF(32),
    # whose Frobenius orbits are {0}, {1} and six of size 5
    A = chart(gf2, [[1, 0, 1, 1], [0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]])
    B = chart(gf2, [[0, 1, 1, 1], [1, 0, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1]])
    need = A.b * B.a + B.b * A.a + 1
    assert need == 19
    calls = []
    inner = bipoly._uni_resultant

    def counting(a, b):
        calls.append(a.field.order)
        return inner(a, b)

    monkeypatch.setattr(bipoly, "_uni_resultant", counting)
    r = resultant_elim(A, B)
    assert set(calls) == {32}
    assert len(calls) <= math.ceil(need / 5) + 2
    monkeypatch.undo()
    assert r == sylvester_resultant(A, B, "y")


# -- chart columns --------------------------------------------------------------------

def test_y_coeffs_reads_the_chart_by_columns(gf3):
    P = parse_bipoly("X0*X1 + X1^2", gf3).dehomogenize("X0Y0")
    assert P.bidegree == (2, 0)
    assert [list(u.coeffs) for u in P.y_coeffs()] == [[0, 1, 1]]
    Q = parse_bipoly("X0*Y0*Y1 + 2*X0*Y1^2", gf3).dehomogenize("X0Y0")
    assert Q.bidegree == (0, 2)
    assert [list(u.coeffs) for u in Q.transpose().y_coeffs()] == [[0, 1, 2]]
    assert [list(u.coeffs) for u in Q.y_coeffs()] == [[], [1], [2]]
    assert [list(u.coeffs) for u in P.transpose().y_coeffs()] == [[], [1], [1]]
