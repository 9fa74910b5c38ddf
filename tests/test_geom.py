import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from _oracles import (
    PointPair,
    ProjPoint,
    brute_point_count,
    common_zeros,
    enum_p1,
    fiber_forms,
    rational_pairs,
    singular_points,
)
from bifill import geom, gf
from bifill.bipoly import BiPoly, parse_bipoly
from bifill.errors import BadParameters, FieldMismatch, Infeasible, ZeroPolynomial
from bifill.families import construct
from bifill.filling import frobenius_forms
from bifill.geom import (
    count_points,
    projective_count,
    projective_index,
    projective_vectors,
)
from bifill.gf import parse_field_spec


def field(q):
    return parse_field_spec(f"q={q}")


# -- projective points -----------------------------------------------------------

def test_projpoint_normalizes_leading_coordinate(gf5):
    assert ProjPoint(gf5, 2, 4).coords() == (1, 2)
    assert ProjPoint(gf5, 0, 3).coords() == (0, 1)
    assert ProjPoint(gf5, 4, 0).coords() == (1, 0)


def test_projpoint_rejects_zero_vector(gf5):
    with pytest.raises(BadParameters):
        ProjPoint(gf5, 0, 0)


def test_projpoint_scaling_invariance(gf5):
    for c in range(1, 5):
        assert ProjPoint(gf5, c, gf5.mul(c, 3)) == ProjPoint(gf5, 1, 3)


def test_enum_p1_order_gf2(gf2):
    assert [P.coords() for P in enum_p1(gf2)] == [(1, 0), (1, 1), (0, 1)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_enum_p1_size_and_distinctness(q):
    pts = enum_p1(field(q))
    assert len(pts) == q + 1
    assert len(set(pts)) == q + 1
    assert pts[-1].is_infinity()


@pytest.mark.parametrize("s,n", [(2, 1), (2, 4), (3, 3), (4, 3), (5, 2), (3, 0)])
def test_projective_vectors_start_anywhere(s, n):
    full = list(projective_vectors(s, n))
    assert len(full) == projective_count(s, n)
    assert [projective_index(v, s) for v in full] == list(range(len(full)))
    for start in range(len(full) + 2):
        assert list(projective_vectors(s, n, start)) == full[start:]


# -- rational pairs and rulings --------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rational_pairs_count(q):
    pairs = rational_pairs(field(q))
    assert len(pairs) == (q + 1) ** 2
    assert len(set(pairs)) == (q + 1) ** 2


def test_fiber_forms_partition_the_pairs(gf3):
    forms = fiber_forms(gf3, axis="x")
    assert len(forms) == 4
    assert all(G.bidegree == (1, 0) for G in forms)
    for pair in rational_pairs(gf3):
        vanishing = [G for G in forms if count_on_pair(G, pair)]
        assert len(vanishing) == 1


def test_fiber_forms_y_axis_bidegree(gf3):
    assert all(G.bidegree == (0, 1) for G in fiber_forms(gf3, axis="y"))


def count_on_pair(G, pair):
    K = G.field
    u0, u1 = pair.first.coords()
    v0, v1 = pair.second.coords()
    total = 0
    for i in range(G.a + 1):
        for j in range(G.b + 1):
            t = G.rows[i][j]
            t = K.mul(t, K.pow_(u0, G.a - i))
            t = K.mul(t, K.pow_(u1, i))
            t = K.mul(t, K.pow_(v0, G.b - j))
            t = K.mul(t, K.pow_(v1, j))
            total = K.add(total, t)
    return total == 0


# -- point counting --------------------------------------------------------------

@pytest.mark.parametrize(
    "text,q,m",
    [
        ("X0*Y0 + X1*Y1", 2, 1),
        ("X0*Y0 + X1*Y1", 2, 2),
        ("X0^2*Y1 + X1^2*Y0", 3, 1),
        ("X0^2*Y1 + X1^2*Y0", 3, 2),
        ("X0^2*X1*Y0 + X0*X1^2*Y1", 2, 2),
    ],
)
def test_count_points_matches_brute_enumeration(text, q, m):
    F = parse_bipoly(text, field(q))
    assert count_points(F, m) == brute_point_count(F, m)


# (q, m): every extension of GF(2), GF(3), GF(4) and GF(9) with at most 81
# elements, the towers GF(16/4), GF(64/4) and GF(81/9) among them
COUNT_FIELDS = [(2, m) for m in range(1, 7)] + [(3, m) for m in range(1, 5)] + [
    (4, 1), (4, 2), (4, 3), (9, 1), (9, 2),
]


@st.composite
def counted_forms(draw):
    """A nonzero form and an extension degree. Squares give fibers with
    repeated roots, a ruling factor a whole vanishing fiber, a Y0 factor
    the root (0:1); the plain forms include Y-degree 0 and 1."""
    q, m = draw(st.sampled_from(COUNT_FIELDS))
    K = field(q)
    a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rows = [[draw(st.integers(0, q - 1)) for _ in range(b + 1)] for _ in range(a + 1)]
    G = BiPoly(K, a, b, rows)
    assume(not G.is_zero())
    shape = draw(st.sampled_from(["plain", "square", "ruling", "Y0"]))
    if shape == "square":
        G = G * G
    elif shape == "ruling":
        G = G * fiber_forms(K)[draw(st.integers(0, q))]
    elif shape == "Y0":
        G = G * parse_bipoly("Y0", K)
    return G, m


@given(case=counted_forms())
def test_count_points_matches_brute_enumeration_on_random_forms(case):
    F, m = case
    assert count_points(F, m) == brute_point_count(F, m)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_ruling_union_count(q, m):
    # the first-component-rational locus has (q+1)(q^m+1) points over the
    # degree-m extension
    K = field(q)
    KX, _ = frobenius_forms(K)
    assert count_points(KX, m) == (q + 1) * (q**m + 1)


@pytest.mark.parametrize("q,m,points,gcds", [(2, 10, 1099, 109), (3, 6, 784, 131)])
def test_count_points_takes_one_fiber_gcd_per_orbit(monkeypatch, q, m, points, gcds):
    # Frobenius orbits on GF(1024) over GF(2): 108; on GF(729) over GF(3):
    # 130; plus the fiber at (0:1)
    calls = []
    inner = geom.unipoly_linear_part

    def counting(f):
        calls.append(f.field.order)
        return inner(f)

    monkeypatch.setattr(geom, "unipoly_linear_part", counting)
    assert count_points(construct(q), m) == points
    assert len(calls) == gcds
    assert set(calls) == {q**m}


def test_count_points_rejects_the_zero_form(gf2):
    with pytest.raises(ZeroPolynomial):
        count_points(BiPoly.zero(gf2, 1, 1), 1)


def test_point_budget_makes_enumeration_infeasible(monkeypatch, gf2):
    monkeypatch.setattr(geom, "POINT_BUDGET", 8)
    F = construct(2)
    with pytest.raises(Infeasible, match=r"\(2\+1\)\^2 points exceed the enumeration budget 8"):
        count_points(F)
    with pytest.raises(Infeasible):
        common_zeros([F])


def test_point_budget_is_checked_before_any_field_is_built(monkeypatch):
    F = construct(2)
    G = parse_bipoly("X0*Y0 + X1*Y1", field(101))
    built = []
    init = gf.Field.__init__

    def counting_init(self, *args):
        built.append(args[:2])
        init(self, *args)

    monkeypatch.setattr(gf.Field, "__init__", counting_init)
    with pytest.raises(Infeasible, match=r"\(16384\+1\)\^2 points exceed"):
        count_points(F, 14)
    with pytest.raises(Infeasible, match=r"\(10201\+1\)\^2 points exceed"):
        singular_points(G, 2)
    assert built == []


def test_pointpair_field_mismatch_rejected(gf2, gf3):
    with pytest.raises(FieldMismatch):
        PointPair(enum_p1(gf2)[0], enum_p1(gf3)[0])
