import pytest
from hypothesis import given
from hypothesis import strategies as st

from bifill.bipoly import BiPoly, parse_bipoly
from bifill.errors import BidegreeTooSmall, NotFilling, ZeroPolynomial
from bifill.families import construct
from bifill.filling import decompose, frobenius_forms, is_filling
from bifill.gf import parse_field_spec


def field(q):
    return parse_field_spec(f"q={q}")


# -- the two ruling-union forms --------------------------------------------------

def test_frobenius_forms_text_gf2(gf2):
    KX, KY = frobenius_forms(gf2)
    assert KX.text() == "X0^2*X1 + X0*X1^2"
    assert KY.text() == "Y0^2*Y1 + Y0*Y1^2"


def test_frobenius_forms_text_gf3(gf3):
    KX, KY = frobenius_forms(gf3)
    assert KX.text() == "X0^3*X1 + 2*X0*X1^3"
    assert KY == KX.transpose()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_frobenius_forms_fill(q):
    KX, KY = frobenius_forms(field(q))
    assert KX.bidegree == (q + 1, 0)
    assert KY.bidegree == (0, q + 1)
    assert is_filling(KX)
    assert is_filling(KY)


# -- the filling predicate -------------------------------------------------------

def test_is_filling_checks_every_rational_pair(gf2):
    # X0*Y0 misses ((1:1),(1:1)) among others
    assert not is_filling(parse_bipoly("X0*Y0", gf2))
    with pytest.raises(ZeroPolynomial):
        is_filling(BiPoly.zero(gf2, 1, 1))


def test_is_filling_on_a_fiber_product(gf3):
    KX, KY = frobenius_forms(gf3)
    assert is_filling(KX * KY)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_constructed_curves_fill(q):
    F = construct(q)
    assert is_filling(F)


# -- splitting along the rulings -------------------------------------------------

def combo(K, q, a, b, pick):
    """A*kx + B*ky for coefficient matrices drawn by pick(i, j)."""
    KX, KY = frobenius_forms(K)
    A = BiPoly(K, a - q - 1, b, [[pick(i, j) for j in range(b + 1)] for i in range(a - q)])
    B = BiPoly(K, a, b - q - 1, [[pick(i + 7, j + 3) for j in range(b - q)] for i in range(a + 1)])
    return A * KX + B * KY


@pytest.mark.parametrize("q,a,b", [(2, 3, 3), (2, 4, 3), (3, 4, 4)])
def test_decompose_recombines_combinations(q, a, b):
    K = field(q)
    F = combo(K, q, a, b, lambda i, j: (3 * i + 5 * j + 1) % K.order)
    if F.is_zero():
        pytest.skip("degenerate draw")
    D = decompose(F)
    assert D.verify(F)
    assert D.recombine() == F


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_decompose_constructed_curves(q):
    F = construct(q)
    D = decompose(F)
    q1 = q + 1
    assert D.verify(F)
    assert D.f.bidegree == (F.a - q1, F.b)
    assert D.g.bidegree == (F.a, F.b - q1)
    KX, KY = frobenius_forms(F.field)
    assert D.kx == KX
    assert D.ky == KY


def test_decompose_rejects_non_filling(gf2):
    with pytest.raises(NotFilling):
        decompose(parse_bipoly("X0^3*Y0^3", gf2))


def test_decompose_rejects_thin_bidegree(gf2):
    _, KY = frobenius_forms(gf2)
    with pytest.raises(BidegreeTooSmall):
        decompose(KY)  # filling but bi-degree (0,3) cannot split


@given(seed=st.integers(0, 10**6))
def test_decompose_round_trip_random_combos(seed):
    import random

    rng = random.Random(seed)
    K = field(2)
    F = combo(K, 2, 4, 3, lambda i, j: rng.randrange(2))
    if F.is_zero():
        return
    assert decompose(F).verify(F)

