import dataclasses

import pytest

from _oracles import fiber_forms, fiber_union
from bifill.bipoly import divides, parse_bipoly
from bifill.errors import FieldMismatch, NotPrime, SetupViolation, UnsupportedQ
from bifill.families import (
    construct,
    pair_curve,
    pick_params,
)
from bifill.filling import frobenius_forms, is_filling
from bifill.gf import parse_field_spec


def field(q):
    return parse_field_spec(f"q={q}")


# -- parameter selection ---------------------------------------------------------

def test_pick_params_frozen_choices():
    assert (pick_params(5).delta, pick_params(5).gamma) == (2, 3)
    assert (pick_params(4).delta, pick_params(4).gamma) == (2, 3)
    assert (pick_params(8).delta, pick_params(8).gamma) == (1, 2)
    assert (pick_params(9).delta, pick_params(9).gamma) == (4, 5)


@pytest.mark.parametrize("q", [5, 7, 9, 11])
def test_odd_params_are_distinct_nonsquare_negations(q):
    K = field(q)
    P = pick_params(q)
    assert P.variant == "odd"
    squares = {K.mul(t, t) for t in range(K.order)}
    assert K.neg(P.delta) not in squares
    assert K.neg(P.gamma) not in squares
    assert P.delta != P.gamma


@pytest.mark.parametrize("q", [4, 8, 16])
def test_even_params_avoid_artin_schreier_image(q):
    K = field(q)
    P = pick_params(q)
    assert P.variant == "even"
    image = {K.add(t, K.mul(t, t)) for t in range(K.order)}
    assert P.delta not in image
    assert P.gamma not in image
    assert P.delta != P.gamma


@pytest.mark.parametrize("q", [2, 3])
def test_pick_params_refuses_bespoke_fields(q):
    with pytest.raises(UnsupportedQ):
        pick_params(q)


def test_family_params_is_frozen():
    P = pick_params(5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.delta = None


# -- curve construction ----------------------------------------------------------

@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_construct_bidegree_square(q):
    assert construct(q).bidegree == (q + 1, q + 1)


def test_construct_quartic_bidegree(gf2):
    assert construct(2).bidegree == (4, 3)
    assert construct(2, transposed=True) == construct(2).transpose()


def test_construct_transposed():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        assert construct(q, transposed=True) == construct(q).transpose()


def test_construct_rejects_non_prime_power():
    with pytest.raises(NotPrime):
        construct(6)


def test_pair_curve_field_mismatch(gf3, gf5):
    f = parse_bipoly("Y0^4 + Y1^4", gf3)
    g = parse_bipoly("X0^6 + 3*X1^6", gf5)
    with pytest.raises(FieldMismatch):
        pair_curve(f, g)


def test_pair_curve_gates_on_setup(gf5):
    f = parse_bipoly("Y0^6 + 4*Y1^6", gf5)  # -4 is a square
    g = parse_bipoly("X0^6 + 3*X1^6", gf5)
    with pytest.raises(SetupViolation):
        pair_curve(f, g)
    KX, KY = frobenius_forms(gf5)
    assert (f * KX + g * KY).bidegree == (6, 6)


# -- the reducible baseline ------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fiber_union_is_the_product_of_fibers(q):
    K = field(q)
    U = fiber_union(q)
    assert U.bidegree == (0, q + 1)
    assert is_filling(U)
    prod = None
    for G in fiber_forms(K, axis="y"):
        prod = G if prod is None else prod * G
        assert divides(G, U) is not None
    assert prod == U
