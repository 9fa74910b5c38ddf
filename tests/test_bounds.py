from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import fiber_union
from bifill.bounds import (
    BoundReport,
    check_attainment,
    segre_degree,
    space_curve_bound,
)
from bifill.analysis import is_abs_irreducible
from bifill.errors import BadParameters, Infeasible
from bifill.families import construct
from bifill.filling import frobenius_forms


# -- the degree-d space curve bound ----------------------------------------------

def test_bound_frozen_values():
    assert space_curve_bound(2, 3, 7) == 9
    assert space_curve_bound(2, 3, 6) == 8
    assert space_curve_bound(3, 3, 8) == 17
    assert space_curve_bound(4, 3, 10) == 31
    assert space_curve_bound(5, 3, 12) == 49
    assert space_curve_bound(2, 3, 0) == 0


@given(
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
    r=st.integers(2, 4),
    d=st.integers(0, 60),
)
def test_bound_matches_exact_fraction(q, r, d):
    num = (q - 1) * (q ** (r + 1) - 1) * d
    den = q * (q**r - 1) - r * (q - 1)
    assert space_curve_bound(q, r, d) == Fraction(num, den).__floor__()


@given(
    q=st.sampled_from([2, 3, 4, 5]),
    r=st.integers(2, 4),
    d=st.integers(0, 59),
)
def test_bound_nondecreasing_in_degree(q, r, d):
    assert space_curve_bound(q, r, d) <= space_curve_bound(q, r, d + 1)


@pytest.mark.parametrize("q,r,d", [(6, 3, 5), (1, 3, 5), (2, 1, 5), (2, 3, -1)])
def test_bound_rejects_bad_parameters(q, r, d):
    with pytest.raises(BadParameters):
        space_curve_bound(q, r, d)


# -- image degree under the Segre embedding --------------------------------------

def test_segre_degree():
    assert segre_degree(4, 3) == 7
    assert segre_degree(4, 4) == 8
    assert segre_degree(0, 3) == 3
    with pytest.raises(BadParameters):
        segre_degree(0, 0)


# -- attainment reports ----------------------------------------------------------

def _verdict(F):
    # the irreducibility verdict check_attainment reports; None when undecided
    try:
        return is_abs_irreducible(F).irreducible
    except Infeasible:
        return None


def test_quartic_attains_the_bound(gf2):
    F = construct(2)
    rep = check_attainment(F, _verdict(F))
    assert rep == BoundReport(
        q=2, r=3, d=7, bound=9, observed=9, attained=True, hypotheses_met=True
    )


def test_square_family_misses_the_bound(gf3):
    F = construct(3)
    rep = check_attainment(F, _verdict(F))
    assert (rep.bound, rep.observed) == (17, 16)
    assert not rep.attained
    assert rep.hypotheses_met is True


def test_undecidable_hypotheses_become_none(gf5):
    KX, KY = frobenius_forms(gf5)
    F = KX * KY
    rep = check_attainment(F, _verdict(F))
    assert rep.hypotheses_met is None
    assert (rep.observed, rep.bound) == (36, 49)
    assert not rep.attained


def test_reducible_baseline_reported(gf2):
    F = fiber_union(2)
    rep = check_attainment(F, _verdict(F))
    assert rep.hypotheses_met is False
    assert (rep.d, rep.bound, rep.observed) == (3, 4, 9)
    assert not rep.attained


def test_explicit_verdict_skips_recomputation(gf5):
    KX, KY = frobenius_forms(gf5)
    rep = check_attainment(KX * KY, irreducible=False)
    assert rep.hypotheses_met is False
