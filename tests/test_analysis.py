import functools
import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    T42,
    auto_a_then_b,
    common_zeros,
    eval_bipoly,
    linear_divides,
    rational_pairs,
    reduced_system,
    singular_points,
    witness_point,
)
from bifill import analysis
from bifill.analysis import (
    FactorScan,
    _proj_forms,
    certify_smooth,
    conjugate_norms,
    find_factor,
    is_abs_irreducible,
    jacobian_system,
    validate_setup,
    verify_witness,
)
from bifill.bipoly import BiPoly, divides, parse_bipoly
from bifill.errors import Infeasible, SetupViolation
from bifill.families import _ruling_pair, construct, pair_curve
from bifill.filling import frobenius_forms, is_filling
from bifill.geom import projective_count
from bifill.gf import parse_field_spec
from bifill.search import candidate_poly, filling_space_basis


def field(q):
    return parse_field_spec(f"q={q}")


# -- smoothness certification ----------------------------------------------------

def test_certify_smooth_on_the_quartic(gf2):
    F = construct(2)
    assert F.text() == T42
    cert = certify_smooth(F)
    assert cert.verdict == "Smooth"
    assert cert.witness is None
    assert len(cert.trace) > 0


def test_certify_singular_fiber_product(gf2):
    KX, KY = frobenius_forms(gf2)
    F = KX * KY
    cert = certify_smooth(F)
    assert cert.verdict == "Singular"
    assert cert.witness is not None
    assert verify_witness(F, cert)


def test_witness_point_kills_the_jacobian(gf2):
    KX, KY = frobenius_forms(gf2)
    F = KX * KY
    cert = certify_smooth(F)
    point, m = witness_point(F, cert)
    assert m >= 1
    for form in jacobian_system(F):
        assert eval_bipoly(form, point) == 0


def test_singular_locus_of_fiber_product_is_the_rational_grid(gf2):
    KX, KY = frobenius_forms(gf2)
    tagged = singular_points(KX * KY, 1)
    assert {m for _, m in tagged} == {1}
    assert {p.text() for p, _ in tagged} == {
        pair.text() for pair in rational_pairs(gf2)
    }


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_constructed_curves_are_certified_smooth(q):
    assert certify_smooth(construct(q)).verdict == "Smooth"


# SHA-256 of the certificates of construct(q), traces included: the order in
# which each chart's pairs are eliminated and every resultant's degree
CONSTRUCT_CERTIFICATES_SHA256 = "9dd58c33a5f5de779791f568864f73b3000904859fbac30dd59836ad5a6b758f"


def test_construct_certificate_traces_are_pinned():
    doc = json.dumps(
        [certify_smooth(construct(q)).to_json() for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)],
        sort_keys=True,
    )
    assert hashlib.sha256(doc.encode()).hexdigest() == CONSTRUCT_CERTIFICATES_SHA256


# -- jacobian and reduced systems ------------------------------------------------

def test_jacobian_system_shapes(gf3):
    F = construct(3)
    forms = jacobian_system(F)
    assert len(forms) == 5
    assert forms[0] is F
    assert forms[1].bidegree == (F.a - 1, F.b)
    assert forms[3].bidegree == (F.a, F.b - 1)


def test_common_zeros_of_the_two_rulings(gf2):
    KX, KY = frobenius_forms(gf2)
    zeros = common_zeros([KX, KY], 1)
    assert {p.text() for p in zeros} == {pair.text() for pair in rational_pairs(gf2)}


def test_reduced_system_frozen_gf5():
    f, g = _ruling_pair(5)
    rs = reduced_system(f, g)
    assert rs[0].text() == "2*X0^5*Y1^5 + 3*X1^5*Y0^5"
    assert all(e.bidegree == (5, 5) for e in rs)


@pytest.mark.parametrize("q,m", [(5, 1), (5, 2), (4, 1), (4, 2), (3, 1), (3, 2)])
def test_reduced_system_matches_jacobian_zeros(q, m):
    f, g = _ruling_pair(q)
    F = pair_curve(f, g)
    rs = reduced_system(f, g)
    zj = common_zeros(jacobian_system(F), m)
    ze = common_zeros(rs, m)
    assert zj == ze
    assert zj == set()


# -- setup validation ------------------------------------------------------------

def test_validate_setup_accepts_constructed_pairs():
    for q in (3, 4, 5, 7):
        f, g = _ruling_pair(q)
        assert validate_setup(f, g)


def test_validate_setup_rejects_rational_vanishing(gf5):
    # -4 = 1 is a square, so Y0^6 + 4*Y1^6 vanishes at rational points
    f = parse_bipoly("Y0^6 + 4*Y1^6", gf5)
    g = parse_bipoly("X0^6 + 3*X1^6", gf5)
    assert not validate_setup(f, g)
    with pytest.raises(SetupViolation):
        pair_curve(f, g)


def test_validate_setup_rejects_repeated_factors(gf3):
    # (Y0^2 + Y1^2)^2 is nonvanishing on rational points but not squarefree
    f = parse_bipoly("Y0^4 + 2*Y0^2*Y1^2 + Y1^4", gf3)
    g = parse_bipoly("X0^4 + X1^4", gf3)
    assert not validate_setup(f, g)


def test_pair_curve_rejects_what_the_bare_sum_accepts(gf5):
    # Y0^6 - Y1^6 vanishes on rational points: pair_curve refuses the pair,
    # while the sum f*KX + g*KY itself is still a filling (6,6) form
    f = parse_bipoly("Y0^6 + 4*Y1^6", gf5)
    g = parse_bipoly("X0^6 + 4*X1^6", gf5)
    with pytest.raises(SetupViolation):
        pair_curve(f, g)
    KX, KY = frobenius_forms(gf5)
    F = f * KX + g * KY
    assert F.bidegree == (6, 6)
    assert is_filling(F)


# -- absolute irreducibility -----------------------------------------------------

def test_methods_agree_on_the_quartic(gf2):
    F = construct(2)
    ra = is_abs_irreducible(F, method="A")
    rb = is_abs_irreducible(F, method="B")
    assert ra.irreducible and ra.method == "A"
    assert rb.irreducible and rb.method == "B"


@pytest.mark.parametrize("q", [3, 4, 5])
def test_method_b_is_budgeted_on_larger_fields(q):
    # exhaustive division or norm scans blow the default budget; the honest
    # answer is Infeasible, not a guess
    with pytest.raises(Infeasible):
        is_abs_irreducible(construct(q), method="B")


@pytest.mark.parametrize("q", [3, 4, 5])
def test_method_a_certifies_constructed_curves(q):
    r = is_abs_irreducible(construct(q), method="A")
    assert r.irreducible and r.method == "A"


def test_norm_detects_conjugate_factorization(gf2):
    # X0^2 + X0*X1 + X1^2 is the GF(4)-norm of a linear form
    C = parse_bipoly("X0^2 + X0*X1 + X1^2", gf2)
    r = is_abs_irreducible(C, method="B")
    assert not r.irreducible
    assert r.method == "B"
    norms = conjugate_norms(gf2, 2, 0, 2)
    assert tuple(tuple(row) for row in C.rows) in norms


def test_find_factor_on_a_product(gf3):
    A = parse_bipoly("X0*Y0 + X1*Y1", gf3)
    B = parse_bipoly("X0*Y1 + 2*X1*Y0", gf3)
    G = find_factor(A * B)
    assert G is not None
    assert divides(G, A * B) is not None


def test_find_factor_none_on_constructed_curve(gf3):
    assert find_factor(construct(3)) is None


def _first_linear_divisor(F):
    # the scan order written out: cells of total degree 1 to (a+b)//2,
    # ascending total degree, then lexicographic; each cell in census order
    a, b = F.bidegree
    cells = sorted(
        ((a2, b2) for a2 in range(a + 1) for b2 in range(b + 1)
         if 0 < a2 + b2 <= (a + b) // 2),
        key=lambda cell: (sum(cell), cell),
    )
    for a2, b2 in cells:
        for G in _proj_forms(F.field, a2, b2):
            if linear_divides(G, F) is not None:
                return G
    return None


@functools.cache
def _irreducibles(q, a, b):
    return [G for G in _proj_forms(field(q), a, b) if _first_linear_divisor(G) is None]


@st.composite
def products(draw):
    """A product of two or three GF(q)-irreducible forms over GF(2) or
    GF(3), of bi-degrees from (0,1) to (3,0), none of total degree below a
    drawn floor: its divisors sit in several cells, and the least lies
    past total degree 2 when the floor is 3."""
    q = draw(st.sampled_from((2, 3)))
    floor = draw(st.integers(1, 3))
    cells = [c for c in ((0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1),
                         (3, 0)) if sum(c) >= floor]
    F = BiPoly(field(q), 0, 0, [[1]])
    for _ in range(draw(st.integers(2, 3))):
        forms = _irreducibles(q, *draw(st.sampled_from(cells)))
        F = F * forms[draw(st.integers(0, len(forms) - 1))]
    return F


@given(F=products())
def test_find_factor_is_the_first_divisor_in_scan_order(F):
    G = find_factor(F)
    assert G is not None
    assert G == _first_linear_divisor(F)
    # the census's staged use: the cheap cells first, then the rest
    scan = FactorScan(F)
    staged = scan.search(max_degree=2)
    if staged is None:
        staged = scan.search()
    assert staged == G


def _decision(decide, F):
    try:
        res = decide(F)
    except Infeasible:
        return None
    return res.irreducible, res.method


def _candidates(q, a, b, part=None):
    basis = filling_space_basis(q, a, b)
    total = projective_count(q, len(basis))
    k, n = part or (0, 1)
    return [candidate_poly(basis, i) for i in range(k * total // n, (k + 1) * total // n)]


def _assert_auto_matches_a_then_b(forms):
    pairs = [(_decision(is_abs_irreducible, F), _decision(auto_a_then_b, F)) for F in forms]
    assert [new for new, _ in pairs] == [old for _, old in pairs]
    return [new for new, _ in pairs]


@pytest.mark.parametrize("q,a,b,part", [
    (2, 3, 3, None),
    (2, 4, 3, None),
    # slice 138 holds construct(3) at candidate 2219
    (3, 4, 4, (138, 615)),
])
def test_auto_order_matches_a_then_b_on_census_candidates(q, a, b, part):
    _assert_auto_matches_a_then_b(_candidates(q, a, b, part))


@pytest.mark.parametrize("q", [2, 3])
def test_auto_order_matches_a_then_b_with_a_zero_entry(q):
    # route A never applies here; linear forms are irreducible by method B
    forms = [F for cell in ((0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0))
             for F in _proj_forms(field(q), *cell)]
    got = _assert_auto_matches_a_then_b(forms)
    assert set(got) == {(True, "B"), (False, "B")}


@pytest.mark.parametrize("q,a,b,part,budget,undecided", [
    # no divisor search fits: "auto" is route A alone
    (2, 4, 3, (3, 16), 1, True),
    # the divisor cells fit and the norm cells do not
    (2, 3, 3, None, 500, False),
    (2, 4, 4, (11, 512), 5000, True),
])
def test_auto_order_matches_a_then_b_past_the_budget(monkeypatch, q, a, b, part, budget,
                                                      undecided):
    forms = _candidates(q, a, b, part)
    monkeypatch.setattr(analysis, "FACTOR_SEARCH_BUDGET", budget)
    got = _assert_auto_matches_a_then_b(forms)
    assert (None in got) == undecided


def test_reducible_form_rejected_by_fast_scan(gf2):
    KX, KY = frobenius_forms(gf2)
    r = is_abs_irreducible(KX * KY, method="B")
    assert not r.irreducible
