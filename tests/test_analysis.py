import functools
import hashlib
import json
import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import (
    T42,
    auto_a_then_b,
    binary_form_ok,
    certify_smooth_four_charts,
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
    _certify_chart,
    _chart_members,
    _divisor_cells,
    _first_factor,
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
from bifill.search import candidate_poly, census, filling_space_basis


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 17, 19, 23, 25, 27, 29, 31, 32])
def test_constructed_curves_are_certified_smooth(q):
    assert certify_smooth(construct(q)).verdict == "Smooth"


# SHA-256 of the four-chart walk's certificates of construct(q), traces
# included: the order in which each chart's pairs are eliminated and every
# resultant's degree
CONSTRUCT_CERTIFICATES_SHA256 = "9dd58c33a5f5de779791f568864f73b3000904859fbac30dd59836ad5a6b758f"

# The same for certify_smooth: the X0Y0 chart's pairs, or from q = 4 on its
# one pseudo-remainder entry, then one entry for each line and the corner
CONSTRUCT_LINE_CERTIFICATES_SHA256 = (
    "05da8394a3bcb3455fd2215a8b9d9465cf49bfc8da11f3c4053052f1e3d0eff7"
)

PINNED_CONSTRUCT_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def _certificates_digest(certify):
    doc = json.dumps(
        [certify(construct(q)).to_json() for q in PINNED_CONSTRUCT_QS], sort_keys=True
    )
    return hashlib.sha256(doc.encode()).hexdigest()


def test_construct_certificate_traces_are_pinned():
    assert _certificates_digest(certify_smooth_four_charts) == CONSTRUCT_CERTIFICATES_SHA256


def test_construct_line_certificate_traces_are_pinned():
    assert _certificates_digest(certify_smooth) == CONSTRUCT_LINE_CERTIFICATES_SHA256


@pytest.mark.parametrize("q", [2, 3, 4, 5, 16])
def test_resultants_are_taken_in_the_x0y0_chart_only(monkeypatch, q):
    # construct(2) and construct(3) fall below the prem gate; from q = 4 on,
    # pseudo-remainders decide the chart and no resultant is taken
    calls = []
    inner = analysis.resultant_elim
    monkeypatch.setattr(analysis, "resultant_elim", lambda A, B: calls.append(1) or inner(A, B))
    cert = certify_smooth(construct(q))
    pairs = [t for t in cert.trace if isinstance(t["pair"], list)]
    prems = [t for t in cert.trace if t["pair"] == "prem"]
    assert len(calls) == len(pairs) == {2: 8, 3: 3}.get(q, 0)
    assert len(prems) == (q >= 4)
    assert {t["chart"] for t in pairs + prems} == {"X0Y0"}
    assert all(t["degree"] == 0 and t["prems"] == 40 for t in prems)
    assert [t["pair"] for t in cert.trace[-3:]] == ["line", "line", "corner"]


def test_census_certificates_take_no_pseudo_remainder(monkeypatch):
    passes, prems = [], []
    inner_pass, inner_prem = analysis._prem_pass, analysis._prem
    monkeypatch.setattr(analysis, "_prem_pass", lambda m: passes.append(1) or inner_pass(m))
    monkeypatch.setattr(analysis, "_prem", lambda A, B: prems.append(1) or inner_prem(A, B))
    assert census(2, 4, 3, smooth=True).n_irreducible == 66
    assert passes and not prems


@pytest.mark.parametrize("q", [2, 3, 4])
def test_certificate_builds_the_jacobian_system_once(monkeypatch, q):
    calls = []
    inner = analysis.jacobian_system
    monkeypatch.setattr(analysis, "jacobian_system", lambda F: calls.append(1) or inner(F))
    assert certify_smooth(construct(q)).verdict == "Smooth"
    assert len(calls) == 1
    F = construct(q) * parse_bipoly("X0*Y0", construct(q).field)
    cert = certify_smooth(F)
    assert cert.verdict == "Singular"
    assert verify_witness(F, cert)
    assert len(calls) == 3


# -- the certificate against the four-chart walk ---------------------------------

def _x0y0_degenerate(F):
    system = jacobian_system(F)
    return all(
        _certify_chart(F.field, _chart_members(system, "X0Y0", o), "X0Y0", o, [])[0]
        == "degenerate"
        for o in ("y", "x")
    )


def _check_against_four_charts(F):
    """Smooth and Singular stay, Inconclusive may turn Singular, every
    Singular witness checks, and the witness changes only where the X0Y0
    chart defeats both orientations."""
    new, old = certify_smooth(F), certify_smooth_four_charts(F)
    if old.verdict == "Inconclusive":
        assert new.verdict in ("Singular", "Inconclusive")
    else:
        assert new.verdict == old.verdict
    if new.verdict == "Singular":
        assert verify_witness(F, new)
    if new.witness != old.witness:
        assert _x0y0_degenerate(F)


@pytest.mark.parametrize("q,a,b", [(2, 3, 3), (2, 4, 3), (2, 3, 4)])
def test_certificate_matches_the_four_chart_walk_on_census_cells(q, a, b):
    basis = filling_space_basis(q, a, b)
    for k in range(projective_count(q, len(basis))):
        _check_against_four_charts(candidate_poly(basis, k))


@st.composite
def shaped_forms(draw):
    # random forms, squared factors, and X0^k, Y0^k or X0*Y0 factors that
    # put singular points on the lines the X0Y0 chart misses
    K = field(draw(st.sampled_from((2, 3, 4, 5, 9))))

    def form(a_max, b_max):
        a, b = draw(st.integers(0, a_max)), draw(st.integers(0, b_max))
        rows = draw(st.lists(
            st.lists(st.integers(0, K.order - 1), min_size=b + 1, max_size=b + 1),
            min_size=a + 1, max_size=a + 1,
        ))
        return BiPoly(K, a, b, rows)

    kind = draw(st.sampled_from(("plain", "square", "X0", "Y0", "X0Y0")))
    if kind == "plain":
        F = form(3, 3)
    elif kind == "square":
        G = form(2, 2)
        F = G * G * form(1, 1)
    else:
        k = draw(st.integers(1, 3))
        a, b = {"X0": (k, 0), "Y0": (0, k), "X0Y0": (1, 1)}[kind]
        F = BiPoly.monomial(K, a, b, 0, 0) * form(2, 2)
    assume(not F.is_zero())
    return F


@settings(max_examples=300)
@given(F=shaped_forms())
def test_certificate_matches_the_four_chart_walk_on_random_forms(F):
    _check_against_four_charts(F)


# -- the pseudo-remainder pass against the walk it stands before ------------------

def _above_the_prem_gate(F):
    members = _chart_members(jacobian_system(F), "X0Y0", "y")
    return analysis._sylvester_bound(members) >= analysis._PREM_GATE


def _without_trace(cert):
    doc = cert.to_json()
    del doc["trace"]
    return doc


def _walk_only(F):
    with mock.patch.object(analysis, "_PREM_GATE", math.inf):
        return certify_smooth(F)


@st.composite
def forms_above_the_prem_gate(draw):
    # chart forms alpha + beta*y + gamma*y^k + delta*y^(k+1), sparse in y as
    # construct(q)'s are, and dense forms
    K = field(draw(st.sampled_from((2, 3, 4, 5))))

    def column(a):
        return draw(st.lists(st.integers(0, K.order - 1), min_size=a + 1, max_size=a + 1))

    if draw(st.booleans()):
        a, k = draw(st.integers(4, 6)), draw(st.integers(3, 5))
        cols = {j: column(a) for j in (0, 1, k, k + 1)}
        rows = [[cols[j][i] if j in cols else 0 for j in range(k + 2)] for i in range(a + 1)]
        F = BiPoly(K, a, k + 1, rows)
    else:
        a, b = draw(st.sampled_from(((5, 5), (5, 4), (4, 5), (6, 4))))
        F = BiPoly(K, a, b, [column(b) for _ in range(a + 1)])
    assume(not F.is_zero() and _above_the_prem_gate(F))
    return F


@given(F=forms_above_the_prem_gate())
def test_prem_pass_changes_no_verdict_or_witness(F):
    cert = certify_smooth(F)
    assert _without_trace(cert) == _without_trace(_walk_only(F))
    if cert.verdict == "Singular":
        assert verify_witness(F, cert)


# construct(q) times a ruling line pair, singular where the lines X0 = 0 and
# Y0 = 0 meet it, or times the line x + y = 0 of the chart: the pass falls
# through and the walk finds the witness it finds without the pass
@pytest.mark.parametrize("q", [4, 5])
@pytest.mark.parametrize("factor", ["X0*Y0", "X0*Y1 + X1*Y0"])
def test_singular_forms_above_the_prem_gate_keep_their_witness(q, factor):
    F = construct(q) * parse_bipoly(factor, construct(q).field)
    assert _above_the_prem_gate(F)
    cert = certify_smooth(F)
    assert cert.verdict == "Singular"
    assert cert.witness == _walk_only(F).witness
    assert verify_witness(F, cert)
    assert all(t["pair"] != "prem" for t in cert.trace)


# The four-chart walk left these Inconclusive; each has its singular points
# on the line Y0 = 0, which certify_smooth now reads directly.
@pytest.mark.parametrize("q,a,b,k", [
    (2, 4, 3, 1152), (2, 4, 3, 1474), (2, 4, 3, 1602),
    (2, 3, 4, 8), (2, 3, 4, 170), (2, 3, 4, 1826),
    (3, 2, 2, None),
])
def test_former_inconclusive_forms_are_singular(q, a, b, k):
    if k is None:
        G = parse_bipoly("X0*Y0 + X1*Y1", field(q))
        F = G * G
    else:
        F = candidate_poly(filling_space_basis(q, a, b), k)
    assert F.bidegree == (a, b)
    assert certify_smooth_four_charts(F).verdict == "Inconclusive"
    cert = certify_smooth(F)
    assert cert.verdict == "Singular"
    assert cert.witness.chart == "X0Y1"
    assert verify_witness(F, cert)


# Forms whose singular points all lie on X0 = 0 or Y0 = 0, as products of
# the given factors, and the chart of the piece that holds the first one
@pytest.mark.parametrize("q,factors,chart", [
    (2, ("X0*Y0",), "X1Y1"),
    (2, ("X0*Y0 + X0*Y1",), "X1Y0"),
    (2, ("X0*Y0 + X1*Y0",), "X0Y1"),
    (2, ("X0^2",), "X1Y0"),
    (2, ("Y0^2*Y1",), "X0Y1"),
    (3, ("X0*Y0",), "X1Y1"),
    (3, ("X0*Y0 + 2*X0*Y1",), "X1Y0"),
    (3, ("X0*Y0 + X1*Y0",), "X0Y1"),
    (3, ("X0*Y0", "X0*Y0 + X1*Y1"), "X0Y1"),
    (3, ("X0^2", "X0*Y0 + X1*Y1"), "X1Y0"),
])
def test_singular_points_off_the_x0y0_chart_match_enumeration(q, factors, chart):
    F = functools.reduce(lambda G, H: G * H, (parse_bipoly(t, field(q)) for t in factors))
    oracle = singular_points(F, 2)
    assert oracle
    assert all(p.first.u0 == 0 or p.second.u0 == 0 for p, _ in oracle)
    cert = certify_smooth(F)
    assert cert.verdict == "Singular"
    assert cert.witness.chart == chart
    assert verify_witness(F, cert)
    assert witness_point(F, cert) in oracle


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


@st.composite
def ruling_rows(draw):
    # one nonzero row of q+2 coefficients: full degree or not, with or
    # without rational roots and repeated factors
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    row = draw(st.lists(st.integers(0, q - 1), min_size=q + 2, max_size=q + 2).filter(any))
    return field(q), row


@given(ruling_rows())
def test_validate_setup_matches_the_former_per_form_test(drawn):
    # the same row as f's Y-coefficients and g's X-coefficients, so each
    # side is checked by itself
    K, row = drawn
    q = K.order
    f = BiPoly(K, 0, q + 1, [row])
    g = BiPoly(K, q + 1, 0, [[c] for c in row])
    assert validate_setup(f, g) == binary_form_ok(K, row)


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
    # is_abs_irreducible's staged use: the cells of total degree at most
    # 2 first, then the rest
    cells = _divisor_cells(F)
    small = [cell for cell in cells if sum(cell) <= 2]
    staged = _first_factor(F, small)
    if staged is None:
        staged = _first_factor(F, cells[len(small):])
    assert staged == G


def test_divisor_cells_are_cached_but_the_budget_is_read_each_call(monkeypatch):
    F = construct(2)
    cells = _divisor_cells(F)
    assert _divisor_cells(F) is cells
    monkeypatch.setattr(analysis, "FACTOR_SEARCH_BUDGET", 1)
    with pytest.raises(Infeasible, match="exceed the budget 1$"):
        _divisor_cells(F)


def _decision(decide, F):
    try:
        res = decide(F)
    except Infeasible:
        return None
    return res.irreducible, res.method


@st.composite
def small_forms(draw):
    # any nonzero form of bi-degree up to (3,3) over GF(2) or GF(3)
    q = draw(st.sampled_from((2, 3)))
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=b + 1, max_size=b + 1),
        min_size=a + 1, max_size=a + 1,
    ).filter(lambda rows: any(map(any, rows))))
    return BiPoly(field(q), a, b, rows)


@given(F=st.one_of(products(), small_forms()))
def test_a_given_certificate_decides_as_auto(F):
    assert (_decision(functools.partial(is_abs_irreducible, cert=certify_smooth(F)), F)
            == _decision(is_abs_irreducible, F))


@pytest.mark.parametrize("given_cert", [False, True])
def test_a_given_certificate_is_read_not_retaken(monkeypatch, given_cert):
    F = construct(2)
    cert = certify_smooth(F) if given_cert else None
    calls = []
    inner = analysis.certify_smooth
    monkeypatch.setattr(analysis, "certify_smooth", lambda G: calls.append(G) or inner(G))
    res = is_abs_irreducible(F, cert=cert)
    assert (res.irreducible, res.method) == (True, "A")
    assert len(calls) == (0 if given_cert else 1)


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
