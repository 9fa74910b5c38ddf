import hashlib
import itertools
import json

import pytest

from _oracles import (
    classify_b_then_a,
    filling_kernel_rows,
    rational_pairs,
    rref_rank_mod_p,
)
from bifill import analysis, search
from bifill.analysis import _proj_forms, certify_smooth
from bifill.bipoly import BiPoly, parse_bipoly
from bifill.errors import BadParameters, FieldMismatch, Infeasible
from bifill.families import construct
from bifill.filling import is_filling
from bifill.gf import extension_field, parse_field_spec
from bifill.search import (
    candidate_index_of,
    candidate_poly,
    census,
    filling_space_basis,
    merge_reports,
    min_bidegree_scan,
)


def field(q):
    return parse_field_spec(f"q={q}")


# -- the space of filling forms --------------------------------------------------

@pytest.mark.parametrize(
    "q,a,b,dim",
    [(2, 3, 3, 7), (2, 4, 3, 11), (3, 4, 4, 9), (2, 4, 4, 16), (2, 2, 3, 3)],
)
def test_space_dimension(q, a, b, dim):
    basis = filling_space_basis(q, a, b)
    assert len(basis) == dim
    assert all(G.bidegree == (a, b) for G in basis)
    assert all(is_filling(G) for G in basis)


@pytest.mark.parametrize("q,a,b", [(2, 3, 3), (2, 4, 3), (3, 4, 4)])
def test_space_dimension_against_rank_oracle(q, a, b):
    # rank of the raw evaluation matrix, prime fields only so plain integer
    # row reduction applies
    K = field(q)
    rows = []
    for pair in rational_pairs(K):
        u0, u1 = pair.first.coords()
        v0, v1 = pair.second.coords()
        row = []
        for i in range(a + 1):
            for j in range(b + 1):
                t = K.mul(K.pow_(u0, a - i), K.pow_(u1, i))
                t = K.mul(t, K.mul(K.pow_(v0, b - j), K.pow_(v1, j)))
                row.append(t)
        rows.append(row)
    rank = rref_rank_mod_p(rows, K.p)
    assert len(filling_space_basis(q, a, b)) == (a + 1) * (b + 1) - rank


@pytest.mark.parametrize(
    "q,a,b",
    [
        (2, 1, 1), (3, 3, 2), (4, 0, 4),  # a, b <= q: no filling form
        (2, 1, 4), (3, 2, 5), (4, 6, 3), (9, 1, 10),  # one entry above q
        (2, 3, 3), (2, 4, 5), (3, 4, 4), (3, 6, 5), (4, 5, 7), (5, 6, 6),
        (8, 9, 9), (9, 10, 10),  # both above q
    ],
)
def test_basis_is_the_evaluation_kernel(q, a, b):
    # the KX/KY multiples span the kernel of the evaluation matrix, and a
    # reduced row echelon basis is unique for its span
    basis = filling_space_basis(q, a, b)
    rows = [[c for row in B.rows for c in row] for B in basis]
    assert rows == filling_kernel_rows(field(q), a, b)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_filling_count_by_brute_force_gf2(a, b):
    # every coefficient vector over GF(2); the filling ones are exactly the
    # nonzero vectors of the kernel
    K = field(2)
    n = (a + 1) * (b + 1)
    hits = 0
    for bits in itertools.product((0, 1), repeat=n):
        if not any(bits):
            continue
        rows = [list(bits[i * (b + 1) : (i + 1) * (b + 1)]) for i in range(a + 1)]
        if is_filling(BiPoly(K, a, b, rows)):
            hits += 1
    assert hits == 2 ** len(filling_space_basis(2, a, b)) - 1


# -- candidate enumeration -------------------------------------------------------

def test_candidate_round_trip_full_333():
    basis = filling_space_basis(2, 3, 3)
    seen = set()
    for k in range(127):
        F = candidate_poly(basis, k)
        assert candidate_index_of(F, basis) == k
        seen.add(F.text())
    assert len(seen) == 127


def test_candidate_round_trip_spot_checks_344():
    basis = filling_space_basis(3, 4, 4)
    for k in (0, 1, 2218, 2219, 9840):
        assert candidate_index_of(candidate_poly(basis, k), basis) == k


def test_last_candidate_of_a_huge_space_round_trips():
    # 1,270,932,914,164 candidates: reaching the last one must not walk them
    basis = filling_space_basis(3, 5, 6)
    total = (3 ** len(basis) - 1) // 2
    assert total == 1_270_932_914_164
    assert candidate_index_of(candidate_poly(basis, total - 1), basis) == total - 1


def test_candidate_index_needs_the_basis_field():
    basis = filling_space_basis(2, 4, 3)
    F = construct(2).map_field(extension_field(field(2), 2))
    with pytest.raises(FieldMismatch):
        candidate_index_of(F, basis)
    with pytest.raises(FieldMismatch):
        candidate_index_of(BiPoly.zero(F.field, 4, 3), basis)


@pytest.mark.parametrize("q,a,b", [(2, 1, 2), (3, 1, 1), (4, 1, 1), (3, 0, 3)])
def test_divisor_enumeration_is_the_census_order(q, a, b):
    # the cached divisor candidates and the census index map walk one order
    K = field(q)
    monomials = [BiPoly.monomial(K, a, b, i, j) for i in range(a + 1) for j in range(b + 1)]
    forms = _proj_forms(K, a, b)
    assert len(forms) == (q ** len(monomials) - 1) // (q - 1)
    for k, G in enumerate(forms):
        assert G == candidate_poly(monomials, k)


def test_candidate_index_rejects_out_of_range():
    basis = filling_space_basis(2, 3, 3)
    with pytest.raises(BadParameters):
        candidate_poly(basis, 127)
    with pytest.raises(BadParameters):
        candidate_poly(basis, -1)
    with pytest.raises(BadParameters):
        candidate_poly([], 0)


def test_candidate_index_of_another_bidegree_is_none(gf2):
    basis = filling_space_basis(2, 4, 3)
    assert candidate_index_of(parse_bipoly("X0*Y0", gf2), basis) is None
    # (3,4) has as many coefficients as (4,3): the flat vectors must not meet
    F = candidate_poly(basis, 5)
    assert candidate_index_of(F.transpose(), basis) is None
    assert candidate_index_of(BiPoly.monomial(gf2, 5, 3, 0, 0), basis) is None


# -- censuses --------------------------------------------------------------------

def test_census_333_has_no_irreducible_member(gf2):
    rep = census(2, 3, 3)
    assert rep.candidates_scanned == 127
    assert rep.space_dimension == 7
    assert rep.n_irreducible == 0
    assert rep.n_reducible == 127
    assert rep.n_unknown == 0
    assert rep.irreducible_indices == ()


def test_census_sorts_everything_unknown_past_the_factor_budget(monkeypatch):
    # no divisor search fits, and no (3,3) form is smooth and irreducible
    monkeypatch.setattr(analysis, "FACTOR_SEARCH_BUDGET", 1)
    rep = census(2, 3, 3)
    assert (rep.n_irreducible, rep.n_reducible, rep.n_unknown) == (0, 0, 127)


def test_census_budget_makes_census_infeasible_and_the_scan_undecided(monkeypatch):
    monkeypatch.setattr(search, "CENSUS_BUDGET", 126)
    with pytest.raises(Infeasible, match="127 candidates exceed the census budget 126"):
        census(2, 3, 3)
    cell = min_bidegree_scan(2, 3, 3)[(3, 3)]
    assert (cell.exists, cell.method) == (None, "infeasible")


def test_census_below_the_degree_floor(gf2):
    rep = census(2, 2, 3)
    assert rep.candidates_scanned == 7
    assert rep.n_irreducible == 0


def test_census_243_golden(gf2):
    rep = census(2, 4, 3, smooth=True)
    assert rep.candidates_scanned == 2047
    assert rep.space_dimension == 11
    assert rep.n_irreducible == 66
    assert rep.n_reducible == 1981
    assert rep.n_unknown == 0
    assert rep.n_smooth == 66
    assert rep.singular_irreducible_indices == ()
    basis = filling_space_basis(2, 4, 3)
    assert candidate_index_of(construct(2), basis) in rep.irreducible_indices


def test_census_parts_merge_to_the_full_report(gf2):
    full = census(2, 4, 3)
    for n in (2, 4, 64):
        merged = merge_reports([census(2, 4, 3, part=(k, n)) for k in range(n)])
        assert merged.to_json() == full.to_json()


def test_merge_rejects_gaps(gf2):
    parts = [census(2, 3, 3, part=(k, 4)) for k in (0, 1, 3)]
    with pytest.raises(BadParameters):
        merge_reports(parts)


def test_merge_rejects_mixed_censuses(gf2):
    with pytest.raises(BadParameters):
        merge_reports([census(2, 3, 3, part=(0, 2)), census(2, 4, 3, part=(1, 2))])


def test_census_part_validation(gf2):
    with pytest.raises(BadParameters):
        census(2, 3, 3, part=(2, 2))


# -- the staged classifier against the B-then-A order -----------------------------

def _b_then_a_certified(F):
    # the census takes smoothness from the classifier, so the oracle
    # certifies its own irreducibles
    verdict = classify_b_then_a(F)
    return verdict, verdict == "irreducible" and certify_smooth(F).verdict == "Smooth"


def _against_b_then_a(monkeypatch, q, a, b, part=None):
    staged = census(q, a, b, smooth=True, part=part)
    with monkeypatch.context() as m:
        m.setattr(search, "_classify", _b_then_a_certified)
        oracle = census(q, a, b, smooth=True, part=part)
    assert staged.to_json() == oracle.to_json()
    return staged


@pytest.mark.parametrize("a,b", [(3, 4), (4, 3)])
def test_staged_census_matches_b_then_a_over_gf2(monkeypatch, a, b):
    assert _against_b_then_a(monkeypatch, 2, a, b).n_irreducible == 66


@pytest.mark.parametrize("k", [0, 138, 156, 614])
def test_staged_census_matches_b_then_a_on_344_slices(monkeypatch, k):
    # the k=2 conjugate-norm cell is over budget, so method A runs between
    # the cheap and the remaining divisor cells; slice 138 holds 2219
    _against_b_then_a(monkeypatch, 3, 4, 4, part=(k, 615))


@pytest.mark.parametrize(
    "q,a,b,part,budget",
    [
        # 191 divisor candidates fit, the 585 of the k=3 norm cell do not;
        # every (3,3) form has a factor of total degree <= 2
        (2, 3, 3, None, 500),
        # 1274 divisor candidates fit, the 87381 of the k=2 norm cell do
        # not; this slice has forms certified smooth between the divisor
        # cells, forms with no factor of total degree <= 2 but a larger
        # one, and forms neither method decides
        (2, 4, 4, (11, 512), 5000),
    ],
)
def test_staged_census_matches_b_then_a_past_the_norm_budget(monkeypatch, q, a, b, part, budget):
    monkeypatch.setattr(analysis, "FACTOR_SEARCH_BUDGET", budget)
    _against_b_then_a(monkeypatch, q, a, b, part=part)


def test_smooth_census_certifies_each_irreducible_once(monkeypatch):
    # route A certified these irreducibles smooth, and the census reuses
    # that verdict
    calls = []
    inner = analysis.certify_smooth

    def counted(F):
        calls.append(F)
        return inner(F)

    monkeypatch.setattr(analysis, "certify_smooth", counted)
    reps = [census(3, 4, 4, smooth=True, part=(k, 615)) for k in (138, 139, 156)]
    assert [r.n_irreducible for r in reps] == [2, 5, 1]
    assert [r.n_smooth for r in reps] == [2, 5, 1]
    assert len(calls) == 8


# -- bidegree scans --------------------------------------------------------------

def test_scan_243_grid(gf2):
    cells = min_bidegree_scan(2, 4, 3)
    assert len(cells) == 20
    for (a, b), c in cells.items():
        if a <= 2 or b <= 2:
            assert not c.exists
            assert c.method == "degree-lemma"
    assert cells[(3, 3)].exists is False
    assert cells[(3, 3)].method == "census"
    assert cells[(4, 3)].exists is True
    assert cells[(4, 3)].witness_index is not None


def test_scan_244_upward_closure(gf2):
    cells = min_bidegree_scan(2, 4, 4)
    hits = {ab for ab, cell in cells.items() if cell.exists}
    assert hits == {(4, 3), (3, 4), (4, 4)}


# -- the (3,4,4) golden census ---------------------------------------------------

# SHA-256 of json.dumps(census(3, 4, 4).to_json(), sort_keys=True), recorded
# with the B-then-A classification order
CENSUS_344_SHA256 = "a92b306f0041ab0be8ef6e9ad5e6e813f1bd240897eb81a5c95244982d61127c"


def test_census_344_golden(gf3):
    rep = census(3, 4, 4)
    assert rep.candidates_scanned == 9841
    assert rep.space_dimension == 9
    assert rep.n_irreducible == 264
    assert rep.n_reducible == 9577
    assert rep.n_unknown == 0
    basis = filling_space_basis(3, 4, 4)
    k = candidate_index_of(construct(3), basis)
    assert k == 2219
    assert rep.irreducible_indices[0] == 2219
    assert k in rep.irreducible_indices
    doc = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == CENSUS_344_SHA256


# SHA-256 of json.dumps(census(3, 4, 5, smooth=True, part=(12345, 20000))
# .to_json(), sort_keys=True), recorded when coprime bi-degrees ran method B
# alone and the census certified each irreducible afterwards
CENSUS_345_SLICE_SHA256 = "1a8163bfd9fc4b4da7db1c3befbb7a7ef4eb31b60d13bfea07e2d45cdd3ba9ae"


def test_coprime_census_slice_over_gf3_golden(gf3):
    # route A runs between the divisor cells on a coprime bi-degree too
    rep = census(3, 4, 5, smooth=True, part=(12345, 20000))
    assert (rep.candidates_scanned, rep.n_irreducible, rep.n_smooth, rep.n_unknown) == (
        120, 55, 53, 0)
    doc = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == CENSUS_345_SLICE_SHA256
