"""End-to-end acceptance battery.

Each test prints one [criterion NN] line with its verdict and elapsed time;
run with -s (or read through captured output) to see the scoreboard. Every
numeric expectation is exact: no tolerances anywhere.
"""
import itertools
import random
import sys
import time
from contextlib import contextmanager

from _oracles import (
    common_zeros,
    eval_bipoly,
    fiber_forms,
    fiber_union,
    rational_pairs,
    reduced_system,
    rref_rank_mod_p,
    singular_points,
)
from bifill.analysis import (
    certify_smooth,
    is_abs_irreducible,
    jacobian_system,
    verify_witness,
)
from bifill.bipoly import BiPoly, parse_bipoly
from bifill.bounds import check_attainment, segre_degree, space_curve_bound
from bifill.families import _ruling_pair, construct, pair_curve
from bifill.filling import decompose, frobenius_forms, is_filling
from bifill.geom import count_points
from bifill.gf import UniPoly, parse_field_spec, unipoly_factor
from bifill.search import (
    candidate_poly,
    census,
    filling_space_basis,
    merge_reports,
    min_bidegree_scan,
)


def field(q):
    return parse_field_spec(f"q={q}")


@contextmanager
def criterion(n, label, limit):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        print(
            f"[criterion {n:02d}] {label}: FAIL ({dt:.1f}s)",
            file=sys.__stdout__,
            flush=True,
        )
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < limit else "FAIL"
    print(
        f"[criterion {n:02d}] {label}: {verdict} ({dt:.1f}s, limit {limit}s)",
        file=sys.__stdout__,
        flush=True,
    )
    assert dt < limit, f"criterion {n} exceeded its {limit}s budget"


def test_criterion_01_bound_values():
    with criterion(1, "degree-7 and degree-6 space curve bounds", 1.0):
        assert space_curve_bound(2, 3, 7) == 9
        assert space_curve_bound(2, 3, 6) == 8


def test_criterion_02_square_family():
    with criterion(2, "square family q in {3,4,5,7,8,9}", 360.0):
        for q in (3, 4, 5, 7, 8, 9):
            t0 = time.perf_counter()
            F = construct(q)
            K = F.field
            for pair in rational_pairs(K):
                assert eval_bipoly(F, pair) == 0
            assert is_filling(F)
            assert certify_smooth(F).verdict == "Smooth"
            assert is_abs_irreducible(F).irreducible
            assert count_points(F, 1) == (q + 1) ** 2
            assert time.perf_counter() - t0 < 60.0, f"q={q} too slow"


def test_criterion_03_census_333():
    with criterion(3, "(3,3) census over GF(2)", 10.0):
        rep = census(2, 3, 3)
        assert rep.candidates_scanned == 127
        assert rep.n_irreducible == 0
        # independent rank oracle for the kernel dimension
        K = field(2)
        rows = []
        for pair in rational_pairs(K):
            u0, u1 = pair.first.coords()
            v0, v1 = pair.second.coords()
            rows.append(
                [
                    K.mul(
                        K.mul(K.pow_(u0, 3 - i), K.pow_(u1, i)),
                        K.mul(K.pow_(v0, 3 - j), K.pow_(v1, j)),
                    )
                    for i in range(4)
                    for j in range(4)
                ]
            )
        rank = rref_rank_mod_p(rows, 2)
        assert rep.space_dimension == 16 - rank == 7


def test_criterion_04_quartic_and_transpose():
    with criterion(4, "bi-degree (4,3) quartic curve and its transpose", 10.0):
        for transposed, shape in ((False, (4, 3)), (True, (3, 4))):
            F = construct(2, transposed=transposed)
            assert F.bidegree == shape
            assert is_filling(F)
            assert certify_smooth(F).verdict == "Smooth"
            assert is_abs_irreducible(F, method="A").irreducible
            assert is_abs_irreducible(F, method="B").irreducible
            assert count_points(F, 1) == 9
            rep = check_attainment(F, irreducible=True)
            assert rep.bound == 9
            assert rep.attained


def test_criterion_05_minimality_scan():
    with criterion(5, "minimal bi-degree scan and image degrees", 300.0):
        cells = min_bidegree_scan(2, 4, 4)
        hits = {ab for ab, cell in cells.items() if cell.exists}
        assert hits == {(4, 3), (3, 4), (4, 4)}
        assert segre_degree(4, 3) == 7
        F3 = construct(3)
        assert F3.bidegree == (4, 4)
        assert is_filling(F3)
        assert segre_degree(4, 4) == 8 == 2 * 3 + 2


def test_criterion_06_decompositions():
    with criterion(6, "ruling decomposition of every filling form", 120.0):
        for q, a, b in ((2, 3, 3), (2, 4, 3)):
            basis = filling_space_basis(q, a, b)
            total = (q ** len(basis) - 1) // (q - 1)
            for k in range(total):
                F = candidate_poly(basis, k)
                D = decompose(F)
                assert D.verify(F)
                assert D.f.bidegree == (a - q - 1, b)
                assert D.g.bidegree == (a, b - q - 1)
        for q in (3, 4, 5):
            F = construct(q)
            D = decompose(F)
            assert D.verify(F)
            assert D.f.bidegree == (F.a - q - 1, F.b)
            assert D.g.bidegree == (F.a, F.b - q - 1)


def test_criterion_07_reduced_singularity_system():
    with criterion(7, "jacobian vs reduced system, q in {5,4,3}", 300.0):
        for q in (5, 4, 3):
            f, g = _ruling_pair(q)
            F = pair_curve(f, g)
            rs = reduced_system(f, g)
            for m in (1, 2):
                zj = common_zeros(jacobian_system(F), m)
                ze = common_zeros(rs, m)
                assert zj == ze
                assert zj == set()


def test_criterion_08_certifier_against_enumeration():
    with criterion(8, "smoothness certificates vs brute singular search", 600.0):
        K = field(3)
        KX, KY = frobenius_forms(K)
        rng = random.Random(0)

        def draw_pair():
            while True:
                f = BiPoly(K, 0, 4, [[rng.randrange(3) for _ in range(5)]])
                g = BiPoly(K, 4, 0, [[rng.randrange(3)] for _ in range(5)])
                if f.is_zero() or g.is_zero():
                    continue
                F = f * KX + g * KY
                if not F.is_zero():
                    return F

        verdicts = {"Smooth": 0, "Singular": 0, "Inconclusive": 0}
        for _ in range(100):
            F = draw_pair()
            cert = certify_smooth(F)
            verdicts[cert.verdict] += 1
            oracle = singular_points(F, 2)
            if cert.verdict == "Smooth":
                assert oracle == set()
            elif cert.verdict == "Singular":
                assert verify_witness(F, cert)
                w = cert.witness
                wdeg = w.modulus.degree * min(
                    h.degree for h, _ in unipoly_factor(w.common)
                )
                if wdeg <= 2:
                    assert oracle != set()
        assert sum(verdicts.values()) == 100
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert certify_smooth(construct(q)).verdict == "Smooth"


def test_criterion_09_reducible_baseline():
    with criterion(9, "fiber unions: filling, reducible, smooth pieces", 30.0):
        for q in (2, 3, 4, 5):
            K = field(q)
            U = fiber_union(q)
            assert is_filling(U)
            assert not is_abs_irreducible(U, method="B").irreducible
            for G in fiber_forms(K, axis="y"):
                assert certify_smooth(G).verdict == "Smooth"
            assert segre_degree(0, q + 1) == q + 1


def test_criterion_10_property_sentinels():
    with criterion(10, "deterministic property sentinels", 300.0):
        # field axioms, exhaustive over GF(9)
        K = field(9)
        idx = range(9)
        for x, y, z in itertools.product(idx, idx, idx):
            assert K.mul(x, K.add(y, z)) == K.add(K.mul(x, y), K.mul(x, z))
            assert K.mul(K.mul(x, y), z) == K.mul(x, K.mul(y, z))
        # parse/print round trips
        for q in (2, 3, 5):
            F = construct(q)
            assert parse_bipoly(F.text(), F.field) == F
        # factorization re-multiplication
        K3 = field(3)
        h = UniPoly(K3, [2, 0, 1]) * UniPoly(K3, [2, 1]) * UniPoly(K3, [2, 1])
        acc = UniPoly(K3, [1])
        for piece, mult in unipoly_factor(h):
            for _ in range(mult):
                acc = acc * piece
        assert acc == h
        # census partition-independence
        full = census(2, 3, 3)
        merged = merge_reports([census(2, 3, 3, part=(k, 2)) for k in range(2)])
        assert merged.to_json() == full.to_json()
