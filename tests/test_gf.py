import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    PointPair,
    ProjPoint,
    canonical_modulus_scan,
    digit_add,
    eval_bipoly,
    exp_table_by_products,
)
from bifill import gf
from bifill.bipoly import parse_bipoly
from bifill.errors import (
    BadParameters,
    DivisionByZero,
    NotASubfield,
    NotPrime,
)
from bifill.gf import (
    UniPoly,
    extension_field,
    field_for,
    field_with_modulus,
    frobenius_orbits,
    parse_field_spec,
    unipoly_factor,
    unipoly_gcd,
    unipoly_is_irreducible,
    unipoly_linear_part,
    unipoly_roots,
)

# (q, m) names extension_field(field_for(q), m); GF(343), GF(729) and the
# tower GF(729/9) add by Zech logarithms, the rest by XOR, mod p or a table
AXIOM_FIELDS = [(2, 1), (3, 1), (4, 1), (5, 1), (8, 1), (9, 1), (343, 1), (729, 1), (9, 3)]


def field(q):
    return parse_field_spec(f"q={q}")


# -- construction and canonical moduli ----------------------------------------

def test_canonical_moduli_frozen():
    assert field(4).modulus == (1, 1, 1)
    assert field(9).modulus == (1, 0, 1)
    assert field(16).modulus == (1, 0, 0, 1, 1)
    assert field(8).modulus == (1, 0, 1, 1)


# every base of order at most 16, GF(9) under a non-canonical modulus among
# them, at e <= 3, and the two extensions the benchmark's counts build
MODULUS_SCANS = [
    (spec, e)
    for spec in [f"q={q}" for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)] + ["p=3,e=2,mod=[2,1,1]"]
    for e in (1, 2, 3)
] + [("q=2", 10), ("q=3", 6)]


@pytest.mark.parametrize("spec,e", MODULUS_SCANS)
def test_canonical_modulus_matches_the_plain_scan(spec, e):
    base = parse_field_spec(spec)
    assert gf._canonical_modulus(base, e) == canonical_modulus_scan(base, e)


def test_tower_modulus_frozen(gf9):
    T = extension_field(gf9, 2)
    assert T.base is gf9
    assert T.modulus == (1, 4, 1)
    assert T.order == 81


# the first five powers of each field's generator pin both the generator
# choice and the table arithmetic; the last six fields are towers over GF(q)
GENERATOR_POWERS = [
    (1024, 1, [1, 2, 4, 8, 16]),
    (729, 1, [1, 4, 16, 28, 112]),
    (625, 1, [1, 30, 129, 615, 606]),
    (16, 3, [1, 18, 260, 841, 280]),
    (9, 3, [1, 12, 137, 89, 402]),
    (8, 3, [1, 9, 65, 136, 330]),
    (4, 3, [1, 6, 19, 60, 23]),
    (9, 2, [1, 10, 63, 77, 69]),
    (16, 2, [1, 20, 56, 24, 250]),
]


@pytest.mark.parametrize("q,m,powers", GENERATOR_POWERS)
def test_generator_powers_frozen(q, m, powers):
    K = extension_field(field_for(q), m)
    assert (K.base is not None) == (m > 1)
    assert [K.pow_(K.generator, k) for k in range(5)] == powers
    assert sorted(K._exp[: K.order - 1]) == list(range(1, K.order))


# prime fields, one-level extensions, towers and GF(9) under the
# non-canonical modulus t^2 + t + 2, with a tower over it
EXP_SPECS = ["q=2", "q=3", "q=13", "q=4", "q=8", "q=9", "q=27", "q=32", "q=81",
             "q=125", "q=243", "q=343", "q=625", "q=729", "q=1024", "q=1331",
             "q=2197", "q=4096", "p=3,e=2,mod=[2,1,1]"]
EXP_TOWERS = [("q=4", 3), ("q=8", 3), ("q=9", 2), ("q=9", 3), ("q=16", 2),
              ("q=16", 3), ("q=25", 2), ("p=3,e=2,mod=[2,1,1]", 2)]


def test_exp_tables_match_the_product_loop():
    for spec in EXP_SPECS:
        parse_field_spec(spec)
    for spec, m in EXP_TOWERS:
        extension_field(parse_field_spec(spec), m)
    # and every other field the tests have built so far
    fields = [K for K in gf._FIELDS.values() if K.order <= 4096]
    assert len(fields) >= len(EXP_SPECS) + len(EXP_TOWERS)
    for K in fields:
        g, exp = exp_table_by_products(K)
        assert K.generator == g
        assert K._exp == exp + exp
        log = [0] * K.order
        for i, v in enumerate(exp):
            log[v] = i
        assert K._log == log


def minus(K, b):
    """-b in K as (p - 1) * b, summed digit by digit."""
    out = 0
    for _ in range(K.p - 1):
        out = digit_add(K, out, b)
    return out


# every pair over the small fields, 3000 pairs with zeros over GF(343)
@pytest.mark.parametrize("spec", ["q=2", "q=3", "q=4", "q=9", "q=32", "q=81",
                                  "q=343", "p=3,e=2,mod=[2,1,1]"])
def test_zech_tables_subtract_and_multiply_through_zero(spec):
    K = parse_field_spec(spec)
    zsub, norm, zero = K.zech()
    n = K.order - 1
    assert len(zsub) == 4 * n - 1 and len(norm) == 7 * n - 3

    def lg(a):
        return K._log[a] if a else zero

    if K.order <= 81:
        pairs = [(a, b) for a in range(K.order) for b in range(K.order)]
    else:
        rng = random.Random(K.order)
        pairs = [(rng.randrange(K.order), rng.randrange(K.order)) for _ in range(3000)]
        pairs += [(a, 0) for a, _ in pairs[:20]] + [(0, b) for _, b in pairs[:20]]
        pairs += [(a, a) for a, _ in pairs[:20]] + [(0, 0)]
    for a, b in pairs:
        la, lb = lg(a), lg(b)
        assert norm[la + zsub[lb - la]] == lg(digit_add(K, a, minus(K, b)))
        assert norm[la + lb + n] == lg(K.mul(a, b))


def test_extension_degree_one_is_identity(gf3):
    assert extension_field(gf3, 1) is gf3


def test_each_field_is_built_once(monkeypatch, gf9):
    # identity is field equality, so a spelled-out canonical modulus must
    # give back the field_for object
    assert parse_field_spec("p=3,e=2,mod=[1,0,1]") is gf9
    other = field_with_modulus(3, [2, 1, 1])
    assert other is not gf9
    assert field_with_modulus(3, [2, 1, 1]) is other
    tower = extension_field(gf9, 2)
    scans = []
    monkeypatch.setattr(gf, "_canonical_modulus", lambda *args: scans.append(args))
    assert extension_field(gf9, 2) is tower
    assert field_for(9) is gf9
    assert parse_field_spec("p=3,e=2") is gf9
    assert scans == []


def test_parse_field_spec_forms(gf9):
    assert parse_field_spec("p=3,e=2,mod=[1,0,1]").describe() == gf9.describe()
    assert parse_field_spec("q=9").order == 9
    with pytest.raises(NotPrime):
        parse_field_spec("q=6")
    with pytest.raises(BadParameters):
        parse_field_spec("q=9,p=3")
    with pytest.raises(BadParameters):
        parse_field_spec("r=7")
    with pytest.raises(BadParameters):
        parse_field_spec("p=3,e=2,mod=[1,0]")


def test_enumeration_counting_order(gf4):
    texts = [gf4.text_of(x) for x in range(gf4.order)]
    assert texts == ["[0,0]", "[1,0]", "[0,1]", "[1,1]"]


# -- field axioms --------------------------------------------------------------

def elements(data, K, n):
    return data.draw(st.tuples(*[st.integers(0, K.order - 1)] * n))


@given(qm=st.sampled_from(AXIOM_FIELDS), data=st.data())
def test_field_axioms(qm, data):
    K = extension_field(field_for(qm[0]), qm[1])
    a, b, c = elements(data, K, 3)
    add, mul = K.add, K.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a
    assert mul(a, 1) == a
    assert K.sub(a, a) == 0
    assert K.sub(add(a, b), b) == a
    if a != 0:
        assert mul(a, K.div(1, a)) == 1
        assert K.div(mul(a, b), a) == b
        assert K.pow_(a, K.order - 1) == 1


@given(qm=st.sampled_from(AXIOM_FIELDS), data=st.data())
def test_characteristic(qm, data):
    K = extension_field(field_for(qm[0]), qm[1])
    (a,) = elements(data, K, 1)
    acc = 0
    for _ in range(K.p):
        acc = K.add(acc, a)
    assert acc == 0


# (q, m) as in AXIOM_FIELDS: GF(9) and GF(243) add by the flat table, the
# rest, GF(729/9) and GF(625/25) among them, by Zech logarithms
ADD_FIELDS = [
    (9, 1), (243, 1), (343, 1), (625, 1), (729, 1), (1331, 1), (2197, 1), (9, 3), (25, 2),
]


@pytest.mark.parametrize("q,m", ADD_FIELDS)
def test_add_and_sub_match_the_digit_loop(q, m):
    K = extension_field(field_for(q), m)
    # 1 + x over the whole field reads every entry of a Zech table
    assert [K.add(1, x) for x in range(K.order)] == [
        digit_add(K, 1, x) for x in range(K.order)
    ]
    rng = random.Random(K.order)
    xs = [rng.randrange(K.order) for _ in range(2000)]
    pairs = list(zip(xs, reversed(xs)))
    pairs += [(x, K.neg(x)) for x in xs[:50]] + [(x, x) for x in xs[:50]]
    pairs += [(x, 0) for x in xs[:10]] + [(0, x) for x in xs[:10]] + [(0, 0)]
    for a, b in pairs:
        assert K.add(a, b) == digit_add(K, a, b)
        assert digit_add(K, K.sub(a, b), b) == a
    assert all(digit_add(K, x, K.neg(x)) == 0 for x in xs)


def test_zech_sub_never_calls_add(monkeypatch):
    K = field_for(2197)

    def refuse(a, b):
        raise AssertionError("Field.sub went through Field.add")

    monkeypatch.setattr(K, "add", refuse)
    rng = random.Random(2197)
    for _ in range(500):
        a, b = rng.randrange(K.order), rng.randrange(K.order)
        assert digit_add(K, K.sub(a, b), b) == a
    assert K.sub(5, 5) == 0 and K.sub(5, 0) == 5 and digit_add(K, K.sub(0, 5), 5) == 0


def test_no_field_adds_digit_by_digit_at_runtime():
    table_sums = {gf.Field._add_xor, gf.Field._add_prime, gf.Field._add_flat,
                  gf.Field._add_zech, gf.Field._sub_prime, gf.Field._sub_flat,
                  gf.Field._sub_zech}
    for q, m in ADD_FIELDS + AXIOM_FIELDS:
        extension_field(field_for(q), m)
    for K in gf._FIELDS.values():
        assert K.add.__func__ in table_sums
        assert K.sub.__func__ in table_sums


def test_division_by_zero_is_both_types(gf5):
    with pytest.raises(DivisionByZero):
        gf5.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        gf5.div(1, 0)


# -- Frobenius and lifting -----------------------------------------------------

@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2)])
def test_frobenius_fixed_subfield_count(q, m):
    K = field(q)
    E = extension_field(K, m)
    fixed = [x for x in range(E.order) if E.pow_(x, q) == x]
    assert len(fixed) == q


@pytest.mark.parametrize("q,m", [(2, 1), (2, 4), (3, 2), (4, 3), (9, 2)])
def test_frobenius_orbits_partition_the_field(q, m):
    E = extension_field(field(q), m)
    orbits = list(frobenius_orbits(E, q))
    assert sorted(x for orbit in orbits for x in orbit) == list(range(E.order))
    assert [orbit[0] for orbit in orbits] == sorted(min(orbit) for orbit in orbits)
    for orbit in orbits:
        assert m % len(orbit) == 0
        assert [E.pow_(x, q) for x in orbit] == orbit[1:] + orbit[:1]


# the last spec is GF(9) under the non-canonical modulus t^2 + t + 2
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("spec", ["q=2", "q=3", "q=4", "q=9", "p=3,e=2,mod=[2,1,1]"])
def test_extension_keeps_every_index(spec, m):
    K = parse_field_spec(spec)
    L = extension_field(K, m)
    for S in (K, field(K.p)):  # the prime field lifts into a tower too
        f = UniPoly(S, range(S.order))
        assert f.map_field(L).coeffs == f.coeffs
        for a in range(S.order):
            for b in range(S.order):
                assert L.add(a, b) == S.add(a, b)
                assert L.mul(a, b) == S.mul(a, b)


@pytest.mark.parametrize("spec", ["q=9", "q=16"])
def test_lift_outside_extension_field_raises(gf4, spec):
    L = parse_field_spec(spec)
    f = UniPoly(gf4, [1, 2, 1])
    F = parse_bipoly("X0*Y0 + [0,1]*X1*Y1", gf4)
    P = ProjPoint(L, 1, 1)
    for lift in (
        lambda: f.map_field(L),
        lambda: F.map_field(L),
        lambda: eval_bipoly(F, PointPair(P, P)),
        lambda: unipoly_roots(f, L),
    ):
        with pytest.raises(NotASubfield, match="extension_field"):
            lift()


# -- univariate polynomials ----------------------------------------------------

def upoly(K, *coeffs):
    return UniPoly(K, list(coeffs))


@st.composite
def unipolys(draw, max_deg=4):
    q = draw(st.sampled_from([2, 3, 5]))
    K = field(q)
    deg = draw(st.integers(0, max_deg))
    coeffs = [draw(st.integers(0, q - 1)) for _ in range(deg + 1)]
    return UniPoly(K, coeffs)


@given(f=unipolys(), g=unipolys())
def test_divmod_identity(f, g):
    if f.field is not g.field or g.is_zero():
        return
    quo, rem = f.divmod_poly(g)
    assert quo * g + rem == f
    assert rem.is_zero() or rem.degree < g.degree


@given(f=unipolys(), g=unipolys())
def test_derivative_leibniz(f, g):
    if f.field is not g.field:
        return
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@given(f=unipolys(), g=unipolys())
def test_gcd_divides_both(f, g):
    if f.field is not g.field or (f.is_zero() and g.is_zero()):
        return
    d = unipoly_gcd(f, g)
    assert d.lc() == 1
    for h in (f, g):
        if not h.is_zero():
            _, rem = h.divmod_poly(d)
            assert rem.is_zero()


@given(f=unipolys())
def test_factor_remultiplies(f):
    if f.is_zero() or f.degree == 0:
        return
    K = f.field
    factors = unipoly_factor(f)
    prod = UniPoly(K, [f.lc()])
    for base, mult in factors:
        assert base.lc() == 1
        assert unipoly_is_irreducible(base)
        for _ in range(mult):
            prod = prod * base
    assert prod == f


def _brute_irreducible(f):
    K = f.field
    if f.degree < 1:
        return False
    for d in range(1, f.degree):
        for idx in range(K.order**d):
            coeffs, n = [], idx
            for _ in range(d):
                coeffs.append(n % K.order)
                n //= K.order
            coeffs.append(1)  # monic degree-d candidate
            _, rem = f.divmod_poly(UniPoly(K, coeffs))
            if rem.is_zero():
                return False
    return True


@pytest.mark.parametrize("q,max_deg", [(2, 4), (3, 3)])
def test_irreducibility_vs_trial_division(q, max_deg):
    K = field(q)
    for idx in range(1, K.order ** (max_deg + 1)):
        coeffs, n = [], idx
        while n:
            coeffs.append(n % K.order)
            n //= K.order
        f = UniPoly(K, coeffs)
        if f.degree < 1:
            continue
        assert unipoly_is_irreducible(f) == _brute_irreducible(f), f.coeffs


def test_roots_oracle(gf5):
    f = upoly(gf5, 1, 1) * upoly(gf5, 3, 1)  # (x+1)(x+3): roots -1=4, -3=2
    roots = unipoly_roots(f, gf5)
    assert roots == {4, 2}
    for r in roots:
        assert f.eval_at(r) == 0


@given(f=unipolys())
def test_roots_all_evaluate_to_zero(f):
    if f.is_zero():
        return
    roots = unipoly_roots(f, f.field)
    assert len(roots) <= max(f.degree, 0)
    for r in roots:
        assert f.eval_at(r) == 0


@given(q=st.sampled_from([4, 8, 9]), data=st.data())
def test_linear_part_counts_the_distinct_roots(q, data):
    # repeated linear factors times a random cofactor: degrees on both
    # sides of |K|, roots with multiplicity and cofactors without roots
    K = field(q)
    elements = st.integers(0, q - 1)
    f = UniPoly(K, data.draw(st.lists(elements, min_size=1, max_size=5)))
    for r in data.draw(st.lists(elements, max_size=7)):
        f = f * upoly(K, K.neg(r), 1)
    if f.is_zero():
        return
    g = unipoly_linear_part(f)
    assert g.lc() == 1 and (f % g).is_zero()
    assert g.degree == len(unipoly_roots(f, K))
    assert g.degree == sum(f.eval_at(a) == 0 for a in range(q))


def test_powmod_matches_repeated_multiplication(gf3):
    f = upoly(gf3, 1, 2, 1)
    m = upoly(gf3, 1, 0, 0, 1)
    direct = UniPoly(gf3, [1])
    for _ in range(7):
        direct = (direct * f).divmod_poly(m)[1]
    assert f.powmod(7, m) == direct


@pytest.mark.parametrize("q", [2, 9])
def test_powmod_squares_only_while_bits_remain(monkeypatch, q):
    # one product per set bit of k and one squaring per bit below the top
    K = field_for(q)
    f = UniPoly(K, [1, 2 % q, 0, 1])
    m = UniPoly(K, [1, 1, 0, 0, 1])
    calls = [0]
    mul = UniPoly.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    direct = UniPoly(K, [1])
    for k in range(71):
        monkeypatch.setattr(UniPoly, "__mul__", counting)
        calls[0] = 0
        got = f.powmod(k, m)
        monkeypatch.setattr(UniPoly, "__mul__", mul)
        assert got == direct
        if k:
            assert calls[0] == bin(k).count("1") + k.bit_length() - 1
        direct = (direct * f).divmod_poly(m)[1]


def test_field_for_rejects_composite_order():
    with pytest.raises(NotPrime):
        field_for(6)
