"""Finite fields GF(p^e), one further extension layer, and univariate polynomials.

Representation. Every field element is an integer index in range(order).
Writing s for the cardinality of the base field (s = p for a one-level
extension, s = |K| for an extension of K), an element with polynomial-basis
digits (c0, c1, ..., c_{e-1}), constant digit first, gets the index

    c0 + c1*s + c2*s^2 + ... + c_{e-1}*s^(e-1).

The constant digit is the least significant one, so enumeration by index is
the natural "counting" order: over GF(4) it reads 0, 1, w, w+1 where w is
the class of t. Prime-field elements keep their usual integer values.

Lifting is relabelling. An element of K keeps its index in every extension
extension_field(K, m) builds: the prime constants 0..p-1 keep theirs in
every field of characteristic p, and a tower stores K's indices as its
constant digit. So a polynomial over K is read over such an extension by
changing its field alone (map_field), and any other target field raises
NotASubfield.

Multiplication, inversion and powering go through exp/log tables relative to
a fixed generator (fields here stay small, a few thousand elements at most).
An extension builds its tables with UniPoly arithmetic over its base field
(the prime field for a one-level extension) modulo its modulus; a prime
field builds them with integer arithmetic mod p.
Addition needs no table in characteristic 2 (XOR on indices, since digit
packing is by powers of two at every level) and is mod p in a prime field.
Other odd-characteristic fields use a flat order^2 table up to order 256 and
Zech logarithms above it: zech[k] = log(1 + g^k), built once from the
digitwise base-field addition, so a + b = g^(log a + zech[log b - log a]).

Towers are capped at height 2: prime -> GF(q) -> GF(q^m).

The canonical modulus of an extension is the lexicographically smallest
monic irreducible over the base, comparing coefficient tuples constant
digit first with base elements in index order. No lookup tables of moduli
are shipped; the scan is deterministic and cheap at these sizes, and it runs
once per field: field_for, extension_field and field_with_modulus build each
field once and hand back the same object afterwards.
"""

from __future__ import annotations

import itertools
import random
import re

from .errors import (
    BadParameters,
    DivisionByZero,
    FieldMismatch,
    NotASubfield,
    NotPrime,
    ZeroPolynomial,
)

__all__ = [
    "Field",
    "UniPoly",
    "field_with_modulus",
    "extension_field",
    "parse_field_spec",
    "prime_power",
    "field_for",
    "frobenius_orbits",
    "unipoly_gcd",
    "unipoly_is_irreducible",
    "unipoly_factor",
    "unipoly_linear_part",
    "unipoly_roots",
]


def _prime_factors(n):
    """Distinct prime factors of n by trial division (n stays desk-sized)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# Flat addition tables cost order^2 ints; up to this order they beat the Zech
# table (one lookup against three), above it Zech logarithms take over.
_ADD_TABLE_MAX_ORDER = 256


class Field:
    """A finite field; construct through field_for, extension_field or
    field_with_modulus.

    Instances are interned: equal parameters return the same object, so
    identity comparison is field equality. All arithmetic methods take and
    return integer element indices.
    """

    def __init__(self, p, e, modulus, base):
        self.p = p
        self.e = e
        self.base = base
        self.s = base.order if base is not None else p
        self.order = self.s**e
        self.modulus = modulus  # length e+1, base-field indices, monic
        if e == 1 and base is None:
            self._modpoly = None
        else:
            self._modpoly = UniPoly(base if base is not None else _prime_field(p), modulus)
        self._build_mul()
        self._build_add()  # after _build_mul: a Zech table reads exp/log

    # -- construction helpers ------------------------------------------------

    def _build_add(self):
        p, e, order = self.p, self.e, self.order
        if p == 2:
            self.add = self._add_xor
            self.sub = self._add_xor
            self.neg = self._neg_id
            return
        self._negt = [self._neg_digits(a) for a in range(order)]
        self.neg = self._neg_table
        if e == 1 and self.base is None:
            self.add = self._add_prime
            self.sub = self._sub_prime
        elif order <= _ADD_TABLE_MAX_ORDER:
            self._addt = [
                self._add_digits(a, b) for a in range(order) for b in range(order)
            ]
            self.add = self._add_flat
            self.sub = self._sub_flat
        else:
            # zech[k] = log(1 + g^k), -1 where 1 + g^k = 0
            log = self._log
            sums = [self._add_digits(1, x) for x in self._exp[: order - 1]]
            self._zech = [log[v] if v else -1 for v in sums]
            self.add = self._add_zech
            self.sub = self._sub_zech

    def _build_mul(self):
        order = self.order
        if order == 2:
            g = 1
        else:
            n = order - 1
            checks = [n // r for r in _prime_factors(n)]
            g = None
            for cand in range(2, order):
                if all(self._pow_raw(cand, c) != 1 for c in checks):
                    g = cand
                    break
            if g is None:
                raise AssertionError(f"no generator of GF({order})* found")
        self.generator = g
        exp = [1] * (order - 1)
        for i in range(1, order - 1):
            exp[i] = self._mul_raw(exp[i - 1], g)
        log = [0] * order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp + exp  # doubled: no modular reduction on mul/div
        self._log = log

    # -- digit packing -------------------------------------------------------

    def coeffs_of(self, a):
        """Polynomial-basis digits of index a, constant first, length e."""
        s = self.s
        out = []
        for _ in range(self.e):
            a, r = divmod(a, s)
            out.append(r)
        return tuple(out)

    def index_of(self, coeffs):
        s = self.s
        a = 0
        for c in reversed(tuple(coeffs)):
            a = a * s + c
        return a

    # -- addition variants ---------------------------------------------------

    def _add_xor(self, a, b):
        return a ^ b

    def _neg_id(self, a):
        return a

    def _add_prime(self, a, b):
        return (a + b) % self.p

    def _sub_prime(self, a, b):
        return (a - b) % self.p

    def _add_flat(self, a, b):
        return self._addt[a * self.order + b]

    def _sub_flat(self, a, b):
        return self._addt[a * self.order + self._negt[b]]

    def _neg_table(self, a):
        return self._negt[a]

    def _add_zech(self, a, b):
        if not a or not b:
            return a or b
        log = self._log
        la = log[a]
        z = self._zech[log[b] - la]
        return 0 if z < 0 else self._exp[la + z]

    def _sub_zech(self, a, b):
        return self._add_zech(a, self._negt[b])

    def _add_digits(self, a, b):
        s = self.s
        base = self.base
        badd = base.add if base is not None else None
        out = 0
        mult = 1
        while a or b:
            da, db = a % s, b % s
            d = badd(da, db) if badd is not None else (da + db) % self.p
            out += d * mult
            mult *= s
            a //= s
            b //= s
        return out

    def _neg_digits(self, a):
        s = self.s
        base = self.base
        out = 0
        mult = 1
        while a:
            d = a % s
            nd = base.neg(d) if base is not None else (self.p - d) % self.p
            out += nd * mult
            mult *= s
            a //= s
        return out

    # -- multiplication ------------------------------------------------------

    def _poly(self, a):
        return UniPoly(self._modpoly.field, self.coeffs_of(a))

    def _mul_raw(self, a, b):
        """Table-free product: UniPoly product over the base field reduced
        by the modulus."""
        if self._modpoly is None:
            return (a * b) % self.p
        return self.index_of((self._poly(a) * self._poly(b) % self._modpoly).coeffs)

    def _pow_raw(self, a, k):
        if self._modpoly is None:
            return pow(a, k, self.p)
        return self.index_of(self._poly(a).powmod(k, self._modpoly).coeffs)

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp[self.order - 1 - self._log[a]]

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero")
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._log[b] + self.order - 1]

    def pow_(self, a, k):
        if k < 0:
            return self.pow_(self.inv(a), -k)
        if a == 0:
            return 1 if k == 0 else 0
        return self._exp[(self._log[a] * k) % (self.order - 1)]

    # -- misc ----------------------------------------------------------------

    def describe(self):
        d = {"p": self.p, "e": self.e, "order": self.order}
        d["modulus"] = list(self.modulus)
        if self.base is not None:
            d["base"] = self.base.describe()
        return d

    def check_lift(self, other):
        """Raise NotASubfield unless every element of this field keeps its
        index in other: other is this field, an extension built over it, or
        any field of the same characteristic when this one is prime."""
        prime = self.e == 1 and self.base is None
        if other is self or other.base is self or (prime and other.p == self.p):
            return
        raise NotASubfield(
            f"{self!r} lifts only into extension_field({self!r}, m), not {other!r}"
        )

    def text_of(self, a):
        """Canonical element text: plain integer for prime fields, digit
        vector in brackets otherwise."""
        if self.e == 1 and self.base is None:
            return str(a)
        return "[" + ",".join(str(c) for c in self.coeffs_of(a)) + "]"

    def __repr__(self):
        if self.base is not None:
            return f"GF({self.order}/{self.s})"
        return f"GF({self.order})"


# -- field construction ---------------------------------------------------------
#
# Every field is built once per process and kept in _FIELDS: a prime field
# under p, the canonical degree-m extension of a field under (id(base), m), a
# field with a non-canonical modulus under (p, modulus). So identity
# comparison is field equality.

_FIELDS = {}


def _prime_field(p):
    K = _FIELDS.get(p)
    if K is None:
        if prime_power(p) != (p, 1):
            raise NotPrime(f"{p} is not prime")
        K = _FIELDS[p] = Field(p, 1, (0, 1), None)
    return K


def _intern(p, modulus):
    K = _FIELDS.get((p, modulus))
    if K is None:
        K = _FIELDS[(p, modulus)] = Field(p, len(modulus) - 1, modulus, None)
    return K


def _canonical_modulus(base, e):
    """The first monic irreducible of degree e over base in the scan order.
    A candidate of degree >= 2 with a root in base (a zero constant digit
    among them) is reducible, so it is passed over before Rabin's test."""
    for tail in itertools.product(range(base.order), repeat=e):
        f = UniPoly._raw(base, tail + (1,))
        if e > 1 and any(f.eval_at(a) == 0 for a in range(base.order)):
            continue
        if unipoly_is_irreducible(f):
            return f.coeffs
    raise AssertionError("an irreducible of every degree exists")


def field_with_modulus(p, modulus):
    """GF(p^e) with an explicitly chosen monic irreducible modulus
    (constant-first coefficient list of length e+1)."""
    P = _prime_field(p)
    modulus = tuple(modulus)
    e = len(modulus) - 1
    if e < 1:
        raise BadParameters("modulus must have positive degree")
    if e == 1:
        if modulus != (0, 1):
            raise BadParameters("prime field modulus must be t")
        return P
    if any(not 0 <= c < p for c in modulus):
        raise BadParameters("modulus coefficient out of range")
    if modulus[-1] != 1:
        raise BadParameters("modulus must be monic")
    if not unipoly_is_irreducible(UniPoly(P, modulus)):
        raise BadParameters("modulus is reducible")
    K = extension_field(P, e)
    return K if K.modulus == modulus else _intern(p, modulus)


def extension_field(field, m):
    """The degree-m extension of a field, as high in the tower as allowed,
    with the canonical (lexicographically smallest) irreducible modulus."""
    if m == 1:
        return field
    key = (id(field), m)
    L = _FIELDS.get(key)
    if L is None:
        if m < 1:
            raise BadParameters("extension degree must be positive")
        if field.base is not None:
            raise BadParameters("tower height is capped at two extension layers")
        base = field if field.e > 1 else None
        L = _FIELDS[key] = Field(field.p, m, _canonical_modulus(field, m), base)
    return L


_FIELD_SPEC_MOD = re.compile(r"mod=\[([0-9,\s]*)\]")


def parse_field_spec(text):
    """Field from a spec string: "q=9", "p=3,e=2", "p=3,e=2,mod=[1,0,1]"."""
    text = text.strip().replace(" ", "")
    mod = None
    m = _FIELD_SPEC_MOD.search(text)
    if m:
        mod = tuple(int(c) for c in m.group(1).split(",") if c != "")
        text = (text[: m.start()] + text[m.end() :]).strip(",")
    kv = {}
    if text:
        for part in text.split(","):
            if "=" not in part:
                raise BadParameters(f"bad field spec fragment {part!r}")
            k, v = part.split("=", 1)
            kv[k] = int(v)
    if "q" in kv:
        if mod is not None or set(kv) != {"q"}:
            raise BadParameters("q= form takes no other parameters")
        return field_for(kv["q"])
    if "p" not in kv:
        raise BadParameters("field spec needs q= or p=")
    p = kv.pop("p")
    e = kv.pop("e", 1)
    if kv:
        raise BadParameters(f"unknown field spec keys {sorted(kv)}")
    if mod is None:
        return extension_field(_prime_field(p), e)
    if len(mod) != e + 1:
        raise BadParameters("modulus length must be e+1")
    return field_with_modulus(p, mod)


def prime_power(q):
    """(p, e) with q = p^e, or None when q is not a prime power."""
    if q < 2:
        return None
    p = _prime_factors(q)[0]
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def field_for(q):
    """The canonical GF(q)."""
    if q < 2:
        raise BadParameters("field cardinality must be at least 2")
    pe = prime_power(q)
    if pe is None:
        raise NotPrime(f"{q} is not a prime power")
    p, e = pe
    return extension_field(_prime_field(p), e)


def frobenius_orbits(L, q):
    """The orbits of t -> t^q on L, q the order of a subfield of L, each a
    list from its least element on, in order of their least elements."""
    seen = bytearray(L.order)
    for x0 in range(L.order):
        if seen[x0]:
            continue
        orbit = [x0]
        seen[x0] = 1
        x = L.pow_(x0, q)
        while x != x0:
            orbit.append(x)
            seen[x] = 1
            x = L.pow_(x, q)
        yield orbit


# -- univariate polynomials ---------------------------------------------------


class UniPoly:
    """Univariate polynomial over a field; coefficient indices constant
    first, trailing zeros trimmed, the zero polynomial is the empty tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        cs = []
        for c in coeffs:
            c = int(c)
            if not 0 <= c < field.order:
                raise ValueError(f"coefficient index {c} out of range")
            cs.append(c)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, field, coeffs):
        self = object.__new__(cls)
        self.field = field
        self.coeffs = coeffs
        return self

    @property
    def degree(self):
        return len(self.coeffs) - 1  # zero polynomial reports -1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        while out and out[-1] == 0:
            out.pop()
        return UniPoly._raw(F, tuple(out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        F = self.field
        return UniPoly._raw(F, tuple(F.neg(c) for c in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly._raw(F, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
        while out and out[-1] == 0:
            out.pop()
        return UniPoly._raw(F, tuple(out))

    def scale(self, c):
        F = self.field
        if c == 0:
            return UniPoly._raw(F, ())
        return UniPoly._raw(F, tuple(F.mul(x, c) for x in self.coeffs))

    def monic(self):
        if not self.coeffs:
            return self
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def divmod_poly(self, other):
        self._check(other)
        F = self.field
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        if len(a) - 1 < db:
            return UniPoly._raw(F, ()), self
        inv_lc = F.inv(b[-1])
        q = [0] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if c == 0:
                continue
            qc = F.mul(c, inv_lc)
            q[i - db] = qc
            for j in range(db + 1):
                if b[j]:
                    a[i - db + j] = F.sub(a[i - db + j], F.mul(qc, b[j]))
        while a and a[-1] == 0:
            a.pop()
        while q and q[-1] == 0:
            q.pop()
        return UniPoly._raw(F, tuple(q)), UniPoly._raw(F, tuple(a))

    def __mod__(self, other):
        return self.divmod_poly(other)[1]

    def __floordiv__(self, other):
        return self.divmod_poly(other)[0]

    def powmod(self, k, mod):
        F = self.field
        r = UniPoly._raw(F, (1,))
        b = self % mod
        while k:
            if k & 1:
                r = (r * b) % mod
            k >>= 1
            if k:
                b = (b * b) % mod
        return r

    def derivative(self):
        F = self.field
        p = F.p
        out = []
        for k, c in enumerate(self.coeffs[1:], start=1):
            kk = k % p  # prime constants keep indices 0..p-1 in any extension
            out.append(F.mul(c, kk) if kk and c else 0)
        while out and out[-1] == 0:
            out.pop()
        return UniPoly._raw(F, tuple(out))

    def eval_at(self, x):
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def map_field(self, other):
        """The same polynomial read over extension_field(self.field, m)."""
        self.field.check_lift(other)
        return UniPoly._raw(other, self.coeffs)

    def _check(self, other):
        if self.field is not other.field:
            raise FieldMismatch("polynomials over different fields")

    def __repr__(self):
        if not self.coeffs:
            return "0"
        F = self.field
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(F.text_of(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                parts.append(var if c == 1 else f"{F.text_of(c)}*{var}")
        return " + ".join(parts)


def unipoly_gcd(f, g):
    """Monic greatest common divisor (zero if both inputs are zero)."""
    f._check(g)
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def unipoly_is_irreducible(f):
    """Rabin's test: x^(s^e) = x mod f and, for each prime r | e, the
    power x^(s^(e/r)) - x is coprime to f."""
    d = f.degree
    if d <= 0:
        return False
    if d == 1:
        return True
    F = f.field
    s = F.order
    x = UniPoly._raw(F, (0, 1))
    for r in _prime_factors(d):
        k = d // r
        h = x.powmod(s**k, f)
        if unipoly_gcd(h - x, f).degree != 0:
            return False
    h = x.powmod(s**d, f)
    return (h - x) % f == UniPoly._raw(F, ())


def _pth_root_poly(f):
    """For f with zero derivative, the h with h^p = f (coefficient p-th
    roots at stride p; c -> c^(s/p) inverts Frobenius on a finite field)."""
    F = f.field
    p = F.p
    k = F.order // p
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(F.pow_(f.coeffs[i], k))
    return UniPoly._raw(F, tuple(out))


def _equal_degree_split(f, d, rng):
    """One proper monic factor of f, a squarefree product of at least two
    irreducibles all of degree d (Cantor and Zassenhaus style)."""
    F = f.field
    s = F.order
    n = f.degree
    one = UniPoly._raw(F, (1,))
    while True:
        r = UniPoly(F, [rng.randrange(s) for _ in range(n)])
        if r.degree < 1:
            continue
        g = unipoly_gcd(r, f)
        if 0 < g.degree < n:
            return g
        if F.p == 2:
            # absolute trace of r modulo f
            bits = d * (s.bit_length() - 1)  # s = 2^k, extension degree k*d
            t = r % f
            acc = t
            for _ in range(bits - 1):
                t = (t * t) % f
                acc = acc + t
            g = unipoly_gcd(acc, f)
        else:
            u = r.powmod((s**d - 1) // 2, f)
            g = unipoly_gcd(u - one, f)
        if 0 < g.degree < n:
            return g


def _factor_squarefree(f, rng):
    """Irreducible factors of a squarefree monic f: distinct-degree
    splitting, then equal-degree splitting."""
    F = f.field
    s = F.order
    out = []
    x = UniPoly._raw(F, (0, 1))
    h = x
    w = f
    d = 0
    groups = []
    # a proper split of w needs two factors of degree > d
    while w.degree > 2 * d + 1:
        d += 1
        h = h.powmod(s, w)
        g = unipoly_gcd(h - x, w)
        if g.degree > 0:
            groups.append((g, d))
            w = w // g
            h = h % w
    if w.degree > 0:
        groups.append((w, w.degree))
    for g, d in groups:
        stack = [g]
        while stack:
            cur = stack.pop()
            if cur.degree == d:
                out.append(cur.monic())
            else:
                part = _equal_degree_split(cur, d, rng)
                stack.append(part)
                stack.append(cur // part)
    return out


def unipoly_factor(f):
    """Complete factorization into monic irreducibles with multiplicities,
    sorted by (degree, coefficient tuple), so the result does not depend on
    the random splits. The product of the factors times lc(f) rebuilds f
    exactly.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    rng = random.Random(0)
    out = {}
    work = f.monic()
    _factor_monic(work, out, rng)
    items = [(UniPoly._raw(f.field, c), m) for c, m in out.items()]
    items.sort(key=lambda im: (im[0].degree, im[0].coeffs))
    return items


def _factor_monic(f, out, rng):
    if f.degree <= 0:
        return
    fp = f.derivative()
    if fp.is_zero():
        h = _pth_root_poly(f)
        sub = {}
        _factor_monic(h, sub, rng)
        p = f.field.p
        for c, m in sub.items():
            out[c] = out.get(c, 0) + m * p
        return
    w = f // unipoly_gcd(f, fp)
    rest = f
    for piece in _factor_squarefree(w, rng):
        m = 0
        while True:
            q, r = rest.divmod_poly(piece)
            if not r.is_zero():
                break
            rest = q
            m += 1
        out[piece.coeffs] = out.get(piece.coeffs, 0) + m
    _factor_monic(rest, out, rng)


def unipoly_linear_part(f):
    """Monic gcd(f, t^|K| - t) over f's own field K: the product of t - a
    over the distinct roots a of f in K, so its degree counts them."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has every root")
    if f.degree < 2:
        return f.monic()
    K = f.field
    x = UniPoly._raw(K, (0, 1))
    h = x.powmod(K.order, f)  # t^|K| mod f
    return unipoly_gcd(f, h - x)


def unipoly_roots(f, field):
    """Zeros of f in the given field (the owner or extension_field(owner, m)),
    as a set of element indices: reduce to unipoly_linear_part(f) over that
    field, then split into linear factors."""
    F = field
    g = unipoly_linear_part(f.map_field(F))
    roots = set()
    if g.degree >= 1:
        for piece, _m in unipoly_factor(g):
            if piece.degree == 1:
                # t + c0 = 0  ->  root is -c0
                roots.add(F.neg(piece.coeffs[0]))
    return roots
