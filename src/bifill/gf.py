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
The generator is the least element of full order, checked by UniPoly powers
modulo the modulus. Its powers follow one another through the linear map
"times g" on base-p digits, which is read from tables built out of the
images g*p^i of the basis (Field._powers); no power takes a polynomial
product.
Every field can build its Zech tables (Field.zech), on first use:
zsub[d] = log(1 - g^d), so a - b = g^(log a + zsub[log b - log a]) and
a + b = a - (-b), with zero given its own logarithm so that sums, products
and quotients run on logarithms alone. bipoly's interpolation kernel reads
them in every characteristic. Addition itself needs no table in
characteristic 2 (XOR on indices, since digit packing is by powers of two at
every level) and is mod p in a prime field. Other odd-characteristic fields
read the Zech table above order 256 and up to it a flat order^2 table of
bytes, filled from the Zech table.

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


# Flat addition tables cost order^2 bytes, one byte holding an element up to
# this order; they beat the Zech table (one lookup against three), and above
# it Zech logarithms take over.
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
        self._zech = None
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
        exp, log = self._exp, self._log
        half = log[p - 1]  # the prime constant p - 1 is -1
        self._negt = [0] + [exp[la + half] for la in log[1:]]
        self.neg = self._neg_table
        if e == 1 and self.base is None:
            self.add = self._add_prime
            self.sub = self._sub_prime
            return
        zsub, norm, zero = self.zech()
        if order <= _ADD_TABLE_MAX_ORDER:
            # a + b = a - (-b) read off the Zech tables, one byte an entry
            n = order - 1
            ex = exp[:n] + [0] * n  # ex[zero] = 0
            minus = [log[b] if b else zero for b in self._negt]
            self._addt = b"".join(
                bytes([ex[norm[la + zsub[lb - la]]] for lb in minus])
                for la in [zero] + log[1:]
            )
            self.add = self._add_flat
            self.sub = self._sub_flat
        else:
            self._zsub = zsub
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
        ints = list(range(order))  # every table holds these int objects
        exp = self._powers(g, ints)
        log = [0] * order
        for i, v in zip(ints, exp):
            log[v] = i
        self._exp = exp + exp  # doubled: no modular reduction on mul/div
        self._log = log

    def _powers(self, g, ints):
        """[g^0, g^1, ..., g^(order-2)], each power the previous one times g,
        held as the int objects of ints.

        Multiplication by g is linear over GF(p) in the base-p digits of an
        index: every level packs its digits by powers of p and adds them
        digitwise mod p. So with a = lo + hi*p^c, lo the low c digits, a*g
        is the digitwise sum of lo*g and (hi*p^c)*g, read from the tables
        low and high. Those hold each digit in a field of w bits, room for
        the sum of two digits, so one integer addition forms the digitwise
        sum and `back` reduces each half of it mod p into an index. The
        tables are sums of the images g*p^i of the basis, one _mul_raw each.
        """
        p, n = self.p, self.order - 1
        digits = 1
        while p**digits < self.order:
            digits += 1
        c = (digits + 1) // 2
        pc = p**c
        w = (2 * p - 2).bit_length()
        shift = w * c
        mask = (1 << shift) - 1
        spread = [0]  # spread[v]: the c digits of v, one per w-bit field
        back = [0]  # back[u]: the index of u's c fields, each taken mod p
        for i in range(c):
            spread = [x + (d << (w * i)) for d in range(p) for x in spread]
            back = [x + (d % p) * p**i for d in range(1 << w) for x in back]

        def spread_of(x):
            return spread[x % pc] + (spread[x // pc] << shift)

        def index_of_sum(u):
            return back[u & mask] + back[u >> shift] * pc

        def images(first, count):  # spread (v * p^first) * g for v < p^count
            out = [0]
            for i in range(first, first + count):
                col = spread_of(self._mul_raw(p**i, g))
                mults = [0]
                for _ in range(p - 1):
                    mults.append(spread_of(index_of_sum(mults[-1] + col)))
                out = [spread_of(index_of_sum(x + m)) for m in mults for x in out]
            return out

        low, high = images(0, c), images(c, digits - c)
        exp = [ints[1]] * n
        a = 1
        for i in range(1, n):
            u = low[a % pc] + high[a // pc]  # index_of_sum, inline
            a = back[u & mask] + back[u >> shift] * pc
            exp[i] = ints[a]
        return exp

    def zech(self):
        """The Zech tables (zsub, norm, zero), built on first use and kept.

        Nonzero elements have logarithms in range(n), n = order - 1, and 0
        gets the logarithm zero = 2n - 1. For a and b with logarithms la and
        lb, either of them zero, la + zsub[lb - la] is a logarithm of a - b:
        off by a multiple of n, or in [3n - 1, 6n - 3] when a - b = 0. norm
        takes such a sum back to range(n), or to zero. zsub is read at d in
        [-(2n-1), 2n-1] and holds
          log(1 - g^d) at 0 < |d| < n, which Field.sub and Field.add read;
          4n - 2 at d = 0, where a = b;
          0 at n <= d, where lb = zero and a - b = a;
          (lb + log(-1) + 1) % n at d <= -n, where la = zero (2n = zero + 1).
        norm is read at k in [-(n-1), 6n-3]: it holds k % n below 3n - 1
        and zero from there on. That range also takes a difference over a
        nonzero difference, la + zsub[.] - lx with lx in range(n), and a
        product shifted by n, la + lb + n, so bipoly's interpolation kernel
        runs on logarithms with no branch on zero. Negative indices wrap to
        the end of each list; the ints of range(n) in both lists are the
        objects _log holds.
        """
        if self._zech is None:
            n = self.order - 1
            exp, log = self._exp, self._log
            logs = [log[x] for x in exp[:n]]
            half = log[self.p - 1]  # the prime constant p - 1 is -1
            zero = 2 * n - 1
            s = self.s
            base = self._modpoly.field if self._modpoly is not None else None
            # g^d - 1 is g^d with its constant digit lowered by one, and
            # 1 - g^d = -(g^d - 1)
            dec = [base.sub(c, 1) if base else (c - 1) % s for c in range(s)]
            zs = [logs[(log[x - x % s + dec[x % s]] + half) % n] for x in exp[1:n]]
            zsub = [4 * n - 2] + zs + [0] * n
            zsub += [logs[(u + half + 1) % n] for u in range(n)] + zs  # zero + 1 = 2n
            norm = [logs[k % n] for k in range(3 * n - 1)] + [zero] * (3 * n - 1)
            norm += [logs[k % n] for k in range(1 - n, 0)]
            self._zech = (zsub, norm, zero)
        return self._zech

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
        nb = self._negt[b]  # a + b = a - (-b)
        if a == nb:
            return 0
        log = self._log
        la = log[a]
        return self._exp[la + self._zsub[log[nb] - la]]

    def _sub_zech(self, a, b):
        if not b:
            return a
        if a == b:
            return 0
        if not a:
            return self._negt[b]
        log = self._log
        la = log[a]
        return self._exp[la + self._zsub[log[b] - la]]

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
