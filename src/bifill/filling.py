"""Filling verification and the constructive splitting of a filling form
along the two Frobenius-difference forms.

A form F of bi-degree (a,b) over GF(q) is filling when it vanishes at all
(q+1)^2 rational points of P1xP1. Every such F with a,b >= q+1 splits as
F = f*kx + g*ky against kx = X0^q*X1 - X0*X1^q and ky = Y0^q*Y1 - Y0*Y1^q;
the splitting below is deterministic but not unique, and the recombination
identity is checked at exact coefficient level before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipoly import BiPoly
from .errors import BidegreeTooSmall, NotFilling
from .geom import count_points
from .gf import UniPoly

__all__ = [
    "frobenius_forms",
    "is_filling",
    "Decomposition",
    "decompose",
]


def frobenius_forms(field):
    """(kx, ky): the bi-degree (q+1,0) and (0,q+1) forms whose zero sets are
    exactly the pairs with rational first (resp. second) component."""
    q = field.order
    kx = [[0] for _ in range(q + 2)]
    kx[1][0] = 1
    kx[q][0] = field.neg(1)
    KX = BiPoly(field, q + 1, 0, kx)
    return KX, KX.transpose()


def is_filling(F):
    """True iff F vanishes at every rational point of P1xP1."""
    return count_points(F) == (F.field.order + 1) ** 2


@dataclass(frozen=True)
class Decomposition:
    f: BiPoly
    g: BiPoly
    kx: BiPoly
    ky: BiPoly

    def recombine(self):
        return self.f * self.kx + self.g * self.ky

    def verify(self, F):
        return self.recombine() == F


def _padded(p, n):
    """The n coefficients of p, constant first, padded with zeros."""
    return p.coeffs + (0,) * (n - len(p.coeffs))


def _homog_y(field, coeffs, deg):
    """Degree-deg form in (Y0,Y1) from low-first coefficients (entry j is
    the Y1^j coefficient)."""
    rows = [[0] * (deg + 1)]
    for j, c in enumerate(coeffs):
        rows[0][j] = c
    return BiPoly(field, 0, deg, rows)


def decompose(F):
    """Split a filling form as f*kx + g*ky, tracing the constructive proof.

    F's matrix is its X0Y0 chart polynomial, entry [i][j] on x^i y^j.
    Dividing its columns and then the remainder's rows by t^q - t gives
    F = U*(x - x^q) + V*(y - y^q); the boundary row of U and column of V
    are then peeled into exactly divisible univariate pieces."""
    K = F.field
    q = K.order
    a, b = F.a, F.b
    if not is_filling(F):
        raise NotFilling("form does not vanish at all rational points")
    if a < q + 1 or b < q + 1:
        raise BidegreeTooSmall(f"bi-degree ({a},{b}) cannot split at q={q}")
    KX, KY = frobenius_forms(K)

    # divide each column of F's chart matrix by t^q - t, then each row of
    # the remainder: F = U*MX + V*MY against the degree-q halves
    # MX = X0^(q-1)*X1 - X1^q and MY = Y0^(q-1)*Y1 - Y1^q, with U at
    # bi-degree (a-q, b) and V at (a, b-q)
    mx = UniPoly(K, [0, K.neg(1)] + [0] * (q - 2) + [1])  # t^q - t
    my = mx
    cols = [UniPoly(K, col).divmod_poly(mx) for col in zip(*F.rows)]
    U = BiPoly(K, a - q, b, zip(*(_padded(-uq, a - q + 1) for uq, _ in cols)))
    vrows = [(0,) * (b - q + 1)] * (a + 1)
    for i, row in enumerate(zip(*(_padded(r, q) for _, r in cols))):
        vq, r = UniPoly(K, row).divmod_poly(my)
        if not r.is_zero():
            raise AssertionError("filling form failed chart reduction")
        vrows[i] = _padded(-vq, b - q + 1)
    V = BiPoly(K, a, b - q, vrows)

    # the X1^(a-q) boundary row of U is a Y-form vanishing at all (1:t);
    # peel its exact MY cofactor
    f1 = UniPoly(K, U.rows[a - q])
    f2q, r3 = f1.divmod_poly(my)
    if not r3.is_zero():
        raise AssertionError("boundary row not divisible along the second ruling")
    f2 = -f2q
    if f2.degree > b - q:
        raise AssertionError(f"second-ruling cofactor has degree {f2.degree} > {b - q}")
    U0 = BiPoly(K, a - q - 1, b, U.rows[: a - q])

    # shift the peeled piece across: V0 = X1^(a-q)*f2*MX + V
    MX = BiPoly.monomial(K, q, 0, 1, 0) - BiPoly.monomial(K, q, 0, q, 0)
    shift = BiPoly.monomial(K, a - q, 0, a - q, 0) * MX * _homog_y(K, f2.coeffs, b - q)
    V0 = shift + V

    # the Y1^(b-q) boundary column of V0 is an X-form vanishing at all q+1
    # rational points; peel its exact kx cofactor
    g1 = UniPoly(K, [row[b - q] for row in V0.rows])
    f3q, r4 = g1.divmod_poly(mx)
    if not r4.is_zero():
        raise AssertionError("boundary column not divisible along the first ruling")
    f3 = -f3q
    if f3.degree > a - q - 1:
        raise AssertionError(f"first-ruling cofactor has degree {f3.degree} > {a - q - 1}")
    f3form = _homog_y(K, f3.coeffs, a - q - 1).transpose()

    W = V0 - f3form * KX * BiPoly.monomial(K, 0, b - q, 0, b - q)
    if not all(row[b - q] == 0 for row in W.rows):
        raise AssertionError("boundary column survived the first-ruling peel")
    g = BiPoly(K, a, b - q - 1, [row[: b - q] for row in W.rows])

    # f = U0 + f3*(Y0^(q-1)*Y1^(b-q+1) - Y1^b)
    MYtail = BiPoly.monomial(K, 0, b, 0, b - q + 1) - BiPoly.monomial(K, 0, b, 0, b)
    f = U0 + f3form * MYtail

    out = Decomposition(f=f, g=g, kx=KX, ky=KY)
    if not out.verify(F):
        raise AssertionError("recombination failed")
    return out

