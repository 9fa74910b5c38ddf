"""Exhaustive census of filling forms of a fixed bi-degree.

Vanishing at all (q+1)^2 rational pairs is linear in the coefficients, so
the filling forms of bi-degree (a,b) make up a subspace: the kernel of the
evaluation matrix at those pairs.  The matrix is the Kronecker product of
two univariate evaluation matrices of ranks min(a+1,q+1) and min(b+1,q+1),
which pins the kernel dimension at

    (a+1)(b+1) - min(a+1, q+1) * min(b+1, q+1).

The kernel is spanned by the multiples f*KX + g*KY of the two
Frobenius-difference forms (the splitting of filling.decompose), so the
basis is row-reduced from those multiples directly.

census walks the nonzero kernel vectors up to scalar (first nonzero
coordinate normalized to 1, remaining coordinates in counting order) and
classifies each form with analysis.is_abs_irreducible, which orders the
two routes.  An irreducible form counts as smooth exactly when route A
decided it: route B finds a form irreducible only after A has failed, and
no filling form with a zero bi-degree entry is irreducible.  Whatever
neither route decides lands in an explicit unknown bucket instead of a
guessed verdict.
min_bidegree_scan applies this cell by cell over a rectangle of
bi-degrees, skipping cells with a <= q or b <= q, which carry no
absolutely irreducible filling form at all (the degree lemma: with a <= q
the curve meets each rational horizontal fiber in at most q points, fewer
than the q+1 it must hold, so it contains every such fiber).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .analysis import is_abs_irreducible
from .bipoly import BiPoly, row_reduce
from .errors import BadParameters, Infeasible
from .filling import frobenius_forms, is_filling
from .geom import projective_count, projective_index, projective_vectors
from .gf import field_for


def filling_space_basis(q, a, b):
    """Deterministic row-reduced basis of the space of filling forms of
    bi-degree (a,b) over GF(q), coefficient columns in row-major (i,j)
    order: the span of KX times every bi-degree (a-q-1,b) monomial and KY
    times every (a,b-q-1) monomial."""
    if a < 0 or b < 0:
        raise BadParameters(f"bad bi-degree ({a},{b})")
    K = field_for(q)
    KX, KY = frobenius_forms(K)
    gens = []
    if a > q:
        gens += [KX * BiPoly.monomial(K, a - q - 1, b, i, j)
                 for i in range(a - q) for j in range(b + 1)]
    if b > q:
        gens += [KY * BiPoly.monomial(K, a, b - q - 1, i, j)
                 for i in range(a + 1) for j in range(b - q)]
    nc = (a + 1) * (b + 1)
    mat = _flat(gens)
    rank = len(row_reduce(K, mat))
    out = []
    for v in mat[:rank]:
        rows = [v[i * (b + 1):(i + 1) * (b + 1)] for i in range(a + 1)]
        B = BiPoly(K, a, b, rows)
        if not is_filling(B):
            raise AssertionError(f"kernel vector {v} is not filling")
        out.append(B)
    if len(out) != nc - min(a + 1, q + 1) * min(b + 1, q + 1):
        raise AssertionError(f"filling space of ({a},{b}) has dimension {len(out)}")
    return out


def _combine(vec, flat_basis, K):
    n = len(flat_basis[0])
    acc = [0] * n
    for c, row in zip(vec, flat_basis):
        if c == 0:
            continue
        if c == 1:
            for t in range(n):
                if row[t]:
                    acc[t] = K.add(acc[t], row[t])
        else:
            for t in range(n):
                if row[t]:
                    acc[t] = K.add(acc[t], K.mul(c, row[t]))
    return acc


def _flat(basis):
    return [[c for row in B.rows for c in row] for B in basis]


def _form(K, a, b, v, flat_basis):
    """The bi-degree (a,b) form with coordinate vector v in the basis."""
    acc = _combine(v, flat_basis, K)
    return BiPoly(K, a, b, [acc[i * (b + 1):(i + 1) * (b + 1)] for i in range(a + 1)])


def candidate_poly(basis, k):
    """Candidate number k (projective order) of the span of basis."""
    if not basis:
        raise BadParameters("the empty basis spans no candidate")
    B0 = basis[0]
    K = B0.field
    total = projective_count(K.order, len(basis))
    if not 0 <= k < total:
        raise BadParameters(f"candidate index {k} outside [0, {total})")
    v = next(projective_vectors(K.order, len(basis), k))
    return _form(K, B0.a, B0.b, v, _flat(basis))


def candidate_index_of(F, basis):
    """Projective candidate index of F in the census order, or None when F
    is not a nonzero member of the span."""
    if not basis:
        return None
    F._check(basis[0])
    if F.is_zero() or F.bidegree != basis[0].bidegree:
        return None
    K = F.field
    q = K.order
    flat = [c for row in F.rows for c in row]
    flatb = _flat(basis)
    pivots = [next(i for i, x in enumerate(row) if x) for row in flatb]
    coords = [flat[p] for p in pivots]
    if _combine(coords, flatb, K) != flat:
        return None
    lead = next((i for i, c in enumerate(coords) if c), None)
    if lead is None:
        return None
    inv = K.inv(coords[lead])
    if inv != 1:
        coords = [K.mul(inv, c) for c in coords]
    return projective_index(coords, q)


# -- census --------------------------------------------------------------------

# Most irreducible forms a census report keeps as exemplars.
EXEMPLAR_CAP = 8


@dataclass(frozen=True)
class CensusReport:
    q: int
    bidegree: Tuple[int, int]
    space_dimension: int
    candidates_scanned: int
    n_irreducible: int
    n_reducible: int
    n_unknown: int
    irreducible_indices: Tuple[int, ...]
    exemplars: Tuple[BiPoly, ...]
    basis: Tuple[BiPoly, ...]
    n_smooth: Optional[int] = None
    singular_irreducible_indices: Optional[Tuple[int, ...]] = None
    part: Optional[Tuple[int, int]] = None

    def to_json(self):
        return {
            "q": self.q,
            "bidegree": list(self.bidegree),
            "space_dimension": self.space_dimension,
            "candidates_scanned": self.candidates_scanned,
            "n_irreducible": self.n_irreducible,
            "n_reducible": self.n_reducible,
            "n_unknown": self.n_unknown,
            "n_smooth": self.n_smooth,
            "irreducible_indices": list(self.irreducible_indices),
            "singular_irreducible_indices": (
                None
                if self.singular_irreducible_indices is None
                else list(self.singular_irreducible_indices)
            ),
            "exemplars": [F.text() for F in self.exemplars],
            "basis": [B.text() for B in self.basis],
            "part": None if self.part is None else list(self.part),
        }


def _classify(F):
    """(verdict, smooth): verdict is 'irreducible', 'reducible' or
    'unknown' from is_abs_irreducible; smooth is True when route A, a
    Smooth certificate of F, decided it."""
    try:
        res = is_abs_irreducible(F)
    except Infeasible:
        return "unknown", False
    return ("irreducible" if res.irreducible else "reducible"), res.method == "A"


# Most candidates one census or scan cell may classify.
CENSUS_BUDGET = 10**7


def _filling_space(q, a, b):
    """(basis, candidate count) of the filling space, or Infeasible when
    the candidates exceed CENSUS_BUDGET."""
    basis = filling_space_basis(q, a, b)
    total = projective_count(q, len(basis))
    if total > CENSUS_BUDGET:
        raise Infeasible(f"{total} candidates exceed the census budget {CENSUS_BUDGET}")
    return basis, total


def _classified(K, a, b, basis, lo, hi):
    """(index, form, verdict, smooth) for candidates lo..hi-1, one at a
    time, as _classify gives them; every hundredth form is re-checked to
    be filling."""
    flat = _flat(basis)
    vectors = projective_vectors(K.order, len(basis), lo)
    for k, v in zip(range(lo, hi), vectors):
        F = _form(K, a, b, v, flat)
        if (k - lo) % 100 == 0 and not is_filling(F):
            raise AssertionError(f"candidate {k} of ({a},{b}) is not filling")
        yield (k, F, *_classify(F))


def census(q, a, b, smooth=False, part=None):
    """Classify every filling form of bi-degree (a,b) over GF(q) up to
    scalar.

    smooth=True additionally tags the irreducible candidates that route A
    did not decide as non-smooth.  part=(k,n) scans only the k-th of n
    contiguous slices of the candidate range; merge_reports glues slices
    back together."""
    K = field_for(q)
    basis, total = _filling_space(q, a, b)
    if part is None:
        lo, hi = 0, total
    else:
        k, n = part
        if not (0 <= k < n):
            raise BadParameters(f"bad partition {part}")
        lo, hi = k * total // n, (k + 1) * total // n
    n_irr = n_red = n_unk = 0
    irr_indices = []
    exemplars = []
    n_smooth = 0
    singular_irr = []
    for k, F, verdict, by_a in _classified(K, a, b, basis, lo, hi):
        if verdict == "irreducible":
            n_irr += 1
            irr_indices.append(k)
            if len(exemplars) < EXEMPLAR_CAP:
                exemplars.append(F)
            if smooth:
                if by_a:
                    n_smooth += 1
                else:
                    singular_irr.append(k)
        elif verdict == "reducible":
            n_red += 1
        else:
            n_unk += 1
    return CensusReport(
        q=q,
        bidegree=(a, b),
        space_dimension=len(basis),
        candidates_scanned=hi - lo,
        n_irreducible=n_irr,
        n_reducible=n_red,
        n_unknown=n_unk,
        irreducible_indices=tuple(irr_indices),
        exemplars=tuple(exemplars),
        basis=tuple(basis),
        n_smooth=n_smooth if smooth else None,
        singular_irreducible_indices=tuple(singular_irr) if smooth else None,
        part=part,
    )


def merge_reports(reports):
    """Glue complementary census slices (part=(k,n), every k exactly once)
    back into the full-range report."""
    if not reports:
        raise BadParameters("nothing to merge")
    rs = sorted(reports, key=lambda r: -1 if r.part is None else r.part[0])
    head = rs[0]
    if len(rs) == 1 and head.part is None:
        return head
    n = head.part[1] if head.part else None
    keys = [r.part for r in rs]
    if any(r.part is None or r.part[1] != n for r in rs) or keys != [(k, n) for k in range(n)]:
        raise BadParameters(f"slices {keys} do not cover the range exactly once")
    for r in rs[1:]:
        if (r.q, r.bidegree, r.space_dimension, r.basis) != (
            head.q,
            head.bidegree,
            head.space_dimension,
            head.basis,
        ) or (r.n_smooth is None) != (head.n_smooth is None):
            raise BadParameters("slices come from different censuses")
    exemplars = [F for r in rs for F in r.exemplars][:EXEMPLAR_CAP]
    smooth = head.n_smooth is not None
    return CensusReport(
        q=head.q,
        bidegree=head.bidegree,
        space_dimension=head.space_dimension,
        candidates_scanned=sum(r.candidates_scanned for r in rs),
        n_irreducible=sum(r.n_irreducible for r in rs),
        n_reducible=sum(r.n_reducible for r in rs),
        n_unknown=sum(r.n_unknown for r in rs),
        irreducible_indices=tuple(i for r in rs for i in r.irreducible_indices),
        exemplars=tuple(exemplars),
        basis=head.basis,
        n_smooth=sum(r.n_smooth for r in rs) if smooth else None,
        singular_irreducible_indices=(
            tuple(i for r in rs for i in r.singular_irreducible_indices) if smooth else None
        ),
        part=None,
    )


# -- minimal bi-degree scan ------------------------------------------------------

@dataclass(frozen=True)
class ScanCell:
    a: int
    b: int
    exists: Optional[bool]  # None = could not be decided within budget
    method: str  # "degree-lemma" | "census" | "infeasible"
    witness_index: Optional[int] = None

    def to_json(self):
        return {
            "a": self.a,
            "b": self.b,
            "exists": self.exists,
            "method": self.method,
            "witness_index": self.witness_index,
        }


def min_bidegree_scan(q, a_max, b_max):
    """Which bi-degrees (a,b) <= (a_max,b_max) carry an absolutely
    irreducible filling form over GF(q)?

    Cells with a <= q or b <= q are settled without enumeration (no such
    form exists there, by the degree lemma in the module docstring).
    Other cells enumerate the filling space and stop at the first
    irreducible candidate; exhaustion with unknowns pending marks the cell
    infeasible rather than empty."""
    K = field_for(q)
    table = {}
    for a in range(a_max + 1):
        for b in range(b_max + 1):
            if a <= q or b <= q:
                table[(a, b)] = ScanCell(a, b, False, "degree-lemma")
                continue
            table[(a, b)] = _scan_cell(K, q, a, b)
    return table


def _scan_cell(K, q, a, b):
    """A census of the cell that stops at the first irreducible."""
    try:
        basis, total = _filling_space(q, a, b)
    except Infeasible:
        return ScanCell(a, b, None, "infeasible")
    saw_unknown = False
    for k, _F, verdict, _smooth in _classified(K, a, b, basis, 0, total):
        if verdict == "irreducible":
            return ScanCell(a, b, True, "census", witness_index=k)
        if verdict == "unknown":
            saw_unknown = True
    if saw_unknown:
        return ScanCell(a, b, None, "infeasible")
    return ScanCell(a, b, False, "census")
