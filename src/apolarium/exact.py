"""Exact linear algebra over the rationals.

Everything in this package reduces to ranks, kernels and solves of matrices
with ``fractions.Fraction`` entries.  Matrices are dense, row-major lists of
lists, or for ``sparse_rank`` lists of sparse rows {column: entry}.
Elimination is deterministic: rows are processed in the order given and the
pivot of a row is its first (leftmost) nonzero entry.  Reduced bases are
fully reduced (every pivot column is zero in all other rows); several
invariants elsewhere (e.g. independence of lowest-degree forms of an
echelonized basis) rely on full reduction, so partial echelon forms are never
exposed.

``rank`` and ``sparse_rank`` first certify full rank modulo the prime
p = 2^61 - 1 with Python ints, on sparse rows: reduction mod p never raises
a rank, so full rank mod p is full rank over Q.  When the rank r mod p falls
short, a kernel of the complementary dimension is computed mod p, lifted to
Q by rational reconstruction (Wang 1981) and checked exactly; it bounds the
rank over Q by r from above.  When a lift or a check fails, or p divides a
denominator, the rank is computed over Q with ``rref``, on dense rows.
Every rank returned is exact.

No floats, ever.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

Rat = Fraction
Row = List[Rat]
QMatrix = List[Row]


def rat(x) -> Rat:
    """Coerce ints, strings like '3/4', or Fractions to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed; use Fraction or 'p/q' strings")
    return Fraction(x)


def mat(rows: Iterable[Iterable]) -> QMatrix:
    """Build a QMatrix, coercing entries with rat()."""
    out = [[rat(x) for x in row] for row in rows]
    if out:
        w = len(out[0])
        for r in out:
            if len(r) != w:
                raise ValueError("ragged rows")
    return out


def transpose(m: QMatrix) -> QMatrix:
    return [list(col) for col in zip(*m)] if m else []


def _first_nonzero(row: Sequence[Rat]) -> int:
    """Index of the leftmost nonzero entry, or -1 for a zero row."""
    for j, x in enumerate(row):
        if x:
            return j
    return -1


def rref(m: QMatrix) -> Tuple[QMatrix, List[int]]:
    """Reduced row echelon form.

    Returns (rows, pivot_columns).  Rows are fully reduced, pivots are 1,
    pivot columns strictly increase, zero rows are dropped.
    """
    rows: List[Row] = []
    pivots: List[int] = []
    for raw in m:
        row = list(raw)
        for p, r in zip(pivots, rows):
            if row[p]:
                c = row[p]
                for j in range(p, len(row)):
                    row[j] -= c * r[j]
        p = _first_nonzero(row)
        if p < 0:
            continue
        inv = row[p]
        row = [x / inv for x in row]
        # back-substitute into the rows already collected
        for r in rows:
            if r[p]:
                c = r[p]
                for j in range(len(row)):
                    r[j] -= c * row[j]
        # keep pivot columns sorted
        k = 0
        while k < len(pivots) and pivots[k] < p:
            k += 1
        rows.insert(k, row)
        pivots.insert(k, p)
    return rows, pivots


MODULUS = (1 << 61) - 1  # the Mersenne prime of the modular rank certificate
SparseRow = Dict[int, Rat]  # column -> nonzero entry


def _full_rank_mod_p(rows: Sequence[SparseRow], full: int) -> bool:
    """True iff the sparse rows have rank `full` over GF(MODULUS).

    Rows are reduced to {column: int} vectors, with one inverse per distinct
    denominator, and eliminated in order.  Returns False as soon as the rows
    left cannot reach `full`, and when MODULUS divides a denominator (the
    entry has no image mod p).
    """
    inverses: Dict[int, int] = {}
    pivots: Dict[int, Dict[int, int]] = {}  # pivot column -> row, pivot 1
    left = len(rows)
    for raw in rows:
        left -= 1
        row: Dict[int, int] = {}
        for j, x in raw.items():
            den = x.denominator
            inv = inverses.get(den)
            if inv is None:
                if den % MODULUS == 0:
                    return False
                inv = inverses[den] = pow(den, -1, MODULUS)
            v = x.numerator * inv % MODULUS
            if v:
                row[j] = v
        # each held row is zero in the pivot columns held before it, so one
        # pass in insertion order clears every pivot column of `row`
        for c, prow in pivots.items():
            f = row.get(c)
            if f:
                for k, b in prow.items():
                    v = (row.get(k, 0) - f * b) % MODULUS
                    if v:
                        row[k] = v
                    else:
                        del row[k]
        if row:
            c = min(row)
            inv = pow(row[c], -1, MODULUS)
            pivots[c] = {k: v * inv % MODULUS for k, v in row.items()}
            if len(pivots) == full:
                return True
        elif len(pivots) + left < full:
            return False
    return len(pivots) == full


_LIFT_BOUND = math.isqrt(MODULUS // 2)  # Wang's bound on |numerator|, denominator


def _lift(a: int) -> Optional[Rat]:
    """Wang's rational reconstruction of a residue mod MODULUS.

    Returns n/d with n = a*d mod MODULUS and |n|, d <= _LIFT_BOUND (such a
    fraction is unique when it exists), or None.
    """
    r0, r1, s0, s1 = MODULUS, a, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > _LIFT_BOUND:
        return None
    return Fraction(r1, s1)


def _rank_by_kernel_mod_p(rows: Sequence[SparseRow], ncols: int
                          ) -> Optional[int]:
    """The rank r of the sparse rows over GF(MODULUS), once a kernel
    certifies it over Q.

    Works on whichever of the matrix and its transpose has fewer columns,
    with each row scaled by the lcm of its denominators (row scaling keeps
    the rank and the right kernel).  The rows are fully reduced mod p; each
    free column j gives the kernel vector with 1 at j and 0 at the other free
    columns.  Every entry is lifted to Q by ``_lift`` and every vector is
    checked to be killed by the integer rows exactly.  The checked vectors
    are independent (their free coordinates form an identity), so rank over
    Q <= r; reduction mod p gives rank over Q >= r.  Returns None when a
    lift or a check fails, or when MODULUS divides a denominator.
    """
    if ncols > len(rows):
        by_col: Dict[int, SparseRow] = defaultdict(dict)
        for i, raw in enumerate(rows):
            for j, x in raw.items():
                by_col[j][i] = x
        rows = [by_col[j] for j in sorted(by_col)]
    columns: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    pivots: Dict[int, Dict[int, int]] = {}  # pivot column -> row, pivot 1
    for i, raw in enumerate(rows):
        den = math.lcm(*(x.denominator for x in raw.values()))
        if den % MODULUS == 0:
            return None
        row: Dict[int, int] = {}
        for j, x in raw.items():
            v = x.numerator * (den // x.denominator)
            columns[j].append((i, v))
            v %= MODULUS
            if v:
                row[j] = v
        # held rows are fully reduced, so a subtraction adds no pivot column
        for c in [c for c in row if c in pivots]:
            f = row[c]
            for k, b in pivots[c].items():
                v = (row.get(k, 0) - f * b) % MODULUS
                if v:
                    row[k] = v
                else:
                    del row[k]
        if not row:
            continue
        c = min(row)
        inv = pow(row[c], -1, MODULUS)
        row = {k: v * inv % MODULUS for k, v in row.items()}
        for prow in pivots.values():
            f = prow.get(c)
            if f:
                for k, b in row.items():
                    v = (prow.get(k, 0) - f * b) % MODULUS
                    if v:
                        prow[k] = v
                    else:
                        del prow[k]
        pivots[c] = row
    kernel = {j: {j: 1} for j in columns if j not in pivots}
    for c, prow in pivots.items():
        for k, b in prow.items():
            if k != c:
                kernel[k][c] = MODULUS - b
    for vec in kernel.values():
        lifted = {}
        for k, v in vec.items():
            q = _lift(v)
            if q is None:
                return None
            lifted[k] = q
        den = math.lcm(*(q.denominator for q in lifted.values()))
        acc: Dict[int, int] = {}
        for k, q in lifted.items():
            w = q.numerator * (den // q.denominator)
            for i, v in columns[k]:
                acc[i] = acc.get(i, 0) + v * w
        if any(acc.values()):
            return None
    return len(pivots)


def rank(m: QMatrix) -> int:
    """Rank over Q: ``sparse_rank`` of the nonzero entries of m.

    Entries whose denominators p does not divide map to GF(p) by a ring
    homomorphism, which can only turn nonzero minors into zero ones, so
    rank mod p <= rank over Q.  Rank mod p = min(rows, cols) therefore
    certifies full rank (rows and columns that are zero are not counted).
    A smaller rank mod p is certified by a kernel of the complementary
    dimension, lifted from GF(p) to Q and checked exactly
    (``_rank_by_kernel_mod_p``).  Every other case is decided by ``rref``
    over Q.
    """
    return sparse_rank([{j: x for j, x in enumerate(row) if x} for row in m])


def sparse_rank(rows: Sequence[SparseRow]) -> int:
    """Rank over Q of the matrix with the given rows, each a dict from
    column (an int) to its nonzero entry; columns absent from every row are
    zero.  Certified as in ``rank``, on the sparse rows; only the ``rref``
    fallback builds dense rows, over the columns that occur."""
    rows = [row for row in rows if row]
    cols = set().union(*rows)
    full = min(len(rows), len(cols))
    if _full_rank_mod_p(rows, full):
        return full
    r = _rank_by_kernel_mod_p(rows, len(cols))
    if r is None:
        zero = Fraction(0)
        r = len(rref([[row.get(j, zero) for j in sorted(cols)]
                      for row in rows])[0])
    return r


def kernel_basis(m: QMatrix) -> List[Row]:
    """Echelonized basis of the right kernel {v : m v = 0}.

    One basis vector per free column, in column order; the vector for free
    column j has a 1 in position j and zeros in all other free positions, so
    the result is itself in reduced echelon form.  Length is always
    ncols - rank(m).
    """
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    basis: List[Row] = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, p in zip(rows, pivots):
            v[p] = -r[j]
        basis.append(v)
    return basis


def solve_unique(m: QMatrix, rhs: Sequence[Rat]) -> Row:
    """Solve m x = rhs for square invertible m (raises if singular)."""
    n = len(m)
    if n == 0:
        return []
    if len(m[0]) != n:
        raise ValueError("solve_unique needs a square matrix")
    aug = [list(row) + [rat(b)] for row, b in zip(m, rhs)]
    rows, pivots = rref(aug)
    if len(rows) != n or pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n] for r in rows]


SparseVec = Dict[Hashable, Rat]


class SparseEchelon:
    """Incremental RREF over sparse vectors keyed by arbitrary hashables.

    key_order maps a key to a sortable token; the pivot of a vector is its
    *smallest* key under that order.  Used for spaces of polynomials keyed by
    monomials, where the natural pivot is the least monomial.  Rows are kept
    fully reduced against each other.
    """

    def __init__(self, key_order: Callable[[Hashable], object]):
        self.key_order = key_order
        self.table: Dict[Hashable, SparseVec] = {}  # pivot key -> row

    @property
    def rank(self) -> int:
        return len(self.table)

    def reduce(self, vec: SparseVec) -> SparseVec:
        """Fully reduce a vector against the held rows (not inserted)."""
        v = {k: rat(c) for k, c in vec.items() if c}
        while True:
            hit = None
            for k in v:
                if k in self.table:
                    hit = k
                    break
            if hit is None:
                return v
            c = v[hit]
            for k2, c2 in self.table[hit].items():
                nv = v.get(k2, Fraction(0)) - c * c2
                if nv:
                    v[k2] = nv
                else:
                    v.pop(k2, None)

    def insert(self, vec: SparseVec) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v, key=self.key_order)
        inv = v[p]
        v = {k: c / inv for k, c in v.items()}
        for pk, row in self.table.items():
            if p in row:
                c = row[p]
                for k2, c2 in v.items():
                    nv = row.get(k2, Fraction(0)) - c * c2
                    if nv:
                        row[k2] = nv
                    else:
                        row.pop(k2, None)
        self.table[p] = v
        return True

    def contains(self, vec: SparseVec) -> bool:
        return not self.reduce(vec)

    def basis(self) -> List[SparseVec]:
        """Rows sorted by pivot key, smallest pivot first."""
        return [dict(self.table[p])
                for p in sorted(self.table, key=self.key_order)]
