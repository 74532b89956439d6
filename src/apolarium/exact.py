"""Exact linear algebra over the rationals.

Everything in this package reduces to ranks, kernels and solves of matrices
with rational entries.  A matrix is a list of sparse rows {column: entry},
with int columns and int or Fraction entries (the partials rows of
``apolar`` are ints); a column absent from a row is zero there.  Kernels and
solves come back as sparse vectors {column: Fraction}.  Elimination is
deterministic: rows are processed in the order given and the pivot of a row
is its first (leftmost) nonzero entry.  Kernels come back in reduced
echelon form; several invariants elsewhere (e.g. independence of
lowest-degree forms of an echelonized basis) rely on it, so partial
echelon forms are never exposed.

A row is scaled by the lcm of its denominators where it enters, by
``_integral``, which leaves the row space as it is, so every elimination
runs on int rows.  One elimination, ``_echelon_mod_p``, runs with Python
ints modulo 61-bit primes, on sparse rows, and answers with the pivot
columns and the reduced-echelon kernel mod p.  It runs forward first: each
row is cleared of the pivot columns it holds, and the rows held before it
are left as they are.  A held row keeps its pivot entry as it was reduced:
the inverse of that entry is taken the first time the row clears another,
and the rows are scaled to 1 at their pivots only for the kernel, so a
full-rank certificate scales none.  Once a row reduces to zero, the held
rows are back-substituted into the kernel once, and each later row is tested
against the kernel vectors that share a column with it, so a row past the
rank costs its dots with them, not an elimination.  One rank certificate,
``_greedy``, eliminates rows as they arrive, from a list or a stream, once
mod MODULUS = 2^61 - 1, and returns the pivot columns, the greedy rows of
the transpose, whose number is the rank.  It is given ncols, at least the
number of column keys that occur, and stops when ncols columns are pivots:
columns independent mod a prime are independent over Q, and the rest of a
stream is never built.  ``sparse_rank`` gives it the side of the matrix
with fewer columns, ``independent_rows`` the transpose, and ``apolar``
streams catalecticant columns to it.  Short of ncols, that elimination is
the first prime of the kernel routine, ``_kernel_mod_primes``, over the
keys as they occur.  It combines the kernels mod the primes of the best
pivot list so far by CRT, lifts them to Q by rational reconstruction (Wang
1981) and checks them exactly.  The first lift that passes is the
reduced-echelon kernel over Q (see ``sparse_kernel``); the primes, from
``_primes``, never run out.  No dense row is built.

The scalars, ``Rat``, ``rat`` and ``as_int``, live in ``scalars``, so a
module that builds polynomials or tensors without eliminating does not
compile this one.  No floats, ever.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from fractions import Fraction
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from .scalars import Rat, rat

# 61-bit primes, largest first, written out so that importing computes nothing
PRIMES = (2305843009213693951, 2305843009213693921, 2305843009213693907,
          2305843009213693723, 2305843009213693693, 2305843009213693669,
          2305843009213693613, 2305843009213693561)
MODULUS = PRIMES[0]  # the prime of the full-rank certificate
SparseRow = Dict[int, Rat]  # column -> nonzero entry, an int or a Fraction


def _primes() -> Iterator[int]:
    """PRIMES, then the primes below them, descending, without end: the
    Miller-Rabin test with the bases 2..37 is exact below 3.1 * 10^23
    (Sorenson and Webster 2017)."""
    yield from PRIMES
    n = PRIMES[-1]
    while True:
        n -= 2
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(a, (n - 1) >> s, n)
            if x == 1:
                continue
            for _ in range(s):
                if x == n - 1:
                    break
                x = x * x % n
            else:
                break  # a witnesses that n is composite
        else:
            yield n


def _integral(row: SparseRow) -> Dict[int, int]:
    """The row times the lcm of its denominators; a row of ints as it is."""
    for x in row.values():
        if type(x) is not int:
            break
    else:
        return row
    den = math.lcm(*[x.denominator for x in row.values()])
    return {j: x.numerator * (den // x.denominator) for j, x in row.items()}


def _echelon_mod_p(rows: Iterable[Dict[int, int]], p: int, ncols: int
                   ) -> Tuple[Dict[int, int], Dict[int, Dict[int, int]]]:
    """The pivot columns of the int rows over GF(p), {column: index}, and
    the reduced-echelon kernel mod p over the columns nonzero in some row,
    {free column j: vector with 1 at j and its other entries at pivot
    columns before j}.  `ncols` is at least the number of columns that
    occur; once the rank reaches it, the kernel is empty, and no row after
    that is read.

    The rows are eliminated forward in order.  A held row is zero at the
    pivot columns held before it, so a new row is cleared of them by
    subtracting held rows in insertion order.  Only the pivot columns the
    row holds are visited: their insertion indices sit in a heap, and a
    column the subtraction brings into the row is pushed.  The held rows
    are a basis of the row space with distinct leftmost columns, and those
    columns are the pivot columns of its reduced echelon form.  A row is
    held as it was reduced, its pivot entry v_c as it is; the first time
    it clears a row with entry f at c, 1 / v_c is taken and kept with it,
    and (f / v_c) times the row is subtracted, the vector f times the row
    scaled to 1 at c would give.  So every row and pivot is what scaling
    at insertion would give, and the return at full rank scales nothing.

    Once a row reduces to zero, or the rows run out short of `ncols`, the
    held rows are scaled to 1 at their pivots, by the inverses kept, and
    back-substituted into the kernel; after a zero row, each later row is
    tested against it.  Its dots d_j with the
    vectors v_j are summed over an index from each column to the vectors
    nonzero there, so a vector that shares no column with the row is not
    visited; a column first seen then gets the vector with a 1 at it.  The
    row is in the row space exactly when every dot is zero, and is skipped.
    Otherwise the kernel of the larger row space is the part of the old one
    where the dot is zero, of one dimension less.  Let j* be the smallest
    free column with a nonzero dot.  A vector with d_j = 0 stays, and every
    other v_j, whose j is past j*, becomes v_j - (d_j / d_j*) v_j*: its dot
    is zero, it keeps its 1 at j, and its other entries are at j* and at
    pivot columns before j, because v_j* ends at j* < j.  These vectors are
    independent and in reduced echelon form over the free columns but j*,
    so they are the kernel back-substitution would give, and j* is the
    pivot column forward elimination would find.
    """
    order: Dict[int, int] = {}  # pivot column -> insertion index
    held: List[Tuple[int, Dict[int, int]]] = []
    invs: List[int] = []  # 1 / pivot entry of each held row, 0 until used
    rows = iter(rows)
    switched = False
    for raw in rows:
        row: Dict[int, int] = {}
        for j, x in raw.items():
            v = x % p
            if v:
                row[j] = v
        heap = [order[j] for j in row if j in order]
        heapq.heapify(heap)
        while heap:
            i = heapq.heappop(heap)
            c, prow = held[i]
            f = row.get(c)
            if not f:  # pushed twice, or cancelled since
                continue
            inv = invs[i]
            if not inv:
                inv = prow[c]
                inv = invs[i] = 1 if inv == 1 else pow(inv, -1, p)
            f = f * inv % p
            for k, b in prow.items():
                v = row.get(k)
                if v is None:
                    row[k] = -f * b % p
                    t = order.get(k)
                    if t is not None:
                        heapq.heappush(heap, t)
                else:
                    v = (v - f * b) % p
                    if v:
                        row[k] = v
                    else:
                        del row[k]
        if not row:  # in the row space: the kernel takes over
            switched = True
            break
        c = min(row)
        order[c] = len(held)
        held.append((c, row))
        invs.append(0)
        if len(held) == ncols:
            return order, {}
    kernel = _back_substitute(held, invs, p)
    if not switched:
        return order, kernel
    by_col: Dict[int, Dict[int, int]] = {}  # column -> {free j: v_j there}
    for j, vec in kernel.items():
        for k, v in vec.items():
            by_col.setdefault(k, {})[j] = v
    for raw in rows:
        dots: Dict[int, int] = defaultdict(int)
        for k, x in raw.items():
            x %= p
            if x:
                col = by_col.get(k)
                if col is None:
                    if k in order:
                        continue
                    col = by_col[k] = {k: 1}
                    kernel[k] = {k: 1}
                for j, v in col.items():
                    dots[j] += x * v
        free = [j for j, d in dots.items() if d % p]
        if not free:
            continue
        c = min(free)
        vec = kernel.pop(c)
        inv = pow(dots[c], -1, p)
        for j in free:
            if j != c:
                f = dots[j] * inv % p
                vj = kernel[j]
                for k, b in vec.items():
                    v = (vj.get(k, 0) - f * b) % p
                    if v:
                        vj[k] = by_col[k][j] = v
                    else:
                        del vj[k], by_col[k][j]
        for k in vec:
            del by_col[k][c]
        order[c] = len(order)
        if len(order) == ncols:
            break
    return order, kernel


def _back_substitute(held: List[Tuple[int, Dict[int, int]]],
                     invs: List[int], p: int) -> Dict[int, Dict[int, int]]:
    """The reduced-echelon kernel mod p, {free column: vector}, over the
    columns of the rows `held` by ``_echelon_mod_p``, which it changes.
    Each held row is first scaled to 1 at its pivot by `invs`, the inverses
    of the pivot entries, 0 where none was taken yet.  Then, in reverse
    insertion order, a held row is cleared at the pivot columns of the rows
    held after it, which are fully reduced by then.  Free column j gives
    the vector with 1 at j, 0 at the other free columns and its other
    entries at the pivot columns before j."""
    for t, (c, prow) in enumerate(held):
        inv = prow[c]
        if inv != 1:
            inv = invs[t] or pow(inv, -1, p)
            held[t] = c, {k: v * inv % p for k, v in prow.items()}
    pivots = dict(held)
    for c, prow in reversed(held):
        for k in [k for k in prow if k != c and k in pivots]:
            f = prow.pop(k)
            for j, b in pivots[k].items():
                if j != k:
                    v = (prow.get(j, 0) - f * b) % p
                    if v:
                        prow[j] = v
                    else:
                        del prow[j]
    kernel: Dict[int, Dict[int, int]] = {}
    for c, prow in held:
        for k, b in prow.items():
            if k != c:
                vec = kernel.get(k)
                if vec is None:
                    vec = kernel[k] = {k: 1}
                vec[c] = p - b
    return kernel


def _lift(vec: Dict[int, int], modulus: int,
          columns: Dict[int, List[Tuple[int, int]]]) -> Optional[SparseRow]:
    """The rational vector congruent to `vec` mod `modulus` with entries
    n / d, |n|, d <= sqrt(modulus / 2), if the integer `columns` (column ->
    [(row, entry)]) kill it; else None.  An entry is tried with the common
    denominator so far, and only if that fails reconstructed alone (Wang).
    """
    bound = math.isqrt(modulus // 2)
    den, nums = 1, {}
    for k, a in vec.items():
        n = (a * den + bound) % modulus - bound
        if n > bound:
            r0, r1, s0, s1 = modulus, a, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound:
                return None
            g = abs(s1) // math.gcd(den, s1)
            den *= g
            nums = {j: v * g for j, v in nums.items()}
            n = r1 * den // s1
        nums[k] = n
    acc: Dict[int, int] = defaultdict(int)
    for k, n in nums.items():
        for i, v in columns[k]:
            acc[i] += v * n
    if any(acc.values()):
        return None
    return {k: Fraction(n, den) for k, n in nums.items() if n}


def _kernel_mod_primes(rows: Sequence[Dict[int, int]], cols: Sequence[int],
                       first: Optional[Tuple[Dict[int, int],
                                             Dict[int, Dict[int, int]]]] = None
                       ) -> Dict[int, SparseRow]:
    """The reduced-echelon right kernel over Q of the int rows, {free
    column: vector}; `cols` are the columns that occur and any zero ones,
    ascending.  `first`, if given, is ``_echelon_mod_p`` of the rows mod
    MODULUS, used in place of eliminating them again.

    The rows give ``_echelon_mod_p`` mod each prime of ``_primes`` in turn,
    its pivots and reduced-echelon kernel; a column of `cols` that is zero
    mod p is free, with the vector 1 there.  Reduction mod p only drops
    pivots or moves them right, so the pivots over Q are the best list:
    the most pivots, and of those the leftmost, entry by entry.  A prime
    with a worse list than the best so far is skipped; one with a better
    list drops the primes before it.  The entries mod the best list's
    primes are combined by CRT, lifted and checked by ``_lift``; the first
    check that every vector passes answers.  The loop ends: only the
    finitely many primes dividing a minor of the rows are bad, and the
    lift succeeds once the good primes multiply past 2 H^2, H a bound on
    those minors.
    """
    columns: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j].append((i, x))
    best = None
    for p in _primes():  # the first is MODULUS, the prime of `first`
        pivots, residues = (_echelon_mod_p(rows, p, len(cols))
                            if first is None else first)
        first = None
        key = (-len(pivots), sorted(pivots))  # the better list is less
        if best is not None and key > best:
            continue
        if key != best:
            best, kernel, modulus = key, {}, 1
        inv = pow(modulus, -1, p)
        for j in cols:  # CRT of x mod `modulus`, r mod p
            if j in pivots:
                continue
            new = residues.get(j) or {j: 1}
            vec = kernel.setdefault(j, {})
            for k in new.keys() | vec.keys():
                x = vec.get(k, 0)
                vec[k] = x + modulus * ((new.get(k, 0) - x) * inv % p)
        modulus *= p
        lifted: Dict[int, Optional[SparseRow]] = {}
        for j, vec in kernel.items():
            lifted[j] = _lift(vec, modulus, columns)
            if lifted[j] is None:
                break
        else:
            return lifted


def _transpose(rows: Sequence[SparseRow], cols: Iterable[int]
               ) -> List[SparseRow]:
    """The columns `cols` (every column that occurs) of the sparse rows, as
    sparse rows keyed by row index."""
    by_col: Dict[int, SparseRow] = {j: {} for j in cols}
    for i, raw in enumerate(rows):
        for j, x in raw.items():
            by_col[j][i] = x
    return list(by_col.values())


def sparse_rank(rows: Iterable[SparseRow]) -> int:
    """Rank over Q of the matrix with the given rows, each a dict from
    column (an int) to its nonzero entry; columns absent from every row are
    zero.

    The side certified by ``_greedy`` is the matrix, keyed by its own
    columns, or its transpose when that has fewer columns, so that the side
    has n = min(rows, cols) keys (zero rows and columns are not counted),
    and the rank is its number of pivot keys."""
    rows = [row for row in rows if row]
    cols = sorted(set().union(*rows))
    side = _transpose(rows, cols) if len(cols) > len(rows) else rows
    return len(_greedy(side, min(len(rows), len(cols))))


def independent_rows(rows: Sequence[SparseRow]) -> List[int]:
    """Indices of the sparse rows that are not in the span of the rows
    before them, ascending: the pivot columns of the transpose."""
    side = _transpose(rows, sorted(set().union(*rows)))
    return _greedy(side, sum(1 for row in rows if row))


def _greedy(side: Iterable[SparseRow], ncols: int) -> List[int]:
    """The column keys, any ints, of the sparse rows `side` that are not
    free in its reduced-echelon kernel, ascending: the greedy rows of the
    transpose, taken in ascending key.  Their number is the rank over Q.
    `ncols` must be at least the number of keys that occur; the rows may
    be a stream, read only as far as elimination needs them.

    The rows are scaled to ints and given to ``_echelon_mod_p`` mod
    MODULUS as they arrive.  Reduction mod p can only turn nonzero minors
    into zero ones, so columns independent mod p are independent over Q:
    once `ncols` keys are pivots, they are all the keys, elimination stops
    and the rest of the stream is never read.  Otherwise it reads every
    row, and its pivots and kernel are the first prime of the kernel over
    the keys that occur, whose checked vector of free key j writes column
    j as a combination of the pivot columns before it, which are
    independent mod a prime.  The columns independent mod p alone would
    not do: mod p, the columns (1, 1), (1, 1 + p), (0, 1) keep 0 and 2,
    over Q 0 and 1.
    """
    side = map(_integral, side)
    rows: List[Dict[int, int]] = []

    def kept():
        for row in side:
            rows.append(row)
            yield row
    first = _echelon_mod_p(kept(), MODULUS, ncols)
    if len(first[0]) == ncols:
        return sorted(first[0])
    cols = sorted(set().union(*rows))
    kernel = _kernel_mod_primes(rows, cols, first)
    return [j for j in cols if j not in kernel]


def sparse_kernel(rows: Sequence[SparseRow], ncols: int
                  ) -> Dict[int, SparseRow]:
    """Echelonized basis of the right kernel {v : m v = 0} of the sparse
    rows over columns 0..ncols-1, as {free column: sparse vector}.

    One vector per free column, in column order; the vector for free column
    j has a 1 at j and no entry at the other free columns, so the basis is
    itself in reduced echelon form, and there are ncols - rank of them.
    That basis is unique, and the multi-prime kernel is it: its vectors are
    checked, so they span the kernel, and the one for free column j mod p
    ends at j, so the free columns mod p are those at which kernel vectors
    end, which are the free columns over Q.  The rows are scaled to ints
    as they are taken.  A column outside 0..ncols-1 is refused.
    """
    if any(not 0 <= j < ncols for row in rows for j in row):
        raise ValueError("a column lies outside 0..ncols-1")
    rows = [_integral(row) for row in rows]
    return _kernel_mod_primes(rows, range(ncols))


def solve_many(rows: Sequence[SparseRow], rhss: Sequence[SparseRow]
               ) -> List[SparseRow]:
    """Solve m x = b for each sparse b = {row: entry} of rhss, where m is
    the square matrix of the n = len(rows) sparse rows; one sparse solution
    {column: x} per b.  A column or a right-hand-side row outside 0..n-1 is
    refused, and so is a singular m.

    One kernel answers: the solution for b_t is the kernel vector of
    [m | -b_1 ... -b_k] at column n + t, and the free columns are
    n, ..., n + k - 1 exactly when m is invertible."""
    n = len(rows)
    if any(not 0 <= j < n for row in rows for j in row):
        raise ValueError("solve_many needs a square matrix")
    if any(not 0 <= i < n for b in rhss for i in b):
        raise ValueError("a right-hand side does not match the matrix")
    aug = [dict(row) for row in rows]
    for t, b in enumerate(rhss):
        for i, x in b.items():
            aug[i][n + t] = -x
    kernel = sparse_kernel(aug, n + len(rhss))
    if list(kernel) != list(range(n, n + len(rhss))):
        raise ValueError("matrix is singular")
    return [{k: x for k, x in vec.items() if k < n} for vec in kernel.values()]


SparseVec = Dict[Hashable, Rat]


class SparseEchelon:
    """Incremental RREF over Q of sparse vectors keyed by arbitrary
    hashables, each entry made a Fraction by ``rat``: the tests' reference
    elimination over Q, which no module of the package uses.

    key_order maps a key to a sortable token; the pivot of a vector is its
    *smallest* key under that order, so for spaces of polynomials keyed by
    monomials the pivot is the least monomial.  Rows are kept fully reduced
    against each other.
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
