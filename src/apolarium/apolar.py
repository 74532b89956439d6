"""Spaces of partial derivatives and everything computed from them.

For a nonzero polynomial f, the span of all its derivatives D∘f is a
finite-dimensional vector space linearly isomorphic to the quotient algebra
of dual operators modulo the annihilator of f.  For a form F of degree d the
space is graded, and its order-k derivatives span the row space of the
catalecticant Cat_k(F); so the Hilbert function of a form is its
catalecticant ranks.  Every partials matrix is read off one stream,
``_divisor_columns``: the columns b of the images L * a∘f of the monomial
operators a of a range of orders, in int cells scaled by the lcm L of the
denominators of f, which changes no rank, greedy row or kernel, built one
slab at a time and only as far as the elimination reads them.
Cat_{d-k}(F) is a transpose of Cat_k(F) scaled by invertible diagonals, so
only the orders k <= d/2 are streamed and ranked, each on its own, and the
upper half mirrors them; the size guard still charges the whole ladder.
One catalecticant rank, and conciseness, stream one order, which is full
once the rank reaches its number of operators.  Any other polynomial has
one matrix; its Hilbert function, the differences of the filtration by
derivative order, counts by order the greedy operators (``exact._greedy``)
taken from order d down to 0, and the dimension is its sum.  Taken from
order 0 up, they are the monomial basis of the quotient algebra, and the
stream of orders up to d is the operator matrix whose kernel is the
annihilator up to degree d.  From these come dimensions, Hilbert functions,
conciseness, annihilators up to a degree bound, catalecticant ranks, the
multiplication tensor of the quotient algebra, and the twisted-form
annihilation check.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from . import guards
from .exact import (Rat, SparseRow, _greedy, solve_many, sparse_kernel,
                    sparse_rank)
from .poly import (Exponent, Poly, _packed, apply, dehomogenize, homogenize,
                   boxtimes_power, monomials_upto, twist)


def _require_nonzero(f: Poly):
    if f.is_zero():
        raise ValueError("the zero polynomial has no partials space")


def _fact(e: Exponent) -> int:
    out = 1
    for x in e:
        out *= math.factorial(x)
    return out


def _bounded(e: Exponent, w: int, lo: int, hi: int,
             perms: List[List[int]]) -> List[Tuple[int, int, int]]:
    """The exponents a <= e (componentwise) with lo <= |a| <= hi, each as
    (its key for fields of w bits, |a|, e!/(e-a)!), in one pass over the
    nonzero coordinates of e (see ``_divisor_columns`` for the key);
    perms[x][t] is x!/(x-t)!.  Each coordinate takes only the values that
    leave the degree reachable, so every prefix kept is completed."""
    room = sum(e)
    if room < lo:  # also stops a constant term, whose walk takes no step
        return []
    width = w * len(e)
    out = [((1 << width) - 1, 0, 1)]  # (key, degree, e!/(e-a)!) of a prefix
    for i, x in enumerate(e):
        if x:
            room -= x
            # x_i once more: the degree up one, field i of the complement
            # down one
            step = (1 << width) - (1 << width - w * (i + 1))
            perm = perms[x]
            # t from max(0, lo - s - room) to min(x, hi - s), without the
            # calls, which cost more than the rest of a prefix
            out = [(a + t * step, s + t, p * perm[t]) for a, s, p in out
                   for t in range(lo - s - room if lo - s > room else 0,
                                  (x if x < hi - s else hi - s) + 1)]
    return out


def _cell_count(e: Exponent, k: Optional[int]) -> int:
    """The number of exponents a <= e (componentwise), of degree k when k
    is given: prod(e_i + 1), or the coefficient of t^k in the product of
    the 1 + t + ... + t^e_i.  No coefficient exceeds prod(e_i + 1), so at
    t = 2^w, with w its bit length, each one fills its own w bits."""
    cells = math.prod(x + 1 for x in e)
    if k is None:
        return cells
    w = cells.bit_length()
    g = 1
    for x in e:  # times 1 + t + ... + t^x
        g *= ((1 << w * (x + 1)) - 1) // ((1 << w) - 1)
    return g >> w * k & (1 << w) - 1


class HilbertFunction:
    __slots__ = ("values",)

    def __init__(self, values: Tuple[int, ...]):
        self.values = values

    def __repr__(self):
        return f"HilbertFunction(values={self.values!r})"

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if isinstance(other, HilbertFunction):
            return self.values == other.values
        return tuple(self.values) == tuple(other)


def hilbert_function(f: Poly) -> HilbertFunction:
    """Successive differences of the dimension filtration by derivative order.

    For a form F of degree d this is H(k) = rank Cat_k(F), k = 0, ..., d.
    Only the lower half of the ladder, the orders k <= h = floor(d/2) of
    one stream of ``_divisor_columns``, is built and certified, each order
    on its own (see ``_orders``); the upper half is its mirror,
    H(d - k) = H(k).  That is an identity, not a check skipped: with c_e
    the coefficient of x^e in F, a of degree k and b of degree d - k,

        Cat_k[a][b] = c_{a+b} (a+b)!/b!,   Cat_{d-k}[b][a] = c_{a+b} (a+b)!/a!,

    so Cat_{d-k} = diag(b!) Cat_k^T diag(1/a!), a transpose scaled by
    invertible diagonals, and the two blocks have equal rank.  (The
    quotient algebra of a form is Gorenstein, and its Hilbert function is
    symmetric.)
    """
    _require_nonzero(f)
    d = f.degree()
    packing = _packing(f, None)
    if f.is_homogeneous():
        ranks = [sparse_rank(side) for side in _orders(packing, d // 2)]
        return HilbertFunction(tuple(ranks[min(k, d - k)]
                                     for k in range(d + 1)))
    # The span of the derivatives of order >= i is that of the monomial
    # derivatives of order >= i, so with the operators taken from order d
    # down to 0, negated keys, its dimension is the number of greedy
    # operators of order >= i, and H(i) is the number of order i.
    vals = [0] * (d + 1)
    side = [{-a: v for a, v in col.items()}
            for col in _divisor_columns(packing, 0, d)]
    for a in _greedy(side, len(set().union(*side))):
        vals[-a >> packing[1]] += 1
    return HilbertFunction(tuple(vals))


def apolar_dim(f: Poly) -> int:
    """Dimension of the partials space: the sum of its Hilbert function,
    whose pass over the partials matrix is the only one."""
    return sum(hilbert_function(f))


def is_concise(f: Poly) -> bool:
    """No operator of degree <= 1 annihilates f: its first derivatives,
    which have lower degree than f, have rank n, certified on the order-1
    columns streamed by ``_divisor_columns``."""
    _require_nonzero(f)
    n = len(f.vars)
    return len(_greedy(_divisor_columns(_packing(f, 1), 1, 1), n)) == n


def annihilator_upto(f: Poly, d: Optional[int] = None) -> List[Poly]:
    """Echelonized basis of the operators of degree <= d killing f.

    d defaults to deg f + 1; every operator of higher degree kills f, so all
    novel generators occur by then.  The operator matrix is the stream of
    ``_divisor_columns`` of orders 0..d: row b holds the coefficients of x^b
    in the images, and each key of a is mapped once to its column, the
    place of x^a in ``monomials_upto(n, d)``.  d and the binom(n + d, d)
    operators are checked against the limits, and the cells of the whole
    ladder charged, before any column is built.
    """
    _require_nonzero(f)
    if d is None:
        d = f.degree() + 1
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    guards.check_degree(d)
    guards.check_terms(math.comb(len(f.vars) + d, d), "operator space size")
    packing = _packing(f, None)
    sigmas = monomials_upto(len(f.vars), d)
    cols = list(_divisor_columns(packing, 0, d))
    keys = list(set().union(*cols))
    index = {s: j for j, s in enumerate(sigmas)}
    exps = _exponents(packing, len(f.vars), keys)
    place = {a: index[s] for a, s in zip(keys, exps)}
    kernel = sparse_kernel([{place[a]: v for a, v in col.items()}
                            for col in cols], len(sigmas))
    return [Poly(f.vars, {sigmas[k]: c for k, c in sorted(vec.items())})
            for vec in kernel.values()]


def _require_form(F: Poly, k: int = 0) -> None:
    """Reject F and k unless F is a nonzero form and 0 <= k <= deg F."""
    _require_nonzero(F)
    if not F.is_homogeneous():
        raise ValueError("catalecticants are defined for homogeneous forms")
    d = F.degree()
    if not 0 <= k <= d:
        raise ValueError(f"k={k} out of range for degree {d}")


def _packing(f: Poly, k: Optional[int]
             ) -> Tuple[int, int, List[List[int]],
                        List[Tuple[Exponent, int, int]]]:
    """The cells of order k, or of every order when k is None, charged
    against max_terms; then the packing of f that ``_divisor_columns``
    reads: the field width w and the key width w n (see
    ``_divisor_columns``), the perms table of ``_bounded``, and each term
    c x^e as (e, key(e) + mask, L * c), L the lcm of the denominators of
    f.  The cells bound the rank of every partials matrix; they are
    charged before any slab is built."""
    guards.check_terms(sum(_cell_count(e, k) for e in f.terms),
                       "partials dimension bound")
    top = max((x for e in f.terms for x in e), default=0)
    perms = [[math.perm(x, t) for t in range(x + 1)] for x in range(top + 1)]
    w = top.bit_length()
    shifts = [w * i for i in reversed(range(len(f.vars)))]  # variable 0 first
    width = w * len(f.vars)
    mask = (1 << width) - 1
    scale = math.lcm(*(c.denominator for c in f.terms.values()))
    terms = [(e, (sum(e) << width) + 2 * mask  # key(e) + mask
              - sum(x << i for x, i in zip(e, shifts)),
              c.numerator * (scale // c.denominator))
             for e, c in f.terms.items()]
    return w, width, perms, terms


def _divisor_columns(packing, lo: int, hi: int) -> Iterator[Dict[int, int]]:
    """The columns b of the matrix of monomial derivatives a∘f of orders
    lo <= |a| <= hi, scaled by L, the lcm of the denominators of f, as
    sparse rows {key of a: int cell}, built from the ``_packing`` of f one
    slab at a time.

    Row a of the matrix holds the coefficients of L * a∘f: each term e
    (coefficient c) puts the int L * c * e!/(e-a)! at (a, e-a) for every
    a <= e, and the cell determines e = a + b, so no two terms meet in a
    cell and none cancels.  For a form F, every cell of column b has the
    order |a| = deg F - |b|, and the order-m columns are L * Cat_m(F)
    transposed, without its zero rows and columns.

    Each exponent is keyed by one int: its degree above mask - (its
    coordinates packed in fields of w bits, variable 0 highest), with w the
    bit length of the largest exponent of f and mask = 2^(w n) - 1 for n
    variables; key >> w n is the degree.  Ascending keys are the graded
    order (degree, then the packed value descending), and since a <= e
    borrows from no field, the key of b = e - a is key(e) + mask - key(a).

    The slab of b_0 = j is built when its first column is asked for, j
    descending, and its columns come in ascending key.  A cell with
    b_0 = j has a_0 = e_0 - j = t, so the slab reads only the terms with
    j <= e_0 <= j + hi, each with the rest of a of order lo - t .. hi - t.
    Each slab sorts its columns, so the columns of one order m come in the
    order of the stream of orders m..m: for a form, the graded order of b,
    L * Cat_m(F) transposed in the graded order of its rows and columns.
    """
    w, width, perms, terms = packing
    step = (1 << width) - (1 << width - w)  # a_0 once more
    tops: Dict[int, list] = defaultdict(list)  # e_0 -> its terms, e_0 zeroed
    for e, flip, v in terms:  # a constant in no variables is one slab
        tops[e[0] if e else 0].append(((0,) + e[1:] if e else e, flip, v))
    for j in range(max(tops), -1, -1):
        slab: Dict[int, Dict[int, int]] = defaultdict(dict)
        for t in range(hi + 1):
            for rest, flip, v in tops.get(j + t, ()):
                v *= perms[j + t][t]
                for a, _, p in _bounded(rest, w, lo - t, hi - t, perms):
                    a += t * step
                    slab[flip - a][a] = v * p
        for b in sorted(slab):
            yield slab[b]


def _orders(packing, hi: int) -> List[List[Dict[int, int]]]:
    """The stream of orders 0..hi of a form split by order, which any key
    of a column gives: list m is the stream of orders m..m."""
    orders: List[List[Dict[int, int]]] = [[] for _ in range(hi + 1)]
    for col in _divisor_columns(packing, 0, hi):
        orders[next(iter(col)) >> packing[1]].append(col)
    return orders


def _exponents(packing, n: int, keys: List[int]) -> List[Exponent]:
    """The exponents in n variables of the keys packed as in
    ``_divisor_columns``."""
    w, width = packing[0], packing[1]
    mask, field = (1 << width) - 1, (1 << w) - 1
    shifts = [w * i for i in reversed(range(n))]
    return [tuple((mask - (a & mask)) >> i & field for i in shifts)
            for a in keys]


def catalecticant_rank(F: Poly, k: int) -> int:
    """rank Cat_k(F), certified on the columns of Cat_m(F), m = min(k, D - k)
    for F of degree D, streamed by ``_divisor_columns``.

    Cat_{D-k}(F) is a transpose of Cat_k(F) scaled by invertible diagonals
    (see ``hilbert_function``), so the two ranks are equal.  The rank of
    Cat_m(F) is at most binom(n + m - 1, m), its number of rows, the
    operators of order m in n variables; elimination stops when it reaches
    that bound, which certifies it, and the columns after it are never
    built.  A rank short of it is certified on all of them.
    """
    _require_form(F, k)
    m = min(k, F.degree() - k)
    bound = math.comb(len(F.vars) + m - 1, m) if m else 1
    return len(_greedy(_divisor_columns(_packing(F, m), m, m), bound))


# -- multiplication structure -------------------------------------------------


def greedy_monomial_basis(f: Poly) -> List[Exponent]:
    """Smallest monomial operators (graded order) with independent images:
    the greedy operators of the stream of ``_divisor_columns``, taken order
    by order for a form, whose orders hold images of different degrees
    (see ``_orders``), and over the whole stream for any other polynomial.
    Only the keys kept are unpacked."""
    _require_nonzero(f)
    d = f.degree()
    packing = _packing(f, None)
    sides = (_orders(packing, d) if f.is_homogeneous()
             else [list(_divisor_columns(packing, 0, d))])
    return _exponents(packing, len(f.vars),
                      [a for side in sides
                       for a in _greedy(side, len(set().union(*side)))])


def structure_tensor_of_apolar(f: Poly):
    """Multiplication tensor of the quotient algebra of f in the greedy basis.

    The pairing (a, b) -> constant term of (ab)∘f is perfect on the quotient
    algebra, so its gram matrix on the greedy basis is invertible.  The
    coefficients of the class of b_i*b_j are solved from it:
    gram * c = ((b_i b_j b_k)∘f)_0 over k, for all (i, j) by one
    ``solve_many``.  Returns (Tensor3, basis).  The dimension ell of the
    algebra, the side of the tensor, is checked against the entry guard
    once the basis is known, before the gram matrix is built.

    The constant term of x^t∘f is t! c_t, c_t the coefficient of x^t in f.
    Exponents are packed into ints as ``poly._packed`` packs them, in
    fields of w bits, w the bit length of 3 top for top the largest
    exponent of f: a basis exponent divides a term of f, so no sum of
    three of them carries into the next field, and the key of a sum is the
    sum of the keys.  f is read once, as {key(t): L t! c_t} with L the lcm
    of its denominators, so each pairing is one int addition and one
    lookup.  The gram matrix and every right-hand side are scaled by L
    together, which changes no solution.
    """
    from .tensor3 import Tensor3

    exps = greedy_monomial_basis(f)
    ell = len(exps)
    guards.check_entries(ell)
    w = (3 * max((x for e in f.terms for x in e), default=0)).bit_length()
    cells, _ = _packed(f, w)
    cells = {k: v * _fact(e) for (k, v), e in zip(cells.items(), f.terms)}
    keys = []
    for e in exps:
        k = 0
        for x in e:
            k = (k << w) | x
        keys.append(k)

    def pairings(s: int) -> SparseRow:
        """{k: L (x^s b_k)∘f at 0} over the k where it is not 0, for the
        packed exponent s."""
        return {k: cells[t] for k, b in enumerate(keys)
                if (t := s + b) in cells}

    gram = [pairings(a) for a in keys]
    # b_i b_j depends only on the exponent sum: one right-hand side per sum
    sums = list(dict.fromkeys(a + b for a in keys for b in keys))
    solved = solve_many(gram, [pairings(s) for s in sums])
    coords = {s: sorted(x.items()) for s, x in zip(sums, solved)}
    entries: Dict[Tuple[int, int, int], Rat] = {}
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            for k, ck in coords[a + b]:
                entries[(i, j, k)] = ck
    basis = [Poly.monomial(f.vars, a) for a in exps]
    labels = [str(b) for b in basis]
    return Tensor3((ell, ell, ell), entries, (labels, labels, labels)), basis


# -- twisted-form annihilation ------------------------------------------------


class TautReport(NamedTuple):
    form: Poly
    variable: str
    bound: int
    twisted: bool
    generators: List[Poly]
    kills: List[bool]

    @property
    def all_pass(self) -> bool:
        return all(self.kills)


def verify_tautological_apolarity(F: Poly, v: str, bound: Optional[int] = None,
                                  twisted: bool = True) -> TautReport:
    """Check that annihilators of the dehomogenization kill the twisted form.

    Every annihilator element of F with v set to 1, up to the degree bound
    (default: its degree + 1), is homogenized to its own degree with respect
    to the operator dual to v and applied to twist(F, v).  With twisted=False
    the same operators are applied to F itself, which is the meaningful
    negative control: the claim genuinely needs the twist.
    """
    _require_nonzero(F)
    if not F.is_homogeneous():
        raise ValueError("expected a homogeneous form")
    if v not in F.vars:
        raise ValueError(f"unknown variable {v!r}")
    f = dehomogenize(F, v)
    if bound is None:
        bound = f.degree() + 1
    gens = annihilator_upto(f, bound)
    target = twist(F, v) if twisted else F
    v_pos = F.vars.index(v)
    rep = TautReport(F, v, bound, twisted, [], [])
    for g in gens:
        gh = homogenize(g, v, g.degree(), index=v_pos)
        rep.generators.append(gh)
        rep.kills.append(apply(gh, target).is_zero())
    return rep


def boxtimes_apolar_dim(f: Poly, d: int) -> int:
    """Dimension of the partials space of the d-fold disjoint-variable power.

    Always equals (apolar_dim f)^d; computed by brute force so the identity
    is a real check.  ``boxtimes_power`` checks the |f|^d terms of the power
    before it builds them, and the partials guard of the power charges
    (cells of f)^d, which is at least (apolar_dim f)^d.
    """
    _require_nonzero(f)
    return apolar_dim(boxtimes_power(f, d))
