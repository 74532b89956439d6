"""Spaces of partial derivatives and everything computed from them.

For a nonzero polynomial f, the span of all its derivatives D∘f is a
finite-dimensional vector space linearly isomorphic to the quotient algebra
of dual operators modulo the annihilator of f.  This module computes that
space by breadth-first closure under single derivatives with incremental
elimination, and derives from it dimensions, Hilbert functions, conciseness,
annihilators up to a degree bound, catalecticant matrices and ranks, the
multiplication tensor of the quotient algebra, and the twisted-form
annihilation check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import guards
from .exact import QMatrix, Rat, SparseEchelon, kernel_basis, rank, solve_unique
from .poly import (Exponent, Poly, apply, dehomogenize, diff, homogenize,
                   boxtimes_power, monomial_key, monomials_of_degree,
                   monomials_upto, twist)

_ZERO = Fraction(0)  # shared fill for absent cells; Fractions are immutable


def _require_nonzero(f: Poly):
    if f.is_zero():
        raise ValueError("the zero polynomial has no partials space")


def _fact(e: Exponent) -> int:
    out = 1
    for x in e:
        out *= math.factorial(x)
    return out


def _divisor_exponents(f: Poly, degree: int) -> List[Exponent]:
    """Exponents a of total degree `degree` with a <= m for some term m of f.

    These are the only monomial operators whose action on f can be nonzero.
    """
    seen = set()
    for m in f.terms:
        _bounded(m, degree, 0, [0] * len(m), seen)
    return sorted(seen, key=monomial_key)


def _bounded(cap, total, pos, cur, out):
    if total == 0:
        out.add(tuple(cur))
        return
    if pos == len(cap):
        return
    room = sum(cap[pos:])
    if room < total:
        return
    for t in range(min(cap[pos], total), -1, -1):
        cur[pos] = t
        _bounded(cap, total - t, pos + 1, cur, out)
    cur[pos] = 0


def _derivative_rows(f: Poly, order: int) -> List[Poly]:
    """All nonzero order-th monomial derivatives of f."""
    out = []
    for a in _divisor_exponents(f, order):
        p = apply(Poly.monomial(f.vars, a), f)
        if not p.is_zero():
            out.append(p)
    return out


def _closure(vars: Tuple[str, ...], seeds: Sequence[Poly]) -> SparseEchelon:
    """Echelonized span of the seeds closed under single derivatives."""
    ech = SparseEchelon(monomial_key)
    queue: List[Poly] = []
    for s in seeds:
        if not s.is_zero() and ech.insert(s.terms):
            queue.append(s)
    while queue:
        p = queue.pop()
        for v in vars:
            dp = diff(p, v)
            if not dp.is_zero() and ech.insert(dp.terms):
                queue.append(dp)
    return ech


@dataclass
class PartialsSpace:
    f: Poly
    basis: List[Poly]            # echelonized, pivots ascending
    filt_ge: List[int]           # filt_ge[i] = dim of span of order->=i derivatives
    filt_le: List[int]           # filt_le[i] = dim of span of order-<=i derivatives

    @property
    def dim(self) -> int:
        return len(self.basis)


def partials_space(f: Poly) -> PartialsSpace:
    _require_nonzero(f)
    ech = _closure(f.vars, [f])
    basis = [Poly(f.vars, row) for row in ech.basis()]
    d = f.degree()
    filt_ge = [len(basis)]
    for i in range(1, d + 2):
        sub = _closure(f.vars, _derivative_rows(f, i))
        filt_ge.append(sub.rank)
    cum = SparseEchelon(monomial_key)
    filt_le = []
    for i in range(d + 2):
        for p in _derivative_rows(f, i):
            cum.insert(p.terms)
        filt_le.append(cum.rank)
    return PartialsSpace(f, basis, filt_ge, filt_le)


def apolar_dim(f: Poly) -> int:
    _require_nonzero(f)
    return _closure(f.vars, [f]).rank


@dataclass
class HilbertFunction:
    values: Tuple[int, ...]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if isinstance(other, HilbertFunction):
            return self.values == other.values
        return tuple(self.values) == tuple(other)


def hilbert_function(f: Poly) -> HilbertFunction:
    """Successive differences of the dimension filtration by derivative order."""
    ps = partials_space(f)
    vals = [ps.filt_ge[i] - ps.filt_ge[i + 1] for i in range(len(ps.filt_ge) - 1)]
    while vals and vals[-1] == 0:
        vals.pop()
    return HilbertFunction(tuple(vals))


def is_concise(f: Poly) -> bool:
    """No operator of degree <= 1 annihilates f."""
    _require_nonzero(f)
    ech = SparseEchelon(monomial_key)
    n_rows = 0
    for p in [f] + [diff(f, v) for v in f.vars]:
        n_rows += 1
        if p.is_zero() or not ech.insert(p.terms):
            return False
    return ech.rank == n_rows


def annihilator_upto(f: Poly, d: Optional[int] = None) -> List[Poly]:
    """Echelonized basis of the operators of degree <= d killing f.

    d defaults to deg f + 1; every operator of higher degree kills f, so all
    novel generators occur by then.
    """
    _require_nonzero(f)
    if d is None:
        d = f.degree() + 1
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    n = len(f.vars)
    sigmas = monomials_upto(n, d)
    images = [apply(Poly.monomial(f.vars, s), f) for s in sigmas]
    coords = sorted({m for img in images for m in img.terms}, key=monomial_key)
    matrix = [[img.terms.get(m, _ZERO) for img in images] for m in coords]
    out = []
    for vec in kernel_basis(matrix):
        out.append(Poly(f.vars, {s: c for s, c in zip(sigmas, vec) if c}))
    return out


def catalecticant_matrix(F: Poly, k: int) -> QMatrix:
    """Matrix of the contraction by degree-k operators on a degree-d form.

    Rows are indexed by the operator monomials of degree k and columns by the
    monomials of degree d-k, both in canonical graded order; the (σ, m) entry
    is the coefficient of m in σ∘F.
    """
    _require_nonzero(F)
    if not F.is_homogeneous():
        raise ValueError("catalecticants are defined for homogeneous forms")
    d = F.degree()
    if not 0 <= k <= d:
        raise ValueError(f"k={k} out of range for degree {d}")
    n = len(F.vars)
    rows = monomials_of_degree(n, k)
    cols = monomials_of_degree(n, d - k)
    out: QMatrix = []
    for s in rows:
        img = apply(Poly.monomial(F.vars, s), F)
        out.append([img.terms.get(m, _ZERO) for m in cols])
    return out


def catalecticant_rank(F: Poly, k: int) -> int:
    return rank(catalecticant_matrix(F, k))


def max_catalecticant_rank(F: Poly) -> int:
    """Max catalecticant rank over all degrees: a border-rank lower bound."""
    _require_nonzero(F)
    if not F.is_homogeneous():
        raise ValueError("catalecticants are defined for homogeneous forms")
    d = F.degree()
    return max(catalecticant_rank(F, k) for k in range(d + 1))


# -- multiplication structure -------------------------------------------------


@dataclass
class PairingTable:
    basis: List[Poly]   # dual monomials whose classes form a basis
    gram: QMatrix       # gram[i][j] = constant term of (b_i b_j)∘f

    @property
    def exponents(self) -> List[Exponent]:
        return [next(iter(b.terms)) for b in self.basis]


def greedy_monomial_basis(f: Poly) -> List[Exponent]:
    """Smallest monomial operators (graded order) with independent images."""
    _require_nonzero(f)
    ell = apolar_dim(f)
    ech = SparseEchelon(monomial_key)
    out: List[Exponent] = []
    for deg in range(f.degree() + 1):
        for a in _divisor_exponents(f, deg):
            img = apply(Poly.monomial(f.vars, a), f)
            if not img.is_zero() and ech.insert(img.terms):
                out.append(a)
                if len(out) == ell:
                    return out
    return out


def pairing_table(f: Poly) -> PairingTable:
    """The pairing (a, b) -> constant term of (ab)∘f on the greedy basis.

    The pairing is perfect on the quotient algebra, so the gram matrix is
    always invertible.
    """
    exps = greedy_monomial_basis(f)
    gram = []
    for a in exps:
        row = []
        for b in exps:
            s = tuple(x + y for x, y in zip(a, b))
            row.append(_fact(s) * f.terms.get(s, _ZERO))
        gram.append(row)
    return PairingTable([Poly.monomial(f.vars, a) for a in exps], gram)


def structure_tensor_of_apolar(f: Poly):
    """Multiplication tensor of the quotient algebra of f in the greedy basis.

    The coefficients of the class of b_i*b_j are solved from the perfect
    pairing: gram * c = ((b_i b_j b_k)∘f)_0 over k.  Returns (Tensor3, basis).
    """
    from .tensor3 import Tensor3

    pt = pairing_table(f)
    exps = pt.exponents
    ell = len(exps)
    entries: Dict[Tuple[int, int, int], Rat] = {}
    for i in range(ell):
        for j in range(ell):
            s = tuple(x + y for x, y in zip(exps[i], exps[j]))
            v = []
            for a in exps:
                t = tuple(x + y for x, y in zip(s, a))
                v.append(_fact(t) * f.terms.get(t, _ZERO))
            c = solve_unique(pt.gram, v)
            for k, ck in enumerate(c):
                if ck:
                    entries[(i, j, k)] = ck
    labels = [str(b) for b in pt.basis]
    return Tensor3((ell, ell, ell), entries, (labels, labels, labels)), pt.basis


# -- twisted-form annihilation ------------------------------------------------


@dataclass
class TautReport:
    form: Poly
    variable: str
    bound: int
    twisted: bool
    generators: List[Poly] = field(default_factory=list)
    kills: List[bool] = field(default_factory=list)

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
    if f.is_zero():
        raise ValueError("dehomogenization vanishes")
    if bound is None:
        bound = f.degree() + 1
    gens = annihilator_upto(f, bound)
    target = twist(F, v) if twisted else F
    v_pos = F.vars.index(v)
    rep = TautReport(F, v, bound, twisted)
    for g in gens:
        gh = homogenize(g, v, g.degree(), index=v_pos)
        rep.generators.append(gh)
        rep.kills.append(apply(gh, target).is_zero())
    return rep


def boxtimes_apolar_dim(f: Poly, d: int,
                        max_terms: Optional[int] = None) -> int:
    """Dimension of the partials space of the d-fold disjoint-variable power.

    Always equals (apolar_dim f)^d; computed by brute force so the identity
    is a real check, with a size guard on both the predicted dimension and
    the term count.
    """
    _require_nonzero(f)
    if d < 1:
        raise ValueError("need d >= 1")
    ell = apolar_dim(f)
    guards.check_terms(ell ** d, max_terms)
    guards.check_terms(len(f.terms) ** d, max_terms)
    return apolar_dim(boxtimes_power(f, d))
