"""Encompassing polynomials, growth of powers, and the extension construction.

A polynomial f is *encompassing* when truncation to degree <= 1 is injective
on the span of its derivatives, that is, when the truncations of its
monomial derivatives have rank apolar_dim(f); both are certified ranks of
sparse matrices.  Equivalently the dimension of the partials space of f^d
achieves the multiset bound binom(l+d-1, d) for every d, and equivalently
the total gradient map of the basis partials is dominant.
``encompassing_report`` reads the dimension, both flags and the gradient
rank off one greedy basis of f and one rank of truncations.  The extension
construction embeds any concise f as a restriction of an encompassing
polynomial g in extra variables without changing the quotient algebra's
dimensions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import guards
from .exact import independent_rows, sparse_rank
from .poly import (Exponent, Poly, apply, dehomogenize, diff, homogenize, ldf,
                   monomial_key, twist)
from .apolar import (_fact, apolar_dim, catalecticant_rank,
                     greedy_monomial_basis, is_concise)


def _scaled_cells(f: Poly) -> List[Tuple[Exponent, int]]:
    """Each term c x^e of f as (e, L c e!), an int, with L the lcm of the
    denominators of f, as ``apolar._packing`` scales its terms."""
    scale = math.lcm(*(c.denominator for c in f.terms.values()))
    return [(e, c.numerator * (scale // c.denominator) * _fact(e))
            for e, c in f.terms.items()]


def _truncations(f: Poly) -> List[Dict[int, int]]:
    """Degree-<=1 parts of the monomial derivatives a∘f scaled by L, the
    lcm of the denominators of f, as int sparse rows over the columns
    x_1, ..., x_n (0, ..., n-1) and 1 (n), which ``exact._integral``
    passes through as they are.  Every row is scaled alike, so no rank
    changes.

    A term c x^e gives L a∘f the constant L c e! when a = e, and the
    coefficient L c e! of x_i when a = e - unit_i; the cell determines e,
    so no two terms meet in one.  Derivatives of degree > 1 give no row.
    """
    n = len(f.vars)
    rows: Dict[Exponent, Dict[int, int]] = {}
    for e, v in _scaled_cells(f):
        rows.setdefault(e, {})[n] = v
        for i, x in enumerate(e):
            if x:
                rows.setdefault(e[:i] + (x - 1,) + e[i + 1:], {})[i] = v
    return list(rows.values())


def is_encompassing(f: Poly) -> bool:
    """No nonzero derivative combination has vanishing degree-<=1 part.

    Truncation to degree <= 1 is injective on the partials space exactly
    when the truncations of the monomial derivatives, which span its image,
    have rank apolar_dim(f).
    """
    return apolar_dim(f) == sparse_rank(_truncations(f))


def growth_table(f: Poly, dmax: int) -> List[Tuple[int, int, bool]]:
    """[(dim of the partials space of f^d, binom(l+d-1, d), equal) for
    d = 1..dmax], where l = apolar_dim(f), the first dimension.

    The degree, term count and ceiling of f^d are checked against the
    limits before f^d is ranked.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    rows = []
    for d in range(1, dmax + 1):
        guards.check_degree(f.degree() * d)
        p = f ** d
        guards.check_terms(len(p.terms))
        if rows:
            ceiling = math.comb(rows[0][0] + d - 1, d)
            guards.check_terms(ceiling, "growth ceiling")
            dim = apolar_dim(p)
        else:  # binom(l, 1) = l, bounded by the partials guard of f
            dim = ceiling = apolar_dim(p)
        rows.append((dim, ceiling, dim == ceiling))
    return rows


class EncompassingReport(NamedTuple):
    dim: int                       # of the partials space
    encompassing: bool
    almost_encompassing: bool
    gradient_rank: Optional[int]   # None unless f is concise


def _gradients(f: Poly, exps: List[Exponent]
               ) -> List[List[Tuple[int, int, Exponent]]]:
    """L times the gradient of a∘f, L the lcm of the denominators of f,
    for each operator a of exps whose image has degree >= 1, as its terms
    (i, int coefficient, exponent) of the derivative by variable i.

    A term c x^e of f with e >= a gives a∘f the term c e!/(e-a)! x^(e-a),
    and slot i the term L c e!/(e-a)! (e-a)_i x^(e-a-unit_i).  Distinct e
    give distinct e - a, so no terms of a∘f cancel, and a∘f has degree
    >= 1 exactly when some e >= a differs from a: when its gradient has a
    term."""
    cells = _scaled_cells(f)
    jac = []
    for a in exps:
        grad = []
        for e, v in cells:
            b = [x - y for x, y in zip(e, a)]
            if any(k < 0 for k in b):
                continue
            v //= _fact(b)
            for i, k in enumerate(b):
                if k:
                    b[i] -= 1
                    grad.append((i, v * k, tuple(b)))
                    b[i] += 1
        if grad:
            jac.append(grad)
    return jac


def encompassing_report(f: Poly, seed: int = 0) -> EncompassingReport:
    """The partials dimension of f, its two flags and, for a concise f, the
    generic rank of the Jacobian of its non-constant basis partials, all
    from one greedy monomial basis and one rank of truncations.

    dim is the length of the basis; f is concise when the basis holds all
    n first-order operators (see ``encompassing_extension``).  f is
    encompassing when the truncations have rank dim, and almost
    encompassing when f has zero degree-<=1 part and they have rank
    dim - 1: truncation is injective on its proper derivatives, a
    hyperplane as they have lower degree than f.  The Jacobian is taken at
    random integer points (coordinates in [-1000, 1000], up to 3 tries,
    keeping the best rank), its rows read off the int terms of
    ``_gradients`` and evaluated in ints: each row is scaled by the lcm of
    the denominators of f, which changes no rank, and no operator is
    applied and no ``Poly`` built.  gradient_rank is a certified lower
    bound on the generic rank, since a rank at a point never exceeds it; it
    is the generic rank only when it reaches dim - 1, the most it can be,
    which certifies a dominant gradient map.  Below dim - 1 the points may
    all have been special.
    """
    exps = greedy_monomial_basis(f)
    dim = len(exps)
    trunc = sparse_rank(_truncations(f))
    enc, almost = trunc == dim, f.truncate(1).is_zero() and trunc == dim - 1
    if sum(sum(a) == 1 for a in exps) < len(f.vars):
        return EncompassingReport(dim, enc, almost, None)
    jac = _gradients(f, exps)
    rng = random.Random(seed)
    best = 0
    for _ in range(3):
        point = [rng.randint(-1000, 1000) for _ in f.vars]
        rows = []
        for grad in jac:
            at = [0] * len(f.vars)
            for i, c, b in grad:
                for x, k in zip(point, b):
                    if k:
                        c *= x ** k
                at[i] += c
            rows.append({i: x for i, x in enumerate(at) if x})
        best = max(best, sparse_rank(rows))
        if best == dim - 1:
            break
    return EncompassingReport(dim, enc, almost, best)


# -- the extension construction ------------------------------------------------


class ExtensionResult(NamedTuple):
    g: Poly                     # in the enlarged variable set (x..., y...)
    sigma_list: List[Poly]      # normalized dual elements of degree >= 2
    G: Poly                     # homogenization of g, degree = deg g
    y_vars: List[str]


def _normalize_sigma(sigma: Poly, f: Poly) -> Poly:
    """Rescale sigma so that sigma∘f is monic at its largest monomial."""
    img = apply(sigma, f)
    if img.is_zero():
        raise ValueError(f"override element {sigma} annihilates the input")
    lead = max(img.terms, key=monomial_key)
    return sigma * (Fraction(1) / img.terms[lead])


def encompassing_extension(f: Poly,
                           sigma_override: Optional[Sequence[Poly]] = None
                           ) -> ExtensionResult:
    """Build g = sum over multi-exponents a of y^a/a! * (sigma^a ∘ f), one
    term map keyed by the exponents of x and y side by side.

    The sigma_j are operators of degree >= 2 whose classes complete
    {1, first-order operators} to a basis of the quotient algebra; by default
    the smallest such monomials (scalar-normalized so the image is monic):
    the greedy basis of a concise f starts with 1 and the first-order
    operators, and the rest of it has degree >= 2.  f is concise exactly
    when the greedy basis holds all n first-order operators: f has higher
    degree than its derivatives, so these are greedy exactly when the
    derivatives are independent.  An override list is validated against
    the same completion property.  G is homogenized with x0, or when g uses
    x0 with the first of t0, t1, ... that it does not.
    """
    n = len(f.vars)
    basis = greedy_monomial_basis(f)
    if sum(sum(a) == 1 for a in basis) < n:
        raise ValueError("extension needs a concise polynomial")
    needed = len(basis) - n - 1
    if sigma_override is not None:
        if len(sigma_override) != needed:
            raise ValueError(f"need exactly {needed} completion elements, "
                             f"got {len(sigma_override)}")
        sigmas = []
        for s in sigma_override:
            if s.is_zero() or ldf(s).degree() < 2:
                raise ValueError(f"override element {s} has a part of degree < 2")
            if len(s.vars) != n:
                raise ValueError("override arity mismatch")
            sigmas.append(_normalize_sigma(s, f))
        images = ([f] + [diff(f, v) for v in f.vars]
                  + [apply(s, f) for s in sigmas])
        cols: Dict[Exponent, int] = {}
        kept = independent_rows([{cols.setdefault(m, len(cols)): c
                                  for m, c in p.terms.items()}
                                 for p in images])
        for i, s in enumerate(sigmas, n + 1):
            if i not in kept:
                raise ValueError(f"override element {s} does not extend the basis")
    else:
        sigmas = [_normalize_sigma(Poly.monomial(f.vars, a), f)
                  for a in basis if sum(a) >= 2]

    y_names = [f"y{i + 1}" for i in range(needed)]
    for y in y_names:
        if y in f.vars:
            raise ValueError(f"variable name {y} already taken")
    big_vars = f.vars + tuple(y_names)
    # (a, sigma^a ∘ f) over the multi-exponents a of the sigmas so far.
    # Every part of a sigma has degree >= 2, so each application lowers the
    # degree by 2 or more, and an image vanishes within deg f / 2 + 1 steps.
    leaves = [((), f)]
    for s in sigmas:
        grown = []
        for a, p in leaves:
            k = 0
            while not p.is_zero():
                grown.append((a + (k,), p))
                p = apply(s, p)
                k += 1
        leaves = grown
    # the y-exponents a tell the leaves apart, so no two terms meet
    g = Poly(big_vars, {e + a: c / _fact(a)
                        for a, p in leaves for e, c in p.terms.items()})
    # one of these len(big_vars) + 1 names is free
    names = ["x0"] + [f"t{i}" for i in range(len(big_vars))]
    G = homogenize(g, next(v for v in names if v not in big_vars), g.degree())
    return ExtensionResult(g, sigmas, G, y_names)


# -- twisted-power catalecticant check -----------------------------------------


class MainTheoremReport(NamedTuple):
    form: Poly
    variable: str
    d: int
    rank: int
    expected: int
    equal: bool
    assumptions: dict
    out_of_scope: List[str]


OUT_OF_SCOPE_NOTES = [
    "smoothable-rank equality: implied by the catalecticant identity, "
    "not independently checked",
    "cactus/border-rank equality: implied, not independently checked",
]


def verify_main_theorem(F: Poly, v: str, d: int) -> MainTheoremReport:
    """Rank of the degree-d catalecticant of the twisted d-th power vs the
    saturated value binom(n+d, d), where n+1 is the number of variables.

    The term and degree guards run before any assumption is checked.  The
    report keeps F as given."""
    if F.is_zero():
        raise ValueError("zero form")
    if d < 1:
        raise ValueError("need d >= 1")
    assumptions = {"homogeneous": F.is_homogeneous()}
    if not assumptions["homogeneous"]:
        raise ValueError("expected a homogeneous form")
    n = len(F.vars) - 1
    expected = math.comb(n + d, d)
    guards.check_terms(expected)
    guards.check_degree(F.degree() * d)
    f = dehomogenize(F, v)
    assumptions["dehomogenization_nonzero"] = not f.is_zero()
    assumptions["concise"] = is_concise(F)
    assumptions["encompassing_dehomogenization"] = (
        not f.is_zero() and is_encompassing(f))
    # Renaming variables changes no rank.  For an encompassing f, the
    # binom(n + d, d) columns of Cat_d of v-exponent >= d are pivots, so
    # with v renamed variable 0 they come first and certify full rank by
    # themselves; for another f that order can cost more columns than F's.
    if assumptions["encompassing_dehomogenization"]:
        F0 = homogenize(f, v, F.degree(), index=0)
    else:
        F0 = F
    r = catalecticant_rank(twist(F0 ** d, v), d)
    return MainTheoremReport(F, v, d, r, expected, r == expected,
                             assumptions, list(OUT_OF_SCOPE_NOTES))
