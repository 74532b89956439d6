"""Sparse multivariate polynomials over Q, plus the differentiation pairing.

A polynomial is a mapping from exponent vectors (fixed-length int tuples,
one slot per variable) to nonzero Fractions.  The variable tuple is part of
the value; binary arithmetic requires identical variable tuples, while the
differentiation pairing `apply` is positional (variable i of the operator
differentiates variable i of the argument, names are cosmetic).

Canonical term order is graded: lower total degree first, and within a degree
the monomial with the larger exponent on an earlier variable comes first
(so 1 < x1 < x2 < x1^2 < x1*x2 < x2^2).  All printed output and all
echelonized bases elsewhere follow this order.  The order of ``terms`` is
not canonical: it is the order in which a computation produced its terms,
and every operation here keeps it deterministic.

Products and powers run on packed exponents (Monagan & Pearce 2007): each
exponent is one int with a field of w bits per variable, w the bit length
of the product's total-degree bound, so no field carries into the next and
the key of a product of two monomials is the sum of their keys.  Each factor
is scaled to ints by the lcm L of its denominators, ``f ** d`` keeps its
whole square-and-multiply ladder on int keys and int cells, and the result
is unpacked once, each coefficient ``Fraction(v, L ** d)``.

``Poly.__init__`` checks everything it is given.  Results computed here
from ``Poly`` values that were already checked go through
``Poly._trusted``, which stores its dict as it is.  It relies on every key
being a tuple of nonnegative ints of the variable count and every value a
nonzero ``Fraction``, so any sum that can cancel drops its zeros first.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import guards
from .scalars import Rat, as_int, rat

Exponent = Tuple[int, ...]
TermMap = Dict[Exponent, Rat]


class VarMismatchError(ValueError):
    pass


class ParseError(ValueError):
    pass


def monomial_key(e: Exponent):
    """Sort token for the canonical graded order (ascending)."""
    return (sum(e), tuple(-x for x in e))


_NAT_SPLIT = re.compile(r"(\d+)")


def natural_key(name: str):
    """Sort token treating digit runs numerically, so x2 < x10."""
    parts = _NAT_SPLIT.split(name)
    return tuple(int(p) if p.isdigit() else p for p in parts)


def _bad_exponent(key, vs: Tuple[str, ...]) -> ValueError:
    """The error of the first check that the exponent key fails: its
    entries are ints, there is one per variable, and none is negative."""
    if not all(type(x) is int for x in key):
        return ValueError(f"exponent {key!r} is not a tuple of ints")
    e = tuple(key)
    if len(e) != len(vs):
        return ValueError(f"exponent {e} has wrong length for vars {vs}")
    return ValueError(f"negative exponent in {e}")


class Poly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Dict[Exponent, object]):
        """Check and store terms {exponent: coefficient}.

        Each key is read once as a tuple: its entries must be ints >= 0,
        one per variable (any other key raises ValueError), and each
        coefficient goes through ``rat``.  Zero coefficients are dropped.
        Two keys that give one tuple, as (1, 0) and b"\\x01\\x00", add their
        coefficients at the place of the first, and drop the term if they
        cancel; any other term is stored as it is, with no addition."""
        vs = tuple(vars)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs}")
        n = len(vs)
        tm: TermMap = {}
        for key, c in terms.items():
            e = tuple(key)
            for x in e:
                if type(x) is not int or x < 0:
                    raise _bad_exponent(key, vs)
            if len(e) != n:
                raise _bad_exponent(key, vs)
            c = rat(c)
            if not c:
                continue
            if e in tm:  # two keys of one exponent, as (1,) and b"\x01"
                c += tm[e]
                if not c:
                    del tm[e]
                    continue
            tm[e] = c
        self.vars = vs
        self.terms = tm

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, vars: Tuple[str, ...], terms: TermMap) -> "Poly":
        """Store a result without the checks of ``__init__``.

        Only for results computed in this module from checked ``Poly``
        values: vars is such a value's tuple, every key a tuple of ints
        >= 0 of its length, every value a nonzero Fraction, and nothing
        else holds the dict."""
        p = cls.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: Sequence[str], c) -> "Poly":
        return cls(vars, {(0,) * len(tuple(vars)): rat(c)})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "Poly":
        vs = tuple(vars)
        i = vs.index(name)
        e = [0] * len(vs)
        e[i] = 1
        return cls(vs, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, vars: Sequence[str], exp: Sequence[int], c=1) -> "Poly":
        return cls(vars, {tuple(exp): rat(c)})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def terms_sorted(self) -> List[Tuple[Exponent, Rat]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, key=monomial_key)]

    def graded_part(self, d: int) -> "Poly":
        return Poly._trusted(self.vars, {e: c for e, c in self.terms.items()
                                         if sum(e) == d})

    def truncate(self, d: int) -> "Poly":
        """Sum of the homogeneous parts of degree <= d."""
        return Poly._trusted(self.vars, {e: c for e, c in self.terms.items()
                                         if sum(e) <= d})

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.vars != other.vars:
            raise VarMismatchError(f"{self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        self._check(other)
        tm = dict(self.terms)
        for e, c in other.terms.items():
            tm[e] = tm.get(e, Fraction(0)) + c
        return Poly._trusted(self.vars, {e: c for e, c in tm.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(self.vars, other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = rat(other)
            return Poly._trusted(self.vars, {e: c * v for e, v in
                                             self.terms.items()} if c else {})
        self._check(other)
        if not (self.terms and other.terms):
            return Poly._trusted(self.vars, {})
        w = (self.degree() + other.degree()).bit_length() or 1
        a, la = _packed(self, w)
        b, lb = _packed(other, w)
        return _unpacked(self.vars, w, _times(a, b), la * lb)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / rat(other))

    def __pow__(self, d: int):
        if not isinstance(d, int) or isinstance(d, bool):
            raise TypeError(f"power {d!r} is not an int")
        if d < 0:
            raise ValueError("negative power")
        if not d:
            return Poly.const(self.vars, 1)
        if not self.terms:
            return Poly._trusted(self.vars, {})
        w = (d * self.degree()).bit_length() or 1
        base, scale = _packed(self, w)
        out: Dict[int, int] = {0: 1}
        den = 1
        while d:
            if d & 1:
                out = _times(out, base)
                den *= scale
            if d > 1:
                base = _times(base, base)
                scale *= scale
            d >>= 1
        return _unpacked(self.vars, w, out, den)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({','.join(self.vars)}: {format_poly(self)})"

    def __str__(self):
        return format_poly(self)


# -- packed products ------------------------------------------------------------


def _packed(p: Poly, w: int) -> Tuple[Dict[int, int], int]:
    """({exponent packed in fields of w bits: L * coefficient}, L), L the
    lcm of p's denominators, in p's term order."""
    scale = math.lcm(*(c.denominator for c in p.terms.values()))
    out: Dict[int, int] = {}
    for e, c in p.terms.items():
        k = 0
        for x in e:
            k = (k << w) | x
        out[k] = c.numerator * (scale // c.denominator)
    return out, scale


def _times(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """The product of two packed polynomials, its keys in the order the
    term pairs first reach them, cancelled terms dropped."""
    acc: Dict[int, int] = {}
    get = acc.get
    pairs = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in pairs:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return {k: v for k, v in acc.items() if v}


def _unpacked(vars: Tuple[str, ...], w: int, packed: Dict[int, int],
              den: int) -> Poly:
    """The Poly of packed terms whose coefficients were scaled by den."""
    mask = (1 << w) - 1
    shifts = [w * i for i in reversed(range(len(vars)))]
    return Poly._trusted(vars, {
        tuple([(k >> s) & mask for s in shifts]): Fraction(v, den)
        for k, v in packed.items()})


# -- the differentiation pairing --------------------------------------------


def apply(sigma: Poly, f: Poly) -> Poly:
    """Apply a dual operator to a polynomial: sigma ∘ f.

    Positional pairing: the k-th variable of sigma differentiates the k-th
    variable of f.  On monomials, a^k ∘ x^m = m!/(m-k)! * x^(m-k) when
    k <= m componentwise, else 0; extended bilinearly.
    """
    if len(sigma.vars) != len(f.vars):
        raise VarMismatchError(
            f"operator arity {len(sigma.vars)} != polynomial arity {len(f.vars)}")
    tm: TermMap = {}
    for s, cs in sigma.terms.items():
        for m, cf in f.terms.items():
            if any(k > mm for k, mm in zip(s, m)):
                continue
            scale = 1
            for k, mm in zip(s, m):
                if k:
                    scale *= math.perm(mm, k)
            e = tuple(mm - k for mm, k in zip(m, s))
            if e in tm:  # pairs with one difference m - s add up
                tm[e] += cs * cf * scale
            else:
                tm[e] = cs * cf * scale
    return Poly._trusted(f.vars, {e: c for e, c in tm.items() if c})


def diff(f: Poly, name: str) -> Poly:
    """Partial derivative with respect to one variable."""
    return apply(Poly.variable(f.vars, name), f)


def twist(F: Poly, v: str) -> Poly:
    """Divide each term's coefficient by (exponent of v)!."""
    if v not in F.vars:
        raise VarMismatchError(f"unknown variable {v!r}")
    i = F.vars.index(v)
    return Poly._trusted(F.vars, {e: c / math.factorial(e[i])
                                  for e, c in F.terms.items()})


# -- variable plumbing -------------------------------------------------------


def dehomogenize(F: Poly, v: str) -> Poly:
    """Substitute v = 1 and drop v from the variable tuple."""
    if v not in F.vars:
        raise VarMismatchError(f"unknown variable {v!r}")
    i = F.vars.index(v)
    new_vars = F.vars[:i] + F.vars[i + 1:]
    tm: TermMap = {}
    for e, c in F.terms.items():
        ne = e[:i] + e[i + 1:]
        tm[ne] = tm.get(ne, Fraction(0)) + c
    return Poly._trusted(new_vars, {e: c for e, c in tm.items() if c})


def homogenize(f: Poly, v: str, d: Optional[int] = None,
               index: Optional[int] = None) -> Poly:
    """Multiply each term by v^(d - its degree); v must be fresh.

    d defaults to deg f.  The new variable is inserted where it belongs under
    the natural name order (x0 goes in front of x1), unless an explicit index
    is given.
    """
    if v in f.vars:
        raise VarMismatchError(f"variable {v!r} already present")
    if d is None:
        d = f.degree()
    if d < f.degree():
        raise ValueError(f"target degree {d} < deg f = {f.degree()}")
    if index is None:
        index = 0
        key = natural_key(v)
        while index < len(f.vars) and natural_key(f.vars[index]) < key:
            index += 1
    new_vars = f.vars[:index] + (v,) + f.vars[index:]
    tm: TermMap = {}
    for e, c in f.terms.items():
        ne = e[:index] + (d - sum(e),) + e[index:]
        tm[ne] = c
    return Poly(new_vars, tm)


def restrict_zero(F: Poly, vars_to_kill: Iterable[str]) -> Poly:
    """Substitute 0 for the listed variables and drop them from the tuple."""
    kill = list(vars_to_kill)
    for v in kill:
        if v not in F.vars:
            raise VarMismatchError(f"unknown variable {v!r}")
    kill_idx = {F.vars.index(v) for v in kill}
    new_vars = tuple(v for i, v in enumerate(F.vars) if i not in kill_idx)
    tm: TermMap = {}
    for e, c in F.terms.items():
        if any(e[i] for i in kill_idx):
            continue
        ne = tuple(x for i, x in enumerate(e) if i not in kill_idx)
        tm[ne] = c
    return Poly(new_vars, tm)


def boxtimes_power(f: Poly, d: int) -> Poly:
    """Product of d copies of f in pairwise-disjoint variables.

    Copy t (1-based) renames every variable v to v + str(t), e.g.
    boxtimes_power on vars (x1, x2) with d = 2 lives on (x11, x21, x12, x22).
    The copies share no variable, so no two terms of the product meet: each
    d-tuple of terms of f gives one term, its exponents side by side and
    the product of its coefficients.  Its |f|^d terms are checked against
    the term guard before any is built.
    """
    if as_int(d, "power") < 1:
        raise ValueError("need d >= 1")
    new_vars = [v + str(t) for t in range(1, d + 1) for v in f.vars]
    if len(set(new_vars)) != len(new_vars):
        raise VarMismatchError(f"copy renaming collides on {f.vars}")
    guards.check_terms(len(f.terms) ** d)
    terms: TermMap = {(): Fraction(1)}
    for _ in range(d):  # the terms of one more copy on the right
        terms = {k + e: v * c for k, v in terms.items()
                 for e, c in f.terms.items()}
    return Poly(new_vars, terms)


def ldf(f: Poly) -> Poly:
    """Lowest-degree homogeneous part."""
    if f.is_zero():
        raise ValueError("ldf of the zero polynomial")
    return f.graded_part(min(sum(e) for e in f.terms))


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of given length summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def monomials_of_degree(nvars: int, d: int) -> List[Exponent]:
    """Exponent vectors of total degree d, in canonical (graded) order."""
    return sorted(_compositions(d, nvars), key=monomial_key)


def monomials_upto(nvars: int, d: int) -> List[Exponent]:
    """Exponent vectors of total degree <= d, in canonical order."""
    out: List[Exponent] = []
    for k in range(d + 1):
        out.extend(monomials_of_degree(nvars, k))
    return out


# -- text form ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(.))")


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        pos = m.end()
        num, name, sym = m.groups()
        if num is not None:
            out.append(("num", int(num)))
        elif name is not None:
            out.append(("var", name))
        elif sym.strip():
            out.append(("sym", sym))
    return out


class _Parser:
    """Recursive descent for the polynomial grammar.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*')? factor)*      -- juxtaposition allowed
    factor := atom ('^' integer)?
    atom   := number | variable | '(' expr ')'
    number := integer ('/' integer)?

    Identifiers are greedy ([A-Za-z][A-Za-z0-9]*), so products of variables
    need '*' or parentheses between them: "x1*x2", not "x1x2".

    Each product and power is checked against the degree and term guards
    before it is expanded (see ``charge``).
    """

    def __init__(self, tokens, vars: Tuple[str, ...]):
        self.toks = tokens
        self.i = 0
        self.vars = vars

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect_sym(self, s):
        kind, val = self.take()
        if kind != "sym" or val != s:
            raise ParseError(f"expected {s!r}, got {val!r}")

    def parse_expr(self) -> Poly:
        kind, val = self.peek()
        neg = False
        if kind == "sym" and val in "+-":
            self.take()
            neg = val == "-"
        p = self.parse_term()
        if neg:
            p = -p
        while True:
            kind, val = self.peek()
            if kind == "sym" and val in "+-":
                self.take()
                q = self.parse_term()
                p = p - q if val == "-" else p + q
            else:
                return p

    def charge(self, degree: int, products: int) -> None:
        """Refuse a product or power of nonzero polynomials past the guards
        before it is expanded: its degree, and its term count bounded by
        both the `products` of terms it sums and the monomials of its
        degree in the variables."""
        guards.check_degree(degree)
        guards.check_terms(min(products, math.comb(len(self.vars) + degree,
                                                   degree)))

    def parse_term(self) -> Poly:
        p = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "sym" and val == "*":
                self.take()
            elif not (kind in ("num", "var") or (kind == "sym" and val == "(")):
                return p
            q = self.parse_factor()
            if p.terms and q.terms:
                self.charge(p.degree() + q.degree(),
                            len(p.terms) * len(q.terms))
            p = p * q

    def parse_factor(self) -> Poly:
        p = self.parse_atom()
        kind, val = self.peek()
        if kind == "sym" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer")
            if p.terms:
                # the multisets of val of p's terms
                self.charge(val * p.degree(),
                            math.comb(len(p.terms) + val - 1, val))
            p = p ** val
        return p

    def parse_atom(self) -> Poly:
        kind, val = self.take()
        if kind == "num":
            kind2, val2 = self.peek()
            if kind2 == "sym" and val2 == "/":
                self.take()
                kind3, val3 = self.take()
                if kind3 != "num" or val3 == 0:
                    raise ParseError("bad rational coefficient")
                return Poly.const(self.vars, Fraction(val, val3))
            return Poly.const(self.vars, val)
        if kind == "var":
            if val not in self.vars:
                raise ParseError(f"unknown variable {val!r}")
            return Poly.variable(self.vars, val)
        if kind == "sym" and val == "(":
            p = self.parse_expr()
            self.expect_sym(")")
            return p
        raise ParseError(f"unexpected token {val!r}")


def _collect_names(tokens) -> Tuple[str, ...]:
    seen = []
    for kind, val in tokens:
        if kind == "var" and val not in seen:
            seen.append(val)
    return tuple(sorted(seen, key=natural_key))


def parse(text: str, vars: Optional[Sequence[str]] = None) -> Poly:
    """Parse polynomial text.

    When vars is omitted, the variable tuple is the set of names appearing in
    the text in natural order (x0 < x1 < ... < x10).  Pass vars explicitly to
    fix the ambient ring (e.g. to include variables the text does not use).
    """
    tokens = _tokenize(text)
    vs = tuple(vars) if vars is not None else _collect_names(tokens)
    if not tokens:
        raise ParseError("empty input")
    parser = _Parser(tokens, vs)
    p = parser.parse_expr()
    if parser.i != len(tokens):
        raise ParseError(f"trailing input at token {parser.i}")
    return p


def _format_coeff(c: Rat) -> str:
    return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(p: Poly) -> str:
    """Canonical text: graded term order, '*' products, 'p/q' coefficients."""
    if p.is_zero():
        return "0"
    chunks: List[str] = []
    for e, c in p.terms_sorted():
        factors = [f"{v}^{k}" if k > 1 else v
                   for v, k in zip(p.vars, e) if k]
        mono = "*".join(factors)
        a = abs(c)
        if not mono:
            body = _format_coeff(a)
        elif a == 1:
            body = mono
        else:
            body = f"{_format_coeff(a)}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)
