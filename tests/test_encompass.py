"""Tests for encompass.py: the growth criterion, extensions, and the
twisted-power catalecticant check."""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolarium.apolar import (_catalecticant_rank, apolar_dim,
                              catalecticant_rank, greedy_monomial_basis,
                              hilbert_function, is_concise)
from apolarium.encompass import (
    _normalize_sigma,
    _truncations,
    encompassing_extension,
    encompassing_report,
    growth_table,
    is_encompassing,
    verify_main_theorem,
)
from apolarium.exact import SparseEchelon, sparse_rank
from apolarium.guards import LimitExceeded, limits
from apolarium.papersuite import (BIG_CUBIC, ENCOMPASS_CORPUS, SMALL_CORPUS,
                                  TAUT_CORPUS)
from apolarium import apolar, encompass, poly
from apolarium.poly import (Poly, apply, boxtimes_power, dehomogenize, diff,
                            format_poly, homogenize, monomial_key,
                            monomials_upto, parse, restrict_zero)
import oracles
from oracles import coeff, spy_primes, spy_rows_read

V2 = ("x1", "x2")

# twenty-plus concise polynomials in one to three variables, mixing
# encompassing and non-encompassing cases
CORPUS = [
    "x1", "x1^2", "x1^3", "x1^2 + x1", "x1^3 + x1^2",
    "x1^2 + x2", "x1^3 + x2", "x1^3 + x1*x2", "x1^3 + 3*x1*x2",
    "x1^2 + x2^2", "x1*x2", "x1^3 + x2^3", "x1^2*x2",
    "x1^2 + x1*x2 + x2^3", "x1^4 + x2^2", "x1^2*x2 + x2^2",
    "x1*x2 + x1^3 + x2^3",
    "x1^2 + x2^2 + x3^2", "x1*x2*x3", "x1^2 + x2*x3",
    "x1^3 + x2^2 + x3^2", "x1*x2 + x3^2 + x3^3",
]


# -- the two flags ---------------------------------------------------------------


def test_encompassing_flags():
    assert is_encompassing(parse("x1"))
    assert is_encompassing(parse("x1^2 + x2"))
    # quotient dimension exceeds 1 + variable count: impossible to encompass
    assert not is_encompassing(parse("x1^2 + x1"))
    assert not is_encompassing(parse("x1^2"))
    assert not is_encompassing(parse("x1^2 + x2^2"))
    assert not is_encompassing(parse("x1*x2"))


def test_almost_encompassing_flags():
    def almost(text):
        return encompassing_report(parse(text)).almost_encompassing
    assert almost("x1^2")
    assert almost("x1^2 + x2^2")
    assert almost("x1*x2")
    assert almost("x1^3 + 3*x1*x2")
    # second derivatives of x1^3 are collinear with the first
    assert not almost("x1^3")
    # nonzero degree-<=1 part disqualifies immediately
    assert not almost("x1^2 + x2")


# -- the flags against an echelon-based truncation oracle ---------------------------


def _oracle_span(f, seeds):
    """Echelonized span of the seeds closed under single derivatives."""
    ech = SparseEchelon(monomial_key)
    queue = [s for s in seeds if not s.is_zero() and ech.insert(s.terms)]
    while queue:
        p = queue.pop()
        for v in f.vars:
            dp = diff(p, v)
            if not dp.is_zero() and ech.insert(dp.terms):
                queue.append(dp)
    return [Poly(f.vars, row) for row in ech.basis()]


def _oracle_truncation_injective(f, basis):
    """Is P -> (degree <= 1 part of P) injective on the span of the basis?"""
    n = len(f.vars)
    ech = SparseEchelon(int)
    for p in basis:
        t = p.truncate(1)
        row = [coeff(t, (0,) * n)] + [
            coeff(t, tuple(int(i == j) for i in range(n))) for j in range(n)]
        if not ech.insert(dict(enumerate(row))):
            return False
    return True


def oracle_is_encompassing(f):
    return _oracle_truncation_injective(f, _oracle_span(f, [f]))


def oracle_is_almost_encompassing(f):
    if not f.truncate(1).is_zero():
        return False
    return _oracle_truncation_injective(
        f, _oracle_span(f, [diff(f, v) for v in f.vars]))


def _check_flags_against_the_oracle(f):
    rep = encompassing_report(f)
    assert rep.dim == len(_oracle_span(f, [f]))
    assert is_encompassing(f) == rep.encompassing == oracle_is_encompassing(f)
    assert rep.almost_encompassing == oracle_is_almost_encompassing(f)


@pytest.mark.parametrize("text", CORPUS + ENCOMPASS_CORPUS)
def test_flags_match_the_truncation_oracle_on_corpora(text):
    _check_flags_against_the_oracle(parse(text))


small_coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                        st.integers(1, 3))


@st.composite
def encompass_polys(draw):
    """Nonzero polynomials in 1-3 variables of degree <= 4: random terms,
    random terms of degree >= 2 only, and powers of affine linear forms."""
    n = draw(st.integers(1, 3))
    vars = tuple(f"x{i}" for i in range(1, n + 1))
    kind = draw(st.sampled_from(["terms", "high terms", "affine power"]))
    if kind == "affine power":
        terms = {(0,) * n: draw(small_coeff)}
        for i in range(n):
            terms[tuple(int(j == i) for j in range(n))] = draw(small_coeff)
        return Poly(vars, terms) ** draw(st.integers(1, 4))
    low = 2 if kind == "high terms" else 0
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n)
                         .filter(lambda e: low <= sum(e) <= 4),
                         min_size=1, max_size=4))
    return Poly(vars, {e: draw(small_coeff) for e in exps})


@given(encompass_polys())
@settings(max_examples=150, deadline=None)
def test_flags_match_the_truncation_oracle(f):
    _check_flags_against_the_oracle(f)


def _fraction_truncations(f):
    """The degree-<=1 parts of the monomial derivatives a∘f, unscaled, as
    Fraction rows over x_1, ..., x_n and 1, in the order of f's terms."""
    n = len(f.vars)
    rows = {}
    for e, c in f.terms.items():
        v = c * prod(factorial(x) for x in e)
        rows.setdefault(e, {})[n] = v
        for i, x in enumerate(e):
            if x:
                rows.setdefault(e[:i] + (x - 1,) + e[i + 1:], {})[i] = v
    return list(rows.values())


@given(encompass_polys())
@settings(max_examples=100, deadline=None)
def test_truncation_rows_are_int_rows_scaled_by_one_lcm(f):
    # every row is the Fraction row times L, the lcm of f's denominators,
    # so its cells are ints, no rank moves, and _integral has nothing to do
    rows = _truncations(f)
    assert all(type(x) is int for row in rows for x in row.values())
    L = lcm(*(c.denominator for c in f.terms.values()))
    ref = _fraction_truncations(f)
    assert rows == [{j: L * x for j, x in row.items()} for row in ref]
    n = len(f.vars)
    dense = [[row.get(j, 0) for j in range(n + 1)] for row in ref]
    assert sparse_rank(rows) == sparse_rank(ref) == len(oracles.rref(dense)[1])


def _gradient_ranks_without_apply(f, seeds):
    """encompassing_report(f, seed).gradient_rank for each seed, failing
    if the report applies an operator."""
    from apolarium import encompass, poly

    def boom(*args, **kwargs):
        raise AssertionError("the gradient rank built a Poly image")
    with pytest.MonkeyPatch.context() as mp:
        for owner in (poly, encompass):
            mp.setattr(owner, "apply", boom)
        return [encompassing_report(f, seed).gradient_rank for seed in seeds]


@given(encompass_polys())
@settings(max_examples=100, deadline=None)
def test_gradient_rank_matches_the_poly_oracle(f):
    seeds = range(4)
    assert _gradient_ranks_without_apply(f, seeds) == [
        oracles.gradient_rank(f, seed) for seed in seeds]


@pytest.mark.parametrize("text", ENCOMPASS_CORPUS)
def test_gradient_rank_matches_the_poly_oracle_on_the_corpus(text):
    f = parse(text)
    assert _gradient_ranks_without_apply(f, [0]) == [
        oracles.gradient_rank(f, 0)]


# -- maximal growth ---------------------------------------------------------------


def test_growth_table_rows():
    assert growth_table(parse("x1^2"), 2)[1] == (5, 6, False)
    assert growth_table(parse("x1^2 + x2"), 2)[1] == (6, 6, True)
    assert growth_table(parse("x1^2 + x2"), 3)[2] == (10, 10, True)


def test_growth_tables():
    def dims(f, dmax):
        return [dim for dim, _, _ in growth_table(f, dmax)]
    assert dims(parse("x1"), 2) == [2, 3]
    assert dims(parse("x1^2"), 3) == [3, 5, 7]
    assert dims(parse("x1^2 + x2"), 3) == [3, 6, 10]
    assert dims(parse("x1^2 + x2^2"), 3) == [4, 9, 16]


def test_growth_never_exceeds_binomial():
    for s in CORPUS[:12]:
        f = parse(s)
        ell = apolar_dim(f)
        for d in (1, 2, 3):
            lhs, rhs, _ = growth_table(f, d)[d - 1]
            assert lhs <= rhs == comb(ell + d - 1, d)


def test_encompassing_iff_maximal_growth_on_corpus():
    for s in CORPUS:
        f = parse(s)
        enc = is_encompassing(f)
        grows = all(growth_table(f, d)[d - 1][2] for d in (2, 3))
        assert enc == grows, s


@given(encompass_polys(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_growth_table_matches_the_oracle(f, dmax):
    ell = apolar_dim(f)
    oracle = []
    for d in range(1, dmax + 1):
        dim, ceiling = apolar_dim(f ** d), comb(ell + d - 1, d)
        oracle.append((dim, ceiling, dim == ceiling))
    assert growth_table(f, dmax) == oracle


def test_encompassing_iff_gradient_dominant_on_corpus():
    for s in CORPUS:
        f = parse(s)
        rep = encompassing_report(f)
        dom = rep.gradient_rank == rep.dim - 1
        assert is_encompassing(f) == rep.encompassing == dom, s


def test_growth_input_checks():
    assert growth_table(parse("x1"), 0) == []
    with pytest.raises(ValueError):
        growth_table(Poly.zero(V2), 1)
    with limits(max_terms=50), pytest.raises(LimitExceeded):
        growth_table(parse("x1*x2*x3"), 9)


def test_growth_honours_max_degree():
    f = parse("x1^2 + x2")
    with limits(max_degree=4):
        assert growth_table(f, 2) == [(3, 3, True), (6, 6, True)]
    with limits(max_degree=3):
        with pytest.raises(LimitExceeded):
            growth_table(f, 2)


def test_growth_ceiling_is_refused_before_its_power_is_ranked(
        partials_builds):
    # binom(3 + 3 - 1, 3) = 10 > 9: x1^2 and x1^4 are ranked, x1^6 is not
    with limits(max_terms=9), pytest.raises(LimitExceeded,
                                            match="growth ceiling 10"):
        growth_table(parse("x1^2"), 3)
    assert partials_builds == [(0, 1), (0, 2)]


def test_encompassing_report_reads_conciseness_off_the_greedy_basis(
        partials_builds):
    assert encompassing_report(parse("x1^3 + x2^3")).gradient_rank == 2
    assert partials_builds == [(0, 3)]
    assert encompassing_report(parse("x1^2", vars=V2)).gradient_rank is None


# -- the extension construction ----------------------------------------------------


def test_extension_of_square_quadric():
    ext = encompassing_extension(parse("x1^2 + x2^2"))
    assert ext.g == parse("x1^2 + x2^2 + y1", vars=("x1", "x2", "y1"))
    assert ext.G == parse("x1^2 + x2^2 + x0*y1", vars=("x0", "x1", "x2", "y1"))
    assert ext.y_vars == ["y1"]
    assert [format_poly(s) for s in ext.sigma_list] == ["1/2*x1^2"]


def test_extension_of_fermat_cubic():
    vs = ("x1", "x2", "y1", "y2", "y3")
    ext = encompassing_extension(parse("x1^3 + x2^3"))
    assert ext.g == parse("x1^3 + x2^3 + x1*y1 + x2*y2 + y3", vars=vs)
    assert ext.G.is_homogeneous() and ext.G.degree() == 3
    assert ext.G == parse("x1^3 + x2^3 + x0*x1*y1 + x0*x2*y2 + x0^2*y3",
                          vars=("x0",) + vs)


def test_extension_invariants():
    for s in ("x1^2 + x2^2", "x1^3 + x2^3", "x1*x2", "x1*x2*x3"):
        f = parse(s)
        ext = encompassing_extension(f)
        assert is_encompassing(ext.g)
        assert apolar_dim(ext.g) == apolar_dim(f)
        assert tuple(hilbert_function(ext.g)) == tuple(hilbert_function(f))
        assert restrict_zero(ext.g, ext.y_vars) == f
        assert ext.G.is_homogeneous() and ext.G.degree() == f.degree()


def test_extension_noop_when_already_spanned():
    # quotient dim equals 1 + variable count: no completion needed
    ext = encompassing_extension(parse("x1^2 + x2"))
    assert ext.y_vars == [] and ext.sigma_list == []
    assert ext.g == parse("x1^2 + x2")
    assert ext.G == parse("x1^2 + x0*x2", vars=("x0", "x1", "x2"))


def test_extension_with_override():
    f = parse("x1^3 + x2^3")
    ov = [parse("x1^2 + x2^2", vars=V2), parse("x1*x2 + x2^2", vars=V2),
          parse("x1^3", vars=V2)]
    ext = encompassing_extension(f, ov)
    assert ext.g == parse("x1^3 + x2^3 + x1*y1 + x2*y1 + x2*y2 + y3",
                          vars=("x1", "x2", "y1", "y2", "y3"))
    # normalization makes each sigma's image monic at its largest monomial
    assert [format_poly(s) for s in ext.sigma_list] == [
        "1/6*x1^2 + 1/6*x2^2", "1/6*x1*x2 + 1/6*x2^2", "1/6*x1^3"]
    assert is_encompassing(ext.g)


def test_extension_override_validation():
    f = parse("x1^3 + x2^3")
    with pytest.raises(ValueError):
        encompassing_extension(f, [parse("x1^2", vars=V2)])  # wrong count
    with pytest.raises(ValueError):
        encompassing_extension(f, [parse("x1", vars=V2),
                                   parse("x2^2", vars=V2),
                                   parse("x1^3", vars=V2)])  # degree-1 part
    with pytest.raises(ValueError):
        encompassing_extension(f, [parse("x1^2", vars=V2),
                                   parse("x1^2 + x2^2", vars=V2),
                                   parse("x2^2", vars=V2)])  # dependent image


def test_extension_builds_the_partials_once(partials_builds):
    # conciseness is read off the greedy basis, so the first-order block
    # is not built on its own either
    encompassing_extension(parse("x1^3 + x2^3 + x1*x2"))
    assert partials_builds == [(0, 3)]


@pytest.mark.parametrize("text", [
    t for t in dict.fromkeys(SMALL_CORPUS + ENCOMPASS_CORPUS)
    if is_concise(parse(t))])
def test_extension_matches_the_recursive_reference(text):
    # g, the sigmas, G and the y names, for the default completion, the
    # same one reversed, and each element plus the next, whose parts can
    # have two degrees
    f = parse(text)
    sigmas = encompassing_extension(f).sigma_list
    for override in (None, sigmas[::-1],
                     [s + t for s, t in zip(sigmas, sigmas[1:])] + sigmas[-1:]):
        assert (encompassing_extension(f, override)
                == oracles.encompassing_extension(f, override))


def test_the_builders_add_and_multiply_no_polys(monkeypatch):
    # both build one term map; at the reference the same inputs make 4 and
    # 3 calls
    f, h = parse("x1^3 + x2^3 + x1*x2"), parse("x1^2 + x2")
    calls = []
    add, times = Poly.__add__, poly._times
    monkeypatch.setattr(Poly, "__add__",
                        lambda *a: calls.append("add") or add(*a))
    monkeypatch.setattr(poly, "_times",
                        lambda *a: calls.append("times") or times(*a))
    encompassing_extension(f)
    boxtimes_power(h, 3)
    assert calls == []


@pytest.mark.parametrize("text", TAUT_CORPUS)
def test_extension_of_forms_in_x0(text):
    # g takes x0 from f, so G is homogenized with the first free t_i
    f = parse(text)
    ext = encompassing_extension(f)
    assert restrict_zero(ext.g, ext.y_vars) == f
    assert is_encompassing(ext.g)
    assert ext.G.vars == ("t0",) + ext.g.vars
    assert ext.G.is_homogeneous() and ext.G.degree() == f.degree()
    assert dehomogenize(ext.G, "t0") == ext.g


def test_extension_requires_concise():
    with pytest.raises(ValueError):
        encompassing_extension(parse("x1^2", vars=V2))


# -- the extension's completion against the incremental echelon ---------------------


def _echelon_of_the_linear_part(f):
    """An echelon holding f and its first derivatives."""
    ech = SparseEchelon(monomial_key)
    for p in [f] + [diff(f, v) for v in f.vars]:
        ech.insert(p.terms)
    return ech


def oracle_default_sigmas(f):
    """The monomial operators of degree 2, ..., deg f, in graded order,
    whose images the echelon of the linear part accepts."""
    ech = _echelon_of_the_linear_part(f)
    return [Poly.monomial(f.vars, a)
            for a in monomials_upto(len(f.vars), f.degree()) if sum(a) >= 2
            and ech.insert(apply(Poly.monomial(f.vars, a), f).terms)]


def oracle_first_dependent(f, sigmas):
    """The first normalized override element whose image the echelon of
    the linear part and of the images before it rejects, or None."""
    ech = _echelon_of_the_linear_part(f)
    for s in sigmas:
        if not ech.insert(apply(s, f).terms):
            return s
    return None


def _check_the_extension_against_the_echelon(f, mix):
    """The default completion, and overrides built from it by `mix`, a list
    of (kind, other index, coefficient) per element: "shift" adds a multiple
    of another default element, "repeat" is a multiple of an earlier one."""
    if _echelon_of_the_linear_part(f).rank < len(f.vars) + 1:  # not concise
        with pytest.raises(ValueError, match="concise"):
            encompassing_extension(f)
        return
    default = oracle_default_sigmas(f)
    ext = encompassing_extension(f)
    assert ext.sigma_list == [_normalize_sigma(s, f) for s in default]
    assert ext == oracles.encompassing_extension(f)
    if not default:
        return
    override = []
    for j, (kind, k, c) in enumerate(mix[:len(default)]):
        if kind == "repeat" and j > 0:
            override.append(override[k % j] * c)
        elif len(default) > 1:
            other = (j + 1 + k % (len(default) - 1)) % len(default)
            override.append(default[j] + default[other] * c)
        else:
            override.append(default[j] * c)
    override += default[len(override):]
    normalized = [_normalize_sigma(s, f) for s in override]
    bad = oracle_first_dependent(f, normalized)
    if bad is None:
        # an override may mix degrees; every part still has degree >= 2
        ext = encompassing_extension(f, override)
        assert ext.sigma_list == normalized
        assert ext == oracles.encompassing_extension(f, override)
    else:
        with pytest.raises(ValueError) as err:
            encompassing_extension(f, override)
        assert str(err.value) == (
            f"override element {bad} does not extend the basis")


MIXES = [[], [("shift", 0, Fraction(1))] * 9,
         [("shift", 0, Fraction(-2))] + [("repeat", 0, Fraction(3))] * 8]


@pytest.mark.parametrize("text", CORPUS + ENCOMPASS_CORPUS)
def test_extension_matches_the_echelon_on_the_corpora(text):
    for mix in MIXES:
        _check_the_extension_against_the_echelon(parse(text), mix)


mix_step = st.tuples(st.sampled_from(["shift", "repeat"]),
                     st.integers(0, 20), small_coeff)


@given(encompass_polys(), st.lists(mix_step, max_size=12))
@settings(max_examples=80, deadline=None)
def test_extension_matches_the_echelon(f, mix):
    _check_the_extension_against_the_echelon(f, mix)


def test_greedy_rows_need_one_prime(monkeypatch):
    from apolarium import exact
    primes = spy_primes(monkeypatch)
    polys = [parse(t) for t in TAUT_CORPUS + ENCOMPASS_CORPUS]
    for f in polys:
        greedy_monomial_basis(f)
        hilbert_function(f)
    concise = [f for f in map(parse, CORPUS + ENCOMPASS_CORPUS + TAUT_CORPUS)
               if is_concise(f)]
    for f in concise:
        encompassing_extension(f, encompassing_extension(f).sigma_list)
    assert sum(not f.is_homogeneous() for f in polys) == 10
    assert len(concise) == 55
    assert set(primes) == {exact.MODULUS}


# -- the twisted-power catalecticant check -------------------------------------------


def test_main_theorem_small_cases():
    cases = [("x0^2 + x1^2", 2), ("x0^3 + x1^3", 2), ("x0*x1*x2", 2),
             ("x0^2 + x1^2", 3)]
    for s, d in cases:
        rep = verify_main_theorem(parse(s), "x0", d)
        n = len(rep.form.vars) - 1
        assert rep.expected == comb(n + d, d)
        assert rep.equal and rep.rank == rep.expected


def test_main_theorem_reports_assumptions():
    rep = verify_main_theorem(parse("x0^2 + x1^2"), "x0", 2)
    assert rep.assumptions == {
        "homogeneous": True,
        "dehomogenization_nonzero": True,
        "concise": True,
        "encompassing_dehomogenization": False,
    }
    assert len(rep.out_of_scope) == 2


def test_main_theorem_concise_cubic_square():
    F = parse("x1^3 + x2^3 + x0*x1*y1 + x0*x2*y2 + x0^2*y0")
    rep = verify_main_theorem(F, "x0", 2)
    assert rep.assumptions["encompassing_dehomogenization"]
    assert rep.rank == rep.expected == comb(7, 2)
    assert rep.equal


def test_main_theorem_big_cubic_fifth_power():
    # a 252 x 3003 catalecticant, certified full rank modulo a prime
    rep = verify_main_theorem(parse(BIG_CUBIC), "x0", 5)
    assert rep.rank == rep.expected == comb(10, 5) == 252
    assert rep.equal


@pytest.mark.parametrize("v", ["x0", "x1", "y2"])
def test_main_theorem_ranks_the_twist_variable_first(monkeypatch, v):
    # BIG_CUBIC with x0 moved last: x0 is renamed variable 0 again, and the
    # 56 columns of x0-exponent >= 3 certify the rank alone; the report
    # keeps the form as given.  Its dehomogenizations at x1 and y2 are not
    # encompassing, and the form is ranked as given.
    F = parse(BIG_CUBIC)
    last = homogenize(dehomogenize(F, "x0"), "x0", 3, index=5)
    assert last.vars[-1] == "x0"
    counts = spy_rows_read(monkeypatch)
    rep = verify_main_theorem(last, v, 3)
    assert rep.form is last and rep.variable == v
    assert rep.rank == rep.expected == comb(8, 3) == 56
    assert rep.assumptions["encompassing_dehomogenization"] == (v == "x0")
    if v == "x0":
        assert counts[-1] == 56
    monkeypatch.undo()
    assert rep == verify_main_theorem(F, v, 3)._replace(form=last)


def test_main_theorem_input_checks():
    with pytest.raises(ValueError):
        verify_main_theorem(parse("x0^2 + x1"), "x0", 2)  # inhomogeneous
    with pytest.raises(ValueError):
        verify_main_theorem(parse("x0^2 + x1^2"), "x0", 0)
    with limits(max_terms=10), pytest.raises(LimitExceeded):
        verify_main_theorem(parse("x0*x1*x2"), "x0", 6)
    with limits(max_degree=5), pytest.raises(LimitExceeded):
        verify_main_theorem(parse("x0*x1*x2"), "x0", 2)


@st.composite
def small_forms(draw):
    """Nonzero forms in 2-4 variables of degree 1-3 with rational
    coefficients of both signs, integral or not."""
    n = draw(st.integers(2, 4))
    D = draw(st.integers(1, 3))
    exps = draw(st.lists(st.sampled_from(poly.monomials_of_degree(n, D)),
                         min_size=1, max_size=5, unique=True))
    return Poly(tuple(f"x{i}" for i in range(n)),
                {e: draw(small_coeff) for e in exps})


@given(small_forms())
@settings(max_examples=40, deadline=None)
def test_the_integer_twisted_power_ranks_as_the_twist_of_the_power(F):
    # the int terms are M twist(F^d, v) in its term order, M = L^d top!,
    # and the main theorem's rank is that of Cat_d of twist(F^d, v)
    L = lcm(*(c.denominator for c in F.terms.values()))
    for v in F.vars:
        for d in (1, 2, 3):
            twisted = poly.twist(F ** d, v)
            scaled = poly._scaled_twisted_power(F, v, d)
            top = max(e[F.vars.index(v)] for e in scaled)
            M = L ** d * factorial(top)
            assert all(type(c) is int for c in scaled.values())
            assert list(scaled.items()) == [(e, c * M) for e, c in
                                            twisted.terms.items()]
            rank = catalecticant_rank(twisted, d)
            assert _catalecticant_rank(scaled, d) == rank
            assert verify_main_theorem(F, v, d).rank == rank


RATIONAL_BIG_CUBIC = ("1/2*x1^3 - 3/4*x2^3 + x0*x1*y1 - 2/3*x0*x2*y2"
                      " + 5/3*x0^2*y0")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_main_theorem_of_a_rational_big_cubic(d):
    # BIG_CUBIC with its x1, x2 and y variables rescaled: x0 stays fixed,
    # so its dehomogenization is encompassing and Cat_d of the twisted
    # power has full rank
    F = parse(RATIONAL_BIG_CUBIC)
    rep = verify_main_theorem(F, "x0", d)
    assert rep.assumptions["encompassing_dehomogenization"]
    assert rep.rank == rep.expected == comb(5 + d, d)
    assert rep.rank == catalecticant_rank(poly.twist(F ** d, "x0"), d)


def test_the_main_theorem_neither_twists_nor_raises_a_poly(monkeypatch):
    # the twisted power is built on int terms: no Poly of F^d or of its
    # twist is made, and the ranks read the same rows as the twist of the
    # power does
    F = parse(BIG_CUBIC)

    def boom(*args):
        raise AssertionError("a Poly power or twist was built")
    monkeypatch.setattr(poly.Poly, "__pow__", boom)
    for module in (poly, encompass, apolar):
        if hasattr(module, "twist"):
            monkeypatch.setattr(module, "twist", boom)
    counts = spy_rows_read(monkeypatch)
    rep = verify_main_theorem(F, "x0", 4)
    assert (rep.rank, rep.equal) == (126, True)
    assert counts[-1] == 126


def test_the_main_theorem_refuses_a_degree_zero_form_at_its_rank():
    # a nonzero constant is a form of degree 0, whose only catalecticant
    # is Cat_0: the rank of order d >= 1 is refused as cat-rank refuses it
    with pytest.raises(ValueError, match="^k=2 out of range for degree 0$"):
        verify_main_theorem(parse("3", ["x0", "x1"]), "x0", 2)
