"""Tests for apolar.py: partials spaces, annihilators, catalecticants, pairings."""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apolarium import exact
from apolarium.apolar import (
    _divisor_columns,
    _packing,
    annihilator_upto,
    apolar_dim,
    boxtimes_apolar_dim,
    catalecticant_rank,
    greedy_monomial_basis,
    hilbert_function,
    is_concise,
    structure_tensor_of_apolar,
    verify_tautological_apolarity,
)
from apolarium.exact import SparseEchelon, _transpose, sparse_rank
import oracles
from oracles import packed_key, rref, spy_primes, spy_rows_read
from apolarium.papersuite import BIG_CUBIC, ENCOMPASS_CORPUS, TAUT_CORPUS
from apolarium.poly import (Poly, apply, diff, format_poly, monomial_key,
                            monomials_of_degree, monomials_upto, parse, twist)
from apolarium.tensor3 import cw


# -- partials spaces and dimensions -------------------------------------------


def test_dim_of_product_of_nine_variables():
    f = parse("*".join(f"x{i}" for i in range(1, 10)))
    assert apolar_dim(f) == 512
    assert tuple(hilbert_function(f)) == (1, 9, 36, 84, 126, 126, 84, 36, 9, 1)


def test_dim_small_cases():
    assert apolar_dim(parse("x1^2")) == 3
    assert apolar_dim(parse("x1^2 + x2^2")) == 4
    assert apolar_dim(parse("x1*x2")) == 4
    assert apolar_dim(parse("(x1^2 + x2)^2")) == 6


def test_five_variable_cubic_and_its_square():
    f = parse("x3^3 + x1*x2*x4 + x3*x4^2 + x2^2*x5 + x2*x3*x5"
              " + x1*x5^2 + x5^3")
    assert apolar_dim(f) == 12
    assert apolar_dim(f ** 2) == 67


def test_partials_space_filtrations():
    f = parse("x1^2 + x2")
    filt_ge, hf = oracle_partials(f)
    assert filt_ge == [3, 2, 1, 0]
    assert tuple(hilbert_function(f)) == hf == (1, 1, 1)
    assert apolar_dim(f) == 3


def test_filtration_shapes_are_monotone():
    for s in ("x1^3 + x2^3", "(x1^2 + x2)^2", "x1*x2*x3"):
        f = parse(s)
        filt_ge, _ = oracle_partials(f)
        hf = tuple(hilbert_function(f))
        assert all(a >= b for a, b in zip(filt_ge, filt_ge[1:]))
        assert filt_ge == [sum(hf[i:]) for i in range(len(filt_ge))]
        assert filt_ge[0] == apolar_dim(f) == sum(hf)
        assert filt_ge[-1] == 0


def test_hilbert_function_values():
    assert tuple(hilbert_function(parse("x1^3 + x2^3"))) == (1, 2, 2, 1)
    assert tuple(hilbert_function(parse("(x1^2 + x2)^2"))) == (1, 2, 1, 1, 1)
    assert hilbert_function(parse("x1^5")) == (1, 1, 1, 1, 1, 1)


def test_hilbert_function_of_homogeneous_form_is_symmetric():
    # the Hilbert function mirrors its lower half; catalecticant_rank builds
    # and ranks each block on its own, the upper half included
    for s in ("x1^3 + x2^3", "x1*x2*x3", "x1^2*x2 + x2^2*x3",
              "(x1^2 + x2^2)^2", "x1^4*x2 + x1*x3^4 + x2^2*x3^3"):
        F = parse(s)
        vals = tuple(hilbert_function(F))
        assert vals == tuple(catalecticant_rank(F, k)
                             for k in range(F.degree() + 1))
        assert vals == vals[::-1]
        assert vals[0] == 1


@pytest.mark.parametrize("s", ["x1^0", "x1 + 2*x2", "x1*x2", "x1^3 + x2^3",
                               "x1*x2*x3*x4", "x1^4*x2 + x1*x3^4"])
def test_hilbert_function_of_a_form_ranks_the_lower_half(monkeypatch, s):
    from apolarium import apolar
    calls = []
    ranker = apolar.sparse_rank

    def spy(rows):
        calls.append(None)
        return ranker(rows)
    monkeypatch.setattr(apolar, "sparse_rank", spy)
    F = parse(s)
    vals = hilbert_function(F)
    assert len(calls) == F.degree() // 2 + 1
    monkeypatch.undo()
    assert vals == tuple(catalecticant_rank(F, k)
                         for k in range(F.degree() + 1))


def test_is_concise():
    assert is_concise(parse("x1^2 + x2^2"))
    assert is_concise(parse("x1*x2*x3"))
    # x2 never appears: a degree-one operator annihilates
    assert not is_concise(parse("x1^2", vars=("x1", "x2")))
    # a perfect square of a linear form is annihilated by a difference
    assert not is_concise(parse("(x1 + x2)^2"))
    # a nonzero constant: in no variables nothing of degree <= 1 kills it,
    # in one variable x1 does
    assert is_concise(Poly((), {(): Fraction(3)}))
    assert not is_concise(Poly(("x1",), {(0,): Fraction(3)}))


def test_zero_rejected():
    z = parse("x1") - parse("x1")
    for fn in (apolar_dim, hilbert_function, is_concise, annihilator_upto):
        with pytest.raises(ValueError):
            fn(z)


# -- annihilators --------------------------------------------------------------


def test_annihilator_of_monomial_product():
    gens = annihilator_upto(parse("x1*x2"), 2)
    assert [format_poly(g) for g in gens] == ["x1^2", "x2^2"]


def test_annihilator_of_inhomogeneous_form():
    gens = annihilator_upto(parse("x1^2 + x2"), 2)
    assert [format_poly(g) for g in gens] == ["-2*x2 + x1^2", "x1*x2", "x2^2"]


def test_annihilator_default_bound_is_degree_plus_one():
    gens = annihilator_upto(parse("x1^2"))
    assert [format_poly(g) for g in gens] == ["x1^3"]


def test_annihilator_elements_annihilate():
    for s in ("x1*x2", "x1^2 + x2", "x1^3 + x2^3", "(x1^2 + x2)^2"):
        f = parse(s)
        for g in annihilator_upto(f):
            assert apply(g, f).is_zero()


def test_annihilator_is_an_ideal_in_low_degrees():
    # multiplying a generator by any variable still annihilates
    f = parse("x1^2 + x2^2 + x1*x3")
    for g in annihilator_upto(f, 2):
        for v in f.vars:
            assert apply(g * Poly.variable(f.vars, v), f).is_zero()


def test_annihilator_count_matches_quotient_dimension():
    # dim of operators of degree <= d  =  ideal part + quotient part
    f = parse("x1^2 + x2")
    d = 2
    gens = annihilator_upto(f, d)
    n_ops = comb(len(f.vars) + d, d) - 1  # nonconstant monomials of degree <= d
    # d >= deg f, so the operators of degree <= d reach every derivative: the
    # quotient in degrees 1..d has dimension apolar_dim(f) - 1
    assert d >= f.degree()
    assert apolar_dim(f) == oracle_partials(f)[0][0] == 3
    assert len(gens) == n_ops - (apolar_dim(f) - 1)


# -- catalecticants ------------------------------------------------------------


def test_catalecticant_ranks_of_twisted_cubic_square():
    F = parse("(x0^3 + x1^3)^2")
    assert [catalecticant_rank(F, k) for k in range(7)] == [1, 2, 3, 4, 3, 2, 1]


def catalecticant_matrix(F, k):
    """The dense Cat_k(F): rows indexed by the operator monomials of degree
    k and columns by the monomials of degree d - k, both in graded order;
    the (s, m) entry is the coefficient of m in s∘F."""
    n = len(F.vars)
    cols = monomials_of_degree(n, F.degree() - k)
    images = (apply(Poly.monomial(F.vars, s), F)
              for s in monomials_of_degree(n, k))
    return [[img.terms.get(m, Fraction(0)) for m in cols] for img in images]


def test_catalecticant_matrix_shape():
    F = parse("x0^2*x1 + x1^3")
    M = catalecticant_matrix(F, 1)
    assert len(M) == 2 and len(M[0]) == 3  # rows: deg-1 ops, cols: deg-2 monomials


def test_catalecticant_rank_symmetry():
    for s in ("x0^4 + x0*x1^3", "x0^2*x1 + x1^2*x2", "(x0^2 + x1*x2)^2"):
        F = parse(s)
        d = F.degree()
        for k in range(d + 1):
            assert catalecticant_rank(F, k) == catalecticant_rank(F, d - k)


def test_catalecticant_requires_homogeneous():
    with pytest.raises(ValueError):
        catalecticant_rank(parse("x1^2 + x2"), 1)


def test_middle_catalecticant_vs_twisted_power():
    # the square of a concise cubic: the raw middle catalecticant overshoots
    # the binomial count, the twisted square meets it exactly
    F = parse("x1^3 + x2^3 + x0*x1*y1 + x0*x2*y2 + x0^2*y0")
    S = F ** 2
    assert catalecticant_rank(S, 3) == 25          # > comb(7, 2) = 21
    assert catalecticant_rank(twist(S, "x0"), 3) == comb(7, 2)


# -- greedy bases and the pairing ---------------------------------------------


def test_greedy_monomial_basis_of_square_quadric():
    assert greedy_monomial_basis(parse("x1^2 + x2^2")) == [
        (0, 0), (1, 0), (0, 1), (2, 0)]


def test_greedy_basis_size_is_apolar_dim():
    for s in ("x1*x2", "(x1^2 + x2)^2", "x1^3 + x2^3"):
        f = parse(s)
        assert len(greedy_monomial_basis(f)) == apolar_dim(f)


def test_structure_tensor_basis_is_the_greedy_basis():
    _, basis = structure_tensor_of_apolar(parse("x1^2 + x2^2"))
    assert [format_poly(b) for b in basis] == ["1", "x1", "x2", "x1^2"]


# -- multiplication tensors ----------------------------------------------------


def test_structure_tensor_of_univariate_chain():
    T, basis = structure_tensor_of_apolar(parse("x1^2"))
    assert [format_poly(b) for b in basis] == ["1", "x1", "x1^2"]
    assert sorted((k, int(v)) for k, v in T.entries.items()) == [
        ((0, 0, 0), 1), ((0, 1, 1), 1), ((0, 2, 2), 1),
        ((1, 0, 1), 1), ((1, 1, 2), 1), ((2, 0, 2), 1)]


def test_structure_tensor_of_square_quadrics_is_three_sum():
    # the apolar algebra of x1^2 + ... + xm^2 multiplies exactly like the
    # (m+2)-dimensional three-sum tensor, entry for entry
    for m in (2, 3):
        f = parse(" + ".join(f"x{i}^2" for i in range(1, m + 1)))
        T, _ = structure_tensor_of_apolar(f)
        assert T.entries == cw(m + 2).entries
        assert T.dims == (m + 2, m + 2, m + 2)


def test_structure_tensor_is_commutative_and_unital():
    T, basis = structure_tensor_of_apolar(parse("(x1^2 + x2)^2"))
    ell = len(basis)
    for (i, j, k), v in T.entries.items():
        assert T.entries.get((j, i, k)) == v
    for j in range(ell):
        assert T.entries.get((0, j, j)) == 1  # basis[0] is the unit


# -- the tautological-apolarity check -------------------------------------------


def test_tautological_apolarity_holds_for_twisted_form():
    rep = verify_tautological_apolarity(parse("x0*x1^2 + x0^2*x2"), "x0")
    assert rep.all_pass
    assert rep.bound == 3
    assert [format_poly(g) for g in rep.generators] == [
        "-2*x0*x2 + x1^2", "x1*x2", "x2^2",
        "x1^3", "x1^2*x2", "x1*x2^2", "x2^3"]


def test_untwisted_control_fails():
    rep = verify_tautological_apolarity(parse("x0*x1^2 + x0^2*x2"), "x0",
                                        twisted=False)
    assert not rep.all_pass
    assert rep.kills == [False, True, True, True, True, True, True]


def test_tautological_apolarity_on_powers():
    for s, d in (("x0^2 + x1^2", 2), ("x0^3 + x1^3", 2), ("x0*x1*x2", 2)):
        F = parse(s) ** d
        assert verify_tautological_apolarity(F, "x0").all_pass


def test_tautological_apolarity_input_checks():
    with pytest.raises(ValueError):
        verify_tautological_apolarity(parse("x1^2 + x2"), "x1")  # inhomogeneous
    with pytest.raises(ValueError):
        verify_tautological_apolarity(parse("x1^2"), "zz")


def test_a_bound_or_order_out_of_range_is_refused():
    with pytest.raises(ValueError, match="degree bound must be >= 0"):
        annihilator_upto(parse("x1*x2"), -1)
    with pytest.raises(ValueError, match="k=3 out of range for degree 2"):
        catalecticant_rank(parse("x1*x2"), 3)


# -- disjoint-variable powers ---------------------------------------------------


def test_boxtimes_dim_is_multiplicative():
    f = parse("x1^2 + x2^2")
    assert boxtimes_apolar_dim(f, 2) == apolar_dim(f) ** 2 == 16
    assert boxtimes_apolar_dim(parse("x1*x2"), 3) == 64


def test_boxtimes_dim_guard():
    from apolarium.guards import LimitExceeded, limits
    with limits(max_terms=100), pytest.raises(LimitExceeded):
        boxtimes_apolar_dim(parse("x1*x2*x3"), 4)


# -- property tests --------------------------------------------------------------


@st.composite
def small_polys(draw):
    n = draw(st.integers(1, 2))
    vars = tuple(f"x{i}" for i in range(1, n + 1))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        e = tuple(draw(st.integers(0, 2)) for _ in vars)
        c = draw(st.integers(-3, 3))
        if c:
            terms[e] = terms.get(e, 0) + Fraction(c)
    f = Poly(vars, {e: c for e, c in terms.items() if c})
    if f.is_zero():
        f = Poly.monomial(vars, tuple(1 for _ in vars))
    return f


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_hilbert_sums_to_dim(f):
    assert sum(hilbert_function(f)) == apolar_dim(f)


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_hilbert_starts_at_one(f):
    vals = tuple(hilbert_function(f))
    assert vals[0] == 1
    assert all(v >= 0 for v in vals)


@given(small_polys())
@settings(max_examples=30, deadline=None)
def test_annihilator_generators_kill(f):
    for g in annihilator_upto(f):
        assert apply(g, f).is_zero()


# -- one-pass filtration and catalecticant ranks against the closure oracle ------


def _oracle_closure(f, seeds):
    ech = SparseEchelon(monomial_key)
    queue = [s for s in seeds if not s.is_zero() and ech.insert(s.terms)]
    while queue:
        p = queue.pop()
        for v in f.vars:
            dp = diff(p, v)
            if not dp.is_zero() and ech.insert(dp.terms):
                queue.append(dp)
    return ech


def oracle_partials(f):
    """(filt_ge, Hilbert function) from one closure per derivative order,
    the way partials spaces were computed before the one-pass sweep."""
    d = f.degree()
    whole = _oracle_closure(f, [f])
    filt_ge = [whole.rank] + [
        _oracle_closure(f, [apply(Poly.monomial(f.vars, a), f)
                            for a in monomials_of_degree(len(f.vars), i)]).rank
        for i in range(1, d + 2)]
    hf = [filt_ge[i] - filt_ge[i + 1] for i in range(d + 1)]
    while hf and hf[-1] == 0:
        hf.pop()
    return filt_ge, tuple(hf)


small_coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def linear_forms(draw, vars):
    terms = {}
    for i in range(len(vars)):
        c = draw(small_coeff)
        if c:
            terms[tuple(int(j == i) for j in range(len(vars)))] = c
    return Poly(vars, terms)


@st.composite
def forms(draw, max_degree=5):
    """Homogeneous forms in 2-4 variables of degree <= max_degree: random
    terms, powers of linear forms and sums of such powers."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, max_degree))
    vars = tuple(f"x{i}" for i in range(1, n + 1))
    kind = draw(st.sampled_from(["terms", "power", "sum of powers"]))
    if kind == "terms":
        exps = draw(st.lists(st.sampled_from(monomials_of_degree(n, d)),
                             min_size=1, max_size=4))
        f = Poly(vars, {e: draw(small_coeff) for e in exps})
    else:
        count = 1 if kind == "power" else draw(st.integers(2, 3))
        f = Poly.zero(vars)
        for _ in range(count):
            f = f + draw(linear_forms(vars)) ** d
    if f.is_zero():
        f = Poly.monomial(vars, (d,) + (0,) * (n - 1))
    return f


@st.composite
def inhomogeneous_polys(draw):
    """Polynomials in 2-4 variables of degree <= 5 with terms of at least two
    degrees, including powers of affine linear forms."""
    n = draw(st.integers(2, 4))
    vars = tuple(f"x{i}" for i in range(1, n + 1))
    if draw(st.booleans()):
        shift = draw(small_coeff.filter(bool))
        f = (draw(linear_forms(vars)) + Poly.const(vars, shift)) ** draw(
            st.integers(1, 4))
    else:
        exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n)
                             .filter(lambda e: sum(e) <= 5),
                             min_size=1, max_size=5))
        f = Poly(vars, {e: draw(small_coeff) for e in exps})
    if f.is_homogeneous():
        f = f + Poly.monomial(vars, (0,) * n, 1)
        if f.is_homogeneous():  # f was -1: add a linear term instead
            f = f + Poly.monomial(vars, (1,) + (0,) * (n - 1))
    return f


@given(forms())
@settings(max_examples=80, deadline=None)
def test_form_invariants_match_the_closure_oracle(F):
    filt_ge, hf = oracle_partials(F)
    assert tuple(hilbert_function(F)) == hf
    assert apolar_dim(F) == filt_ge[0]
    for k in range(F.degree() + 1):
        dense = catalecticant_matrix(F, k)
        assert catalecticant_rank(F, k) == hf[k] == sparse_rank(
            [{j: x for j, x in enumerate(row) if x} for row in dense])


@given(forms(max_degree=6))
@settings(max_examples=60, deadline=None)
def test_catalecticants_of_complementary_orders_are_scaled_transposes(F):
    # Cat_{d-k}[b][a] * a! == Cat_k[a][b] * b!, cell by cell, which is why
    # hilbert_function ranks only the orders k <= d/2
    def fact(e):
        return prod(factorial(x) for x in e)
    d = F.degree()
    n = len(F.vars)
    for k in range(d + 1):
        low = catalecticant_matrix(F, k)
        high = catalecticant_matrix(F, d - k)
        for i, a in enumerate(monomials_of_degree(n, k)):
            for j, b in enumerate(monomials_of_degree(n, d - k)):
                assert high[j][i] * fact(a) == low[i][j] * fact(b)


@given(inhomogeneous_polys())
@settings(max_examples=60, deadline=None)
def test_one_pass_filtration_matches_the_closure_oracle(f):
    filt_ge, hf = oracle_partials(f)
    hilb = tuple(hilbert_function(f))
    assert hilb == hf
    # the one-pass filtration, read back from its differences
    assert [sum(hilb[i:]) for i in range(len(filt_ge))] == filt_ge
    assert apolar_dim(f) == filt_ge[0]


@given(inhomogeneous_polys())
@settings(max_examples=60, deadline=None)
def test_the_hilbert_function_of_a_polynomial_ends_at_its_degree(f):
    # a term of top degree d gives its order-d derivative a nonzero
    # constant image, so H(d) > 0 and nothing past d is counted
    hilb = tuple(hilbert_function(f))
    assert len(hilb) == f.degree() + 1 and hilb[-1] > 0


@given(st.one_of(forms(max_degree=6), inhomogeneous_polys()), st.data())
@settings(max_examples=120, deadline=None)
def test_divisor_columns_hold_the_scaled_images_cell_by_cell(f, data):
    # column b holds L times the coefficient of x^b in a∘f at the key of
    # each a of order lo..hi, L the lcm of the denominators of f, in int
    # cells; one column per b, slab b_0 descending, ascending key within,
    # and for a form the columns of one order in graded order of b
    d = f.degree()
    lo = data.draw(st.integers(0, d + 1))
    hi = data.draw(st.integers(lo, d + 1))
    stream = list(_divisor_columns(_packing(f, None), lo, hi))
    w = max(x for e in f.terms for x in e).bit_length()
    scale = lcm(*(c.denominator for c in f.terms.values()))
    columns = {}  # b -> {key of a: cell}
    for a in {a for e in f.terms
              for a in product(*(range(x + 1) for x in e))}:
        if lo <= sum(a) <= hi:
            for b, c in apply(Poly.monomial(f.vars, a), f).terms.items():
                columns.setdefault(b, {})[packed_key(a, w)] = scale * c
    order = sorted(columns, key=lambda b: (-b[0], packed_key(b, w)))
    assert stream == [columns[b] for b in order]
    assert all(type(v) is int for col in stream for v in col.values())
    if f.is_homogeneous():
        for m in range(lo, hi + 1):
            graded = [b for b in order if sum(b) == d - m]
            assert graded == sorted(graded, key=monomial_key)


@given(forms(max_degree=6), st.data())
@settings(max_examples=120, deadline=None)
def test_one_order_of_a_form_stream_is_its_own_stream_and_catalecticant(
        F, data):
    # the order-m columns of the stream of orders lo..hi, in the order
    # they come: the stream of order m alone, and the transposed L * Cat_m
    # without its zero rows and columns
    d = F.degree()
    lo = data.draw(st.integers(0, d))
    hi = data.draw(st.integers(lo, d))
    m = data.draw(st.integers(lo, hi))
    packing = _packing(F, None)
    split = [col for col in _divisor_columns(packing, lo, hi)
             if next(iter(col)) >> packing[1] == m]
    assert split == list(_divisor_columns(packing, m, m))
    scale = lcm(*(c.denominator for c in F.terms.values()))
    cat = [[scale * x for x in row] for row in catalecticant_matrix(F, m)]
    rows = [{j: x for j, x in enumerate(row) if x} for row in cat]
    place = {a: i for i, a in enumerate(sorted(set().union(*split)))}
    assert [{place[a]: v for a, v in col.items()} for col in split] == (
        _transpose([row for row in rows if row], [
            j for j in range(len(cat[0])) if any(row[j] for row in cat)]))


@st.composite
def twisted_powers(draw):
    """twist(G^d, v) for a small form G and v in any position."""
    G = draw(forms(max_degree=2))
    return twist(G ** draw(st.integers(1, 2)), draw(st.sampled_from(G.vars)))


@given(st.one_of(forms(max_degree=6), twisted_powers()))
@example(parse("x1^3 + x2^3"))  # x1*x2 divides no term: rank 2 < bound 3
@settings(max_examples=120, deadline=None)
def test_catalecticant_rank_matches_the_rref_oracle_for_every_k(F):
    d = F.degree()
    ranks = [catalecticant_rank(F, k) for k in range(d + 1)]
    assert ranks == [len(rref(catalecticant_matrix(F, k))[0])
                     for k in range(d + 1)]
    assert ranks == ranks[::-1]  # k > d/2 ranks its mirror d - k


def test_orders_past_the_middle_stream_their_mirror(partials_builds):
    F = parse("x0^4*x1 + x0*x1^3*x2 + x2^5")
    ranks = [catalecticant_rank(F, k) for k in range(6)]
    assert ranks == [len(rref(catalecticant_matrix(F, k))[0])
                     for k in range(6)]
    assert partials_builds == [(0, 0), (1, 1), (2, 2), (2, 2), (1, 1),
                               (0, 0)]


def test_full_rank_reads_only_the_columns_it_needs(monkeypatch):
    # Cat_4 of twist(BIG_CUBIC^4, x0) has 528 columns; the first 126, the
    # slabs of x0-exponent >= 4, are all pivots and certify rank
    # binom(5 + 4, 4) = 126
    P = twist(parse(BIG_CUBIC) ** 4, "x0")
    counts = spy_rows_read(monkeypatch)
    assert catalecticant_rank(P, 4) == comb(9, 4) == 126
    assert counts == [126]


def test_a_short_rank_drains_the_stream_into_the_kernel(monkeypatch):
    # rank 2 of Cat_2, short of the 6 operators of order 2: every streamed
    # column reaches the multi-prime kernel
    F = parse("(x1 + 2/3*x2)^4 + x3^4")
    calls = []
    kernel = exact._kernel_mod_primes

    def spy(rows, cols, first=None):
        calls.append(list(rows))
        return kernel(rows, cols, first)
    monkeypatch.setattr(exact, "_kernel_mod_primes", spy)
    counts = spy_rows_read(monkeypatch)
    assert catalecticant_rank(F, 2) == len(
        rref(catalecticant_matrix(F, 2))[0]) == 2
    stream = list(_divisor_columns(_packing(F, 2), 2, 2))
    assert calls == [stream] and counts == [len(stream)] == [4]


@given(inhomogeneous_polys())
@settings(max_examples=80, deadline=None)
def test_inhomogeneous_apolar_dim_matches_the_closure_oracle(f):
    assert apolar_dim(f) == _oracle_closure(f, [f]).rank


def test_inhomogeneous_apolar_dim_is_certified_by_one_prime(monkeypatch):
    primes = spy_primes(monkeypatch)
    polys = [parse(t) for t in ENCOMPASS_CORPUS]
    polys = [f ** d for f in polys if not f.is_homogeneous()
             for d in range(1, f.degree() + 1)]
    assert len(polys) == 30
    dims = [apolar_dim(f) for f in polys]
    assert primes == [exact.MODULUS] * 30
    assert dims == [_oracle_closure(f, [f]).rank for f in polys]


# -- greedy rows against the incremental echelon ---------------------------------


def _images(f, exps):
    return [apply(Poly.monomial(f.vars, a), f) for a in exps]


def oracle_greedy_basis(f):
    """Every monomial derivative in graded order, inserted into one echelon:
    the operators whose images it accepts."""
    exps = monomials_upto(len(f.vars), f.degree())
    ech = SparseEchelon(monomial_key)
    return [a for a, p in zip(exps, _images(f, exps)) if ech.insert(p.terms)]


def oracle_hilbert(f):
    """One echelon fed the monomial derivatives of order d down to 0; its
    rank after order i is the dimension filt_ge[i] of their span."""
    d, n = f.degree(), len(f.vars)
    ech = SparseEchelon(monomial_key)
    filt_ge = [0] * (d + 2)
    for i in range(d, -1, -1):
        for p in _images(f, monomials_of_degree(n, i)):
            ech.insert(p.terms)
        filt_ge[i] = ech.rank
    hf = [filt_ge[i] - filt_ge[i + 1] for i in range(d + 1)]
    while hf and hf[-1] == 0:
        hf.pop()
    return tuple(hf)


def oracle_is_concise(f):
    """f and its first derivatives are nonzero and independent."""
    ech = SparseEchelon(monomial_key)
    return all(ech.insert(p.terms) for p in [f] + [diff(f, v) for v in f.vars])


def _check_greedy_rows_against_the_echelon(f):
    assert greedy_monomial_basis(f) == oracle_greedy_basis(f)
    assert tuple(hilbert_function(f)) == oracle_hilbert(f)
    assert is_concise(f) == oracle_is_concise(f)


@pytest.mark.parametrize("text", TAUT_CORPUS + ENCOMPASS_CORPUS)
def test_greedy_rows_match_the_echelon_on_the_corpora(text):
    _check_greedy_rows_against_the_echelon(parse(text))


@given(st.one_of(forms(), inhomogeneous_polys(), small_polys()))
@settings(max_examples=120, deadline=None)
def test_greedy_rows_match_the_echelon(f):
    _check_greedy_rows_against_the_echelon(f)


# -- apolar algebras certified mod MODULUS ------------------------------------


def _oracle_annihilator(f, d):
    """Kernel of the dense operator matrix, read off rref over Q."""
    sigmas = monomials_upto(len(f.vars), d)
    images = [apply(Poly.monomial(f.vars, s), f) for s in sigmas]
    coords = sorted({m for img in images for m in img.terms}, key=monomial_key)
    rows, pivots = rref([[img.terms.get(m, Fraction(0)) for img in images]
                         for m in coords])
    gens = []
    for j in range(len(sigmas)):
        if j not in pivots:
            terms = {sigmas[j]: Fraction(1)}
            terms.update((sigmas[p], -r[j]) for r, p in zip(rows, pivots)
                         if r[j])
            gens.append(Poly(f.vars, terms))
    return gens


@given(st.one_of(forms(), inhomogeneous_polys()), st.data())
@settings(max_examples=60, deadline=None)
def test_annihilator_matches_the_apply_oracle(f, data):
    # d past deg f adds operators that divide no term: zero columns
    d = data.draw(st.integers(0, f.degree() + 2), label="d")
    assert [g.terms for g in annihilator_upto(f, d)] == [
        g.terms for g in _oracle_annihilator(f, d)]


def _oracle_structure_tensor(f):
    """One rref of [gram | rhs] per pair (i, j), gram and rhs read off apply."""
    exps = greedy_monomial_basis(f)
    zero = (0,) * len(f.vars)

    def const(*es):  # constant term of (prod x^e)∘f
        s = [sum(xs) for xs in zip(*es)]
        return apply(Poly.monomial(f.vars, s), f).terms.get(zero, Fraction(0))
    gram = [[const(a, b) for b in exps] for a in exps]
    entries = {}
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            rhs = [const(a, b, c) for c in exps]
            rows, _ = rref([row + [v] for row, v in zip(gram, rhs)])
            entries.update(((i, j, k), r[-1]) for k, r in enumerate(rows)
                           if r[-1])
    return entries


def test_apolar_algebra_of_ex49_is_certified_by_one_prime(monkeypatch):
    from apolarium.papersuite import EX49_CUBIC
    f = parse(EX49_CUBIC)
    primes = spy_primes(monkeypatch)
    gens = annihilator_upto(f)
    T, basis = structure_tensor_of_apolar(f)
    assert set(primes) == {exact.MODULUS}
    monkeypatch.undo()
    assert len(gens) == comb(5 + 4, 4) - 12
    assert [format_poly(g) for g in gens] == [
        format_poly(g) for g in _oracle_annihilator(f, 4)]
    assert T.dims == (12, 12, 12) and len(basis) == 12
    assert T.entries == _oracle_structure_tensor(f)
    assert list(T.entries) == sorted(T.entries)


def test_hilbert_function_of_ex49_fourth_power_needs_three_primes(
        monkeypatch):
    # its degree-6 catalecticant block is 201 x 201 of rank 169, with kernel
    # entries past Wang's bound for one and two primes
    from apolarium.papersuite import EX49_CUBIC
    f = parse(EX49_CUBIC) ** 4
    primes = spy_primes(monkeypatch)
    assert tuple(hilbert_function(f)) == (
        1, 5, 15, 35, 70, 124, 169, 124, 70, 35, 15, 5, 1)
    assert set(primes) == set(exact.PRIMES[:3])


# Largest exponents top on both sides of each change of bit length of 3 top:
# the field width of the packed structure tensor.
TOPS = (1, 2, 3, 5, 7, 8, 15)


@st.composite
def apolar_inputs(draw):
    """A polynomial in 1 to 3 variables whose largest exponent is a top of
    TOPS, on x_i^top: a form of degree top, or x_i^top beside terms with
    exponents up to 2, with rational coefficients."""
    top = draw(st.sampled_from(TOPS))
    n = draw(st.integers(1, 3))
    form = draw(st.booleans())
    lead = [0] * n
    lead[draw(st.integers(0, n - 1))] = top
    exps = [tuple(lead)]
    for _ in range(draw(st.integers(0, 2))):
        if form:
            k = draw(st.integers(0, min(2, top)))
            e = [0] * n
            e[draw(st.integers(0, n - 1))] = top - k
            for _ in range(k):
                e[draw(st.integers(0, n - 1))] += 1
        else:
            e = [draw(st.integers(0, min(2, top))) for _ in range(n)]
        exps.append(tuple(e))
    coeffs = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1),
                       st.integers(1, 4))
    return Poly(tuple(f"x{i}" for i in range(1, n + 1)),
                {e: draw(coeffs) for e in exps})


def _same_structure_tensor(f):
    T, basis = structure_tensor_of_apolar(f)
    U, oracle_basis = oracles.structure_tensor_of_apolar(f)
    assert T.dims == U.dims
    assert list(T.entries.items()) == list(U.entries.items())
    assert T.labels == U.labels
    assert basis == oracle_basis


@given(apolar_inputs())
@settings(max_examples=60, deadline=None)
def test_packed_structure_tensor_matches_the_tuple_oracle(f):
    _same_structure_tensor(f)


@pytest.mark.parametrize("top", TOPS)
def test_packed_structure_tensor_at_each_field_width(top):
    # 3 top has bit length 2, 3, 4, 4, 5, 5, 6: each width is met, with
    # sums of three basis exponents reaching 3 top.  The basis of
    # x1 + x2^top holds x2^(top - 1), so three of them sum to 3 top - 3;
    # in fields of the bit length of 2 top, at top = 7 or 15, x2^(2^w)
    # would carry into x1 and its lookup find the term x1.
    for text in (f"x1^{top}", f"x1^{top} + 1/2*x2^{top}",
                 f"x1^{top} - x1*x2^2 + 2/3*x2", f"x1 + x2^{top}"):
        _same_structure_tensor(parse(text))
