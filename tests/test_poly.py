from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolarium import guards
from apolarium.apolar import boxtimes_apolar_dim
from apolarium.poly import (ParseError, Poly, VarMismatchError, apply,
                            boxtimes_power, dehomogenize, diff, format_poly,
                            homogenize, monomial_key, monomials_of_degree,
                            monomials_upto, parse, restrict_zero, twist)
import oracles
from oracles import coeff

F = Fraction


# -- parsing and printing ------------------------------------------------------

def test_parse_simple():
    f = parse("x1^2 + 2*x1*x2 - 3")
    assert f.vars == ("x1", "x2")
    assert coeff(f, (2, 0)) == 1
    assert coeff(f, (1, 1)) == 2
    assert coeff(f, (0, 0)) == -3


def test_parse_fraction_coefficients():
    f = parse("1/2*x1 - 2/3")
    assert coeff(f, (1,)) == F(1, 2)
    assert coeff(f, (0,)) == F(-2, 3)


def test_parse_juxtaposition_and_parens():
    assert parse("(x1 + x2)^2") == parse("x1^2 + 2*x1*x2 + x2^2")
    assert parse("2x1(x1+1)") == parse("2*x1^2 + 2*x1")


def test_parse_natural_variable_order():
    f = parse("x10 + x2 + x1")
    assert f.vars == ("x1", "x2", "x10")


def test_parse_explicit_vars():
    f = parse("x2", vars=("x1", "x2", "x3"))
    assert f.vars == ("x1", "x2", "x3")
    with pytest.raises(ParseError):
        parse("x4", vars=("x1",))


def test_parse_errors():
    for bad in ("x1 + * x2", "((x1)", "x1^", "x1^x2", ""):
        with pytest.raises(ParseError):
            parse(bad)


def test_format_graded_ascending():
    f = parse("x2^2 + x1 + 1 + x1*x2")
    assert format_poly(f) == "1 + x1 + x1*x2 + x2^2"


def test_format_fractions_and_signs():
    f = parse("-1/2*x1^2 + x2 - 1")
    assert format_poly(f) == "-1 + x2 - 1/2*x1^2"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-5, 5).filter(bool)),
                min_size=1, max_size=6))
def test_parse_format_roundtrip(triples):
    terms = {}
    for a, b, c in triples:
        terms[(a, b)] = terms.get((a, b), F(0)) + c
    terms = {e: c for e, c in terms.items() if c}
    f = Poly(("x1", "x2"), terms)
    assert parse(format_poly(f), vars=("x1", "x2")) == f


# -- ring structure ------------------------------------------------------------

def test_arithmetic_basics():
    x1, x2 = (Poly.variable(("x1", "x2"), v) for v in ("x1", "x2"))
    f = (x1 + x2) * (x1 - x2)
    assert f == x1 ** 2 - x2 ** 2
    assert (f / 2) * 2 == f
    assert f - f == Poly.zero(("x1", "x2"))


def test_var_mismatch():
    with pytest.raises(VarMismatchError):
        parse("x1") + parse("x2", vars=("x2",))
    with pytest.raises(VarMismatchError):
        parse("x1") * parse("x2", vars=("x2",))


# -- products and powers against the schoolbook reference -------------------------

def schoolbook_product(p, q):
    """Every pair of terms multiplied as Fractions on exponent tuples, the
    keys in the order the pairs first reach them."""
    tm = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            tm[e] = tm.get(e, F(0)) + c1 * c2
    return Poly(p.vars, tm)


def schoolbook_power(p, d):
    """Square-and-multiply on schoolbook products."""
    out = Poly.const(p.vars, 1)
    base = p
    while d:
        if d & 1:
            out = schoolbook_product(out, base)
        base = schoolbook_product(base, base) if d > 1 else base
        d >>= 1
    return out


def same_terms(got, want):
    """Equal terms in equal order, each coefficient a Fraction and each
    exponent a tuple of ints."""
    assert got.vars == want.vars
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is F for c in got.terms.values())
    assert all(type(e) is tuple and all(type(x) is int for x in e)
               for e in got.terms)


# one exponent entry in five needs a wide field
exponent_entry = st.sampled_from((0, 1, 2, 3, 300))
coefficient = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def polys_on(nvars):
    names = tuple(f"x{i + 1}" for i in range(nvars))
    return st.lists(st.tuples(st.tuples(*[exponent_entry] * nvars), coefficient),
                    max_size=5).map(lambda terms: Poly(names, dict(terms)))


pairs_of_polys = st.integers(1, 7).flatmap(
    lambda n: st.tuples(polys_on(n), polys_on(n)))


@settings(max_examples=120, deadline=None)
@given(pairs_of_polys)
def test_products_match_the_schoolbook_reference(pq):
    p, q = pq
    same_terms(p * q, schoolbook_product(p, q))
    same_terms(q * p, schoolbook_product(q, p))
    same_terms(p * p, schoolbook_product(p, p))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7).flatmap(polys_on), st.integers(0, 5))
def test_powers_match_the_schoolbook_reference(p, d):
    same_terms(p ** d, schoolbook_power(p, d))


@pytest.mark.parametrize("text,d", [
    ("x1 - x2", 1), ("1/2*x1 - 2/3*x2 + 3/5", 4), ("x1^300 + 1/7", 3),
    ("x1^300*x2 - x2^2", 2), ("-3/4", 5), ("x1", 0), ("0", 0), ("0", 3)])
def test_powers_of_fractional_and_wide_polys(text, d):
    with guards.limits(max_degree=301):  # x1^300*x2 is past the default
        p = parse(text, vars=("x1", "x2"))
    same_terms(p ** d, schoolbook_power(p, d))


def test_powers_that_are_not_ints_are_refused():
    p = parse("x1 + 1")
    for d in (2.0, 1.5, "2", F(2), True, False):
        with pytest.raises(TypeError):
            p ** d
    with pytest.raises(ValueError, match="negative power"):
        p ** -1


def test_boxtimes_powers_that_are_not_ints_are_refused():
    # True and False are ints to isinstance, but no power means one
    p = parse("x1^2 + x2")
    for d in (True, False, 2.0):
        with pytest.raises(ValueError, match="is not an int"):
            boxtimes_power(p, d)
        with pytest.raises(ValueError, match="is not an int"):
            boxtimes_apolar_dim(p, d)


def test_products_that_cancel():
    x1, x2 = (Poly.variable(("x1", "x2"), v) for v in ("x1", "x2"))
    f = (x1 - x2) * (x1 + x2)
    same_terms(f, schoolbook_product(x1 - x2, x1 + x2))
    assert list(f.terms) == [(2, 0), (0, 2)]
    g = (x1 / 2 - x2 / 3) * (x1 / 2 + x2 / 3)
    assert list(g.terms.items()) == [((2, 0), F(1, 4)), ((0, 2), F(-1, 9))]
    zero = Poly.zero(("x1", "x2"))
    same_terms(f * zero, zero)
    same_terms(zero * f, zero)
    same_terms(zero ** 0, Poly.const(("x1", "x2"), 1))


def test_degree_and_parts():
    f = parse("x1^3 + x1*x2 + 1")
    assert f.degree() == 3
    assert f.graded_part(2) == parse("x1*x2", vars=("x1", "x2"))
    assert f.truncate(1) == parse("1", vars=("x1", "x2"))
    assert Poly.zero(("x1",)).degree() == -1


def test_monomial_order():
    names = ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"]
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert sorted(exps, key=monomial_key) == exps, names


def test_monomials_of_degree_count():
    assert len(monomials_of_degree(3, 4)) == 15
    assert len(monomials_upto(2, 2)) == 6


# -- derivative action ---------------------------------------------------------

def test_apply_scaling():
    f = parse("x1^4")
    sig = parse("x1^2", vars=("x1",))
    assert apply(sig, f) == 12 * parse("x1^2", vars=("x1",))


def test_apply_kills_high_degree():
    assert apply(parse("x1^3", vars=("x1",)), parse("x1^2")).is_zero()


def test_diff_matches_apply():
    f = parse("x1^2*x2 + x2^3")
    assert diff(f, "x2") == apply(parse("x2", vars=f.vars), f)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2))
def test_apply_composition(a, b, c, d):
    # acting twice composes: sigma o (tau o f) = (sigma*tau) o f
    f = parse("(x1 + 2*x2)^4 + x1^2*x2^2")
    vs = f.vars
    sigma = Poly.monomial(vs, (a, b))
    tau = Poly.monomial(vs, (c, d))
    assert apply(sigma, apply(tau, f)) == apply(sigma * tau, f)


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_apply_linear_in_operator(a, b):
    f = parse("x1^3*x2 + x2^4")
    vs = f.vars
    s = Poly.monomial(vs, (2, 0))
    t = Poly.monomial(vs, (1, 1))
    combo = s * a + t * b
    assert apply(combo, f) == apply(s, f) * a + apply(t, f) * b


# -- twist, homogenize, restrict ------------------------------------------------

def test_twist_divides_by_factorial():
    F2 = parse("x0^2*x1 + x0^3")
    tw = twist(F2, "x0")
    assert coeff(tw, (2, 1)) == F(1, 2)
    assert coeff(tw, (3, 0)) == F(1, 6)


def test_twist_identity_when_variable_absent():
    f = parse("x1*x2 + x2^2")
    g = twist(homogenize(f, "x0"), "x1")
    assert coeff(g, g.terms_sorted()[0][0]) is not None  # no crash
    assert twist(f, "x1") == parse("x1*x2 + x2^2")


def test_homogenize_dehomogenize_roundtrip():
    f = parse("x1^2 + x2 + 3")
    G = homogenize(f, "x0")
    assert G.is_homogeneous() and G.degree() == 2
    assert G.vars == ("x0", "x1", "x2")
    assert dehomogenize(G, "x0") == f


def test_homogenize_higher_degree_and_errors():
    f = parse("x1^2 + 1")
    G = homogenize(f, "x0", d=3)
    assert G.degree() == 3 and G.is_homogeneous()
    with pytest.raises(ValueError):
        homogenize(f, "x0", d=1)
    with pytest.raises(ValueError):
        homogenize(f, "x1")


@pytest.mark.parametrize("d", [2.0, 3.5, "3"])
def test_homogenize_refuses_a_degree_that_is_not_an_int(d):
    # the result is stored without a second check, so no exponent of it
    # may be a float or a string
    with pytest.raises(ValueError, match="is not an int"):
        homogenize(parse("x1^2 + 1"), "x0", d=d)


def test_dehomogenize_adds_terms_that_meet_and_drops_their_zeros():
    F = parse("x0*x1 - x1 + x0^2*x2 + 1/2*x2")
    f = dehomogenize(F, "x0")
    assert f.vars == ("x1", "x2") and f.terms == {(0, 1): Fraction(3, 2)}
    assert dehomogenize(parse("x0 - 1"), "x0").is_zero()


@pytest.mark.parametrize("exponent", [(1.5,), (True,), ("2",)])
def test_exponents_that_are_not_ints_are_refused(exponent):
    # int() would read 1.5 and True as 1 and "2" as 2
    with pytest.raises(ValueError, match="is not a tuple of ints"):
        Poly(("x",), {exponent: 1})


def test_restrict_zero():
    g = parse("x1^2 + x1*y1 + y1^2 + x2")
    r = restrict_zero(g, ["y1"])
    assert r == parse("x1^2 + x2")
    assert r.vars == ("x1", "x2")


# -- disjoint-variable products --------------------------------------------------

def test_boxtimes_square_names_and_value():
    f = parse("x1^2 + x2")
    g = boxtimes_power(f, 2)
    assert g.vars == ("x11", "x21", "x12", "x22")
    assert g == parse("(x11^2 + x21)*(x12^2 + x22)",
                      vars=("x11", "x21", "x12", "x22"))


def test_boxtimes_one_renames():
    f = parse("x1^2 + x2")
    g = boxtimes_power(f, 1)
    assert g.vars == ("x11", "x21")


def test_boxtimes_collision_detected():
    # copy 11 of x1 and copy 1 of x11 would both be called x111
    f = parse("x1*x11", vars=("x1", "x11"))
    with pytest.raises(VarMismatchError):
        boxtimes_power(f, 11)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(polys_on), st.integers(1, 3))
def test_boxtimes_matches_the_product_of_copies(p, d):
    same_terms(boxtimes_power(p, d), oracles.boxtimes_power(p, d))


def test_boxtimes_charges_its_terms():
    # 3^4 = 81 products of terms, past a limit of 80; a limit of 81 admits
    # them
    f = parse("x1*x2 + x1 + x2")
    with guards.limits(max_terms=80), pytest.raises(guards.LimitExceeded,
                                                    match="term count 81"):
        boxtimes_power(f, 4)
    with guards.limits(max_terms=81):
        assert len(boxtimes_power(f, 4).terms) == 81


def test_keys_of_one_exponent_add_their_coefficients():
    # (1, 0) and b"\x01\x00" are two keys of one exponent tuple
    p = Poly(("x", "y"), {(1, 0): F(1, 2), (0, 1): 1, b"\x01\x00": 2})
    assert p.terms == {(1, 0): F(5, 2), (0, 1): F(1)}
    assert list(p.terms) == [(1, 0), (0, 1)]
    q = Poly(("x", "y"), {(1, 0): 3, (0, 1): 1, b"\x01\x00": -3})
    assert q.terms == {(0, 1): F(1)}
    assert Poly(("x", "y"), {(1, 0): 3, b"\x01\x00": -3}).is_zero()


@pytest.mark.parametrize("exponent, message", [
    ((1, -1, 2.5), "is not a tuple of ints"),
    ((-1, 0, 0), "wrong length"),
    ((0, -1), "negative exponent"),
])
def test_the_first_failed_exponent_check_is_reported(exponent, message):
    with pytest.raises(ValueError, match=message):
        Poly(("x", "y"), {exponent: 1})
