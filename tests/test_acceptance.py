"""Acceptance gate: the ten headline checks, with time budgets where stated.

Every value here is frozen; each test states what it pins down.  The forms
named "the five-variable cubic" and "the concise cubic in six variables" are
the two recurring examples whose powers drive the dimension and catalecticant
checks.
"""
from __future__ import annotations

import time
from fractions import Fraction
from math import comb

from apolarium.apolar import (
    apolar_dim,
    boxtimes_apolar_dim,
    catalecticant_rank,
    hilbert_function,
    structure_tensor_of_apolar,
    verify_tautological_apolarity,
)
from apolarium.encompass import (
    encompassing_extension,
    encompassing_report,
    growth_table,
    is_encompassing,
    verify_main_theorem,
)
from apolarium.papersuite import (
    ENCOMPASS_CORPUS,
    OUT_OF_SCOPE,
    SMALL_CORPUS,
    TAUT_CORPUS,
    run_suite,
)
from apolarium.poly import parse, restrict_zero, twist
from apolarium.sweet import (
    BlockDistribution,
    chimney,
    cw_blocking,
    even_symdiff_count,
    formula_pratt,
    formula_sweet_rank,
    sp_extract,
    toric_degenerate,
    veronese_dims,
    weight_blocking,
    zero_layers,
)
from apolarium.tensor3 import (
    AbelianGroup,
    PartiallySymmetricTensor,
    Tensor3,
    algebra_A_Tk,
    cw,
    group_tensor,
    one_generic_extension,
)

FIVE_VAR_CUBIC = ("x3^3 + x1*x2*x4 + x3*x4^2 + x2^2*x5 + x2*x3*x5"
                  " + x1*x5^2 + x5^3")
SIX_VAR_CUBIC = "x1^3 + x2^3 + x0*x1*y1 + x0*x2*y2 + x0^2*y0"


def test_criterion_01_apolar_dimensions():
    start = time.monotonic()
    nine = parse("*".join(f"x{i}" for i in range(1, 10)))
    assert apolar_dim(nine) == 512
    assert tuple(hilbert_function(nine)) == (1, 9, 36, 84, 126, 126, 84,
                                             36, 9, 1)
    assert apolar_dim(parse("x1^2")) == 3
    assert apolar_dim(parse("x1^2") ** 2) == 5
    assert apolar_dim(parse("(x1^2 + x2)^2")) == 6
    f = parse(FIVE_VAR_CUBIC)
    assert apolar_dim(f) == 12
    assert apolar_dim(f ** 2) == 67
    assert time.monotonic() - start < 60


def test_criterion_02_catalecticant_ranks():
    assert catalecticant_rank(parse("(x0^3 + x1^3)^2"), 3) == 4
    assert catalecticant_rank(parse("(x1^2 + x2^2 + x3^2)^2"), 2) == 6 \
        == comb(4, 2)
    assert catalecticant_rank(parse(SIX_VAR_CUBIC) ** 2, 3) == 25


def test_criterion_03_twist_theorem():
    Q = parse("x0*x3 + x1^2 + x2^2")
    for d, expected in ((1, 4), (2, 10), (3, 20)):
        assert expected == comb(3 + d, d)
        assert catalecticant_rank(twist(Q ** d, "x0"), d) == expected
    S = parse(SIX_VAR_CUBIC) ** 2
    assert catalecticant_rank(S, 3) == 25           # the untwisted control
    assert catalecticant_rank(twist(S, "x0"), 3) == comb(7, 2) == 21


def test_criterion_04_tautological_apolarity():
    assert len(TAUT_CORPUS) >= 10
    for text in TAUT_CORPUS:
        F = parse(text)
        for d in (1, 2):
            rep = verify_tautological_apolarity(F ** d, F.vars[0])
            assert rep.all_pass, (text, d)
            assert rep.generators, (text, d)


def test_criterion_05_growth_equivalences():
    assert len(ENCOMPASS_CORPUS) >= 20
    for text in ENCOMPASS_CORPUS:
        f = parse(text)
        rows = growth_table(f, f.degree())
        # the dimension never exceeds the binomial ceiling
        assert all(lhs <= rhs for lhs, rhs, _ in rows)
        grows = all(ok for _, _, ok in rows)
        rep = encompassing_report(f, seed=0)
        assert rep.dim == apolar_dim(f) == rows[0][0], text
        enc = is_encompassing(f)
        dominant = rep.gradient_rank == rep.dim - 1
        assert enc == rep.encompassing == grows == dominant, text
    # disjoint-variable squares multiply the dimension exactly
    assert len(SMALL_CORPUS) >= 5
    for text in SMALL_CORPUS[:5]:
        f = parse(text)
        assert boxtimes_apolar_dim(f, 2) == apolar_dim(f) ** 2


def test_criterion_06_extension_construction():
    V2 = ("x1", "x2")
    quad = encompassing_extension(parse("x1^2 + x2^2"),
                                  [parse("x1^2", vars=V2)])
    assert quad.g == parse("x1^2 + x2^2 + y1", vars=("x1", "x2", "y1"))
    cub = encompassing_extension(
        parse("x1^3 + x2^3"),
        [parse("x1^2", vars=V2), parse("x2^2", vars=V2),
         parse("x1^3", vars=V2)])
    assert cub.g == parse("x1^3 + x2^3 + x1*y1 + x2*y2 + y3",
                          vars=("x1", "x2", "y1", "y2", "y3"))
    # default completions keep the quotient data on the corpus
    for text in SMALL_CORPUS:
        f = parse(text)
        ext = encompassing_extension(f)
        assert restrict_zero(ext.g, ext.y_vars) == f
        assert is_encompassing(ext.g)
        assert apolar_dim(ext.g) == apolar_dim(f)
        assert tuple(hilbert_function(ext.g)) == tuple(hilbert_function(f))


def test_criterion_07_tensor_constructions():
    ts = PartiallySymmetricTensor([[[2, 0], [0, 0]], [[1, 3], [3, 0]]])
    A = algebra_A_Tk(ts, 1)
    assert A.dims == (6, 6, 6) and A.nnz() == 15
    assert sorted((k, int(v)) for k, v in A.entries.items()) == [
        ((0, 0, 0), 1), ((0, 1, 1), 1), ((0, 2, 2), 1), ((0, 3, 3), 1),
        ((0, 4, 4), 1), ((0, 5, 5), 1),
        ((1, 0, 1), 1), ((1, 1, 4), 2), ((1, 1, 5), 1), ((1, 2, 5), 3),
        ((2, 0, 2), 1), ((2, 1, 5), 3),
        ((3, 0, 3), 1), ((4, 0, 4), 1), ((5, 0, 5), 1)]

    E = one_generic_extension(cw(3), 1)
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert E.slice(0, 0) == ident

    for n in (4, 5):
        f = parse(" + ".join(f"x{i}^2" for i in range(1, n - 1)))
        T, _ = structure_tensor_of_apolar(f)
        assert T == cw(n)


def test_criterion_08_sweet_pieces():
    start = time.monotonic()
    B3 = cw_blocking(3)
    T = group_tensor(AbelianGroup([3]))
    D = toric_degenerate(T, B3, [[0, 1, 2], [0, 1, 2], [0, -1, -2]])
    assert D == cw(3)

    large = [((0,), (1,), (-1,)), ((1,), (0,), (-1,)), ((1,), (1,), (-2,))]
    P = BlockDistribution.uniform(large)
    spD = sp_extract(D, B3, P, 3)
    spT = sp_extract(T, B3, P, 3, check_tight=False)
    assert spD.tensor == spT.tensor

    TB = Tensor3((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    Bw = weight_blocking([0, 1])
    Pu = BlockDistribution.uniform([
        ((0,), (0,), (0,)), ((0,), (1,), (-1,)), ((1,), (0,), (-1,))])
    sp = sp_extract(TB, Bw, Pu, 3)
    assert sp.tensor.dims == (3, 3, 3) and sp.tensor.nnz() == 6
    assert all(v == 1 for v in sp.tensor.entries.values())

    for n, N, p, q in ((3, 3, Fraction(1, 3), Fraction(0)),
                       (4, 3, Fraction(1, 3), Fraction(0)),
                       (3, 6, Fraction(1, 3), Fraction(0))):
        C = chimney(cw(n), cw_blocking(n), P, N)
        term = n ** N - formula_sweet_rank(n, N, p, q)
        assert zero_layers(C, 2) >= term

    for k in (1, 2, 3, 4):
        assert formula_pratt(k) == even_symdiff_count(k)
    assert formula_pratt(1) == 4 and formula_pratt(2) == 31
    assert time.monotonic() - start < 120


def test_criterion_09_veronese():
    assert veronese_dims([comb(9, i) for i in range(10)], 3) == [1, 84, 84, 1]


def test_criterion_10_out_of_scope_is_recorded():
    rep = verify_main_theorem(parse("x0^2 + x1^2"), "x0", 2)
    assert rep.out_of_scope
    assert any("rank" in note for note in rep.out_of_scope)
    result = run_suite()
    notes = result["summary"]["out_of_scope"]
    assert notes == OUT_OF_SCOPE and len(notes) == 5
    joined = " ".join(notes)
    for phrase in ("smoothab", "2.38", "border"):
        assert phrase in joined
