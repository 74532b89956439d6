"""Tests for sweet.py: blockings, block distributions, sweet pieces, chimneys,
degenerations, and the closed-form rank bounds."""
from __future__ import annotations

import gc
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolarium.sweet import (
    Block,
    BlockDistribution,
    Blocking,
    blocking_power,
    chimney,
    cw_blocking,
    even_symdiff_count,
    formula_pratt,
    formula_sweet_rank,
    is_tight,
    marginal_uniqueness,
    marginals,
    omega_bound,
    sp_extract,
    substitution_bound,
    SweetPiece,
    _composition,
    _kept_sequences,
    _validate_distribution,
    support_blocks,
    sweet_piece_report,
    toric_degenerate,
    veronese_dims,
    weight_blocking,
    zero_layers,
)
from apolarium import sweet, tensor3
import oracles
from apolarium.tensor3 import AbelianGroup, Tensor3, cw, group_tensor, kronecker_power

# 1 tensor 1 + 1 tensor x + x tensor 1 in the third slot: the smallest
# interesting tight tensor
TB = Tensor3((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})

LARGE3 = [((0,), (1,), (-1,)), ((1,), (0,), (-1,)), ((1,), (1,), (-2,))]


# -- blockings -------------------------------------------------------------------


def test_blocking_construction_and_json():
    B = Blocking([[0, 1], [0, 1], [0, -1]])
    assert B.r == 1
    assert B.label(2, 1) == (-1,)
    assert Blocking.from_doc(B.doc()).labels == B.labels
    # the benchmark workloads read to_json; the CLI writes doc()
    for C in (B, cw_blocking(4)):
        assert json.loads(C.to_json()) == C.doc()
    with pytest.raises(ValueError):
        Blocking([[0], [0]])
    with pytest.raises(ValueError):
        Blocking([[0], [(0, 1)], [0]])  # mixed arity


@pytest.mark.parametrize("labels", [
    [[[0.7]], [[1.2]], [[True]]],
    [[0.7], [1], [0]],
    [["1"], [1], [0]],
    [[True], [1], [0]],
    [[[0, "1"]], [[0, 1]], [[0, 1]]],
])
def test_blocking_refuses_labels_that_are_not_ints(labels):
    # int() would read 0.7 as 0, "1" as 1 and true as 1
    with pytest.raises(ValueError, match="not an int or a vector of ints"):
        Blocking(labels)


def test_cw_blocking_labels():
    B = cw_blocking(4)
    assert B.labels[0] == ((0,), (1,), (1,), (2,))
    assert B.labels[2] == ((0,), (-1,), (-1,), (-2,))
    with pytest.raises(ValueError):
        cw_blocking(2)


def test_weight_blocking_negates_third_axis():
    B = weight_blocking([0, 1])
    assert B.labels == (((0,), (1,)), ((0,), (1,)), ((0,), (-1,)))


@pytest.mark.parametrize("weights", [[0, 0.5], [True, 1], [0, "1"]])
def test_weight_blocking_refuses_weights_that_are_not_ints(weights):
    # int() would read 0.5 as 0 and true as 1
    with pytest.raises(ValueError, match="weight .* is not an int"):
        weight_blocking(weights)


def test_blocking_power_adds_labels():
    B2 = blocking_power(weight_blocking([0, 1]), 2)
    assert B2.labels[0] == ((0,), (1,), (1,), (2,))
    assert B2.labels[2] == ((0,), (-1,), (-1,), (-2,))


def test_check_tensor_dims():
    with pytest.raises(ValueError):
        cw_blocking(4).check_tensor(cw(3))


# -- support blocks and tightness ---------------------------------------------------


def test_support_blocks_of_cw4():
    blocks = support_blocks(cw(4), cw_blocking(4))
    assert [(b.labels, b.format) for b in blocks] == [
        (((0,), (0,), (0,)), (1, 1, 1)),
        (((0,), (1,), (-1,)), (1, 2, 2)),
        (((0,), (2,), (-2,)), (1, 1, 1)),
        (((1,), (0,), (-1,)), (2, 1, 2)),
        (((1,), (1,), (-2,)), (2, 2, 1)),
        (((2,), (0,), (-2,)), (1, 1, 1)),
    ]
    assert sum(b.tensor.nnz() for b in blocks) == cw(4).nnz()


def test_block_index_sets_are_label_classes():
    blocks = support_blocks(cw(4), cw_blocking(4))
    middle = [b for b in blocks if b.labels == ((1,), (1,), (-2,))][0]
    assert middle.index_sets == ((1, 2), (1, 2), (3,))
    assert middle.tensor.support() == [(0, 0, 0), (1, 1, 0)]


def test_tightness_flags():
    assert is_tight(cw(3), cw_blocking(3))
    assert is_tight(cw(5), cw_blocking(5))
    assert is_tight(TB, weight_blocking([0, 1]))
    # the full addition table has entries like 1+2=0 whose labels sum to 2
    assert not is_tight(group_tensor(AbelianGroup([3])), cw_blocking(3))


def test_tightness_is_preserved_by_powers():
    B3 = cw_blocking(3)
    for N in (2, 3):
        assert is_tight(kronecker_power(cw(3), N), blocking_power(B3, N))
        assert not is_tight(kronecker_power(group_tensor(AbelianGroup([3])), N),
                            blocking_power(B3, N))


# -- distributions ---------------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        BlockDistribution(LARGE3, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        BlockDistribution(LARGE3, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
    with pytest.raises(ValueError):
        BlockDistribution(LARGE3, [2, -1, 0])
    with pytest.raises(ValueError):
        BlockDistribution([LARGE3[0], LARGE3[0]], [Fraction(1, 2)] * 2)


@pytest.mark.parametrize("trip", [[[0], [1]], [[0], [1], [-1], [0]], []])
def test_a_support_element_must_be_three_labels(trip):
    # marginals read axes 0, 1 and 2 of every element: two labels would
    # be an IndexError there, and a fourth label no marginal would read
    with pytest.raises(ValueError, match="is not three labels$"):
        BlockDistribution([trip], [1])
    with pytest.raises(ValueError, match="is not three labels$"):
        BlockDistribution.from_doc({"support": [trip], "probs": ["1"]})


def test_distribution_json_round_trip():
    P = BlockDistribution(LARGE3, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    Q = BlockDistribution.from_doc(P.doc())
    assert Q.support == P.support and Q.probs == P.probs
    assert list(P.doc()) == ["probs", "support"]


def test_distribution_from_doc_refuses_float_probabilities():
    doc = {"support": [[list(a) for a in trip] for trip in LARGE3],
           "probs": [0.5, 0.25, 0.25]}
    with pytest.raises(TypeError, match="floats are not allowed"):
        BlockDistribution.from_doc(doc)


def test_a_uniform_distribution_reads_a_generator_once():
    triples = [((0,), (0,), (0,)), ((1,), (0,), (-1,))]
    P = BlockDistribution.uniform(t for t in triples)
    assert P.support == triples and P.probs == [Fraction(1, 2)] * 2


def test_a_uniform_distribution_refuses_an_empty_support():
    # 1 / 0 is no probability: the refusal names the support, not Fraction
    with pytest.raises(ValueError, match="nonempty support"):
        BlockDistribution.uniform([])
    with pytest.raises(ValueError, match="nonempty support"):
        BlockDistribution.uniform(iter(()))


def test_marginals():
    P = BlockDistribution.uniform(LARGE3)
    m = marginals(P)
    assert m[0] == {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}
    assert m[2] == {(-1,): Fraction(2, 3), (-2,): Fraction(1, 3)}


def test_marginal_uniqueness_unique():
    assert marginal_uniqueness(BlockDistribution.uniform(LARGE3)) == "unique"
    blocks = support_blocks(cw(4), cw_blocking(4))
    small = [b.labels for b in blocks if b.format == (1, 1, 1)]
    P = BlockDistribution(LARGE3 + small,
                          [Fraction(1, 4)] * 3 + [Fraction(1, 12)] * 3)
    assert marginal_uniqueness(P) == "unique"


def test_marginal_uniqueness_non_unique():
    # a rectangle with a constant third label admits the classic square move
    P = BlockDistribution.uniform([
        ((0,), (0,), (0,)), ((0,), (1,), (0,)),
        ((1,), (0,), (0,)), ((1,), (1,), (0,))])
    assert marginal_uniqueness(P) == "non_unique"


def test_marginal_uniqueness_unknown():
    # same rectangle but charged on one diagonal only: the null direction
    # turns negative on a zero-probability block in both signs
    P = BlockDistribution([
        ((0,), (0,), (0,)), ((0,), (1,), (0,)),
        ((1,), (0,), (0,)), ((1,), (1,), (0,))],
        [Fraction(1, 2), Fraction(1, 2), 0, 0])
    assert marginal_uniqueness(P) == "unknown"


# -- sweet pieces -----------------------------------------------------------------


def test_sp_extract_smallest_case():
    Bw = weight_blocking([0, 1])
    P = BlockDistribution.uniform([b.labels for b in support_blocks(TB, Bw)])
    sp = sp_extract(TB, Bw, P, 3)
    assert sp.tensor.dims == (3, 3, 3)
    assert sp.tensor.support() == [(0, 1, 0), (0, 2, 1), (1, 0, 0),
                                   (1, 2, 2), (2, 0, 1), (2, 1, 2)]
    assert all(v == 1 for v in sp.tensor.entries.values())
    assert sp.kept[0] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert sp.kept[2] == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert sp.p_T == 3


def test_sp_report_on_smallest_case():
    Bw = weight_blocking([0, 1])
    P = BlockDistribution.uniform([b.labels for b in support_blocks(TB, Bw)])
    rep = sweet_piece_report(sp_extract(TB, Bw, P, 3), Bw)
    assert rep["support_blocks"] == 6
    assert rep["formats_equal"] and rep["entry_multisets_equal"]
    assert rep["marginals_uniform"]
    assert rep["marginal_block_counts"] == [3, 3, 3]
    assert rep["p_T"] == 3 and rep["p_T_consistent"]
    assert "sufficient" in rep["note"]


def test_sp_extract_refuses_a_negative_power():
    with pytest.raises(ValueError, match="need N >= 0, got -1"):
        sp_extract(cw(3), cw_blocking(3), BlockDistribution.uniform(LARGE3), -1)


def test_sp_extract_requires_tight_by_default():
    T = group_tensor(AbelianGroup([3]))
    P = BlockDistribution.uniform(LARGE3)
    with pytest.raises(ValueError):
        sp_extract(T, cw_blocking(3), P, 3)
    sp = sp_extract(T, cw_blocking(3), P, 3, check_tight=False)
    assert sp.tensor.dims == (3, 3, 3)


def test_sp_of_degeneration_equals_sp_of_full_tensor():
    # projecting the full addition-table power onto matching sequences kills
    # exactly the entries the toric degeneration kills
    B3 = cw_blocking(3)
    T = group_tensor(AbelianGroup([3]))
    D = toric_degenerate(T, B3, [[0, 1, 2], [0, 1, 2], [0, -1, -2]])
    P = BlockDistribution.uniform(LARGE3)
    spD = sp_extract(D, B3, P, 3)
    spT = sp_extract(T, B3, P, 3, check_tight=False)
    assert spD.tensor == spT.tensor
    assert spD.tensor.nnz() == 6 and spD.p_T == 3


def test_sp_of_klein_four_degeneration():
    B4 = cw_blocking(4)
    T = group_tensor(AbelianGroup([2, 2]))
    D = toric_degenerate(T, B4, [[0, 1, 1, 2], [0, 1, 1, 2], [0, -1, -1, -2]])
    assert D.nnz() == 9 and is_tight(D, B4)
    # point mass on the middle block at N = 2
    Ppt = BlockDistribution([((1,), (1,), (-2,))], [1])
    a, b = sp_extract(D, B4, Ppt, 2), sp_extract(T, B4, Ppt, 2, check_tight=False)
    assert a.tensor == b.tensor
    assert a.tensor.dims == (4, 4, 1) and a.tensor.nnz() == 4 and a.p_T == 1
    assert a.tensor.support() == [(0, 3, 0), (1, 2, 0), (2, 1, 0), (3, 0, 0)]
    # uniform on the three large blocks at N = 3
    P = BlockDistribution.uniform(LARGE3)
    a3, b3 = sp_extract(D, B4, P, 3), sp_extract(T, B4, P, 3, check_tight=False)
    assert a3.tensor == b3.tensor
    assert a3.tensor.dims == (12, 12, 12) and a3.tensor.nnz() == 48
    assert a3.p_T == 3


def test_sp_extract_validation():
    Bw = weight_blocking([0, 1])
    P = BlockDistribution.uniform([b.labels for b in support_blocks(TB, Bw)])
    with pytest.raises(ValueError):
        sp_extract(TB, Bw, P, 2)  # 2 * (1/3) is not integral
    offsupport = BlockDistribution([((1,), (1,), (-2,))], [1])
    with pytest.raises(ValueError):
        sp_extract(TB, Bw, offsupport, 3)  # charges a non-support block
    lopsided = BlockDistribution(
        [((0,), (0,), (0,)), ((0,), (1,), (-1,))],
        [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        sp_extract(TB, Bw, lopsided, 2)  # marginal profiles differ


def test_blocking_powers_are_refused_before_they_are_enumerated(monkeypatch):
    from apolarium.guards import LimitExceeded, limits
    B3 = cw_blocking(3)
    calls = []
    product = itertools.product

    def spy(*args, **kwargs):
        calls.append(args)
        return product(*args, **kwargs)
    monkeypatch.setattr(itertools, "product", spy)
    with limits(max_entries=81):
        assert len(blocking_power(B3, 4).labels[0]) == 81
        calls.clear()
        with pytest.raises(LimitExceeded, match="entry count 243 "):
            blocking_power(B3, 5)  # 3^5 sequences per axis
    assert calls == []


def test_sp_extract_entry_guard():
    from apolarium.guards import LimitExceeded, limits
    Bw = weight_blocking([0, 1])
    P = BlockDistribution.uniform([b.labels for b in support_blocks(TB, Bw)])
    with limits(max_entries=100), pytest.raises(LimitExceeded):
        sp_extract(TB, Bw, P, 9)


# the three entries of TB on 4 x 4 x 4: each axis has d^3 = 64 sequences
# but keeps the C(comp) = 3 that spend its composition {0: 2, 1: 1}
TB4 = Tensor3((4, 4, 4), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})


def test_a_piece_is_charged_the_sequences_it_keeps():
    from apolarium.guards import LimitExceeded, limits
    B = weight_blocking([0, 1, 2, 3])
    P = BlockDistribution.uniform([b.labels for b in support_blocks(TB4, B)])
    for cap in (27, 63):
        with limits(max_entries=cap):
            sp = sp_extract(TB4, B, P, 3)
        assert sp.tensor.dims == (3, 3, 3) and sp.tensor.nnz() == 6
        assert _same_piece(sp, brute_sp_extract(TB4, B, P, 3))
    with limits(max_entries=26), pytest.raises(LimitExceeded,
                                               match="entry count 27 "):
        sp_extract(TB4, B, P, 3)  # the |T|^N words


def test_chimneys_build_no_kept_lists_and_refusals_no_walk(monkeypatch):
    from apolarium.guards import LimitExceeded, limits
    calls = []
    for module, name in ((sweet, "_kept_sequences"), (sweet, "_tails"),
                         (tensor3, "_node")):
        def spy(*args, name=name, f=getattr(module, name)):
            calls.append(name)
            return f(*args)
        monkeypatch.setattr(module, name, spy)
    B = weight_blocking([0, 1, 2, 3])
    P = BlockDistribution.uniform([b.labels for b in support_blocks(TB4, B)])
    with limits(max_entries=26), pytest.raises(LimitExceeded,
                                               match="entry count 27 "):
        sp_extract(TB4, B, P, 3)
    assert calls == []
    C = chimney(cw(3), cw_blocking(3), BlockDistribution.uniform(LARGE3), 6)
    assert C.nnz() == 225 and set(calls) == {"_node"}


# -- chimneys ---------------------------------------------------------------------


def test_chimney_of_smallest_case():
    Bw = weight_blocking([0, 1])
    P = BlockDistribution.uniform([b.labels for b in support_blocks(TB, Bw)])
    C = chimney(TB, Bw, P, 3)
    assert C.dims == (3, 3, 8) and C.nnz() == 6
    # only the two-ones layers of the free axis are reachable
    assert sorted({k for (_, _, k) in C.entries}) == [3, 5, 6]
    assert zero_layers(C, 2) == 5
    assert substitution_bound(C.dims[2], zero_layers(C, 2)) == 3


def test_chimney_fixed_pair_selects_axes():
    Bw = weight_blocking([0, 1])
    P = BlockDistribution.uniform([b.labels for b in support_blocks(TB, Bw)])
    C = chimney(TB, Bw, P, 3, fixed_pair=(0, 2))
    assert C.dims == (3, 8, 3)
    with pytest.raises(ValueError):
        chimney(TB, Bw, P, 3, fixed_pair=(0, 0))
    with pytest.raises(ValueError):
        chimney(TB, Bw, P, 3, fixed_pair=(0, 3))


def test_chimney_zero_layers_for_three_sums():
    P = BlockDistribution.uniform(LARGE3)
    C3 = chimney(cw(3), cw_blocking(3), P, 3)
    assert C3.dims == (3, 3, 27) and zero_layers(C3, 2) == 21
    C4 = chimney(cw(4), cw_blocking(4), P, 3)
    assert C4.dims == (12, 12, 64) and zero_layers(C4, 2) == 49


def test_chimney_larger_power():
    P = BlockDistribution.uniform(LARGE3)
    C = chimney(cw(3), cw_blocking(3), P, 6)
    assert C.dims == (15, 15, 729)
    assert zero_layers(C, 2) == 639
    assert substitution_bound(C.dims[2], zero_layers(C, 2)) == 90


# -- degenerations ------------------------------------------------------------------


def test_toric_degeneration_of_cyclic_group():
    T = group_tensor(AbelianGroup([3]))
    D = toric_degenerate(T, cw_blocking(3), [[0, 1, 2], [0, 1, 2], [0, -1, -2]])
    assert D == cw(3)


def test_toric_degeneration_keeps_labels():
    T = group_tensor(AbelianGroup([3]))
    D = toric_degenerate(T, cw_blocking(3), [[0, 1, 2], [0, 1, 2], [0, -1, -2]])
    assert D.labels == T.labels


def test_toric_degeneration_rejects_negative_weight():
    with pytest.raises(ValueError):
        toric_degenerate(cw(3), cw_blocking(3),
                         [[0, 1, 2], [0, 1, 2], [0, -1, -3]])


def test_toric_degeneration_weights_must_factor():
    # axis-0 indices 1 and 2 share the label (1,) in the 4-dim blocking
    with pytest.raises(ValueError):
        toric_degenerate(cw(4), cw_blocking(4),
                         [[0, 1, 2, 3], [0, 1, 1, 2], [0, -1, -1, -2]])
    with pytest.raises(ValueError):
        toric_degenerate(cw(3), cw_blocking(3), [[0, 1], [0, 1, 2], [0, -1, -2]])


@pytest.mark.parametrize("weights", [
    [[0.5, 1.9, 2], [0, 1, 2], [0, -1, -2]],
    [[0, True, 2], [0, 1, 2], [0, -1, -2]],
    [[0, 1, 2], [0, 1, 2], [0, -1, "-2"]],
])
def test_toric_degeneration_refuses_weights_that_are_not_ints(weights):
    # int() would read [0.5, 1.9, 2] as [0, 1, 2] and degenerate with
    # weights nobody gave
    with pytest.raises(ValueError, match="weight .* is not an int"):
        toric_degenerate(group_tensor(AbelianGroup([3])), cw_blocking(3),
                         weights)


# -- zero layers and the substitution bound ---------------------------------------------


def test_zero_layers():
    T = Tensor3((2, 2, 4), {(0, 0, 1): 1, (1, 1, 3): 1})
    assert zero_layers(T, 2) == 2
    assert zero_layers(T, 0) == 0
    with pytest.raises(ValueError):
        zero_layers(T, 3)


def test_substitution_bound_range():
    assert substitution_bound(729, 639) == 90
    with pytest.raises(ValueError):
        substitution_bound(8, 9)
    with pytest.raises(ValueError):
        substitution_bound(8, -1)


# -- closed-form bounds ----------------------------------------------------------------


def test_formula_sweet_rank_values():
    assert formula_sweet_rank(3, 3, Fraction(1, 3)) == 26
    assert formula_sweet_rank(4, 3, Fraction(1, 3)) == 63
    assert formula_sweet_rank(3, 6, Fraction(1, 6), Fraction(1, 6)) == 717


def test_formula_sweet_rank_preconditions():
    with pytest.raises(ValueError):
        formula_sweet_rank(3, 3, Fraction(1, 2))  # q = 1/3 - p < 0
    with pytest.raises(ValueError):
        formula_sweet_rank(3, 4, Fraction(1, 3))  # p*N not integral
    with pytest.raises(ValueError):
        formula_sweet_rank(3, 3, Fraction(1, 2), Fraction(-1, 6))
    with pytest.raises(ValueError, match="p\\+q must be 1/3"):
        formula_sweet_rank(3, 3, Fraction(1, 3), Fraction(1, 3))
    with pytest.raises(ValueError, match="block counts are out of range"):
        formula_sweet_rank(3, 0, Fraction(1, 3))  # (p+q)N - 1 < 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.data(), st.integers(-3, 3), st.integers(2, 5))
def test_formula_sweet_rank_refuses_exactly_the_nonpositive_powers(
        b, data, k, n):
    # with p*N and q*N integral, (p+q)N = N/3 is integral, so the block
    # counts are ints and fall out of range exactly when N <= 0
    p = Fraction(data.draw(st.integers(0, b // 3)), b)
    q = Fraction(1, 3) - p
    N = k * math.lcm(p.denominator, q.denominator)
    if N <= 0:
        with pytest.raises(ValueError, match="block counts are out of range"):
            formula_sweet_rank(n, N, p)
    else:
        assert formula_sweet_rank(n, N, p) == (
            n ** N - math.comb(N, 2 * N // 3 + 1) * (n - 1) ** (N // 3 - 1))


def test_formula_pratt_matches_even_symdiff_complement():
    assert [formula_pratt(k) for k in (1, 2, 3)] == [4, 31, 247]
    # 8^k/2 counts half the cube; the even symmetric differences up to size
    # 2k survive, the larger even sizes are subtracted
    for k in (1, 2, 3):
        total_even = sum(__import__("math").comb(3 * k, 2 * i)
                         for i in range(3 * k // 2 + 1))
        assert formula_pratt(k) == 8 ** k // 2 - (total_even
                                                  - even_symdiff_count(k))
    with pytest.raises(ValueError, match="need k >= 1"):
        formula_pratt(0)


def test_even_symdiff_count_values():
    # the two counts agree: both enumerate the even symmetric differences
    # of size at most 2k, and the enumeration cross-check runs for k <= 4
    assert [even_symdiff_count(k) for k in (1, 2, 3, 4)] == [4, 31, 247, 1981]
    with pytest.raises(ValueError, match="need k >= 1"):
        even_symdiff_count(0)


def test_omega_bound():
    assert omega_bound(2, 4, 1) == 2.0
    assert omega_bound(2, 8, 1) == 3.0
    assert abs(omega_bound(2, 7, 1) - 2.807354922057604) < 1e-12
    assert omega_bound(4, Fraction(16), Fraction(1)) == 2.0
    with pytest.raises(ValueError):
        omega_bound(1, 4, 1)
    with pytest.raises(ValueError):
        omega_bound(2, 1, 2)  # r < p


def test_veronese_dims():
    assert veronese_dims([1, 9, 36, 84, 126, 126, 84, 36, 9, 1], 3) == \
        [1, 84, 84, 1]
    assert veronese_dims([1, 2, 3], 1) == [1, 2, 3]
    with pytest.raises(ValueError):
        veronese_dims([1, 2], 0)


# -- brute-force oracle: the full |T|^N product walk ----------------------------------


def _brute_kept(B, axis, comp, N):
    want = Counter(comp)
    return [seq for seq in itertools.product(range(B.axis_dim(axis)), repeat=N)
            if Counter(B.label(axis, i) for i in seq) == want]


def _brute_walk(T, N, kept_pos, free=None):
    """Visit every word of N entries of T; keep those whose index sequences
    are kept on the constrained axes (all but free)."""
    entries = {}
    for combo in itertools.product(T.entries.items(), repeat=N):
        s = tuple(tuple(idx[a] for idx, _ in combo) for a in range(3))
        if any(s[a] not in kept_pos[a] for a in range(3) if a != free):
            continue
        key = tuple(
            sum(i * T.dims[a] ** (N - 1 - t) for t, i in enumerate(s[a]))
            if a == free else kept_pos[a][s[a]] for a in range(3))
        val = math.prod((c for _, c in combo), start=Fraction(1))
        entries[key] = entries.get(key, Fraction(0)) + val
    return entries


def brute_sp_extract(T, B, P, N, check_tight=True):
    marg = _validate_distribution(T, B, P, check_tight)
    kept = [_brute_kept(B, a, _composition(marg[a], N), N) for a in range(3)]
    entries = _brute_walk(T, N, [{s: t for t, s in enumerate(ks)} for ks in kept])
    pts = {len({tuple(B.label(a, i) for i in seq) for seq in kept[a]})
           for a in range(3)}
    assert len(pts) == 1  # every axis has the same number of label sequences
    dims = tuple(max(1, len(ks)) for ks in kept)
    return SweetPiece(Tensor3(dims, entries), tuple(kept), pts.pop())


def brute_chimney(T, B, P, N, fixed_pair=(0, 1), check_tight=True):
    free = ({0, 1, 2} - set(fixed_pair)).pop()
    marg = _validate_distribution(T, B, P, check_tight)
    kept_pos = [None, None, None]
    dims = [T.dims[free] ** N] * 3
    for a in fixed_pair:
        ks = _brute_kept(B, a, _composition(marg[a], N), N)
        kept_pos[a] = {s: t for t, s in enumerate(ks)}
        dims[a] = max(1, len(ks))
    return Tensor3(dims, _brute_walk(T, N, kept_pos, free))


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except ValueError:
        return ValueError


def _same_piece(a, b):
    if a is ValueError or b is ValueError:
        return a is b
    return a.tensor == b.tensor and a.kept == b.kept and a.p_T == b.p_T


@st.composite
def blocked_problems(draw):
    """A small random tensor with rational entries, a blocking with 2-3
    labels per axis, a power N <= 4 and a distribution on 1-3 support
    blocks with distinct labels on every axis (so the marginal profiles
    agree), plus zero-probability triples made of the charged labels."""
    dims = [draw(st.integers(2, 3)) for _ in range(3)]
    nlab = [draw(st.integers(2, d)) for d in dims]
    labels = []
    for a in range(3):
        rest = draw(st.lists(st.integers(0, nlab[a] - 1),
                             min_size=dims[a] - nlab[a],
                             max_size=dims[a] - nlab[a]))
        labels.append(draw(st.permutations(list(range(nlab[a])) + rest)))
    N = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(nlab + [N])))
    order = [draw(st.permutations(range(nlab[a])))[:k] for a in range(3)]
    charged_cells = []
    for t in range(k):
        charged_cells.append(tuple(
            draw(st.sampled_from([i for i, lab in enumerate(labels[a])
                                  if lab == order[a][t]]))
            for a in range(3)))
    cells = list(itertools.product(*(range(d) for d in dims)))
    support = set(charged_cells) | set(draw(st.lists(st.sampled_from(cells),
                                                     max_size=4)))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    T = Tensor3(dims, {idx: draw(values) for idx in sorted(support)})
    labels[2] = [-x for x in labels[2]]
    B = Blocking(labels)
    charged = [tuple(B.label(a, idx[a]) for a in range(3)) for idx in charged_cells]
    cuts = sorted(draw(st.permutations(range(1, N)))[:k - 1])
    counts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [N])]
    pool = [tuple(charged[t][a] for a, t in enumerate(pick))
            for pick in itertools.product(range(k), repeat=3)]
    pool = [trip for trip in pool if trip not in charged]
    zeros = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)
                 if pool else st.just([]))
    P = BlockDistribution(charged + zeros,
                          [Fraction(n, N) for n in counts] + [0] * len(zeros))
    return T, B, P, N, draw(st.booleans())


def _stored_as_validated(T):
    """Every key is a triple of in-range ints and every value a nonzero
    Fraction, as ``Tensor3.__init__`` stores them; == against the oracle
    cannot tell 1 from Fraction(1)."""
    return all(
        type(idx) is tuple and len(idx) == 3
        and all(type(x) is int and 0 <= x < d for x, d in zip(idx, T.dims))
        and type(c) is Fraction and c != 0
        for idx, c in T.entries.items())


@settings(max_examples=150, deadline=None)
@given(blocked_problems())
def test_sp_extract_matches_brute_force(problem):
    T, B, P, N, check_tight = problem
    got = _outcome(sp_extract, T, B, P, N, check_tight=check_tight)
    assert _same_piece(got, _outcome(brute_sp_extract, T, B, P, N, check_tight))
    assert got is ValueError or _stored_as_validated(got.tensor)


@settings(max_examples=150, deadline=None)
@given(blocked_problems(), st.sampled_from([(0, 1), (0, 2), (1, 2)]))
def test_chimney_matches_brute_force(problem, fixed_pair):
    T, B, P, N, check_tight = problem
    got = _outcome(chimney, T, B, P, N, fixed_pair=fixed_pair,
                   check_tight=check_tight)
    assert got == _outcome(brute_chimney, T, B, P, N, fixed_pair, check_tight)
    assert got is ValueError or _stored_as_validated(got)


@settings(max_examples=150, deadline=None)
@given(blocked_problems(), st.integers(0, 2), st.booleans())
def test_p_T_is_the_number_of_distinct_label_sequences(problem, axis, stray):
    # p_T is counted from axis 0's composition; here the label sequences
    # of every axis are read through B and hashed.  A stray draw moves the
    # first charged triple's label on one axis to one that no index
    # carries: that axis keeps nothing, and the piece is refused, its
    # block not in the support
    T, B, P, N, check_tight = problem
    if stray:
        support = [list(trip) for trip in P.support]
        support[0][axis] = (99,)
        P = BlockDistribution(support, P.probs)
    for a, m in enumerate(marginals(P)):
        kept = _kept_sequences(B, a, _composition(m, N))
        assert (not kept) == (stray and a == axis)
    piece = _outcome(sp_extract, T, B, P, N, check_tight=check_tight)
    assert piece is ValueError or not stray
    if piece is not ValueError:
        for a in range(3):
            label_seqs = {tuple(B.label(a, i) for i in seq)
                          for seq in piece.kept[a]}
            assert piece.p_T == len(label_seqs)


@settings(max_examples=150, deadline=None)
@given(blocked_problems())
def test_the_report_reads_the_blocks_of_the_label_sequences(problem):
    # the report groups the piece through support_blocks, each position
    # labelled by its label sequence laid end to end; the oracle groups it
    # by the tuples of labels themselves
    T, B, P, N, check_tight = problem
    piece = _outcome(sp_extract, T, B, P, N, check_tight=check_tight)
    if piece is not ValueError:
        assert (sweet_piece_report(piece, B)
                == oracles.sweet_piece_report(piece, B))


@pytest.mark.parametrize("idx, value", [
    ((0, 0, 4), Fraction(1)),  # out of range
    ((1, 1, 3), 0),            # a zero entry
    ((1, 1, 3), 2),            # an int value
])
def test_a_factor_changed_after_construction_is_validated_again(idx, value):
    # the Kronecker constructions store their walk without a pass over it,
    # so each checks its factor as a fresh Tensor3 would
    T, B = cw(4), cw_blocking(4)
    P = BlockDistribution.uniform(LARGE3)
    T.entries[idx] = value
    fresh = _outcome(Tensor3, T.dims, T.entries, T.labels)
    for build in (lambda U: kronecker_power(U, 3),
                  lambda U: sp_extract(U, B, P, 3).tensor):
        got = _outcome(build, T)
        if fresh is ValueError:
            assert got is ValueError
            continue
        assert got == build(fresh) and _stored_as_validated(got)
        assert (value == 0) == all(c == 1 for c in got.entries.values())


@pytest.mark.parametrize("build", [
    lambda T, B, P: kronecker_power(T, 3),
    lambda T, B, P: sp_extract(T, B, P, 3),
    lambda T, B, P: chimney(T, B, P, 3),
], ids=["kronecker_power", "sp_extract", "chimney"])
def test_each_kronecker_construction_validates_its_factor_once(monkeypatch,
                                                               build):
    # the caller of the walk checks the factor, and the walk trusts it
    T, B = cw(4), cw_blocking(4)
    P = BlockDistribution.uniform(LARGE3)
    runs = []
    init = Tensor3.__init__

    def spy(self, *args):
        runs.append(args[0])
        init(self, *args)
    monkeypatch.setattr(Tensor3, "__init__", spy)
    build(T, B, P)
    assert runs == [T.dims]


def test_oracle_agrees_on_reference_cases():
    P = BlockDistribution.uniform(LARGE3)
    for n in (3, 4):
        T, B = cw(n), cw_blocking(n)
        assert _same_piece(sp_extract(T, B, P, 3), brute_sp_extract(T, B, P, 3))
        for fixed in ((0, 1), (0, 2), (1, 2)):
            assert (chimney(T, B, P, 3, fixed_pair=fixed)
                    == brute_chimney(T, B, P, 3, fixed))


# Entries 1, -1, 2, 1/2 and -3/4.  In the first case every entry of T in a
# kept word lies in the one block P charges, and -3/4, the last of them,
# fills all N positions of a kept word (the top digit of its weight sum).
# In the second each entry is its own group, and a kept word uses the
# reciprocal pair 2 and 1/2 twice each.
HALF, THREE_QUARTERS = Fraction(1, 2), Fraction(-3, 4)
MIXED_CASES = [
    (Tensor3((3, 3, 3), {(0, 0, 0): 1, (0, 1, 1): -1, (1, 0, 1): 2,
                         (1, 1, 0): HALF, (1, 1, 1): THREE_QUARTERS,
                         (2, 2, 2): 2}),
     Blocking([[0, 0, 1], [0, 0, 1], [0, 0, -2]]),
     BlockDistribution([((0,), (0,), (0,))], [1]), True),
    (Tensor3((2, 2, 2), {(0, 0, 0): 2, (1, 1, 1): HALF, (0, 1, 0): -1,
                         (1, 0, 1): THREE_QUARTERS, (0, 0, 1): 1,
                         (1, 1, 0): 1}),
     Blocking([[0, 1]] * 3),
     BlockDistribution([((0,), (0,), (0,)), ((1,), (1,), (1,))],
                       [HALF, HALF]), False),
]


@pytest.mark.parametrize("case, N", [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                                     (1, 2), (1, 4)])
def test_pieces_of_mixed_entries_match_brute_force(case, N):
    T, B, P, check_tight = MIXED_CASES[case]
    got = sp_extract(T, B, P, N, check_tight=check_tight)
    assert _same_piece(got, brute_sp_extract(T, B, P, N, check_tight))
    assert _stored_as_validated(got.tensor)
    for fixed in ((0, 1), (0, 2), (1, 2)):
        C = chimney(T, B, P, N, fixed_pair=fixed, check_tight=check_tight)
        assert C == brute_chimney(T, B, P, N, fixed, check_tight)
        assert _stored_as_validated(C)
    if case == 0:
        top = len(got.kept[0]) - 1  # the sequence (1, ..., 1) on every axis
        assert got.tensor.entries[(top,) * 3] == THREE_QUARTERS ** N
    else:
        t = got.kept[0].index((0, 1) * (N // 2))
        assert got.tensor.entries[(t, t, t)] == 1


def test_a_rescaled_cw4_piece_shares_one_value_per_entry_multiset():
    # each kept word uses each large block twice, and each large block
    # has two entries, so its product is one of 3**3 entry multisets;
    # every large-block entry is rescaled away from 1
    values = [-1, 2, HALF, THREE_QUARTERS, 3]
    T = Tensor3((4, 4, 4), {idx: c * values[t % 5] for t, (idx, c)
                            in enumerate(sorted(cw(4).entries.items()))})
    sp = sp_extract(T, cw_blocking(4), BlockDistribution.uniform(LARGE3), 6)
    got = sp.tensor.entries
    assert len(got) == 5760 and _stored_as_validated(sp.tensor)
    assert got.keys() == sp_extract(cw(4), cw_blocking(4),
                                    BlockDistribution.uniform(LARGE3),
                                    6).tensor.entries.keys()
    blocks = [[(0, 1, 1), (0, 2, 2)], [(1, 0, 1), (2, 0, 2)],
              [(1, 1, 3), (2, 2, 3)]]
    products = {math.prod((T.entries[x] ** a * T.entries[y] ** (2 - a)
                           for (x, y), a in zip(blocks, uses)), start=Fraction(1))
                for uses in itertools.product(range(3), repeat=3)}
    assert set(got.values()) == products
    assert len({id(c) for c in got.values()}) == 27


def test_uncharged_blocks_fill_kept_compositions():
    # P charges the blocks (0,0,0) and (1,1,1); the uncharged blocks
    # (0,1,0) and (1,0,1) have the same label counts in either order, so
    # the words made of them are kept as well
    T = Tensor3((2, 2, 2), {(0, 0, 0): 2, (1, 1, 1): 3,
                            (0, 1, 0): 5, (1, 0, 1): 7})
    B = Blocking([[0, 1]] * 3)
    P = BlockDistribution([((0,), (0,), (0,)), ((1,), (1,), (1,))],
                          [Fraction(1, 2)] * 2)
    sp = sp_extract(T, B, P, 2, check_tight=False)
    assert _same_piece(sp, brute_sp_extract(T, B, P, 2, check_tight=False))
    assert sorted(sp.tensor.entries.values()) == [6, 6, 35, 35]
    for fixed, nnz in (((0, 1), 4), ((0, 2), 8), ((1, 2), 4)):
        C = chimney(T, B, P, 2, fixed_pair=fixed, check_tight=False)
        assert C == brute_chimney(T, B, P, 2, fixed, check_tight=False)
        assert C.nnz() == nnz


def test_power_zero_is_the_unit_piece():
    P = BlockDistribution.uniform(LARGE3)
    sp = sp_extract(cw(3), cw_blocking(3), P, 0)
    assert _same_piece(sp, brute_sp_extract(cw(3), cw_blocking(3), P, 0))
    assert sp.tensor.entries == {(0, 0, 0): 1} and sp.kept[0] == [()]


@pytest.mark.parametrize("case, N", [(0, 0), (0, 6), (1, 0)])
def test_pieces_of_mixed_entries_match_brute_force_on_both_walk_paths(case, N):
    # 5 and 6 entries take part, so suffix tables hold 3 entries: N = 0
    # ends from the empty word's table, N = 6 after 3 prefix levels
    T, B, P, check_tight = MIXED_CASES[case]
    got = sp_extract(T, B, P, N, check_tight=check_tight)
    assert _same_piece(got, brute_sp_extract(T, B, P, N, check_tight))
    assert _stored_as_validated(got.tensor)
    for fixed in ((0, 1), (0, 2), (1, 2)):
        C = chimney(T, B, P, N, fixed_pair=fixed, check_tight=check_tight)
        assert C == brute_chimney(T, B, P, N, fixed, check_tight)
        assert _stored_as_validated(C)


def test_pieces_past_the_key_bound_match_brute_force():
    # 32 entries other than 1 at N = 3 (see the tensor3 test of the same
    # bound): the last 2 weigh -4**30, and the walk takes one prefix level;
    # the mixed cases above cover the other fixed pairs
    T = Tensor3((4, 4, 2), {idx: Fraction(t + 4, 3) for t, idx in enumerate(
        itertools.product(range(4), range(4), range(2)))})
    B = Blocking([[0] * 4, [0] * 4, [0] * 2])
    P = BlockDistribution([((0,), (0,), (0,))], [1])
    got = sp_extract(T, B, P, 3)
    assert _same_piece(got, brute_sp_extract(T, B, P, 3))
    assert _stored_as_validated(got.tensor)
    assert chimney(T, B, P, 3, fixed_pair=(0, 2)) == brute_chimney(
        T, B, P, 3, (0, 2))


# The label 1 holds the indices 0 and 2, so a rank skips index 1 between
# them; a diagonal factor puts one index sequence on all three axes.
DIAGONAL = Tensor3((4, 4, 4), {(i, i, i): Fraction(i + 2, 3) for i in range(4)})
DIAGONAL_BLOCKING = Blocking([[1, 0, 1, 2], [1, 0, 1, 2], [-1, 0, -1, -2]])
DIAGONAL_BLOCKS = [((1,), (1,), (-1,)), ((0,), (0,), (0,)), ((2,), (2,), (-2,))]


@pytest.mark.parametrize("probs, N", [
    ([1, 0, 0], 0), ([1, 0, 0], 1), ([1, 0, 0], 3), ([1, 0, 0], 5),
    ([1, 0, 0], 6), ([Fraction(1, 3)] * 3, 3), ([Fraction(1, 3)] * 3, 6),
    ([HALF, Fraction(1, 4), Fraction(1, 4)], 4),
])
def test_every_carried_position_is_the_rank_in_kept(probs, N):
    # the free axis of a chimney keys each word by its flat index, so each
    # key shows the index sequence beside the positions carried for it
    P = BlockDistribution(DIAGONAL_BLOCKS, probs)
    piece = sp_extract(DIAGONAL, DIAGONAL_BLOCKING, P, N, check_tight=False)
    kept = piece.kept
    assert piece.tensor.entries.keys() == {(t, t, t) for t in range(len(kept[0]))}
    for fixed in ((0, 1), (0, 2), (1, 2)):
        C = chimney(DIAGONAL, DIAGONAL_BLOCKING, P, N, fixed_pair=fixed,
                    check_tight=False)
        free = 3 - sum(fixed)
        assert C.nnz() == len(kept[0])
        for key in C.entries:
            seq = tuple(key[free] // 4 ** (N - 1 - t) % 4 for t in range(N))
            assert all(kept[a].index(seq) == key[a] for a in fixed)


def test_the_walks_leave_no_cyclic_garbage():
    # the walks are module-level functions with explicit arguments, so a
    # dropped result is freed at once, not by the next cycle collection
    P = BlockDistribution.uniform(LARGE3)
    builds = [lambda: kronecker_power(cw(3), 4),
              lambda: sp_extract(cw(4), cw_blocking(4), P, 6)]
    builds += [lambda fixed=fixed: chimney(cw(3), cw_blocking(3), P, 6,
                                           fixed_pair=fixed)
               for fixed in ((0, 1), (0, 2), (1, 2))]
    gc.collect()
    gc.disable()
    try:
        for build in builds:
            result = build()
            del result
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("N", [2.0, True, "2"])
def test_a_power_that_is_not_an_int_is_refused(N):
    # a bool, float or string power is refused before any work, not read
    # as 1 or 2 or failed on deep inside the walk
    B = cw_blocking(3)
    P = BlockDistribution.uniform(LARGE3)
    for build in (lambda: kronecker_power(cw(3), N),
                  lambda: blocking_power(B, N),
                  lambda: sp_extract(cw(3), B, P, N),
                  lambda: chimney(cw(3), B, P, N)):
        with pytest.raises(ValueError, match="power"):
            build()
    with pytest.raises(ValueError, match="axis"):
        chimney(cw(3), B, P, 3, fixed_pair=(N, 0))


# the entry (0, 1, 1) spends label 0 on the first axis and label 1 on the
# second, and no entry spends the reverse, so every word that takes it
# reaches a budget that no word completes
DEAD_END = Tensor3((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 2, (1, 1, 1): 3})
DEAD_END_BLOCKS = [((0,), (0,), (0,)), ((1,), (1,), (-1,))]


@pytest.mark.parametrize("N", [2, 4])
def test_budgets_that_no_word_spends_are_dropped(monkeypatch, N):
    B = weight_blocking([0, 1])
    P = BlockDistribution.uniform(DEAD_END_BLOCKS)
    entered, dead = [], []
    walk, node = tensor3._walk, tensor3._node

    def spy_walk(n, *args):
        entered.append(n)
        return walk(n, *args)

    def spy_node(state, *args):
        got = node(state, *args)
        if got is None:
            dead.append(state)
        return got

    monkeypatch.setattr(tensor3, "_walk", spy_walk)
    monkeypatch.setattr(tensor3, "_node", spy_node)
    piece = sp_extract(DEAD_END, B, P, N, check_tight=False)
    assert _same_piece(piece, brute_sp_extract(DEAD_END, B, P, N, False))
    for fixed in ((0, 1), (0, 2), (1, 2)):
        assert (chimney(DEAD_END, B, P, N, fixed_pair=fixed, check_tight=False)
                == brute_chimney(DEAD_END, B, P, N, fixed, False))
    # every node the walk enters holds a move or a suffix word, so no
    # prefix is carried into a budget it cannot complete
    for moves, ends, _ in entered:
        assert moves or ends and (ends[0] or ends[1])
    assert dead


def test_the_chimney_walk_has_one_state_per_budget(monkeypatch):
    # the states are the label budgets still to spend, not the counts per
    # group of entries that spend them
    states = set()
    node = tensor3._node

    def spy(state, *args):
        states.add(state)
        return node(state, *args)

    monkeypatch.setattr(tensor3, "_node", spy)
    C = chimney(cw(3), cw_blocking(3), BlockDistribution.uniform(LARGE3), 6)
    assert C.nnz() == 225
    assert len(states) == 37


def test_a_visit_to_a_suffix_table_shares_its_position_ints(monkeypatch):
    # above 256 each int sum is a new object, so keys that each added
    # prefix and offset would hold three ints apiece; a visit builds the
    # positions of each axis once, so on each axis the keys hold at most as
    # many distinct big ints as the visited tables have distinct offsets
    visits = []
    walk = tensor3._walk

    def spy(node, *args):
        if node[1] is not None:
            visits.append(node[2])
        return walk(node, *args)

    monkeypatch.setattr(tensor3, "_walk", spy)
    P = BlockDistribution.uniform(LARGE3)
    # the power's 6**3 prefixes each visit its one table of 3-letter
    # suffixes, whose offsets on each axis are the 3**3 flat indices
    for build, axes, want in (
            (lambda: kronecker_power(cw(3), 6), (0, 1, 2), 216 * 27),
            (lambda: chimney(cw(3), cw_blocking(3), P, 6), (2,), None)):
        visits.clear()
        T = build()
        for a in axes:
            bound = sum(len({word[a] for word in words}) for words in visits)
            assert want is None or bound == want
            big = {id(key[a]) for key in T.entries if key[a] >= 256}
            assert big and len(big) <= bound


# -- kept sequences from one memo of tails per budget --------------------------


@st.composite
def kept_problems(draw):
    """A label table of 1-4 indices, scalar or vector labels, a power
    N <= 6 and a composition of N over some of the labels: some indices
    carry no label of it, and it may charge a label that no index carries,
    which keeps nothing."""
    r = draw(st.integers(1, 2))
    label = st.tuples(*[st.integers(-1, 1)] * r)
    table = draw(st.lists(label, min_size=1, max_size=4))
    pool = sorted(set(draw(st.lists(st.sampled_from(table), min_size=1))))
    if draw(st.booleans()):
        pool.append((2,) * r)  # carried by no index
    N = draw(st.integers(0, 6))
    comp = Counter(draw(st.lists(st.sampled_from(pool), min_size=N,
                                 max_size=N)))
    return Blocking([table] * 3), dict(comp), N


@settings(max_examples=200, deadline=None)
@given(kept_problems(), st.integers(0, 2))
def test_kept_sequences_match_brute_force(problem, axis):
    B, comp, N = problem
    assert _kept_sequences(B, axis, comp) == _brute_kept(B, axis, comp, N)


def test_a_charged_label_that_no_index_carries_keeps_nothing():
    B = cw_blocking(3)
    assert _kept_sequences(B, 0, {(0,): 1, (5,): 1}) == []
    assert _kept_sequences(B, 0, {}) == [()]


def _tail_tables(monkeypatch):
    """The memo of each ``_kept_sequences`` call and the budgets whose
    tails were built, in call order."""
    memos, built = [], []
    tails = sweet._tails

    def spy(slot, budget, memo):
        if not any(m is memo for m in memos):
            memos.append(memo)
        if budget not in memo:
            built.append((id(memo), budget))
        return tails(slot, budget, memo)

    monkeypatch.setattr(sweet, "_tails", spy)
    return memos, built


def test_one_tail_list_per_budget(monkeypatch):
    # the memo holds every budget below the composition once: counts 2 and
    # 4 of labels 0 and 1 give 3 * 5 budgets, built once each
    memos, built = _tail_tables(monkeypatch)
    B = cw_blocking(4)
    comp = _composition(marginals(BlockDistribution.uniform(LARGE3))[0], 6)
    assert comp == {(0,): 2, (1,): 4}
    kept = _kept_sequences(B, 0, comp)
    assert len(kept) == math.comb(6, 2) * 2 ** 4
    assert len(memos) == 1 and len(memos[0]) == 15
    assert all(type(tails) is list for tails in memos[0].values())
    assert len(built) == len(set(built)) == 14  # the zero budget is seeded


@pytest.mark.parametrize("N", [3, 6])
def test_each_axis_of_a_piece_has_one_memo(monkeypatch, N):
    memos, built = _tail_tables(monkeypatch)
    B = cw_blocking(4)
    P = BlockDistribution.uniform(LARGE3)
    sp_extract(cw(4), B, P, N)
    want = [math.prod(c + 1 for c in _composition(m, N).values())
            for m in marginals(P)]
    assert [len(m) for m in memos] == want
    assert len(built) == len(set(built)) == sum(want) - 3
