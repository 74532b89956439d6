"""Tests for tensor3.py: sparse order-3 tensors and the stock constructions."""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from apolarium.guards import LimitExceeded, limits
from apolarium.tensor3 import (
    AbelianGroup,
    PartiallySymmetricTensor,
    Tensor3,
    algebra_A_Tk,
    cw,
    group_tensor,
    is_concise,
    kronecker_power,
    one_generic_extension,
    symmetrize_TS,
    tb,
)
from apolarium.tensor3 import _KEY_BOUND, _SUFFIX_BOUND
from oracles import rref, structure_tensor, table_tensor_power


# -- the container ---------------------------------------------------------------


def test_tensor_drops_zero_entries():
    T = Tensor3((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 0})
    assert T.nnz() == 1 and T.support() == [(0, 0, 0)]


def test_tensor_validation():
    with pytest.raises(ValueError):
        Tensor3((2, 2), {})
    with pytest.raises(ValueError):
        Tensor3((2, 2, 0), {})
    with pytest.raises(ValueError):
        Tensor3((2, 2, 2), {(0, 0, 2): 1})
    with pytest.raises(ValueError):
        Tensor3((2, 2, 2), {}, labels=(["a"], ["a", "b"], ["a", "b"]))


@pytest.mark.parametrize("labels", [
    [["a", "b"], ["c", "d"]],
    [["a", "b"], ["c", "d"], ["e", "f"], ["g", "h"]],
], ids=["two axes", "four axes"])
def test_a_label_table_needs_three_axes(labels):
    with pytest.raises(ValueError, match="label table"):
        Tensor3((2, 2, 2), {(0, 0, 0): 1}, labels)


@pytest.mark.parametrize("idx", [
    (True, 1, 1), (0.9, 1, 1), (0, "1", 1), (0, 1, 1.0), (True, "1", 1.7)])
def test_an_index_that_is_not_an_int_is_refused(idx):
    # int() would truncate 0.9 to 0 and read True as 1
    with pytest.raises(ValueError, match="not a triple of ints"):
        Tensor3((2, 2, 2), {idx: 1})


def test_an_index_of_an_int_subclass_other_than_bool_is_stored_as_an_int():
    class Level(int):
        pass
    T = Tensor3((2, 2, 2), {(Level(1), 0, 0): 1})
    assert [type(x) for x in T.support()[0]] == [int, int, int]


def test_equality_ignores_labels():
    A = Tensor3((2, 2, 2), {(0, 0, 0): 1}, (["a", "b"],) * 3)
    B = Tensor3((2, 2, 2), {(0, 0, 0): 1})
    assert A == B and hash(A) == hash(B)
    assert A != Tensor3((2, 2, 2), {(0, 0, 0): 2})


def test_slice_extracts_contractions():
    T = cw(3)
    assert T.slice(0, 0) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert T.slice(0, 1) == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    with pytest.raises(ValueError):
        T.slice(3, 0)
    with pytest.raises(ValueError):
        T.slice(0, 5)


def test_json_round_trip():
    T = Tensor3((2, 3, 2), {(0, 1, 1): Fraction(1, 2), (1, 2, 0): -3},
                (["a", "b"], ["u", "v", "w"], ["p", "q"]))
    U = Tensor3.from_doc(T.doc())
    assert U == T and U.labels == T.labels
    assert '"1/2"' in T.to_json()


@pytest.mark.parametrize("T", [
    cw(3), cw(4), tb(),
    Tensor3((2, 3, 2), {(0, 1, 1): Fraction(1, 2), (1, 2, 0): -3}),
])
def test_the_json_text_is_the_document_dumped(T):
    # the benchmark workloads read to_json; the CLI writes doc()
    assert json.loads(T.to_json()) == T.doc()
    assert list(T.doc()) == sorted(T.doc())


def test_the_json_text_of_tb_is_pinned():
    assert tb().to_json() == (
        '{"dims": [2, 2, 2], "entries": [[0, 0, 0, "1"], [0, 1, 1, "1"], '
        '[1, 0, 1, "1"]], "labels": [["1", "x"], ["1", "x"], ["1", "x"]]}')


@pytest.mark.parametrize("entries", [
    [[0.9, 1, 1, "1"]],
    [[0, 0, 0, "1"], [0.2, 0, 0, "5"]],
    [[0, 1, "1", "1"]],
])
def test_from_doc_refuses_an_index_that_is_not_an_int(entries):
    with pytest.raises(ValueError, match="not a triple of ints"):
        Tensor3.from_doc({"dims": [2, 2, 2], "entries": entries})


@pytest.mark.parametrize("entries", [
    [[0, 0, 0, "1"], [0, 0, 0, "5"]],
    [[1, 0, 1, "1"], [0, 1, 1, "2"], [1, 0, 1, "1"]],
    [[0, 0, 0, "1"], [0.0, 0, 0, "5"]],
])
def test_from_doc_refuses_a_repeated_index_triple(entries):
    # keeping the last value would silently drop the first
    with pytest.raises(ValueError, match="repeated"):
        Tensor3.from_doc({"dims": [2, 2, 2], "entries": entries})


@pytest.mark.parametrize("dims", [
    [2.5, 2, 2],
    ["2", True, 2],
    [2, 2, 2.0],
    [True, 2, 2],
])
def test_from_doc_refuses_dims_that_are_not_ints(dims):
    # int() would read 2.5 as 2 and true as 1
    with pytest.raises(ValueError, match="bad dims"):
        Tensor3.from_doc({"dims": dims, "entries": []})


def test_from_doc_refuses_a_float_entry():
    # Fraction(0.1) would store 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="floats are not allowed"):
        Tensor3.from_doc({"dims": [2, 2, 2], "entries": [[0, 0, 0, 0.1]]})


def test_partially_symmetric_from_doc_refuses_a_float_entry():
    doc = {"n": 2, "m": 1, "slices": [[[1, 0.5], [0.5, 0]]]}
    with pytest.raises(TypeError, match="floats are not allowed"):
        PartiallySymmetricTensor.from_doc(doc)


@pytest.mark.parametrize("build", [
    lambda: Tensor3((2, 2, 2), {(0, 0, 0): True}),
    lambda: Tensor3.from_doc({"dims": [2, 2, 2], "entries": [[0, 0, 0, False]]}),
    lambda: PartiallySymmetricTensor([[[1, True], [True, 0]]]),
])
def test_a_bool_is_not_a_rational(build):
    # Fraction(True) is 1: the tensor would hold a value no one wrote
    with pytest.raises(TypeError, match="is not a rational$"):
        build()


@pytest.mark.parametrize("labels, err", [
    ([[True], ["b"], ["c"]], ValueError),
    ([["a"], [1.5], ["c"]], ValueError),
    ([["a"], ["b"], [{}]], ValueError),
    ([["a"], ["b"], [None]], ValueError),
    ([["a"], ["b"], "c"], TypeError),
    ("abc", TypeError),
])
def test_axis_labels_are_lists_of_strings(labels, err):
    # str() would turn true into "True", and a string axis would be read
    # one character per index
    with pytest.raises(err, match="is not a (string|list)$"):
        Tensor3((1, 1, 1), {}, labels)
    assert Tensor3((1, 1, 1), {}, None).labels is None


def test_partially_symmetric_from_doc_checks_m_and_n():
    doc = json.loads((Path(__file__).with_name("golden")
                      / "slices.json").read_text(encoding="utf-8"))
    S = PartiallySymmetricTensor.from_doc(doc)
    assert (S.m, S.n) == (doc["m"], doc["n"]) == (2, 4)
    # m and n are optional: the slices give them
    assert PartiallySymmetricTensor.from_doc(
        {"slices": doc["slices"]}).doc() == S.doc()
    for key, value in (("m", 3), ("n", 2), ("m", True), ("n", "4"),
                       ("m", {}), ("n", None)):
        with pytest.raises(ValueError, match=f"^{key} "):
            PartiallySymmetricTensor.from_doc(dict(doc, **{key: value}))


def test_partially_symmetric_doc_round_trip():
    S = symmetrize_TS(cw(3))
    doc = S.doc()
    assert list(doc) == ["m", "n", "slices"]
    assert PartiallySymmetricTensor.from_doc(doc).slices == S.slices


def _cell(T, axis, i, x, y):
    """The entry of T with index i on the axis and x, y on the other two
    axes in order, read from T.entries one cell at a time."""
    idx = [x, y]
    idx.insert(axis, i)
    return T.entries.get(tuple(idx), 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_slices_and_conciseness_match_a_dense_read(data):
    T = data.draw(small_tensors())
    ranks = []
    for axis in range(3):
        rows, cols = [d for a, d in enumerate(T.dims) if a != axis]
        i = data.draw(st.integers(0, T.dims[axis] - 1))
        assert T.slice(axis, i) == [[_cell(T, axis, i, x, y)
                                     for y in range(cols)]
                                    for x in range(rows)]
        flat = [[_cell(T, axis, i, x, y) for x in range(rows)
                 for y in range(cols)] for i in range(T.dims[axis])]
        ranks.append(len(rref(flat)[1]))
    bad = [axis for axis in range(3) if ranks[axis] != T.dims[axis]]
    assert is_concise(T) == (not bad, bad)


def test_is_concise_reports_failing_axes():
    ok, bad = is_concise(cw(4))
    assert ok and bad == []
    thin = Tensor3((2, 2, 2), {(0, 0, 0): 1})
    assert is_concise(thin) == (False, [0, 1, 2])


# -- three-sum tensors -------------------------------------------------------------


def test_cw_support_sizes():
    for n in (3, 4, 5, 6):
        T = cw(n)
        assert T.dims == (n, n, n)
        assert T.nnz() == 3 * n - 3
        assert all(v == 1 for v in T.entries.values())
        assert is_concise(T)[0]


def test_cw_entry_pattern():
    assert cw(3).support() == [(0, 0, 0), (0, 1, 1), (0, 2, 2),
                               (1, 0, 1), (1, 1, 2), (2, 0, 2)]


def test_tb_is_the_apolar_algebra_of_a_linear_form():
    # K[x]/(x^2) is the apolar algebra of x1, with basis (1, x1)
    from apolarium.apolar import structure_tensor_of_apolar
    from apolarium.poly import parse
    T, _ = structure_tensor_of_apolar(parse("x1"))
    assert tb().entries == T.entries and tb().dims == T.dims == (2, 2, 2)
    assert tb().labels == (("1", "x"),) * 3


def test_cw_needs_three():
    with pytest.raises(ValueError):
        cw(2)


# -- group tensors -----------------------------------------------------------------


def test_abelian_group_basics():
    G = AbelianGroup([2, 3])
    assert len(G) == 6
    assert G.elements[0] == (0, 0) and G.elements[-1] == (1, 2)
    assert G.add((1, 2), (1, 2)) == (0, 1)
    assert G.element_name((1, 2)) == "1+2"
    with pytest.raises(ValueError):
        AbelianGroup([])
    with pytest.raises(ValueError):
        AbelianGroup([3, 0])


@pytest.mark.parametrize("orders", [[2.5, True], [2, 1.0], ["3"]])
def test_abelian_group_refuses_orders_that_are_not_ints(orders):
    # int() would read 2.5 as 2 and true as 1
    with pytest.raises(ValueError, match="cyclic order .* is not an int"):
        AbelianGroup(orders)


def test_group_tensors_are_refused_before_they_are_built():
    G = AbelianGroup((4,))
    with limits(max_entries=10):
        with pytest.raises(LimitExceeded, match="entry count 16 "):
            group_tensor(G)  # charged |G|^2 before the addition table
        with pytest.raises(LimitExceeded, match="entry count 12 "):
            AbelianGroup((3, 4))  # charged its order before enumerating
        assert len(AbelianGroup((2, 5))) == 10


def test_group_tensor_is_addition_table():
    T = group_tensor(AbelianGroup([3]))
    assert T.dims == (3, 3, 3) and T.nnz() == 9
    assert T.labels[0] == ("0", "1", "2")
    # every (row, column) pair hits exactly one slice: a permutation cube
    seen = {(i, j) for (i, j, _) in T.entries}
    assert len(seen) == 9
    assert is_concise(T)[0]


def test_group_tensor_klein_four():
    T = group_tensor(AbelianGroup([2, 2]))
    assert T.dims == (4, 4, 4) and T.nnz() == 16
    assert T.labels[0] == ("0+0", "0+1", "1+0", "1+1")
    assert T.entries[(3, 3, 0)] == 1  # every element is its own inverse


# -- multiplication tables ------------------------------------------------------------


Z2_TABLE = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]


def test_structure_tensor_from_table():
    T = structure_tensor(Z2_TABLE, labels=["1", "g"])
    assert T == group_tensor(AbelianGroup([2]))


def test_structure_tensor_rejects_asymmetric_table():
    bad = [[[1, 0], [0, 1]], [[1, 0], [1, 0]]]
    with pytest.raises(ValueError):
        structure_tensor(bad)


def test_table_power_matches_kronecker_power():
    T = structure_tensor(Z2_TABLE)
    for N in (1, 2, 3):
        P = structure_tensor(table_tensor_power(Z2_TABLE, N))
        assert P == kronecker_power(T, N)


def test_table_power_of_chain_algebra():
    # K[x]/(x^2): x*x = 0
    chain = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    P = structure_tensor(table_tensor_power(chain, 2))
    assert P == kronecker_power(structure_tensor(chain), 2)
    assert P.dims == (4, 4, 4)


# -- graded local algebras from symmetric slices -----------------------------------------


def test_algebra_from_slices():
    ts = PartiallySymmetricTensor([[[2, 0], [0, 0]], [[1, 3], [3, 0]]])
    A = algebra_A_Tk(ts, 1)
    assert A.dims == (6, 6, 6) and A.nnz() == 15
    assert A.labels[0] == ("j", "x1", "x2", "y1", "z1", "z2")
    assert sorted((k, int(v)) for k, v in A.entries.items()) == [
        ((0, 0, 0), 1), ((0, 1, 1), 1), ((0, 2, 2), 1), ((0, 3, 3), 1),
        ((0, 4, 4), 1), ((0, 5, 5), 1),
        ((1, 0, 1), 1), ((1, 1, 4), 2), ((1, 1, 5), 1), ((1, 2, 5), 3),
        ((2, 0, 2), 1), ((2, 1, 5), 3),
        ((3, 0, 3), 1), ((4, 0, 4), 1), ((5, 0, 5), 1)]
    assert is_concise(A)[0]


def test_algebra_k_zero_and_validation():
    ts = PartiallySymmetricTensor([[[1]]])
    A = algebra_A_Tk(ts, 0)
    assert A.dims == (3, 3, 3)  # unit, x1, z1
    with pytest.raises(ValueError):
        algebra_A_Tk(ts, -1)
    with pytest.raises(ValueError):
        PartiallySymmetricTensor([[[0, 1], [2, 0]]])  # not symmetric
    with pytest.raises(ValueError):
        PartiallySymmetricTensor([])
    with pytest.raises(ValueError, match="square and equal-sized"):
        PartiallySymmetricTensor([[[1, 0], [0]]])  # a ragged row
    with pytest.raises(ValueError, match="first two dims must agree"):
        symmetrize_TS(Tensor3((2, 3, 1), {(0, 0, 0): 1}))


def test_algebras_are_refused_before_they_are_built():
    # 2*dim - 1 unit entries and 4 nonzero slice entries, dim = 1 + 2 + k + 2
    ts = PartiallySymmetricTensor([[[2, 0], [0, 0]], [[1, 3], [3, 0]]])
    with limits(max_entries=15):
        assert algebra_A_Tk(ts, 1).nnz() == 15
        with pytest.raises(LimitExceeded, match="entry count 17 "):
            algebra_A_Tk(ts, 2)
    with limits(max_entries=1000):
        with pytest.raises(LimitExceeded, match="entry count 2000013 "):
            algebra_A_Tk(ts, 10 ** 6)


def test_constructions_are_refused_before_they_are_built(monkeypatch):
    from apolarium import tensor3
    T3, T120 = cw(3), cw(120)
    built = []

    def spy(*args):  # each construction makes a Fraction per entry or row
        built.append(args)
        return Fraction(*args)
    monkeypatch.setattr(tensor3, "Fraction", spy)
    with limits(max_entries=1000):
        with pytest.raises(LimitExceeded, match="entry count 300000 "):
            cw(300000)
        with pytest.raises(LimitExceeded, match="entry count 300003 "):
            one_generic_extension(T3, 300000)  # max(a + 1, b + k)
        with pytest.raises(LimitExceeded, match="entry count 6912000 "):
            symmetrize_TS(T120)  # m (2n)^2 dense cells
    assert built == []
    with limits(max_entries=108):
        assert symmetrize_TS(T3).n == 6
        assert one_generic_extension(T3, 105).dims == (4, 108, 108)
        with pytest.raises(LimitExceeded, match="entry count 109 "):
            cw(109)
    with limits(max_entries=107):
        with pytest.raises(LimitExceeded, match="entry count 108 "):
            symmetrize_TS(T3)


def test_symmetrize_embeds_transpose_pairs():
    S = symmetrize_TS(cw(3))
    assert S.n == 6 and S.m == 3
    # entry (0,0,0) of the source sits at (0, 3) and (3, 0) of slice 0
    assert S.slices[0][0][3] == 1 and S.slices[0][3][0] == 1
    for s in S.slices:
        for i in range(6):
            for j in range(i):
                assert s[i][j] == s[j][i]


# -- one-generic extensions ------------------------------------------------------------


def test_one_generic_extension_of_three_sum():
    E = one_generic_extension(cw(3), 1)
    assert E.dims == (4, 4, 4) and E.nnz() == 10
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert E.slice(0, 0) == ident
    # original entries survive with first index + 1 and last index shifted
    shift = 1
    back = {(i - 1, j, k - shift): v for (i, j, k), v in E.entries.items()
            if i >= 1}
    assert back == cw(3).entries


def test_one_generic_extension_validation():
    thin = Tensor3((2, 2, 2), {(0, 0, 0): 1})
    with pytest.raises(ValueError):
        one_generic_extension(thin, 1)  # not concise
    with pytest.raises(ValueError):
        one_generic_extension(cw(3), -1)
    # b + k < c is impossible to embed
    with pytest.raises(ValueError):
        T = Tensor3((2, 2, 4), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 2): 1,
                                (1, 1, 3): 1})
        one_generic_extension(T, 1)


# -- Kronecker powers --------------------------------------------------------------------


def test_kronecker_power_shapes():
    K = kronecker_power(cw(3), 2)
    assert K.dims == (9, 9, 9) and K.nnz() == 36
    assert all(v == 1 for v in K.entries.values())


def test_kronecker_power_flattens_row_major():
    T = Tensor3((2, 2, 2), {(1, 0, 1): Fraction(1, 2)})
    K = kronecker_power(T, 2)
    # (1,1) -> 3, (0,0) -> 0, (1,1) -> 3 in row-major flattening
    assert K.entries == {(3, 0, 3): Fraction(1, 4)}


def test_kronecker_power_labels_join():
    K = kronecker_power(group_tensor(AbelianGroup([2])), 2)
    assert K.labels[0] == ("0,0", "0,1", "1,0", "1,1")


def _stored_as_validated(T):
    """Every key is a triple of in-range ints and every value a nonzero
    Fraction, as ``Tensor3.__init__`` stores them; == against an oracle
    cannot tell 1 from Fraction(1)."""
    return all(
        type(idx) is tuple and len(idx) == 3
        and all(type(x) is int and 0 <= x < d for x, d in zip(idx, T.dims))
        and type(c) is Fraction and c != 0
        for idx, c in T.entries.items())


@st.composite
def small_tensors(draw):
    dims = [draw(st.integers(1, 3)) for _ in range(3)]
    cells = list(itertools.product(*(range(d) for d in dims)))
    support = draw(st.lists(st.sampled_from(cells), max_size=5, unique=True))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    return Tensor3(dims, {idx: draw(values) for idx in support})


def _flat_word(word, dims):
    """Row-major flat index triple of a word of index triples."""
    N = len(word)
    return tuple(sum(idx[a] * dims[a] ** (N - 1 - t)
                     for t, idx in enumerate(word)) for a in range(3))


def _per_entry_power(T, N):
    """Each entry of the power computed on its own: flatten every index
    sequence and multiply the N values."""
    expected = {}
    for word in itertools.product(sorted(T.entries), repeat=N):
        value = Fraction(1)
        for idx in word:
            value *= T.entries[idx]
        expected[_flat_word(word, T.dims)] = value
    return expected


@settings(max_examples=60, deadline=None)
@given(small_tensors(), st.integers(1, 3))
def test_kronecker_power_matches_per_entry_product(T, N):
    K = kronecker_power(T, N)
    assert K.dims == tuple(d ** N for d in T.dims)
    assert K.entries == _per_entry_power(T, N) and _stored_as_validated(K)


# one unit entry and four others; 1/2 and 2 are a reciprocal pair, and
# -3/4 is the last entry, whose weight is the top digit of a weight sum
MIXED = Tensor3((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): -1, (1, 0, 1): 2,
                            (1, 1, 0): Fraction(1, 2),
                            (1, 1, 1): Fraction(-3, 4)})


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_kronecker_power_shares_one_product_per_entry_multiset(N):
    K = kronecker_power(MIXED, N)
    assert K.entries == _per_entry_power(MIXED, N) and _stored_as_validated(K)
    # the last entry in all N positions: the weight sum N * 5**3
    assert K.entries[_flat_word([(1, 1, 1)] * N, MIXED.dims)] == (
        Fraction(-3, 4) ** N)
    if N >= 2:
        # 2 * 1/2: a multiset of entries other than the unit, worth 1
        word = [(1, 0, 1), (1, 1, 0)] + [(0, 0, 0)] * (N - 2)
        assert K.entries[_flat_word(word, MIXED.dims)] == 1
    # one Fraction per multiset of the four entries other than the unit,
    # the empty one included
    assert len({id(c) for c in K.entries.values()}) == math.comb(N + 4, 4)


def test_entries_past_the_key_bound_are_multiplied_out():
    # 40 distinct entries other than 1 at N = 2: 3**37 <= 2**60 < 3**38,
    # so the first 37 share a product per multiset and a word that uses
    # one of the last 3 gets its own product
    T = Tensor3((4, 4, 4), {idx: Fraction(t + 4, 3) for t, idx in enumerate(
        itertools.islice(itertools.product(range(4), repeat=3), 40))})
    numbered = max(r for r in range(41) if 3 ** r <= _KEY_BOUND)
    assert numbered == 37
    K = kronecker_power(T, 2)
    assert K.entries == _per_entry_power(T, 2) and _stored_as_validated(K)
    shared = math.comb(numbered + 1, 2)
    assert len({id(c) for c in K.entries.values()}) == (
        shared + 40 ** 2 - numbered ** 2)


def test_kronecker_power_matches_per_entry_product_past_the_suffix_tables():
    # MIXED has 5 entries and 5 ** 3 <= _SUFFIX_BOUND, so the walk ends its
    # words from suffix tables of 3 entries: at N <= 3 (see above) from the
    # root's own table, and at N = 6 after 3 prefix levels
    assert 5 ** 3 <= _SUFFIX_BOUND
    K = kronecker_power(MIXED, 6)
    assert K.entries == _per_entry_power(MIXED, 6) and _stored_as_validated(K)


def test_prefixes_past_the_key_bound_are_multiplied_out():
    # 32 distinct entries other than 1 at N = 3: 4**30 = 2**60, so the
    # first 30 share a product per multiset; 32 ** 2 <= _SUFFIX_BOUND <
    # 32 ** 3, so the walk takes one prefix level, and a prefix of one of
    # the last 2 entries carries a negative sum into the suffix tables
    T = Tensor3((4, 4, 2), {idx: Fraction(t + 4, 3) for t, idx in enumerate(
        itertools.product(range(4), range(4), range(2)))})
    assert 32 ** 2 <= _SUFFIX_BOUND < 32 ** 3 and 4 ** 30 == _KEY_BOUND
    K = kronecker_power(T, 3)
    assert K.entries == _per_entry_power(T, 3) and _stored_as_validated(K)
    numbered = sorted(T.entries)[:30]
    assert len({id(K.entries[_flat_word(word, T.dims)]) for word in
                itertools.product(numbered, repeat=3)}) == math.comb(32, 3)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_kronecker_power_labels_are_the_joined_sequences(N):
    for T in (cw(3), tb(), group_tensor(AbelianGroup([2, 2]))):
        assert kronecker_power(T, N).labels == tuple(
            tuple(",".join(seq) for seq in itertools.product(ax, repeat=N))
            for ax in T.labels)


def test_kronecker_power_guard():
    with limits(max_entries=1000), pytest.raises(LimitExceeded):
        kronecker_power(cw(4), 8)
    with pytest.raises(ValueError):
        kronecker_power(cw(3), 0)


# -- dimension counts meet the polynomial side ----------------------------------------------


def test_boxtimes_power_hilbert_convolution():
    # the dimension filtration of a disjoint-variable power is the
    # coefficient list of (1 + (n-2) t + t^2)^N for the square quadric family
    from apolarium.apolar import hilbert_function
    from apolarium.poly import boxtimes_power, parse

    f = parse("x1^2 + x2^2")  # n = 4: (1 + 2t + t^2)^N = (1+t)^(2N)
    for N, expected in ((1, (1, 2, 1)), (2, (1, 4, 6, 4, 1)),
                        (3, (1, 6, 15, 20, 15, 6, 1))):
        assert tuple(hilbert_function(boxtimes_power(f, N))) == expected
