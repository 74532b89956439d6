from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

try:
    import sympy
except ImportError:  # the oracle is optional
    sympy = None

from apolarium import exact
from apolarium.exact import (MODULUS, SparseEchelon,
                             kernel_basis, mat, rank, rat, rref, solve_unique,
                             transpose)

F = Fraction
P = MODULUS


def test_rat_accepts_ints_fractions_strings():
    assert rat(3) == F(3)
    assert rat(F(2, 4)) == F(1, 2)
    assert rat("5/15") == F(1, 3)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_rref_known_matrix():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    rows, pivots = rref(m)
    assert pivots == [0, 1]
    assert rows == [[F(1), F(0), F(-1)], [F(0), F(1), F(2)]]


def test_rref_drops_zero_rows_and_is_fully_reduced():
    m = mat([[0, 0], [1, 5], [2, 10]])
    rows, pivots = rref(m)
    assert rows == [[F(1), F(5)]]
    assert pivots == [0]


def test_rank_examples():
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(mat([[int(i == j) for j in range(4)] for i in range(4)])) == 4
    assert rank(mat([[0] * 5] * 3)) == 0


def test_kernel_basis_dimension_and_membership():
    m = mat([[1, 1, 0], [0, 0, 1]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    v = ker[0]
    for row in m:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve_unique():
    m = mat([[2, 1], [1, 3]])
    x = solve_unique(m, [F(5), F(10)])
    assert [sum(a * b for a, b in zip(row, x)) for row in m] == [F(5), F(10)]


def test_solve_unique_rejects_singular():
    with pytest.raises(ValueError):
        solve_unique(mat([[1, 2], [2, 4]]), [F(1), F(1)])


def test_incremental_matches_batch_rank():
    rows = mat([[1, 2, 3], [1, 2, 3], [0, 1, 1], [2, 5, 7]])
    ech = SparseEchelon(int)
    accepted = sum(ech.insert(dict(enumerate(row))) for row in rows)
    assert accepted == ech.rank == rank(rows)


def test_sparse_echelon_contains_and_basis():
    order = {"a": 0, "b": 1, "c": 2}
    ech = SparseEchelon(order.get)
    assert ech.insert({"a": F(1), "b": F(1)})
    assert ech.insert({"b": F(2)})
    assert not ech.insert({"a": F(3), "b": F(-1)})
    assert ech.contains({"a": F(5), "b": F(7)})
    assert not ech.contains({"c": F(1)})
    basis = ech.basis()
    assert len(basis) == 2
    # fully reduced: the pivot of one row does not appear in the other
    assert basis[0] == {"a": F(1)}


def product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


small_rat = st.integers(-6, 6).map(F)
matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(small_rat, min_size=m, max_size=m),
            min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(transpose(m))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity(m):
    ncols = len(m[0])
    assert rank(m) + len(kernel_basis(m)) == ncols


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rref_is_idempotent(m):
    rows, _ = rref(m)
    if rows:
        again, _ = rref(rows)
        assert again == rows


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


@settings(max_examples=30, deadline=None)
@given(matrices, matrices)
def test_product_rank_bound(a, b):
    # reshape b to have exactly ncols(a) rows so the product is defined
    need = len(a[0])
    b = [b[i % len(b)] for i in range(need)]
    assert rank(product(a, b)) <= min(rank(a), rank(b))


# -- the modular certificate ---------------------------------------------------


rat_entry = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
# products of an n x k and a k x m matrix: rank at most k
low_rank_matrices = st.tuples(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 3)).flatmap(
    lambda nmk: st.tuples(
        st.lists(st.lists(rat_entry, min_size=nmk[2], max_size=nmk[2]),
                 min_size=nmk[0], max_size=nmk[0]),
        st.lists(st.lists(rat_entry, min_size=nmk[1], max_size=nmk[1]),
                 min_size=nmk[2], max_size=nmk[2]))).map(lambda ab: product(*ab))
rational_matrices = st.integers(1, 6).flatmap(
    lambda n: st.integers(1, 6).flatmap(
        lambda m: st.lists(st.lists(rat_entry, min_size=m, max_size=m),
                           min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_matrices, low_rank_matrices))
def test_rank_matches_rref_rank(m):
    assert rank(m) == len(rref(m)[0])


def sparse(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _spy_rref(monkeypatch):
    calls = []

    def spy(m):
        calls.append(m)
        return rref(m)
    monkeypatch.setattr(exact, "rref", spy)
    return calls


@pytest.mark.parametrize("m, expected", [
    ([[F(P)]], 1),                        # P vanishes mod P
    ([[F(1), F(1)], [F(1), F(1 + P)]], 2),  # determinant P
    ([[F(1, P), F(0)], [F(0), F(1)]], 2),   # P divides a denominator
    ([[F(2, P)], [F(1, 3)]], 1),
    ([[F(1, P), F(1)], [F(1), F(P)]], 1),  # singular; dropping 1/P is not
    # the kernel entry -(2^40 + 1) is past Wang's bound: it lifts to a wrong
    # fraction, which the exact check rejects
    ([[F(1), F(1 << 40 | 1)], [F(2), F(2 << 40 | 2)]], 1),
])
def test_rank_falls_back_to_rationals(monkeypatch, m, expected):
    calls = _spy_rref(monkeypatch)
    assert rank(m) == expected
    assert calls == [m]
    # the same rows, sparse over far-apart columns: only the fallback builds
    # dense rows, over the columns that occur
    spread = [{2 * j + 1: x for j, x in row.items()} for row in sparse(m)]
    assert exact.sparse_rank(spread) == expected
    assert calls == [m, m]


def test_zero_matrix_rank_is_certified_without_rref(monkeypatch):
    calls = _spy_rref(monkeypatch)
    assert rank([[F(0)] * 4] * 3) == 0
    assert calls == []


small_int = st.integers(-3, 3).map(F)
# n x k times k x m with k < min(n, m): always rank-deficient
deficient_products = st.integers(1, 3).flatmap(
    lambda k: st.tuples(st.integers(k + 1, 6), st.integers(k + 1, 6)).flatmap(
        lambda nm: st.tuples(
            st.lists(st.lists(small_int, min_size=k, max_size=k),
                     min_size=nm[0], max_size=nm[0]),
            st.lists(st.lists(small_int, min_size=nm[1], max_size=nm[1]),
                     min_size=k, max_size=k)))).map(lambda ab: product(*ab))


@settings(max_examples=80, deadline=None)
@given(deficient_products)
def test_deficient_rank_is_certified_by_a_kernel(m):
    expected = len(rref(m)[0])
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_rref(mp)
        assert rank(m) == expected
        assert rank(transpose(m)) == expected
    assert calls == []


def test_rank_of_empty_matrices():
    assert rank([]) == 0
    assert rank([[], []]) == 0


def test_full_rank_is_certified_without_rref(monkeypatch):
    calls = _spy_rref(monkeypatch)
    m = mat([["1/2", 3, 0, -5], [0, "7/3", 1, 1], [1, 1, 1, "1/6"]])
    assert rank(m) == 3
    assert rank(transpose(m)) == 3
    assert calls == []


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_matrices, low_rank_matrices))
def test_rank_matches_sympy(m):
    assert rank(m) == sympy.Matrix(m).rank()


# -- the certificates on sparse rows ---------------------------------------------


sparse_entry = st.one_of(st.just(F(0)), st.just(F(0)), rat_entry)
# wide (kernel on the transpose) and tall shapes, mostly zero entries
sparse_shapes = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(5, 12)),
    st.tuples(st.integers(5, 12), st.integers(1, 4)),
    st.tuples(st.integers(1, 8), st.integers(1, 8)))
sparse_matrices = st.one_of(
    sparse_shapes.flatmap(lambda nm: st.lists(
        st.lists(sparse_entry, min_size=nm[1], max_size=nm[1]),
        min_size=nm[0], max_size=nm[0])),
    low_rank_matrices,
    deficient_products)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices)
def test_sparse_certificates_match_rref_rank(m):
    expected = len(rref(m)[0])
    rows = sparse(m)
    ncols = len(m[0])
    assert exact.sparse_rank(rows) == expected
    kept = [row for row in rows if row]
    assert exact._rank_by_kernel_mod_p(kept, ncols) in (None, expected)
    full = min(len(kept), ncols)
    if expected < full:  # reduction mod p never raises a rank
        assert not exact._full_rank_mod_p(kept, full)


def test_sparse_rank_ignores_zero_rows_and_columns(monkeypatch):
    calls = _spy_rref(monkeypatch)
    assert exact.sparse_rank([]) == 0
    assert exact.sparse_rank([{}, {}]) == 0
    assert exact.sparse_rank([{7: F(1)}, {}, {10 ** 6: F(-2, 3)}]) == 2
    assert exact.sparse_rank([{5: F(1), 9: F(2)}, {5: F(3), 9: F(6)}]) == 1
    assert calls == []
