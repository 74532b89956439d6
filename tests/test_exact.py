import heapq
import math
from collections import Counter
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

try:
    import sympy
except ImportError:  # the oracle is optional
    sympy = None

from apolarium import apolar, exact, papersuite
from apolarium.exact import (MODULUS, PRIMES, SparseEchelon, solve_many,
                             sparse_kernel, sparse_rank)
from apolarium.poly import parse
from apolarium.scalars import rat
from oracles import echelon_mod_p, rref, spy_primes

F = Fraction
P = MODULUS


def mat(rows):
    """A dense matrix literal, each entry made a Fraction by ``rat``."""
    return [[rat(x) for x in row] for row in rows]


def sparse(m):
    """The sparse rows {column: entry} of the dense rows m."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def dot(row, v):
    return sum(x * v.get(j, 0) for j, x in row.items())


def first_primes(n):
    """The first n primes the kernels draw."""
    return list(islice(exact._primes(), n))


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
    assert sparse_rank(sparse(mat([[1, 2], [2, 4]]))) == 1
    assert sparse_rank(sparse(mat([[int(i == j) for j in range(4)]
                                   for i in range(4)]))) == 4
    assert sparse_rank(sparse(mat([[0] * 5] * 3))) == 0


def test_kernel_dimension_and_membership():
    rows = sparse(mat([[1, 1, 0], [0, 0, 1]]))
    ker = sparse_kernel(rows, 3)
    assert list(ker) == [1]
    assert all(dot(row, ker[1]) == 0 for row in rows)


def test_solve_unique():
    rows = sparse(mat([[2, 1], [1, 3]]))
    (x,) = solve_many(rows, [{0: F(5), 1: F(10)}])
    assert [dot(row, x) for row in rows] == [F(5), F(10)]


def test_solve_unique_rejects_singular():
    with pytest.raises(ValueError):
        solve_many(sparse(mat([[1, 2], [2, 4]])), [{0: F(1), 1: F(1)}])


def test_incremental_matches_batch_rank():
    rows = mat([[1, 2, 3], [1, 2, 3], [0, 1, 1], [2, 5, 7]])
    ech = SparseEchelon(int)
    accepted = sum(ech.insert(dict(enumerate(row))) for row in rows)
    assert accepted == ech.rank == sparse_rank(sparse(rows))


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
    assert sparse_rank(sparse(m)) == sparse_rank(sparse(transpose(m)))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity(m):
    ncols = len(m[0])
    assert (sparse_rank(sparse(m)) + len(sparse_kernel(sparse(m), ncols))
            == ncols)


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
    rows = sparse(m)
    for v in sparse_kernel(rows, len(m[0])).values():
        assert all(dot(row, v) == 0 for row in rows)


@settings(max_examples=30, deadline=None)
@given(matrices, matrices)
def test_product_rank_bound(a, b):
    # reshape b to have exactly ncols(a) rows so the product is defined
    need = len(a[0])
    b = [b[i % len(b)] for i in range(need)]
    assert sparse_rank(sparse(product(a, b))) <= min(
        sparse_rank(sparse(a)), sparse_rank(sparse(b)))


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
    assert sparse_rank(sparse(m)) == len(rref(m)[0])


def greedy_rank(rows):
    """The rank as ``_greedy`` certifies it with no structural pivot
    taken: on the side with fewer columns, given min(rows, columns)."""
    cols = sorted(set().union(*rows))
    side = exact._transpose(rows, cols) if len(cols) > len(rows) else rows
    return len(exact._greedy(side, min(len(rows), len(cols))))


@pytest.mark.parametrize("m, expected, nprimes, peeled", [
    # P vanishes mod P: the next prime has the better pivot list
    ([[F(P)]], 1, 2, True),
    ([[F(1), F(1)], [F(1), F(1 + P)]], 2, 2, False),  # determinant P
    # P divides a denominator: the scaled rows have full rank mod P
    ([[F(1, P), F(0)], [F(0), F(1)]], 2, 1, True),
    ([[F(2, P)], [F(1, 3)]], 1, 1, True),
    # singular; dropping 1/P is not.  The kernel entry -P of the scaled
    # rows is past Wang's bound for two primes
    ([[F(1, P), F(1)], [F(1), F(P)]], 1, 3, False),
    # the kernel entry -(2^250 + 1) is past Wang's bound for the eight
    # written-out primes together: each lift fails or is a wrong fraction,
    # which the exact check rejects, until a ninth prime
    ([[F(1), F(1 << 250 | 1)], [F(2), F(2 << 250 | 2)]], 1, 9, False),
])
def test_bad_primes_and_big_entries_keep_the_rank(monkeypatch, m, expected,
                                                  nprimes, peeled):
    primes = spy_primes(monkeypatch)
    # the rows, and the same rows sparse over far-apart columns: the kernel
    # gets them keyed by the columns as they occur
    for rows in (sparse(m), [{2 * j + 1: x for j, x in row.items()}
                             for row in sparse(m)]):
        primes.clear()
        assert sparse_rank(rows) == expected
        if peeled:
            # a singleton row or column gives the rank without a prime; the
            # certificate alone still reaches the bad prime
            assert primes == []
            assert greedy_rank(rows) == expected
        assert primes == first_primes(nprimes)


def test_a_streamed_side_is_read_only_as_far_as_its_bound(monkeypatch):
    read = []

    def stream(rows):
        for row in rows:
            read.append(row)
            yield row
    rows = [{0: F(1)}, {1: F(2, 3)}, {0: F(1), 1: F(1)}, {2: F(5)}]
    assert exact._greedy(stream(rows), 2) == [0, 1]
    assert read == rows[:2]
    # short of the bound the rest is read, and the rows read and the rest
    # all reach the kernel, the second scaled by P, which divides its
    # denominator; one prime answers
    primes = spy_primes(monkeypatch)
    read.clear()
    rows = [{0: F(1), 1: F(1)}, {0: F(1, P)}, {0: F(2), 1: F(2)}, {1: F(3)}]
    assert exact._greedy(stream(rows), 3) == [0, 1]
    assert read == rows and primes == [MODULUS]


def test_zero_matrix_rank_needs_no_prime(monkeypatch):
    primes = spy_primes(monkeypatch)
    assert sparse_rank(sparse([[F(0)] * 4] * 3)) == 0
    assert sparse_rank([{0: F(0), 3: 0}, {1: F(0)}]) == 0
    assert primes == []


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
    assert sparse_rank(sparse(m)) == expected
    assert sparse_rank(sparse(transpose(m))) == expected


def test_rank_of_empty_matrices():
    assert sparse_rank(sparse([])) == 0
    assert sparse_rank(sparse([[], []])) == 0


def test_full_rank_is_certified_by_one_prime(monkeypatch):
    primes = spy_primes(monkeypatch)
    m = mat([["1/2", 3, 0, -5], [0, "7/3", 1, 1], [1, 1, 1, "1/6"]])
    assert sparse_rank(sparse(m)) == 3
    assert sparse_rank(sparse(transpose(m))) == 3
    assert primes == [MODULUS, MODULUS]


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_matrices, low_rank_matrices))
def test_rank_matches_sympy(m):
    assert sparse_rank(sparse(m)) == sympy.Matrix(m).rank()


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
    assert sparse_rank(rows) == expected
    kept = [exact._integral(row) for row in rows if row]
    kernel = exact._kernel_mod_primes(kept, range(ncols))
    assert ncols - len(kernel) == expected
    full = min(len(kept), ncols)
    if expected < full:  # reduction mod p never raises a rank
        assert len(exact._echelon_mod_p(kept, MODULUS, full)[0]) < full


def test_sparse_rank_ignores_zero_rows_and_columns():
    assert sparse_rank([]) == 0
    assert sparse_rank([{}, {}]) == 0
    assert sparse_rank([{7: F(1)}, {}, {10 ** 6: F(-2, 3)}]) == 2
    assert sparse_rank([{5: F(1), 9: F(2)}, {5: F(3), 9: F(6)}]) == 1


# -- structural pivots ---------------------------------------------------------


nonzero_rat = st.builds(F, st.integers(1, 9), st.integers(1, 4)).flatmap(
    lambda x: st.sampled_from([x, -x]))


@st.composite
def cascade_matrices(draw, sizes=(0, 2, 3)):
    """[[T, 0], [X, D]] with its rows and columns shuffled: T lower
    triangular with a nonzero diagonal, whose rows peel one after another,
    D k x k with no zero entry, k drawn from sizes, and X any."""
    n = draw(st.integers(1, 6))
    k = draw(st.sampled_from(sizes))
    entry = st.one_of(st.just(F(0)), nonzero_rat)
    m = [[draw(nonzero_rat) if j == i else draw(entry) if j < i else F(0)
          for j in range(n)] + [F(0)] * k for i in range(n)]
    m += [[draw(entry) for _ in range(n)] + [draw(nonzero_rat)
                                             for _ in range(k)]
          for _ in range(k)]
    rows = draw(st.permutations(range(n + k)))
    cols = draw(st.permutations(range(n + k)))
    return [[m[i][j] for j in cols] for i in rows]


dense_nonzero = st.tuples(st.integers(2, 5), st.integers(2, 5)).flatmap(
    lambda nm: st.lists(st.lists(nonzero_rat, min_size=nm[1],
                                 max_size=nm[1]),
                        min_size=nm[0], max_size=nm[0]))


def with_zeros(m, data):
    """The sparse rows of m, some of its zero entries kept as explicit
    keys."""
    return [{j: x for j, x in enumerate(row)
             if x or data.draw(st.booleans(), label="keep zero")}
            for row in m]


@settings(max_examples=150, deadline=None)
@given(st.one_of(cascade_matrices(), dense_nonzero, sparse_matrices),
       st.data())
def test_peeled_pivots_plus_the_core_rank_is_the_rank(m, data):
    rows = with_zeros(m, data)
    s, core = exact._peel(iter(rows))
    ncols = len(m[0])
    assert s + len(rref([[row.get(j, F(0)) for j in range(ncols)]
                         for row in core])[0]) == len(rref(m)[0])
    # the core is rows of m cut to some of their columns, with no zero
    # entry and no row or column holding a single entry
    assert all(any(row.items() <= r.items() for r in rows) for row in core)
    assert all(all(row.values()) and len(row) >= 2 for row in core)
    assert all(c >= 2 for c in Counter(j for row in core
                                       for j in row).values())
    assert sparse_rank(rows) == len(rref(m)[0])


@settings(max_examples=60, deadline=None)
@given(cascade_matrices(sizes=(0,)), dense_nonzero)
def test_cascades_peel_whole_and_dense_blocks_not_at_all(m, d):
    assert exact._peel(sparse(m)) == (len(m), [])
    assert exact._peel(sparse(d)) == (0, sparse(d))


def test_structural_pivots_take_no_prime(monkeypatch):
    primes = spy_primes(monkeypatch)
    # column 0 has one entry; the 2 x 2 block it leaves has none
    rows = [{0: F(1), 1: F(2), 2: F(3)}, {1: F(4), 2: F(5)},
            {1: F(7), 2: F(8)}]
    assert exact._peel(rows) == (1, rows[1:])
    assert sparse_rank(rows) == 3 and primes == [MODULUS]
    primes.clear()
    # rows in the order given: the singleton {2: 6} deletes column 2, and
    # the rows it leaves with one entry go in turn
    rows = [{0: F(1), 1: F(2), 2: F(3)}, {1: F(4), 2: F(5)}, {2: F(6)}]
    assert exact._peel(rows) == (3, [])
    assert sparse_rank(rows) == 3 and primes == []
    # an explicit zero is no entry: each row holds one
    assert exact._peel([{0: F(0), 1: F(2)}, {0: F(3), 1: 0}]) == (2, [])
    assert sparse_rank([{0: F(0), 1: F(2)}, {0: F(3), 1: 0}]) == 2
    assert primes == []


def test_rows_the_passes_empty_stay_out_of_the_core(monkeypatch):
    # the second pass keeps the first row, with columns 0 and 1 live, and
    # then takes both from the rows after it: the row is left with no
    # entry, and the core has no singleton whose queue would drop it
    rows = [{0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}, {2: 1},
            {5: 1, 6: 1}, {5: 1, 6: 2}]
    assert exact._peel(rows) == (3, rows[4:])
    # the same with an explicit zero: the whole rank is structural
    rows = [{1: 0}, {2: 1, 3: 1, 4: 1}, {3: 1, 4: 1}, {2: 1, 4: 1}, {4: 1}]
    assert exact._peel(rows) == (3, [])
    primes = spy_primes(monkeypatch)
    assert sparse_rank(rows) == 3 and primes == []


def test_the_queue_takes_the_rows_its_deletions_leave_with_one_entry():
    # the passes take E, then D; the queue takes C, which leaves A and B
    # with one entry each, at column 0: one of them goes, and the other is
    # left with none
    a, b, c, d, e = ({0: 1, 1: 1}, {0: 1, 1: 2}, {1: 1, 2: 1}, {2: 1, 3: 1},
                     {3: 1})
    assert exact._peel([a, b, c, d, e]) == (4, [])
    # column 0 has one entry, and dropping its row leaves column 1 with
    # one; the 2 x 2 block left has none
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}, {2: 2, 3: 3}]
    assert exact._peel(rows) == (2, rows[2:])


# -- kernels and solves --------------------------------------------------------


def oracle_kernel(m):
    """The reduced-echelon kernel basis, read off ``rref`` over Q, as
    {free column: sparse vector}."""
    rows, pivots = rref(m)
    basis = {}
    for j in range(len(m[0])):
        if j not in pivots:
            basis[j] = {j: F(1)}
            basis[j].update((p, -r[j]) for r, p in zip(rows, pivots) if r[j])
    return basis


def oracle_solve(m, b):
    """The solution of m x = b read off ``rref`` of [m | b], or None."""
    rows, pivots = rref([list(row) + [x] for row, x in zip(m, b)])
    if pivots != list(range(len(m))):
        return None
    return [r[-1] for r in rows]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices)
def test_sparse_kernel_matches_rref_oracle(m):
    kernel = sparse_kernel(sparse(m), len(m[0]))
    expected = oracle_kernel(m)
    assert kernel == expected
    assert list(kernel) == list(expected)  # free columns ascending


@pytest.mark.parametrize("rows, ncols", [
    ([{0: F(1), 5: F(1)}], 2),   # past the last column
    ([{0: F(1), -1: F(1)}], 2),  # before the first
    ([{1: F(1)}], 1),            # the entry would be dropped
])
def test_sparse_kernel_refuses_columns_outside_its_range(rows, ncols):
    with pytest.raises(ValueError, match="outside"):
        sparse_kernel(rows, ncols)


square_matrices = st.integers(1, 6).flatmap(lambda n: st.one_of(
    st.lists(st.lists(sparse_entry, min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(st.lists(rat_entry, min_size=n, max_size=n),
             min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(square_matrices, st.data())
def test_solves_match_rref_oracle(m, data):
    n = len(m)
    rhss = data.draw(st.lists(st.lists(rat_entry, min_size=n, max_size=n),
                              min_size=1, max_size=4))
    expected = [oracle_solve(m, b) for b in rhss]
    rows, bs = sparse(m), sparse(rhss)
    if expected[0] is None:  # m is singular
        with pytest.raises(ValueError):
            solve_many(rows, bs[:1])
        with pytest.raises(ValueError):
            solve_many(rows, bs)
    else:
        assert solve_many(rows, bs[:1]) == sparse(expected[:1])
        assert solve_many(rows, bs) == sparse(expected)


def test_solves_reject_bad_shapes():
    with pytest.raises(ValueError, match="square"):  # a column >= n
        solve_many([{0: F(1), 1: F(2)}], [{0: F(1)}])
    with pytest.raises(ValueError, match="right-hand side"):  # a row >= n
        solve_many([{0: F(1)}, {1: F(1)}], [{2: F(1)}])
    with pytest.raises(ValueError, match="singular"):
        solve_many([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}], [{0: F(1)}])
    assert solve_many([], [{}]) == [{}]
    assert solve_many([{0: F(2)}], []) == []


def lu_mix(rng, rows):
    """Rows recombined by a random unimodular integer matrix L U."""
    n = len(rows)
    for i in range(n):  # U: add multiples of later rows
        for k in range(i + 1, n):
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
    for i in reversed(range(n)):  # L: add multiples of earlier rows
        for k in range(i):
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
    return rows


@st.composite
def big_kernels(draw):
    """(m, x): m = L U [I | -x] with x r x s of numerators of 62 to 115
    bits and denominators of up to 115 bits, so that the reduced-echelon
    kernel of m is [x; I] and its entries are past Wang's bound for one
    prime but within it for four."""
    r, s = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))

    def big(lo):
        return rng.randrange(1 << (rng.randint(lo, 115) - 1), 1 << 115)

    def entry():  # no written-out prime divides the denominator: all good
        q = F(rng.choice((-1, 1)) * big(62), big(1))
        past_one_prime = q.numerator ** 2 > P // 2  # Wang's bound, squared
        if past_one_prime and all(q.denominator % p for p in PRIMES):
            return q
        return entry()
    x = [[entry() for _ in range(s)] for _ in range(r)]
    rows = [[F(int(i == k)) for k in range(r)] + [-v for v in x[i]]
            for i in range(r)]
    return lu_mix(rng, rows), x


@settings(max_examples=40, deadline=None)
@given(big_kernels())
def test_kernels_needing_several_primes_are_certified(mx):
    m, x = mx
    r, s = len(x), len(x[0])
    expected = dict(zip(range(r, r + s), sparse(
        [[x[i][t] for i in range(r)] + [F(t == u) for u in range(s)]
         for t in range(s)])))
    with pytest.MonkeyPatch.context() as mp:
        primes = spy_primes(mp)
        assert sparse_kernel(sparse(m), r + s) == expected
        assert 2 <= len(primes) <= 4
        assert primes == list(PRIMES[:len(primes)])
        # the same kernel as a solve: m's first r columns times x = -(rest)
        g = [row[:r] for row in m]
        rhss = [[-row[r + t] for row in m] for t in range(s)]
        assert solve_many(sparse(g), sparse(rhss)) == sparse(
            [[x[i][t] for i in range(r)] for t in range(s)])
        # a rank r matrix with more rows than columns: the kernel is [x; I]
        tall = m + [[a + b for a, b in zip(m[0], m[-1])]] * (s + 1)
        assert sparse_rank(sparse(tall)) == r
    assert expected == oracle_kernel(m)


def test_kernel_past_one_prime_is_certified_by_two(monkeypatch):
    # the kernel entry -(2^40 + 1) is past Wang's bound for one prime
    primes = spy_primes(monkeypatch)
    m = [[F(1), F(1 << 40 | 1)], [F(2), F(2 << 40 | 2)]]
    assert sparse_rank(sparse(m)) == 1
    assert sparse_kernel(sparse(m), 2) == {1: {0: F(-(1 << 40 | 1)), 1: F(1)}}
    assert primes == list(PRIMES[:2]) * 2


def test_a_column_no_row_holds_is_free_without_a_lift(monkeypatch):
    lifts = []
    lift = exact._lift

    def spy(vec, modulus, columns):
        lifts.append(sorted(vec))
        return lift(vec, modulus, columns)
    monkeypatch.setattr(exact, "_lift", spy)
    kernel = sparse_kernel([{1: F(1), 3: F(2)}, {1: F(2), 3: F(4)}], 5)
    # in column order, and only column 3, which a row holds, is lifted
    assert list(kernel.items()) == [
        (0, {0: F(1)}), (2, {2: F(1)}), (3, {1: F(-2), 3: F(1)}),
        (4, {4: F(1)})]
    assert all(type(x) is F for vec in kernel.values() for x in vec.values())
    assert lifts == [[1, 3]]


@pytest.mark.parametrize("k", range(len(PRIMES)))
def test_each_prime_dividing_a_denominator_is_scaled_away(monkeypatch, k):
    # the kernel entry -N P_k is past Wang's bound for the first k + 2
    # primes, so the k-th prime is reached, and it divides a denominator of
    # the rows; scaled, they are [1, N P_k] twice.  At k = 6 and 7 the
    # primes go on past the written-out eight
    pk, n = PRIMES[k], 1 << 31 * k
    m = [[F(1, pk), F(n)], [F(1), F(n * pk)]]
    primes = spy_primes(monkeypatch)
    assert sparse_rank(sparse(m)) == 1
    assert primes == first_primes(k + 3)
    assert sparse_kernel(sparse(m), 2) == {1: {0: F(-n * pk), 1: F(1)}}
    assert primes == first_primes(k + 3) * 2
    assert solve_many([{0: F(1, pk)}, {1: F(1)}], [{0: F(1), 1: F(2)}]) == [
        {0: F(pk), 1: F(2)}]


@pytest.mark.parametrize("m, kernel, nprimes", [
    # mod P the first column vanishes and the second is the pivot; mod the
    # next prime the first column is, further left, and the residues mod P
    # are dropped.  The entry -1/P needs three more primes
    ([[P, 1]], {1: {0: F(-1, P), 1: F(1)}}, 4),
    # the same with the primes swapped: the second prime's list is worse,
    # and its residues are skipped
    ([[PRIMES[1], 1]], {1: {0: F(-1, PRIMES[1]), 1: F(1)}}, 4),
    # determinant P: mod P one pivot, mod the next prime two
    ([[1, 1], [1, 1 + P]], {}, 2),
], ids=["leftmost", "skipped", "more"])
def test_the_better_pivot_list_wins(monkeypatch, m, kernel, nprimes):
    primes = spy_primes(monkeypatch)
    assert exact._kernel_mod_primes(sparse(m), range(2)) == kernel
    assert primes == first_primes(nprimes)
    assert sparse_kernel(sparse(mat(m)), 2) == oracle_kernel(mat(m)) == kernel
    # a multiple of the rows below them keeps the rank and the pivots
    tall = m + [[2 * x for x in m[-1]]]
    assert sparse_rank(sparse(tall)) == 2 - len(kernel)
    assert exact._kernel_mod_primes(sparse(tall), range(2)) == kernel


def test_primes_are_distinct_61_bit_primes():
    sympy = pytest.importorskip("sympy")
    assert len(set(PRIMES)) == len(PRIMES) == 8
    assert all(p.bit_length() == 61 and sympy.isprime(p) for p in PRIMES)
    assert MODULUS == PRIMES[0] == (1 << 61) - 1


def test_the_primes_go_on_below_the_written_out_ones():
    sympy = pytest.importorskip("sympy")
    primes = first_primes(len(PRIMES) + 32)
    assert primes[:len(PRIMES)] == list(PRIMES)
    more = primes[len(PRIMES):]
    assert len(set(more)) == len(more) == 32
    assert more == sorted(more, reverse=True) and more[0] < PRIMES[-1]
    assert all(p.bit_length() == 61 for p in more)
    assert all(sympy.prevprime(a) == b
               for a, b in zip(primes[len(PRIMES) - 1:], more))


@settings(max_examples=60, deadline=None)
@given(st.one_of(sparse_matrices, big_kernels().map(lambda mx: mx[0])))
def test_kernel_and_rref_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    M = sympy.Matrix(m)

    def q(x):
        return F(int(x.p), int(x.q))
    assert list(sparse_kernel(sparse(m), len(m[0])).values()) == sparse(
        [[q(x) for x in v] for v in M.nullspace()])
    rows, pivots = rref(m)
    R, spiv = M.rref()
    assert pivots == list(spiv)
    assert rows == [[q(x) for x in R.row(i)] for i in range(len(pivots))]


# -- greedy rows -----------------------------------------------------------------


@st.composite
def row_lists(draw):
    """Rows of a sparse or several-prime matrix, with zero rows, repeated
    rows and multiples of rows put in at random places."""
    m = draw(st.one_of(sparse_matrices, big_kernels().map(lambda mx: mx[0])))
    rows = [list(row) for row in m]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "repeat", "multiple"]))
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "zero":
            row = [F(0)] * len(row)
        elif kind == "multiple":
            c = draw(rat_entry)
            row = [c * x for x in row]
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


def oracle_greedy_rows(m):
    """The rows not in the span of the rows before them: the pivot columns
    of the transpose, read off ``rref`` over Q."""
    return rref(transpose(m))[1]


@settings(max_examples=200, deadline=None)
@given(row_lists())
def test_independent_rows_match_the_rref_oracle(m):
    assert exact.independent_rows(sparse(m)) == oracle_greedy_rows(m)


def test_independent_rows_of_independent_rows_need_no_kernel(monkeypatch):
    def fail(*args):
        raise AssertionError("no kernel needed")
    monkeypatch.setattr(exact, "_kernel_mod_primes", fail)
    assert exact.independent_rows([]) == []
    assert exact.independent_rows(
        [{3: F(1, 2)}, {0: F(2), 3: F(1)}, {1: F(-7, 3)}]) == [0, 1, 2]


def test_dependent_rows_are_certified_by_a_kernel():
    rows = [{}, {0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}, {}, {1: F(1)},
            {0: F(1, 3)}, {0: F(1), 1: F(1 << 80 | 1)}]
    assert exact.independent_rows(rows) == [1, 4]
    assert exact.independent_rows([{}, {}]) == []


@pytest.mark.parametrize("rows, expected, nprimes", [
    # mod P rows 0 and 1 are equal, so the rows independent mod P are 0 and
    # 2, and the next prime has the better pivot list
    ([{0: F(1), 1: F(1)}, {0: F(1), 1: F(1 + P)}, {1: F(1)}], [0, 1], 4),
    # P divides a denominator; the scaled columns are (1, P, 0, 2P) and
    # (0, 0, P, 3), which mod P keep rows 0 and 3
    ([{0: F(1, P)}, {0: F(1)}, {1: F(1)}, {0: F(2), 1: F(3, P)}], [0, 2], 4),
])
def test_independent_rows_past_bad_primes(monkeypatch, rows, expected,
                                          nprimes):
    primes = spy_primes(monkeypatch)
    assert exact.independent_rows(rows) == expected
    assert primes == first_primes(nprimes)
    assert oracle_greedy_rows(
        [[row.get(j, F(0)) for j in range(2)] for row in rows]) == expected


def test_the_kernel_of_int_rows_gives_fractions():
    kernel = sparse_kernel(sparse([[1, 2], [2, 4]]), 2)
    assert kernel == {1: {0: F(-2), 1: F(1)}}
    assert all(type(x) is F for x in kernel[1].values())


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_int_rows_match_fraction_rows(q):
    # a doubled first row and column keep the rank below both sides, so the
    # full-rank certificate does not answer and the kernel is reached
    q = [row + [2 * row[0]] for row in q]
    q.append([2 * x for x in q[0]])
    m = [[int(x) for x in row] for row in q]
    ncols = len(m[0])
    kernel = sparse_kernel(sparse(m), ncols)
    assert kernel == sparse_kernel(sparse(q), ncols)
    assert all(type(x) is F for vec in kernel.values() for x in vec.values())
    assert sparse_rank(sparse(m)) == sparse_rank(sparse(q))
    assert exact.independent_rows(sparse(m)) == exact.independent_rows(
        sparse(q))


@settings(max_examples=100, deadline=None)
@given(row_lists(), square_matrices, st.data())
def test_row_lists_and_solves_match_the_rref_oracle(m, g, data):
    rhss = data.draw(st.lists(st.lists(rat_entry, min_size=len(g),
                                       max_size=len(g)),
                              min_size=1, max_size=3))
    solutions = [oracle_solve(g, b) for b in rhss]
    kernel = sparse_kernel(sparse(m), len(m[0]))
    assert sparse_rank(sparse(m)) == len(rref(m)[0])
    assert exact.independent_rows(sparse(m)) == oracle_greedy_rows(m)
    if solutions[0] is None:
        with pytest.raises(ValueError, match="singular"):
            solve_many(sparse(g), sparse(rhss))
    else:
        solved = solve_many(sparse(g), sparse(rhss))
        assert solved == sparse(solutions)
        assert all(type(x) is F for x in solved[0].values())
    expected = oracle_kernel(m)
    assert kernel == expected and list(kernel) == list(expected)
    assert all(type(x) is F for vec in kernel.values() for x in vec.values())


# int entries as the partials blocks build them: small, negative, past a
# prime, or a multiple of one
int_entry = st.one_of(st.integers(-9, 9), st.sampled_from(
    [P, -P, 2 * P + 3, PRIMES[-1] * PRIMES[1], (1 << 70) - 1]))
int_rows = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(int_entry, min_size=m, max_size=m),
            min_size=n, max_size=n)))


@settings(max_examples=100, deadline=None)
@given(int_rows, st.lists(rat_entry, min_size=1, max_size=5))
def test_a_row_is_scaled_by_the_lcm_of_its_denominators(m, fracs):
    for row in sparse(m):  # a row of ints comes back as it is
        assert exact._integral(row) is row
    row = {j: x for j, x in enumerate(fracs + m[0]) if x}
    den = math.lcm(*(F(x).denominator for x in row.values()))
    scaled = exact._integral(row)
    if all(type(x) is int for x in row.values()):
        assert scaled is row
    else:
        assert scaled == {j: x * den for j, x in row.items()}
        assert all(type(x) is int for x in scaled.values())


@pytest.mark.parametrize("p", PRIMES)
def test_a_denominator_divisible_by_the_prime_is_scaled_away(p):
    scaled = exact._integral({0: F(1, p), 2: 5})
    assert scaled == {0: 1, 2: 5 * p}
    assert exact._echelon_mod_p([{0: 3, 1: -2}, scaled], p, 3) == (
        {0: 0, 1: 1}, {})
    assert exact._echelon_mod_p([{0: 3, 1: -2}, {0: p, 2: 5}], p, 3) == (
        {0: 0, 2: 1}, {1: {1: 1, 0: 2 * pow(3, -1, p) % p}})


# -- rows past the rank, tested against the kernel -------------------------------


# small primes, at which entries vanish often, and the first two kernel primes
ECHELON_PRIMES = (2, 3, 5, 7, P, PRIMES[1])


@st.composite
def echelon_streams(draw):
    """(dense int rows, distinct int keys of their columns): rows, often
    more than columns, each new, an int combination of the rows before it
    (so dependent rows fall before and after the rank) or zero; up to two
    columns zero throughout, and entries now and then multiples of one of
    ECHELON_PRIMES.  The keys are in no order, so a stream meets them
    out of order."""
    q = draw(st.sampled_from(ECHELON_PRIMES))
    n = draw(st.integers(1, 7))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=2))
    entry = st.one_of(st.just(0), st.integers(-3, 3),
                      st.integers(-2, 2).map(lambda c: c * q))
    rows: list = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["new", "new", "combination", "zero"]))
        if kind == "new" or not rows:
            row = [0 if j in zero else draw(entry) for j in range(n)]
        elif kind == "combination":
            cs = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                               max_size=len(rows)))
            row = [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)]
        else:
            row = [0] * n
        rows.append(row)
    keys = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n,
                         unique=True))
    return rows, keys


@settings(max_examples=300, deadline=None)
@given(echelon_streams(), st.integers(0, 2))
def test_the_two_phases_match_forward_elimination_and_back_substitution(
        mk, extra):
    m, keys = mk
    side = [{keys[j]: x for j, x in enumerate(row) if x} for row in m]
    ncols = len(set().union(*side)) + extra  # the keys that occur, or more
    for p in ECHELON_PRIMES:
        assert exact._echelon_mod_p(iter(side), p, ncols) == echelon_mod_p(
            side, p)
    # every prime the certificates try
    tried = []
    eliminate = exact._echelon_mod_p

    def spy(rows, p, ncols):
        rows = list(rows)
        pivots, kernel = eliminate(iter(rows), p, ncols)
        assert (pivots, kernel) == echelon_mod_p(rows, p)
        tried.append(p)
        return pivots, kernel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_echelon_mod_p", spy)
        greedy = exact._greedy(iter(side), ncols)
        kernel = sparse_kernel(sparse(m), len(m[0]))
    assert tried[0] == P
    # and the certificates match the rref oracle over Q
    by_key = sorted(range(len(keys)), key=keys.__getitem__)
    q = [[F(row[j]) for j in by_key] for row in m]
    assert greedy == [keys[by_key[j]] for j in rref(q)[1]]
    assert kernel == oracle_kernel([[F(x) for x in row] for row in m])


def test_the_kernel_takes_over_at_the_first_row_that_reduces_to_zero(
        monkeypatch):
    # two rows held, (1, 0, 1) and (0, 1, 1); the zero row past them hands
    # the rows after it to the kernel vector (-1, -1, 1): (1, 1, 2) has dot
    # 0 and is skipped, (0, 0, 4) has dot 4 and makes column 2 a pivot
    held = []
    back = exact._back_substitute

    def spy(rows, invs, p):
        held.append([c for c, _ in rows])
        return back(rows, invs, p)
    monkeypatch.setattr(exact, "_back_substitute", spy)
    rows = [{0: 1, 2: 1}, {1: 1, 2: 1}, {0: 2, 2: 2}, {0: 1, 1: 1, 2: 2},
            {2: 4}]
    for ncols in (3, 6):
        held.clear()
        assert exact._echelon_mod_p(rows, P, ncols) == (
            {0: 0, 1: 1, 2: 2}, {})
        assert held == [[0, 1]]
    # rows that never reduce to zero are back-substituted at their end
    held.clear()
    assert exact._echelon_mod_p(rows[:2], P, 6) == (
        {0: 0, 1: 1}, {2: {2: 1, 0: P - 1, 1: P - 1}})
    assert held == [[0, 1]]
    # a column first seen past the switch gets the vector with a 1 there
    held.clear()
    rows = [{0: 1, 2: 1}, {1: 1, 2: 1}, {4: 1}, {0: 2, 2: 2}, {3: 5},
            {3: -1}, {0: 1, 1: 1, 2: 2, 3: 1}]
    assert exact._echelon_mod_p(rows, P, 5) == (
        {0: 0, 1: 1, 4: 2, 3: 3}, {2: {2: 1, 0: P - 1, 1: P - 1}})
    assert held == [[0, 1, 4]]


# -- held rows keep their pivot entries -----------------------------------------


# pivot entries that are not 1 mod any prime drawn, and entries past them
nonunit = st.one_of(st.integers(2, 9), st.integers(-9, -2))
lazy_entry = st.one_of(st.just(0), st.integers(-9, 9), st.sampled_from(
    [P - 1, P + 2, (1 << 70) + 1, PRIMES[3] * 5]))


@st.composite
def lazy_pivot_streams(draw):
    """(int rows, ncols, kind, independent rows): r independent rows of n
    columns, unit-triangular mixes of echelon rows whose leading entries
    are not 1, in the column order of distinct random keys.  "full" has r
    = n and ncols = n, and rows past them that are never read; "switch"
    puts int combinations of the rows before it (a zero row among them)
    after the first row, so the stream reduces a row to zero; "short" has
    r < ncols and no dependent row, so it ends short of ncols."""
    kind = draw(st.sampled_from(["full", "switch", "short"]))
    n = draw(st.integers(2 if kind == "short" else 1, 7))
    r = n if kind == "full" else draw(st.integers(1, n - (kind == "short")))
    leads = sorted(draw(st.lists(st.integers(0, n - 1), min_size=r,
                                 max_size=r, unique=True)))
    echelon = [[0] * lead + [draw(nonunit)]
               + [draw(lazy_entry) for _ in range(n - lead - 1)]
               for lead in leads]
    order = draw(st.permutations(range(r)))
    rows = []
    for t, i in enumerate(order):
        cs = draw(st.lists(st.integers(-3, 3), min_size=t, max_size=t))
        rows.append([x + sum(c * echelon[order[u]][j]
                             for u, c in enumerate(cs))
                     for j, x in enumerate(echelon[i])])
    independent = len(rows)
    dependent = draw(st.integers(1 if kind == "switch" else 0, 3))
    for _ in range(0 if kind == "short" else dependent):
        at = draw(st.integers(1, len(rows))) if kind == "switch" else len(rows)
        cs = draw(st.lists(st.integers(-2, 2), min_size=at, max_size=at))
        rows.insert(at, [sum(c * row[j] for c, row in zip(cs, rows))
                         for j in range(n)])
    keys = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n,
                         unique=True))
    side = [{keys[j]: x for j, x in enumerate(row) if x} for row in rows]
    ncols = n if kind == "full" else n + draw(st.integers(0, 2))
    return side, ncols, kind, independent


@settings(max_examples=300, deadline=None)
@given(lazy_pivot_streams())
def test_lazy_pivots_match_the_normalize_at_insert_reference(stream):
    # held rows keep their pivot entries; the pivots, with their insertion
    # indices, and the kernel are those of the reference, which scales
    # every held row to 1 at its pivot
    side, ncols, kind, independent = stream
    for p in (MODULUS, PRIMES[3]):
        read = [0]

        def counted():
            for row in side:
                read[0] += 1
                yield row
        pivots, kernel = exact._echelon_mod_p(counted(), p, ncols)
        assert (pivots, kernel) == echelon_mod_p(side, p)
        assert len(pivots) == independent
        if kind == "full":  # certified at the last independent row
            assert kernel == {} and read == [independent]
        elif kind == "short":
            assert len(pivots) < ncols and read == [len(side)]
        else:  # a switch reads every row, or stops at full rank
            assert read == [len(side)] or len(pivots) == ncols


def test_a_pivot_is_inverted_only_when_its_row_clears_another(monkeypatch):
    inverted = []

    def spy(x, e, m):
        inverted.append(x)
        return pow(x, e, m)
    monkeypatch.setattr(exact, "pow", spy, raising=False)
    # full rank, and no row clears another: no inverse
    rows = [{3: 7}, {2: 5}, {0: 2, 1: 3}, {1: 4}]
    assert exact._echelon_mod_p(rows, P, 4) == ({3: 0, 2: 1, 0: 2, 1: 3}, {})
    assert inverted == []
    # {0: 2} clears column 0 of each later row: 2 is inverted once, and the
    # rows it leaves, {j: 5}, are held as they are
    rows = [{0: 2}] + [{0: 3, j: 5} for j in range(1, 4)]
    assert exact._echelon_mod_p(rows, P, 4) == ({0: 0, 1: 1, 2: 2, 3: 3}, {})
    assert inverted == [2]
    # a pivot entry 1 needs no inverse
    inverted.clear()
    assert exact._echelon_mod_p([{0: 1, 1: 4}, {0: 3, 1: 2}], P, 2) == (
        {0: 0, 1: 1}, {})
    assert inverted == []
    # the kernel reads every held row scaled, each inverted once: {0: 2,
    # 2: 3} clears the second row to {1: 5, 2: -5}, which clears the third
    # to zero, and back-substitution reuses both inverses
    rows = [{0: 2, 2: 3}, {0: 4, 1: 5, 2: 1}, {1: 5, 2: -5}]
    assert exact._echelon_mod_p(rows, P, 3) == (
        {0: 0, 1: 1}, {2: {2: 1, 0: (P - 3) * pow(2, -1, P) % P, 1: 1}})
    assert inverted == [2, 5]
    # rows that run out short of ncols are scaled for the kernel, each once
    inverted.clear()
    assert exact._echelon_mod_p([{0: 2, 1: 1}, {1: 3, 2: 1}], P, 3) == (
        {0: 0, 1: 1}, {2: {2: 1, 0: pow(6, -1, P), 1: P - pow(3, -1, P)}})
    assert sorted(inverted) == [2, 3]


# -- one forward elimination per certified rank ----------------------------------


# ints and Fractions, zero or a multiple of MODULUS now and then
one_pass_entry = st.one_of(int_entry, rat_entry, st.sampled_from(
    [0, 0, F(P), F(3 * P, 2), 3 * P]))


def _one_pass_shapes(n_rows, n_cols):
    return st.tuples(n_rows, n_cols).flatmap(lambda nm: st.lists(
        st.lists(one_pass_entry, min_size=nm[1], max_size=nm[1]),
        min_size=nm[0], max_size=nm[0]))


# tall, wide, square, and products through k < min(n, m) columns
one_pass_matrices = st.one_of(
    _one_pass_shapes(st.integers(5, 9), st.integers(1, 4)),
    _one_pass_shapes(st.integers(1, 4), st.integers(5, 9)),
    _one_pass_shapes(st.integers(1, 6), st.integers(1, 6)),
    st.tuples(st.integers(2, 7), st.integers(2, 7)).flatmap(
        lambda nm: st.integers(1, min(nm) - 1).flatmap(
            lambda k: st.tuples(_one_pass_shapes(st.just(nm[0]), st.just(k)),
                                _one_pass_shapes(st.just(k), st.just(nm[1])))
        )).map(lambda ab: product(*ab)))


@settings(max_examples=200, deadline=None)
@given(one_pass_matrices)
def test_back_substituted_kernels_and_greedy_rows_match_the_oracles(m):
    q = [[F(x) for x in row] for row in m]
    rows, ncols = sparse(m), len(m[0])
    expected = oracle_kernel(q)
    ints = [exact._integral(row) for row in rows]
    kernel = exact._kernel_mod_primes(ints, range(ncols))
    assert kernel == expected and list(kernel) == list(expected)
    # the forward echelon, reused as the first prime
    first = exact._echelon_mod_p(ints, MODULUS, ncols)
    assert exact._kernel_mod_primes(ints, range(ncols), first) == kernel
    assert sparse_kernel(rows, ncols) == expected
    assert sparse_rank(rows) == len(rref(q)[0])
    assert exact.independent_rows(rows) == oracle_greedy_rows(q)


# multiples of the first two primes and of their product, as entries and
# as denominators
prime_multiple = st.builds(lambda c, q: c * q, st.sampled_from([-3, -1, 1, 2]),
                           st.sampled_from([P, PRIMES[1], P * PRIMES[1]]))
bad_prime_entry = st.one_of(
    st.sampled_from([F(1, P), F(P), F(1, PRIMES[1]), F(PRIMES[1])]),
    prime_multiple, prime_multiple.map(F),
    st.builds(F, st.integers(-9, 9), prime_multiple))


@st.composite
def bad_prime_matrices(draw, base=one_pass_matrices):
    """A matrix of `base` with entries vanishing, or denominators dividing,
    mod MODULUS or PRIMES[1] put in at random places, and now and then a
    2 x 2 block [[1, b], [c, bc + q]] of determinant q, such a multiple."""
    m = [list(row) for row in draw(base)]
    n, k = len(m), len(m[0])
    for _ in range(draw(st.integers(0, 4))):
        m[draw(st.integers(0, n - 1))][draw(st.integers(0, k - 1))] = draw(
            bad_prime_entry)
    if n > 1 and k > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 2)), draw(st.integers(0, k - 2))
        b, c = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[i][j:j + 2] = [1, b]
        m[i + 1][j:j + 2] = [c, b * c + draw(prime_multiple)]
    return m


@settings(max_examples=100, deadline=None)
@given(bad_prime_matrices(), bad_prime_matrices(square_matrices), st.data())
def test_bad_prime_matrices_match_the_rref_oracle(m, g, data):
    q = [[F(x) for x in row] for row in m]
    kernel, expected = sparse_kernel(sparse(m), len(m[0])), oracle_kernel(q)
    assert kernel == expected and list(kernel) == list(expected)
    assert sparse_rank(sparse(m)) == len(rref(q)[0])
    assert exact.independent_rows(sparse(m)) == oracle_greedy_rows(q)
    rhss = data.draw(st.lists(st.lists(bad_prime_entry, min_size=len(g),
                                       max_size=len(g)),
                              min_size=1, max_size=3))
    gq = [[F(x) for x in row] for row in g]
    solutions = [oracle_solve(gq, [F(x) for x in b]) for b in rhss]
    if solutions[0] is None:
        with pytest.raises(ValueError, match="singular"):
            solve_many(sparse(g), sparse(rhss))
    else:
        assert solve_many(sparse(g), sparse(rhss)) == sparse(solutions)


def _ex49_cube_order_4_block():
    # the rows a of order 4, read off the columns b of the order-4 stream
    f = parse(papersuite.EX49_CUBIC) ** 3
    cols = list(apolar._divisor_columns(apolar._packing(f.terms), 4, 4))
    rows = exact._transpose(cols, sorted(set().union(*cols)))
    assert (len(rows), len(set().union(*rows))) == (68, 117)
    return rows


@pytest.mark.parametrize("build, rank, rank_primes", [
    # every pivot of these two is structural: the rank takes no prime
    (lambda: [{0: F(1, 2), 3: F(2)}, {1: 1, 3: 5}, {2: -3}], 3, []),  # wide
    (lambda: [{0: F(1, 2)}, {1: 1}, {0: 2, 1: F(5, 3)}, {1: -3}], 2,
     []),  # tall
    # no row or column of this one has a single entry
    (_ex49_cube_order_4_block, 65, [MODULUS]),
], ids=["wide", "tall", "EX49^3 order 4"])
def test_a_rank_and_the_greedy_rows_eliminate_once(monkeypatch, build, rank,
                                                   rank_primes):
    rows = build()
    primes = spy_primes(monkeypatch)
    assert sparse_rank(rows) == rank
    assert primes == rank_primes
    greedy = exact.independent_rows(rows)
    assert len(greedy) == rank and primes == rank_primes + [MODULUS]


def test_rows_of_the_ex49_cube_block_past_the_switch_are_not_eliminated(
        monkeypatch):
    # the order-4 block of hilbert_function(EX49^3), its 117 columns over
    # 68 operator keys, rank 65: a row reduces to zero at row 17 with 16
    # held, and the 100 rows after it are tested against the kernel, no
    # held row subtracted from them (no heap pop)
    side = exact._transpose(_ex49_cube_order_4_block(), range(117))
    read, pops, switched = [0], [0], []

    def stream():
        for row in side:
            read[0] += 1
            yield row

    def heappop(heap):
        pops[0] += 1
        return heapq.heappop(heap)
    back = exact._back_substitute

    def spy(held, invs, p):
        switched.append((read[0], len(held), pops[0]))
        return back(held, invs, p)
    monkeypatch.setattr(exact, "heapq", SimpleNamespace(
        heapify=heapq.heapify, heappush=heapq.heappush, heappop=heappop))
    monkeypatch.setattr(exact, "_back_substitute", spy)
    pivots, kernel = exact._echelon_mod_p(stream(), MODULUS, 68)
    assert (len(pivots), len(kernel)) == (65, 3)
    assert switched == [(17, 16, pops[0])] and read == [117]
    monkeypatch.undo()
    f = parse(papersuite.EX49_CUBIC) ** 3
    assert tuple(apolar.hilbert_function(f)) == (
        1, 5, 15, 35, 65, 65, 35, 15, 5, 1)
    assert apolar.apolar_dim(f) == 242


# column keys as the packed keys of apolar come, or worse: negative, with
# gaps, past 2^40
column_keys = st.one_of(st.integers(-(1 << 45), 1 << 45),
                        st.integers(1 << 40, 1 << 70))


@settings(max_examples=200, deadline=None)
@given(one_pass_matrices, st.data())
def test_greedy_keys_are_the_rref_pivot_columns(m, data):
    keys = sorted(data.draw(st.lists(column_keys, min_size=len(m[0]),
                                     max_size=len(m[0]), unique=True)))
    side = [{keys[j]: x for j, x in enumerate(row) if x} for row in m]
    expected = [keys[j] for j in rref([[F(x) for x in row] for row in m])[1]]
    occur = len(set().union(*side))
    # a list or a stream, given the number of keys that occur or more
    for ncols in (occur, occur + data.draw(st.integers(1, 3))):
        assert exact._greedy(side, ncols) == expected
        assert exact._greedy(iter(side), ncols) == expected
