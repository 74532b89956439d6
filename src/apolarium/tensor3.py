"""Sparse order-3 tensors over Q and the standard constructions on them.

Conventions, fixed once:
  * indices are 0-based internally; the unit/neutral basis vector of a
    construction sits at index 0 and the distinguished "top" vector at the
    last index (so the three-sum tensor cw(n) has entries (0,i,i), (i,0,i)
    for i >= 1 and (i,i,n-1) for the middle range);
  * group elements are enumerated lexicographically with the neutral
    element first;
  * the algebra-from-tensor basis order is (unit, x_1..x_n, y_1..y_k,
    z_1..z_m).
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import guards
from .scalars import Rat, as_int, rat

Index3 = Tuple[int, int, int]
Slice = List[List[Rat]]  # one dense slice of a tensor, row-major


class Tensor3:
    """Sparse rational tensor of order 3.

    entries maps index triples to nonzero Fractions; labels, when present,
    name the basis vectors of each axis (purely cosmetic: equality ignores
    them).

    There are two constructors.  ``Tensor3(dims, entries, labels)`` checks
    and copies every entry, and is the only one for input from outside the
    library: files, the command line, user code and every construction
    fed by them.  ``Tensor3._derived`` stores, without a pass over its
    entries, the dict that ``_restricted_power``'s walk has just built
    over a factor its caller validated.
    """

    __slots__ = ("dims", "entries", "labels")

    def __init__(self, dims: Sequence[int],
                 entries: Dict[Index3, object],
                 labels: Optional[Sequence[Sequence[str]]] = None):
        d = tuple(dims)
        if (len(d) != 3 or not all(isinstance(x, int)
                                   and not isinstance(x, bool) and x >= 1
                                   for x in d)):
            raise ValueError(f"bad dims {dims}")
        em: Dict[Index3, Rat] = {}
        for idx, c in entries.items():
            if not all(isinstance(x, int) and not isinstance(x, bool)
                       for x in idx):
                raise ValueError(f"index {idx} is not a triple of ints")
            i, j, k = map(int, idx)
            if not (0 <= i < d[0] and 0 <= j < d[1] and 0 <= k < d[2]):
                raise ValueError(f"index {idx} out of range for dims {d}")
            c = rat(c)
            if c:
                em[(i, j, k)] = c
        lab = None
        if labels is not None:
            lab = tuple(tuple(str(s) for s in ax) for ax in labels)
            if len(lab) != 3 or any(len(ax) != dd
                                    for ax, dd in zip(lab, d)):
                raise ValueError("label table sizes do not match dims")
        self.dims = d
        self.entries = em
        self.labels = lab

    @classmethod
    def _derived(cls, dims: Index3, entries: Dict[Index3, Rat]) -> "Tensor3":
        """Store entries as they are, without the per-entry pass of
        ``__init__``, and no labels.

        Only for ``_restricted_power``, whose caller has just put the
        factor through ``__init__``, and which has built the dict by a
        walk over it.  Each key is then a triple of positions, the
        lexicographic ranks of kept index sequences of the factor, each
        below its count C(b) in dims, and each value is a product of
        nonzero Fractions of the factor, so a nonzero Fraction; the words
        of one multiset of entries share one such Fraction, which nothing
        mutates.  dims are a tuple of ints >= 1, as ``__init__`` would
        store them, since each slot of a budget is carried by some index
        of its axis."""
        T = cls.__new__(cls)
        T.dims = dims
        T.entries = entries
        T.labels = None
        return T

    def nnz(self) -> int:
        return len(self.entries)

    def support(self) -> List[Index3]:
        return sorted(self.entries)

    def __eq__(self, other):
        return (isinstance(other, Tensor3) and self.dims == other.dims
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.dims, frozenset(self.entries.items())))

    def __repr__(self):
        return f"Tensor3(dims={self.dims}, nnz={self.nnz()})"

    def slice(self, axis: int, index: int) -> Slice:
        """Contraction by the index-th dual basis vector of the given axis."""
        if axis not in (0, 1, 2):
            raise ValueError("axis must be 0, 1 or 2")
        if not 0 <= index < self.dims[axis]:
            raise ValueError(f"index {index} out of range on axis {axis}")
        rows, cols = [d for a, d in enumerate(self.dims) if a != axis]
        m = [[Fraction(0)] * cols for _ in range(rows)]
        for col, c in _flattening(self, axis)[index].items():
            m[col // cols][col % cols] = c
        return m

    # -- documents -----------------------------------------------------------

    def doc(self) -> dict:
        """The JSON document of the tensor, keys in sorted order: dims,
        entries [i, j, k, "p/q"] in index order, and labels when present."""
        doc = {
            "dims": list(self.dims),
            "entries": [[i, j, k, str(c)]
                        for (i, j, k), c in sorted(self.entries.items())],
        }
        if self.labels is not None:
            doc["labels"] = [list(ax) for ax in self.labels]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.doc(), sort_keys=True)

    @classmethod
    def from_doc(cls, doc: dict) -> "Tensor3":
        """The tensor of a parsed document; a repeated index triple is
        refused, not overwritten, and an entry that is not [i, j, k, value]
        is a document of the wrong type."""
        entries: Dict[Index3, Rat] = {}
        for entry in doc["entries"]:
            if len(entry) != 4:
                raise TypeError(f"entry {entry!r} is not [i, j, k, value]")
            i, j, k, v = entry
            if (i, j, k) in entries:
                raise ValueError(f"index {[i, j, k]} repeated")
            entries[(i, j, k)] = v
        return cls(doc["dims"], entries, doc.get("labels"))


def _flattening(T: Tensor3, axis: int) -> List[Dict[int, Rat]]:
    """One sparse row per index of the axis: the entries of T with that
    index, each at column j * d + k, (j, k) its indices on the other two
    axes in order and d the size of the later of them."""
    d = T.dims[1] if axis == 2 else T.dims[2]
    rows: List[Dict[int, Rat]] = [{} for _ in range(T.dims[axis])]
    for idx, c in T.entries.items():
        j, k = idx[:axis] + idx[axis + 1:]
        rows[idx[axis]][j * d + k] = c
    return rows


def is_concise(T: Tensor3) -> Tuple[bool, List[int]]:
    """Full flattening rank on every axis; returns (ok, failing axes)."""
    from .exact import sparse_rank
    bad = [axis for axis in range(3)
           if sparse_rank(_flattening(T, axis)) != T.dims[axis]]
    return (not bad, bad)


# -- constructions -------------------------------------------------------------


def cw(n: int) -> Tensor3:
    """The three-sum tensor on K^n: unit row, unit column, and the middle
    squares landing on the top vector.  Support size 3n-3; n is checked
    against the entry limit before any entry is built."""
    if n < 3:
        raise ValueError("need n >= 3")
    guards.check_entries(n)
    entries: Dict[Index3, Rat] = {}
    for i in range(n):
        entries[(0, i, i)] = Fraction(1)
    for i in range(1, n):
        entries[(i, 0, i)] = Fraction(1)
    for i in range(1, n - 1):
        entries[(i, i, n - 1)] = Fraction(1)
    labels = ["e1"] + [f"e{i + 1}" for i in range(1, n)]
    return Tensor3((n, n, n), entries, (labels, labels, labels))


def tb() -> Tensor3:
    """The structure tensor of K[x]/(x^2) in the basis (1, x)."""
    return Tensor3((2, 2, 2), {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(1),
                               (1, 0, 1): Fraction(1)},
                   labels=(("1", "x"),) * 3)


class AbelianGroup:
    """Finite product of cyclic groups, elements enumerated lexicographically;
    their number, the product of the orders, is checked against the entry
    limit before they are enumerated."""

    def __init__(self, orders: Sequence[int]):
        self.orders = tuple(as_int(m, "cyclic order") for m in orders)
        if not self.orders or any(m < 1 for m in self.orders):
            raise ValueError("cyclic orders must be positive")
        guards.check_entries(math.prod(self.orders))
        self.elements: List[Tuple[int, ...]] = [
            tuple(e) for e in itertools.product(*(range(m) for m in self.orders))
        ]
        self._index = {e: i for i, e in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def add(self, a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def index(self, e: Tuple[int, ...]) -> int:
        return self._index[e]

    def element_name(self, e: Tuple[int, ...]) -> str:
        return "+".join(str(x) for x in e)


def group_tensor(G: AbelianGroup) -> Tensor3:
    """Addition-table tensor: one unit entry per pair (g1, g2) at g1+g2;
    its |G|^2 entries are checked against the limits before any is built."""
    n = len(G)
    guards.check_entries(n * n)
    entries: Dict[Index3, Rat] = {}
    for a in G.elements:
        for b in G.elements:
            entries[(G.index(a), G.index(b), G.index(G.add(a, b)))] = Fraction(1)
    names = [G.element_name(e) for e in G.elements]
    return Tensor3((n, n, n), entries, (names, names, names))


class PartiallySymmetricTensor:
    """m symmetric n x n slices (an element of S^2(K^n) tensor K^m)."""

    def __init__(self, slices: Sequence[Slice]):
        self.slices = [[[rat(c) for c in row] for row in s] for s in slices]
        if not self.slices:
            raise ValueError("need at least one slice")
        self.m = len(self.slices)
        self.n = len(self.slices[0])
        for s in self.slices:
            if len(s) != self.n or any(len(row) != self.n for row in s):
                raise ValueError("slices must be square and equal-sized")
            for i in range(self.n):
                for j in range(i):
                    if s[i][j] != s[j][i]:
                        raise ValueError(f"slice not symmetric at ({i},{j})")

    def doc(self) -> dict:
        """The JSON document, keys in sorted order: m, n and the slices."""
        return {
            "m": self.m,
            "n": self.n,
            "slices": [[[str(c) for c in row] for row in s] for s in self.slices],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "PartiallySymmetricTensor":
        return cls(doc["slices"])


def algebra_A_Tk(T: PartiallySymmetricTensor, k: int) -> Tensor3:
    """Multiplication tensor of the graded local algebra built from T.

    Basis (unit, x_1..x_n, y_1..y_k, z_1..z_m): the unit acts as identity,
    x_i * x_j = sum_l T.slices[l][i][j] * z_l, the y's are annihilated by
    everything but the unit, and all remaining products vanish.  Its
    2·dim − 1 unit entries and the nonzero slice entries are checked
    against the limits before any is built.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n, m = T.n, T.m
    dim = 1 + n + k + m
    guards.check_entries(2 * dim - 1 + sum(
        1 for s in T.slices for row in s for c in row if c))
    entries: Dict[Index3, Rat] = {}
    for b in range(dim):
        entries[(0, b, b)] = Fraction(1)
        if b:
            entries[(b, 0, b)] = Fraction(1)
    for i in range(n):
        for j in range(n):
            for l in range(m):
                c = T.slices[l][i][j]
                if c:
                    entries[(1 + i, 1 + j, 1 + n + k + l)] = c
    labels = (["j"] + [f"x{i + 1}" for i in range(n)]
              + [f"y{i + 1}" for i in range(k)]
              + [f"z{i + 1}" for i in range(m)])
    return Tensor3((dim, dim, dim), entries, (labels, labels, labels))


def symmetrize_TS(T: Tensor3) -> PartiallySymmetricTensor:
    """Pack each contraction by the third axis into a 2n x 2n symmetric slice:
    the original matrix on the (1,2) block and its transpose on (2,1).  The
    m (2n)^2 dense cells are checked against the entry limit before any is
    built."""
    if T.dims[0] != T.dims[1]:
        raise ValueError("first two dims must agree")
    n, m = T.dims[0], T.dims[2]
    guards.check_entries(m * (2 * n) ** 2)
    slices = []
    for row in _flattening(T, 2):
        s = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        for col, c in row.items():
            i, j = divmod(col, n)
            s[i][n + j] = s[n + j][i] = c
        slices.append(s)
    return PartiallySymmetricTensor(slices)


def one_generic_extension(T: Tensor3, k: int) -> Tensor3:
    """Extend a concise tensor to one with an identity slice.

    Output lives in K^(a+1) x K^(b+k) x K^(b+k): the new first-axis index 0
    contracts to the identity, and the original entries keep their second
    index while their third index moves into the last c coordinates.
    Restricting to the original coordinates recovers T.  Its largest
    dimension is checked against the entry limit before any entry is built.
    """
    ok, bad = is_concise(T)
    if not ok:
        raise ValueError(f"input not concise on axes {bad}")
    a, b, c = T.dims
    if k < 0 or b + k < c:
        raise ValueError(f"need k >= 0 with b+k >= c (b={b}, k={k}, c={c})")
    w = b + k
    guards.check_entries(max(a + 1, w))
    entries: Dict[Index3, Rat] = {(0, j, j): Fraction(1) for j in range(w)}
    shift = w - c
    for (i, j, l), val in T.entries.items():
        entries[(i + 1, j, shift + l)] = val
    return Tensor3((a + 1, w, w), entries)


# Weight sums stay below this, so each key of a walk's products dict is a
# machine-sized int.  Unbounded, the key of a multiset would take about
# r log2(N+1) bits at the r-th entry, and for a factor of thousands of
# entries at N <= 2 the dict would outgrow the power it builds.
_KEY_BOUND = 2 ** 60

# Suffix tables hold words of 3 entries, or fewer when a walk draws from so
# many entries E that E ** 3 would pass this bound.
_SUFFIX_BOUND = 2 ** 12


def _restricted_power(T: Tensor3, budget: Tuple[int, ...],
                      slots: Sequence[Optional[Sequence[Optional[int]]]]
                      ) -> Tensor3:
    """The Kronecker power T^N, N = budget[0], restricted on each axis to
    the index sequences that spend that axis's slots of the budget
    exactly; position t on an axis is the t-th such sequence in
    lexicographic order.

    The budget is a tuple of slots.  Slot 0 counts the letters of a word,
    N, and each further slot the letters still allowed with one label on
    one constrained axis.  slots[a] lists the slot of each index of axis
    a, None for an index that no word may use, or is None for a free
    axis, which is slot 0 alone and keeps all d**N sequences in row-major
    order.  The slots of a constrained axis hold N letters in all, and
    each is the slot of some index of the axis.

    T has just been validated by the caller, ``kronecker_power`` or
    ``sweet._project``, each of which runs it once through
    ``Tensor3(T.dims, T.entries, T.labels)``; that also catches an
    entries dict changed after T was built.  Its |T|**N words are
    charged, then the largest dimension: each axis has C(b) =
    ``_completions`` of its sizes and budget b positions, the number of
    sequences it keeps.  The entries of T are grouped into parts by the
    slots they spend, slot 0 and their slot on each constrained axis in
    axis order; an entry with an index of no slot is in no part.  The
    walk's dict, already keyed by positions below dims, is stored by
    ``Tensor3._derived``, with no labels.

    Q is commutative, so a word's product depends only on how many times
    it uses each entry.  An entry 1 weighs 0 and the r-th other entry,
    numbered across all parts, weighs (N+1)**r.  A word uses an entry at
    most N times, so its weight sum never carries and names the multiset
    of its entries other than 1; a dict local to this call holds one
    product per sum, shared by every word of that multiset.  Only the
    first K entries are numbered so, where B = (N+1)**K is the largest
    power of N+1 at most ``_KEY_BOUND``; each later entry weighs -B, so a
    sum that uses one is negative, and its product is multiplied out and
    not stored.

    The walk's states are the budgets still to spend, and it ends its
    words from the table of suffix words of the state it reaches
    (``_node``), shared by every prefix that reaches that state.  A prefix
    s and a suffix t use disjoint letters, so P(s + t) = P(s) * Q(t), with
    Q(t) the product the table holds; no sum carries, so the sum of s + t,
    which names its product, is the sum of s plus the sum of t.  Likewise
    the position of s + t is the position of s plus the offset of t (see
    ``_offsets``), and a visit to a table adds the prefix to each distinct
    offset of an axis once, so the keys it stores share those position
    ints rather than each holding three of its own."""
    N = budget[0]
    guards.check_entries(len(T.entries) ** N)
    axes = [({0: d}, [0] * d) if axis is None
            else (Counter(s for s in axis if s is not None), axis)
            for axis, d in zip(slots, T.dims)]
    dims = tuple(_completions(sizes, budget) for sizes, _ in axes)
    guards.check_entries(max(dims))
    parts: Dict[Tuple[int, ...], List[Tuple[Index3, Rat]]] = {}
    for idx, v in T.entries.items():
        key = (0,) + tuple(axis[i] for axis, i in zip(slots, idx)
                           if axis is not None)
        if None not in key:
            parts.setdefault(key, []).append((idx, v))
    groups: List[Tuple[Tuple[int, ...], List[Tuple[Index3, Rat, int]]]] = []
    weight = 1
    for key in sorted(parts):
        groups.append((key, []))
        for idx, v in parts[key]:
            if v == 1:
                w = 0
            elif weight * (N + 1) <= _KEY_BOUND:
                w, weight = weight, weight * (N + 1)
            else:
                w = -weight
            groups[-1][1].append((idx, v, w))
    size = sum(len(part) for part in parts.values())
    length = min(N, max([1] + [n for n in (2, 3)
                               if size ** n <= _SUFFIX_BOUND]))
    products: Dict[int, Rat] = {0: Fraction(1)}
    out: Dict[Index3, Rat] = {}
    root = _node(tuple(budget), groups, axes, length, {})
    if root is not None:
        _walk(root, 0, 0, 0, products[0], 0, products, out)
    return Tensor3._derived(dims, out)


def _completions(sizes: Dict[int, int], budget: Tuple[int, ...]) -> int:
    """C(b) = multinomial(|b|; b) * prod_s n_s ** b_s: the number of index
    sequences that spend exactly the budget b of the slots in sizes, n_s
    the number of indices of slot s.  A free axis of size d is slot 0
    alone, so with b_0 letters left it has d ** b_0 sequences."""
    total, m = 1, 0
    for s, n in sizes.items():
        m += budget[s]
        total *= math.comb(m, budget[s]) * n ** budget[s]
    return total


def _offsets(axis, state: Tuple[int, ...]) -> List[int]:
    """The offset of each index of the axis as the next letter of a word
    from the state, with state[0] > 0 letters still to take.  A word's
    position is the sum of its letters' offsets: the lexicographic rank of
    its index sequence among those that spend the axis's slots.

    axis is (sizes, slots): slots[i] is the slot of index i, or None,
    and sizes maps each slot of the axis to its number of indices.  A
    sequence with the budget b of the axis's slots still to spend
    completes in C(b) = ``_completions(sizes, b)`` ways, so index i is
    offset by the sum of C(b - e_s(i')) = C(b) * b_s(i') / (|b| * n_s(i'))
    over the indices i' < i, n_s the number of indices of slot s.  A free
    axis of size d is slot 0 alone, with |b| = b_0 and
    n_0 = d, so index i is offset by i * d**(|b| - 1), its row-major flat
    index."""
    sizes, slots = axis
    total = _completions(sizes, state)
    skip = {s: total * state[s] // (state[0] * n) for s, n in sizes.items()}
    run, off = 0, []
    for s in slots:
        off.append(run)
        run += skip.get(s, 0)
    return off


def _node(state: Tuple[int, ...], groups, axes, length: int,
          nodes: dict) -> Optional[tuple]:
    """The walk's node at the budget still to spend, memoised in nodes:
    None when no word spends the budget, else (moves, ends, words).  moves
    lists each entry a word can take next as (offsets, weight, value, next
    node), a part's entries only when all its slots are positive and the
    next node is not None, so every move ends in a kept word.  With at
    most `length` letters left, words lists each word that spends the
    state as (offsets, weight sum, product).

    At `length` letters, ends is the suffix table the walk visits:
    (shared, later, offsets).  offsets holds, per axis, the sorted
    distinct offsets of the words, and each word is kept as an index
    triple (x, y, z) into them, so that a visit adds its prefix to each
    distinct offset once and every word it stores shares those ints.
    shared lists the words of each nonnegative sum, one multiset, as
    (sum, product, [index triples]); later lists each word of a negative
    sum alone as (x, y, z, product)."""
    if state in nodes:
        return nodes[state]
    left = state[0]
    moves = []
    if left:
        o0, o1, o2 = [_offsets(ax, state) for ax in axes]
        for slots, entries in groups:
            if all(state[s] for s in slots):
                after = list(state)
                for s in slots:
                    after[s] -= 1
                after = _node(tuple(after), groups, axes, length, nodes)
                if after is not None:
                    moves += [(o0[i], o1[j], o2[k], w, v, after)
                              for (i, j, k), v, w in entries]
        if not moves:
            nodes[state] = None
            return None
    if left > length:
        node = nodes[state] = (moves, None, None)
        return node
    words = [(a + a2, b + b2, e + e2, w + w2, v * q if w else q)
             for a, b, e, w, v, (_, _, tail) in moves
             for a2, b2, e2, w2, q in tail
             ] if left else [(0, 0, 0, 0, Fraction(1))]
    ends = None
    if left == length:
        offsets = [sorted({word[x] for word in words}) for x in range(3)]
        at = [{o: x for x, o in enumerate(axis)} for axis in offsets]
        shared: Dict[int, Tuple[Rat, list]] = {}
        later = []
        for a, b, e, w, q in words:
            key = (at[0][a], at[1][b], at[2][e])
            if w < 0:
                later.append(key + (q,))
            else:
                shared.setdefault(w, (q, []))[1].append(key)
        ends = ([(w, q, keys) for w, (q, keys) in shared.items()], later,
                offsets)
    node = nodes[state] = (None, ends, words)
    return node


def _walk(node: tuple, i: int, j: int, k: int, c: Rat, s: int,
          products: Dict[int, Rat], out: Dict[Index3, Rat]) -> None:
    """Store in out every word from the node after the prefix with
    positions (i, j, k), weight sum s and product c.  A move of weight 0
    keeps the product; another takes the product of the new sum from
    products, multiplying only on a miss, and so does each sum of a suffix
    table, once for all its words.  Negative sums are multiplied out.

    At a suffix table, the positions of each axis are built once per
    visit, the prefix plus each distinct offset, and the words index
    them.  Above 256 every int is a new object, so the keys of one visit
    share at most as many ints as the table has distinct offsets, rather
    than each key holding three of its own."""
    moves, ends, _ = node
    if ends is None:
        for a, b, e, w, v, after in moves:
            t = s + w
            p = c if not w else c * v if t < 0 else products.get(t)
            if p is None:
                p = products[t] = c * v
            _walk(after, i + a, j + b, k + e, p, t, products, out)
        return
    shared, later, (A, B, E) = ends
    # loops, not comprehensions: many tables hold a few words (1 to 9 on
    # the chimneys of cw(3)), and before Python 3.12 each comprehension
    # is a call of its own
    I, J, K = [], [], []
    for a in A:
        I.append(i + a)
    for b in B:
        J.append(j + b)
    for e in E:
        K.append(k + e)
    for w, q, keys in shared:
        t = s + w
        p = c * q if t < 0 else products.get(t)
        if p is None:
            p = products[t] = c * q
        for x, y, z in keys:
            out[I[x], J[y], K[z]] = p
    for x, y, z, q in later:
        out[I[x], J[y], K[z]] = c * q


def kronecker_power(T: Tensor3, N: int) -> Tensor3:
    """N-th Kronecker power; index sequences flatten row-major.

    ``_restricted_power`` builds it with every axis free, slot 0 the only
    slot, so all the entries of T are one part: T is validated once, each
    product is computed once per multiset of entries other than 1 and
    shared by every word of that multiset, and the walk's |T|^N entries
    are stored without a second pass.  The labels of the power, d^N per
    axis, are built level by level once the power is built, so a power
    its guards refuse builds none."""
    if as_int(N, "power") < 1:
        raise ValueError("need N >= 1")
    T = Tensor3(T.dims, T.entries, T.labels)
    power = _restricted_power(T, (N,), (None,) * 3)
    if T.labels is not None:
        levels = T.labels
        for _ in range(N - 1):
            levels = [[p + "," + x for p in level for x in ax]
                      for level, ax in zip(levels, T.labels)]
        power.labels = tuple(map(tuple, levels))
    return power
