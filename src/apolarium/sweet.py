"""Blockings, tightness, marginal-matching projections, and rank bounds.

A blocking labels each basis vector of each tensor factor with a vector in
Z^r.  Kronecker powers add labels coordinatewise, so a distribution P on the
support blocks singles out, for each axis, the index sequences whose label
composition matches N times the corresponding marginal of P.  Keeping those
sequences on all three axes gives the sweet piece SP_{P,N}(T); keeping them
on two axes and leaving the third free gives a chimney, whose all-zero
layers feed the substitution bound.

Neither projection walks the |T|^N entry words of the power.  The kept
entries are exactly the words of N entries of T whose labels spend the
composition of every constrained axis.  This module turns the
compositions into a budget, N letters (slot 0) and, for each label of
each constrained axis, the letters allowed with that label, and gives
each index of a constrained axis the slot of its label; a free axis has
slot 0 alone.  ``tensor3._restricted_power`` owns the walk over the
remaining budgets: it charges |T|^N and the C(comp) sequences each axis
keeps, drops a budget that no word spends where it is first reached, keys
each kept entry by its position in the piece, so the cost follows the
number of kept entries, and computes the product of a kept word once per
multiset of entries it uses.  A chimney only counts its constrained axes;
a sweet piece lists each axis's kept index sequences, built from one memo
of tails per label budget still to spend, so they cost what they hold.
A piece is checked by ``support_blocks`` itself, each kept position
labelled by the labels of its sequence laid end to end.

Axes are 0-based throughout (axis pair (0,1) = first and second factor);
the command-line layer translates from 1-based flags.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from . import guards
from .scalars import Rat, as_int, rat
from .tensor3 import Tensor3, _restricted_power

Label = Tuple[int, ...]
LabelTriple = Tuple[Label, Label, Label]


def _as_label(x) -> Label:
    """An int or a list of ints as a label vector; a bool, float or string
    is refused, not truncated."""
    label = tuple(x) if isinstance(x, (list, tuple)) else (x,)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in label):
        raise ValueError(f"label {x!r} is not an int or a vector of ints")
    return label


class Blocking:
    """Three label tables, one vector in Z^r per basis index per axis."""

    def __init__(self, labels: Sequence[Sequence]):
        if len(labels) != 3:
            raise ValueError("need label tables for exactly three axes")
        self.labels: Tuple[Tuple[Label, ...], ...] = tuple(
            tuple(_as_label(x) for x in ax) for ax in labels)
        rs = {len(l) for ax in self.labels for l in ax}
        if len(rs) != 1:
            raise ValueError(f"label vectors of mixed arity {sorted(rs)}")
        self.r = rs.pop()

    def axis_dim(self, axis: int) -> int:
        return len(self.labels[axis])

    def label(self, axis: int, index: int) -> Label:
        return self.labels[axis][index]

    def check_tensor(self, T: Tensor3):
        if tuple(self.axis_dim(a) for a in range(3)) != T.dims:
            raise ValueError(f"blocking covers dims "
                             f"{tuple(self.axis_dim(a) for a in range(3))}, "
                             f"tensor has {T.dims}")

    def doc(self) -> dict:
        return {"labels": [[list(l) for l in ax] for ax in self.labels]}

    def to_json(self) -> str:
        return json.dumps(self.doc(), sort_keys=True)

    @classmethod
    def from_doc(cls, doc: dict) -> "Blocking":
        return cls(doc["labels"])


def cw_weights(n: int) -> List[List[int]]:
    """Unit vector -> 0, middle -> 1, top -> 2 on the first two axes, negated
    on the third: the labels of ``cw_blocking`` and the weights that
    degenerate a group tensor of order n onto the support of cw(n)."""
    if n < 3:
        raise ValueError("need n >= 3")
    fwd = [0] + [1] * (n - 2) + [2]
    return [fwd, list(fwd), [-w for w in fwd]]


def cw_blocking(n: int) -> Blocking:
    """The ``cw_weights`` as labels.  Used for the three-sum tensors and for
    group tensors with the distinguished element last."""
    return Blocking([[(w,) for w in ax] for ax in cw_weights(n)])


# the three large support blocks of cw(n) under cw_blocking
CW_LARGE = (((0,), (1,), (-1,)), ((1,), (0,), (-1,)), ((1,), (1,), (-2,)))


def weight_blocking(weights: Sequence[int]) -> Blocking:
    """Scalar weights per index on the first two axes, negated on the third."""
    fwd = [(as_int(w, "weight"),) for w in weights]
    neg = [(-w,) for (w,) in fwd]
    return Blocking([fwd, fwd, neg])


def blocking_power(B: Blocking, N: int) -> Blocking:
    """Induced blocking on the N-th Kronecker power: labels add coordinatewise
    along each index sequence (sequences in lexicographic flat order).  The
    d^N sequences of each axis of d labels are checked against the entry
    limit before they are enumerated."""
    as_int(N, "power")
    tables = []
    for ax in B.labels:
        guards.check_entries(len(ax) ** N)
        table = []
        for seq in itertools.product(range(len(ax)), repeat=N):
            total = tuple(sum(ax[i][t] for i in seq) for t in range(B.r))
            table.append(total)
        tables.append(table)
    return Blocking(tables)


class Block(NamedTuple):
    labels: LabelTriple
    format: Tuple[int, int, int]
    tensor: Tensor3
    index_sets: Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]


def support_blocks(T: Tensor3, B: Blocking) -> List[Block]:
    """Partition of the nonzero entries by label triple.

    The format of a block is the size of the full label class on each axis
    (not just the indices that happen to occur in an entry).
    """
    B.check_tensor(T)
    classes = []
    for axis in range(3):
        cls: Dict[Label, List[int]] = {}
        for i in range(T.dims[axis]):
            cls.setdefault(B.label(axis, i), []).append(i)
        classes.append(cls)
    grouped: Dict[LabelTriple, Dict[Tuple[int, int, int], Rat]] = {}
    for (i, j, k), c in T.entries.items():
        key = (B.label(0, i), B.label(1, j), B.label(2, k))
        grouped.setdefault(key, {})[(i, j, k)] = c
    out = []
    for key in sorted(grouped):
        sets = tuple(tuple(classes[a][key[a]]) for a in range(3))
        pos = [{i: t for t, i in enumerate(s)} for s in sets]
        fmt = tuple(len(s) for s in sets)
        sub = {(pos[0][i], pos[1][j], pos[2][k]): c
               for (i, j, k), c in grouped[key].items()}
        out.append(Block(key, fmt, Tensor3(fmt, sub), sets))
    return out


def is_tight(T: Tensor3, B: Blocking) -> bool:
    """Do all support-block labels sum to the zero vector?"""
    B.check_tensor(T)
    for (i, j, k) in T.entries:
        total = tuple(a + b + c for a, b, c in zip(
            B.label(0, i), B.label(1, j), B.label(2, k)))
        if any(total):
            return False
    return True


class BlockDistribution:
    """Probability distribution on a set of label triples."""

    def __init__(self, support: Sequence, probs: Sequence):
        self.support: List[LabelTriple] = []
        for trip in support:
            labels = tuple(_as_label(a) for a in trip)
            if len(labels) != 3:
                raise ValueError(f"support element {trip!r} is not three "
                                 "labels")
            self.support.append(labels)
        self.probs: List[Rat] = [rat(p) for p in probs]
        if len(self.support) != len(self.probs):
            raise ValueError("support/probs length mismatch")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support triples must be distinct")
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability")
        if sum(self.probs) != 1:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, not 1")

    def doc(self) -> dict:
        """The JSON document, keys in sorted order: probs, then support."""
        return {
            "probs": [str(p) for p in self.probs],
            "support": [[list(a) for a in trip] for trip in self.support],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "BlockDistribution":
        return cls(doc["support"], doc["probs"])

    @classmethod
    def uniform(cls, triples: Iterable) -> "BlockDistribution":
        triples = list(triples)
        if not triples:
            raise ValueError("a uniform distribution needs a nonempty "
                             "support")
        return cls(triples, [Fraction(1, len(triples))] * len(triples))


def marginals(P: BlockDistribution) -> Tuple[Dict[Label, Rat], ...]:
    out: List[Dict[Label, Rat]] = [{}, {}, {}]
    for trip, p in zip(P.support, P.probs):
        for axis in range(3):
            out[axis][trip[axis]] = out[axis].get(trip[axis], Fraction(0)) + p
    return tuple(out)


def marginal_uniqueness(P: BlockDistribution) -> str:
    """'unique' when P is the only distribution on its support with these
    marginals; 'non_unique' when a signed null direction of the marginal
    system stays nonnegative at P; else 'unknown' (sufficient conditions
    only)."""
    from .exact import sparse_kernel
    marg = marginals(P)
    nvars = len(P.support)
    rows = []
    for axis in range(3):
        for lab in sorted(marg[axis]):
            rows.append({t: 1 for t in range(nvars)
                         if P.support[t][axis] == lab})
    null = sparse_kernel(rows, nvars)
    if not null:
        return "unique"
    for v in null.values():
        for sign in (1, -1):
            if all(P.probs[t] > 0 or sign * x >= 0 for t, x in v.items()):
                return "non_unique"
    return "unknown"


def _composition(marg: Dict[Label, Rat], N: int) -> Dict[Label, int]:
    comp = {}
    for lab, p in marg.items():
        cnt = p * N
        if cnt.denominator != 1:
            raise ValueError(f"N*marginal is not integral at {lab}: {cnt}")
        if cnt:
            comp[lab] = int(cnt)
    return comp


def _kept_sequences(B: Blocking, axis: int, comp: Dict[Label, int]
                    ) -> List[Tuple[int, ...]]:
    """Index sequences whose label counts equal comp, in lexicographic
    order; their length N is the sum of the counts.

    The sequences that end a kept sequence depend only on the budget still
    to spend, the counts per label of comp in sorted-label order, so
    ``_tails`` builds them once per budget below comp, at most
    ∏(comp_s + 1) budgets, each from the tails one letter shorter: the
    cost follows the output.  Nothing is charged here: ``sp_extract``
    calls it only after ``_restricted_power`` has charged the C(comp)
    sequences it returns."""
    order = sorted(comp)
    rank = {lab: s for s, lab in enumerate(order)}
    labels = B.labels[axis]
    memo = {(0,) * len(order): [()]}
    return _tails([rank.get(lab) for lab in labels],
                  tuple(comp[lab] for lab in order), memo)


def _tails(slot: Sequence, budget: Tuple[int, ...],
           memo: Dict[Tuple[int, ...], List[Tuple[int, ...]]]
           ) -> List[Tuple[int, ...]]:
    """Index tails that spend budget exactly, in lexicographic order,
    memoised by budget.  Index i spends one unit of budget[slot[i]]; its
    slot is None when its label is not in the composition.  A
    module-level function, not a closure, so the memo holds no reference
    cycle and is freed with the call."""
    got = memo.get(budget)
    if got is None:
        got = memo[budget] = []
        for i, s in enumerate(slot):
            if s is not None and budget[s]:
                rest = budget[:s] + (budget[s] - 1,) + budget[s + 1:]
                head = (i,)
                got += [head + t for t in _tails(slot, rest, memo)]
    return got


def _validate_distribution(T: Tensor3, B: Blocking, P: BlockDistribution,
                           check_tight: bool):
    B.check_tensor(T)
    if check_tight and not is_tight(T, B):
        raise ValueError("tensor is not tight for this blocking "
                         "(pass check_tight=False to project anyway)")
    blocks = {(B.label(0, i), B.label(1, j), B.label(2, k))
              for i, j, k in T.entries}
    for trip, p in zip(P.support, P.probs):
        if p and trip not in blocks:
            raise ValueError(f"distribution charges non-support block {trip}")
    marg = marginals(P)
    profiles = [sorted(m.values()) for m in marg]
    if not profiles[0] == profiles[1] == profiles[2]:
        raise ValueError(f"marginal probability profiles differ: {profiles}")
    return marg


class SweetPiece(NamedTuple):
    tensor: Tensor3
    kept: Tuple[List[Tuple[int, ...]], ...]
    p_T: int


def _project(T: Tensor3, B: Blocking, P: BlockDistribution, N: int,
             axes: Sequence[int], check_tight: bool
             ) -> Tuple[Tensor3, Dict[int, Dict[Label, int]]]:
    """The N-th Kronecker power restricted on each axis of `axes` to its
    marginal-matching sequences, and the compositions they spend,
    {axis: comp}.

    Position t on a constrained axis is the t-th index sequence, in
    lexicographic order, whose label counts equal the axis's
    composition; an axis not in `axes` keeps the full index range of the
    power (lexicographic flat order).  The power is never walked:
    ``tensor3._restricted_power`` spends the budget, N letters (slot 0)
    and one slot per label of each constrained axis, holding its count
    in the composition, with each index of the axis in the slot of its
    label and an index whose label is outside the composition in none.
    It charges |T|^N and the C(comp) sequences each axis keeps, and its
    cost follows the number of kept entries rather than |T|^N.

    T is validated here, once, before the distribution is read and the
    builder walks it; P charges only support blocks, so every label of a
    composition is carried by some index, as the builder needs."""
    if as_int(N, "power") < 0:
        raise ValueError(f"need N >= 0, got {N}")
    T = Tensor3(T.dims, T.entries, T.labels)
    marg = _validate_distribution(T, B, P, check_tight)
    budget, slots, comps = [N], [None, None, None], {}
    for a in axes:
        comp = comps[a] = _composition(marg[a], N)
        order = sorted(comp)
        slot = {lab: len(budget) + s for s, lab in enumerate(order)}
        slots[a] = [slot.get(lab) for lab in B.labels[a]]
        budget += [comp[lab] for lab in order]
    return _restricted_power(T, tuple(budget), slots), comps


def sp_extract(T: Tensor3, B: Blocking, P: BlockDistribution, N: int,
               check_tight: bool = True) -> SweetPiece:
    """Project the N-th Kronecker power onto the marginal-matching sequences
    of all three axes (see _project), with every support block of T taking
    part, charged by P or not.  kept lists each axis's marginal-matching
    index sequences in lexicographic order, built by ``_kept_sequences``
    once the builder has charged their number; position t on an axis of
    the piece is kept[axis][t].  p_T, the number of distinct label
    sequences of an axis, is the multinomial N! / prod(comp_s!) of axis
    0's composition: every label of a composition is carried, since P
    charges only support blocks, so each arrangement of it is kept, and
    the marginal profiles agree, so every axis counts the same."""
    tensor, comps = _project(T, B, P, N, (0, 1, 2), check_tight)
    kept = tuple(_kept_sequences(B, a, comps[a]) for a in range(3))
    p_T = math.factorial(N) // math.prod(
        math.factorial(n) for n in comps[0].values())
    return SweetPiece(tensor, kept, p_T)


def chimney(T: Tensor3, B: Blocking, P: BlockDistribution, N: int,
            fixed_pair: Tuple[int, int] = (0, 1),
            check_tight: bool = True) -> Tensor3:
    """Restrict two axes to their marginal-matching sequences; the remaining
    axis keeps the full index range of the power (see _project), and its
    labels play no part.  The constrained axes are sized by counting
    their sequences, C(comp), and no list of them is built."""
    fixed = tuple(sorted(as_int(a, "axis") for a in fixed_pair))
    if len(set(fixed)) != 2 or not all(a in (0, 1, 2) for a in fixed):
        raise ValueError(f"fixed_pair must be two distinct axes, got {fixed_pair}")
    return _project(T, B, P, N, fixed, check_tight)[0]


def toric_degenerate(T: Tensor3, B: Blocking,
                     weights: Sequence[Sequence[int]]) -> Tensor3:
    """Kill the entries of positive total weight; keep the weight-zero ones.

    weights = three integer arrays, one value per basis index per axis,
    validated to factor through the blocking's label classes.  Any support
    entry of negative total weight makes the degeneration invalid.
    """
    B.check_tensor(T)
    w = [[as_int(x, "weight") for x in ax] for ax in weights]
    if [len(ax) for ax in w] != list(T.dims):
        raise ValueError("weight arrays must match the tensor dims")
    for axis in range(3):
        by_label: Dict[Label, int] = {}
        for i, wi in enumerate(w[axis]):
            lab = B.label(axis, i)
            if lab in by_label and by_label[lab] != wi:
                raise ValueError(
                    f"weights do not factor through labels on axis {axis}")
            by_label[lab] = wi
    entries = {}
    for (i, j, k), c in T.entries.items():
        total = w[0][i] + w[1][j] + w[2][k]
        if total < 0:
            raise ValueError(f"support entry {(i, j, k)} has negative weight "
                             f"{total}: invalid degeneration")
        if total == 0:
            entries[(i, j, k)] = c
    return Tensor3(T.dims, entries, T.labels)


def zero_layers(T: Tensor3, axis: int) -> int:
    """Number of indices along the axis whose slice is identically zero."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    hit = {idx[axis] for idx in T.entries}
    return T.dims[axis] - len(hit)


def substitution_bound(ambient_dim: int, zero_layer_count: int) -> int:
    """Rank bound ambient_dim - zero_layer_count for a minimal-rank ambient
    tensor (group-tensor powers and their binary case qualify; see the
    command-line layer for the caller-asserted whitelist)."""
    if zero_layer_count < 0 or zero_layer_count > ambient_dim:
        raise ValueError("zero-layer count out of range")
    return ambient_dim - zero_layer_count


def formula_sweet_rank(n: int, N: int, p, q=None) -> int:
    """Closed-form rank bound n^N - binom(N, (2p+2q)N+1) (n-1)^((p+q)N-1)
    for the three-large/three-small block distribution (p on large, q on
    small, p+q = 1/3)."""
    p = rat(p)
    q = rat(q) if q is not None else Fraction(1, 3) - p
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    if p + q != Fraction(1, 3):
        raise ValueError(f"p+q must be 1/3, got {p + q}")
    for name, val in (("p*N", p * N), ("q*N", q * N)):
        if val.denominator != 1:
            raise ValueError(f"{name} = {val} is not integral")
    top = (2 * p + 2 * q) * N + 1
    low = (p + q) * N - 1
    if low < 0:
        raise ValueError("block counts are out of range for this N")
    return n ** N - math.comb(N, int(top)) * (n - 1) ** int(low)


def even_symdiff_count(k: int) -> int:
    """Number of distinct symmetric differences of two k-subsets of a 3k set:
    sum of binom(3k, 2i) for i = 0..k, cross-checked by enumeration for
    k <= 4."""
    if k < 1:
        raise ValueError("need k >= 1")
    closed = sum(math.comb(3 * k, 2 * i) for i in range(k + 1))
    if k <= 4:
        ground = range(3 * k)
        seen = set()
        for A in itertools.combinations(ground, k):
            sa = set(A)
            for Bset in itertools.combinations(ground, k):
                seen.add(frozenset(sa.symmetric_difference(Bset)))
        if len(seen) != closed:
            raise AssertionError(
                f"enumeration {len(seen)} disagrees with closed form {closed}")
    return closed


def formula_pratt(k: int) -> int:
    """Rank bound (8^k)/2 - sum of binom(3k, 2i) for i = k+1 .. floor(3k/2)."""
    if k < 1:
        raise ValueError("need k >= 1")
    return 8 ** k // 2 - sum(math.comb(3 * k, 2 * i)
                             for i in range(k + 1, 3 * k // 2 + 1))


def omega_bound(a: int, r, p) -> float:
    """log base a of r/p; the single floating-point output of the package."""
    if int(a) != a or a <= 1:
        raise ValueError("a must be an integer > 1")
    r = rat(r)
    p = rat(p)
    if p <= 0 or r < p:
        raise ValueError("need r >= p > 0")
    return math.log(r / p, a)


def veronese_dims(graded_dims: Sequence[int], k: int) -> List[int]:
    """Every k-th graded dimension, starting from degree 0."""
    if k < 1:
        raise ValueError("need k >= 1")
    return list(graded_dims)[::k]


# -- validators for constructed sweet pieces -----------------------------------


def sweet_piece_report(sp: SweetPiece, B: Blocking) -> dict:
    """Constructive checks on a sweet piece cut with the blocking B: the
    uniform distribution on its support blocks has equal uniform
    marginals, the label-sequence count is the same on every axis, and
    the support blocks share format and entry multiset.  Position t on
    an axis is labelled by the labels of kept[axis][t] laid end to end,
    one vector in Z^(N r), so ``support_blocks`` groups the piece by
    label sequences."""
    seqs = Blocking([[tuple(x for i in seq for x in B.labels[a][i])
                      for seq in sp.kept[a]] for a in range(3)])
    blocks = support_blocks(sp.tensor, seqs)
    axis_counts = [Counter(b.labels[a] for b in blocks) for a in range(3)]
    return {
        "support_blocks": len(blocks),
        "formats_equal": len({b.format for b in blocks}) <= 1,
        "entry_multisets_equal": len({tuple(sorted(b.tensor.entries.values()))
                                      for b in blocks}) <= 1,
        "marginals_uniform": all(len(set(c.values())) <= 1
                                 for c in axis_counts),
        "marginal_block_counts": [len(c) for c in axis_counts],
        "p_T": sp.p_T,
        "p_T_consistent": len({sp.p_T} | {len(set(ls))
                                          for ls in seqs.labels}) == 1,
        "note": "sufficient-condition check: format equality plus entry-"
                "multiset equality per block; full block-isomorphism testing "
                "is not decided here",
    }
