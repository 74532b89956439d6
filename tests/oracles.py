"""Oracles shared by the test modules.

``rref`` is the dense elimination over Q that the sparse answers of
``exact`` are checked against, and ``packed_key`` the key of an exponent
in the partials columns of ``apolar``, built apart from it;
``echelon_mod_p`` is the elimination mod a prime that
``exact._echelon_mod_p`` must agree with, forward then back-substituted;
``spy_primes`` records the prime of each elimination,
``spy_rows_read`` how far each elimination mod a prime reads its rows, and
``spy_cells_built`` the cells a partials stream builds term by term.
``divisor_columns`` is that stream built by ``apply``, and
``cells_stored`` the cells of the slabs it builds to yield its first
columns.
``structure_tensor_of_apolar`` and ``gradient_rank`` are the apolar
multiplication tensor and the Jacobian rank of ``encompassing_report``
computed on exponent tuples, ``Fraction`` cells, ``apply`` and
``evaluate``, which the packed and int versions in the library are
checked against.  ``encompassing_extension`` and ``boxtimes_power`` are
the extension and the disjoint-variable power built by ``Poly``
arithmetic: a sum of one checked ``Poly`` per multi-exponent, found by
recursion, and a product of the d renamed copies, which the one term map
of each builder is checked against.  ``sweet_piece_report`` groups a
sweet piece by the label sequences of its kept positions with dicts of
its own, which the report read off ``sweet.support_blocks`` is checked
against.  ``structure_tensor`` and ``table_tensor_power`` are the
multiplication tensor of a table and the table of its N-fold tensor power,
which ``kronecker_power`` is checked against.  ``coeff`` and ``evaluate``
read one coefficient and one value of a ``Poly``.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from apolarium import exact
from apolarium.apolar import _fact, greedy_monomial_basis
from apolarium.encompass import ExtensionResult
from apolarium.exact import solve_many, sparse_rank
from apolarium.poly import (Poly, VarMismatchError, apply, diff, homogenize,
                            monomial_key)
from apolarium.scalars import Rat, rat
from apolarium.tensor3 import Tensor3


def _first_nonzero(row: Sequence[Rat]) -> int:
    """Index of the leftmost nonzero entry, or -1 for a zero row."""
    for j, x in enumerate(row):
        if x:
            return j
    return -1


def rref(m: Sequence[Sequence[Rat]]) -> Tuple[List[List[Rat]], List[int]]:
    """Reduced row echelon form of the dense rows m.

    Returns (rows, pivot_columns).  Rows are fully reduced, pivots are 1,
    pivot columns strictly increase, zero rows are dropped.
    """
    rows: List[List[Rat]] = []
    pivots: List[int] = []
    for raw in m:
        row = list(raw)
        for p, r in zip(pivots, rows):
            if row[p]:
                c = row[p]
                for j in range(p, len(row)):
                    row[j] -= c * r[j]
        p = _first_nonzero(row)
        if p < 0:
            continue
        inv = row[p]
        row = [x / inv for x in row]
        # back-substitute into the rows already collected
        for r in rows:
            if r[p]:
                c = r[p]
                for j in range(len(row)):
                    r[j] -= c * row[j]
        # keep pivot columns sorted
        k = 0
        while k < len(pivots) and pivots[k] < p:
            k += 1
        rows.insert(k, row)
        pivots.insert(k, p)
    return rows, pivots


def echelon_mod_p(rows, p: int):
    """(pivot columns ascending, {free column j: kernel vector}) of the int
    rows mod p, over the columns nonzero mod p in some row: every row is
    eliminated forward against the rows held before it, in insertion order,
    and the held rows are then back-substituted, in reverse insertion
    order; the vector of free column j has 1 at j and -r[j] at the pivot
    column of each reduced row r."""
    held: List[Tuple[int, Dict[int, int]]] = []
    for raw in rows:
        row = {j: x % p for j, x in raw.items() if x % p}
        for c, prow in held:
            f = row.get(c)
            if f:
                for k, b in prow.items():
                    v = (row.get(k, 0) - f * b) % p
                    if v:
                        row[k] = v
                    else:
                        del row[k]
        if row:
            c = min(row)
            inv = pow(row[c], -1, p)
            held.append((c, {k: v * inv % p for k, v in row.items()}))
    pivots = dict(held)
    for c, prow in reversed(held):
        for k in [k for k in prow if k != c and k in pivots]:
            f = prow.pop(k)
            for j, b in pivots[k].items():
                if j != k:
                    v = (prow.get(j, 0) - f * b) % p
                    if v:
                        prow[j] = v
                    else:
                        del prow[j]
    kernel = {j: {j: 1} for j in sorted(set().union(*pivots.values()))
              if j not in pivots}
    for c, prow in pivots.items():
        for k, b in prow.items():
            if k != c:
                kernel[k][c] = p - b
    return sorted(pivots), kernel


def packed_key(a, w):
    """|a| above the complement of a packed in fields of w bits, variable 0
    highest: the key of ``apolar._divisor_columns``."""
    width = w * len(a)
    packed = 0
    for x in a:
        packed = packed << w | x
    return sum(a) << width | (1 << width) - 1 - packed


def divisor_columns(f: Poly, lo: int, hi: int
                    ) -> List[Tuple[Tuple[int, ...], Dict[int, int]]]:
    """(b, column b) of the stream of orders lo..hi of
    ``apolar._divisor_columns``, built by ``apply``: column b holds L times
    the coefficient of x^b in a∘f at the packed key of each a of order
    lo..hi, L the lcm of the denominators of f, and the columns come slab
    b_0 descending, ascending key within."""
    w = max(x for e in f.terms for x in e).bit_length()
    scale = math.lcm(*(c.denominator for c in f.terms.values()))
    columns: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for a in {a for e in f.terms
              for a in itertools.product(*(range(x + 1) for x in e))}:
        if lo <= sum(a) <= hi:
            for b, c in apply(Poly.monomial(f.vars, a), f).terms.items():
                columns.setdefault(b, {})[packed_key(a, w)] = scale * c
    return [(b, columns[b])
            for b in sorted(columns, key=lambda b: (-b[0], packed_key(b, w)))]


def cells_stored(columns, read: int) -> int:
    """The cells of the slabs a stream builds to yield the first `read` of
    its (b, column) pairs `columns`: the slab of b_0 = j holds every column
    with b_0 = j, and slabs are built b_0 descending."""
    last = columns[read - 1][0][0]
    return sum(len(col) for b, col in columns if b[0] >= last)


def spy_cells_built(monkeypatch):
    """The number of cells each ``apolar._bounded`` call builds for a
    partials stream, which charges them before the call, in call order,
    while the spy is set."""
    from apolarium import apolar
    charges = []
    bounded = apolar._bounded

    def spy(*args):
        cells = bounded(*args)
        charges.append(len(cells))
        return cells
    monkeypatch.setattr(apolar, "_bounded", spy)
    return charges


def spy_primes(monkeypatch):
    """The prime of each ``exact._echelon_mod_p`` call while the spy is
    set, in order; the forward echelon of a rank is reused as the kernel's
    first prime, so each prime a kernel uses is eliminated once."""
    calls = []
    echelon = exact._echelon_mod_p

    def spy(rows, p, ncols):
        calls.append(p)
        return echelon(rows, p, ncols)
    monkeypatch.setattr(exact, "_echelon_mod_p", spy)
    return calls


def spy_rows_read(monkeypatch):
    """The number of rows each ``exact._echelon_mod_p`` call reads while
    the spy is set, in call order."""
    counts = []
    eliminate = exact._echelon_mod_p

    def spy(rows, p, ncols):
        counts.append(0)

        def counted():
            for row in rows:
                counts[-1] += 1
                yield row
        return eliminate(counted(), p, ncols)
    monkeypatch.setattr(exact, "_echelon_mod_p", spy)
    return counts


def coeff(f: Poly, exp: Sequence[int]) -> Rat:
    """The coefficient of x^exp in f, 0 when f has no such term."""
    return f.terms.get(tuple(exp), Fraction(0))


def evaluate(f: Poly, point: Sequence) -> Rat:
    """f at the point, one value per variable, each made a Fraction by
    ``rat``."""
    if len(point) != len(f.vars):
        raise VarMismatchError("point has wrong length")
    pt = [rat(x) for x in point]
    total = Fraction(0)
    for e, c in f.terms.items():
        v = c
        for x, k in zip(pt, e):
            if k:
                v *= x ** k
        total += v
    return total


MultTable = List[List[List[Rat]]]  # table[i][j][k] = coeff of b_k in b_i*b_j


def structure_tensor(table: Sequence[Sequence[Sequence]],
                     labels: Optional[Sequence[str]] = None) -> Tensor3:
    """Multiplication tensor of a commutative algebra in a fixed basis."""
    n = len(table)
    tab = [[[rat(c) for c in table[i][j]] for j in range(n)] for i in range(n)]
    for i in range(n):
        if len(tab[i]) != n or any(len(tab[i][j]) != n for j in range(n)):
            raise ValueError("multiplication table is not n x n x n")
    for i in range(n):
        for j in range(i):
            if tab[i][j] != tab[j][i]:
                raise ValueError(f"table not symmetric at ({i},{j})")
    entries = {(i, j, k): tab[i][j][k]
               for i in range(n) for j in range(n) for k in range(n)
               if tab[i][j][k]}
    lab = (tuple(labels),) * 3 if labels is not None else None
    return Tensor3((n, n, n), entries, lab)


def table_tensor_power(table: Sequence[Sequence[Sequence]], N: int) -> MultTable:
    """Multiplication table of the N-fold tensor-product algebra.

    Basis = length-N index sequences in lexicographic (row-major) order, so
    the result is directly comparable with Kronecker powers of the original
    structure tensor.
    """
    n = len(table)
    tab = [[[rat(c) for c in row] for row in plane] for plane in table]
    seqs = list(itertools.product(range(n), repeat=N))
    pos = {s: i for i, s in enumerate(seqs)}
    out: MultTable = [[[Fraction(0)] * len(seqs) for _ in seqs] for _ in seqs]
    for s1 in seqs:
        for s2 in seqs:
            # product of per-coordinate products, expanded distributively
            terms = [((), Fraction(1))]
            for a, b in zip(s1, s2):
                new = []
                for prefix, c in terms:
                    for k in range(n):
                        ck = tab[a][b][k]
                        if ck:
                            new.append((prefix + (k,), c * ck))
                terms = new
            for s3, c in terms:
                out[pos[s1]][pos[s2]][pos[s3]] += c
    return out


def structure_tensor_of_apolar(f: Poly):
    """(Tensor3, basis) of the quotient algebra of f, its gram matrix and
    right-hand sides read off f one exponent tuple at a time, each cell
    t! c_t a Fraction."""
    exps = greedy_monomial_basis(f)
    ell = len(exps)

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def pairings(a):
        out = {}
        for k, b in enumerate(exps):
            t = add(a, b)
            c = f.terms.get(t)
            if c:
                out[k] = _fact(t) * c
        return out

    gram = [pairings(a) for a in exps]
    sums = list(dict.fromkeys(add(a, b) for a in exps for b in exps))
    solved = solve_many(gram, [pairings(s) for s in sums])
    coords = {s: sorted(x.items()) for s, x in zip(sums, solved)}
    entries: Dict[Tuple[int, int, int], Rat] = {}
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            for k, ck in coords[add(a, b)]:
                entries[(i, j, k)] = ck
    basis = [Poly.monomial(f.vars, a) for a in exps]
    labels = [str(b) for b in basis]
    return Tensor3((ell, ell, ell), entries, (labels, labels, labels)), basis


def gradient_rank(f: Poly, seed: int) -> Optional[int]:
    """The gradient_rank of ``encompassing_report(f, seed)``: each image
    a∘f of the greedy basis of degree >= 1 applied as a ``Poly``, its
    partial derivatives evaluated in Fractions at the same seeded points."""
    exps = greedy_monomial_basis(f)
    if sum(sum(a) == 1 for a in exps) < len(f.vars):
        return None
    images = (apply(Poly.monomial(f.vars, a), f) for a in exps)
    jac = [[diff(p, v) for v in f.vars] for p in images if p.degree() >= 1]
    rng = random.Random(seed)
    best = 0
    for _ in range(3):
        point = [rng.randint(-1000, 1000) for _ in f.vars]
        rows = [{j: x for j, x in enumerate(evaluate(e, point) for e in row)
                 if x} for row in jac]
        best = max(best, sparse_rank(rows))
        if best == len(exps) - 1:
            break
    return best


def encompassing_extension(f: Poly,
                           sigma_override: Optional[Sequence[Poly]] = None
                           ) -> ExtensionResult:
    """The ``ExtensionResult`` of a concise f, g summed one ``Poly`` at a
    time over the multi-exponents a, each leaf y^a/a! * (sigma^a ∘ f)
    lifted to the enlarged variables; sigma^a ∘ f is expanded in sigma_j
    for j = 0, 1, ... by recursion, until an image vanishes or a passes
    deg f.  The sigmas are the override, or the greedy basis monomials of
    degree >= 2, each scaled so that its image is monic at its largest
    monomial; the override is not validated."""
    sigmas = []
    for s in (sigma_override if sigma_override is not None else
              [Poly.monomial(f.vars, a) for a in greedy_monomial_basis(f)
               if sum(a) >= 2]):
        img = apply(s, f)
        sigmas.append(s * (Fraction(1) / img.terms[max(img.terms,
                                                         key=monomial_key)]))
    y_names = [f"y{i + 1}" for i in range(len(sigmas))]
    big_vars = f.vars + tuple(y_names)
    g = Poly.zero(big_vars)
    degf = f.degree()

    def expand(j, current, y_exp, scale):
        nonlocal g
        if current.is_zero():
            return
        if j == len(sigmas):
            g = g + Poly(big_vars, {e + tuple(y_exp): c for e, c
                                    in current.terms.items()}) * scale
            return
        power = current
        a = 0
        while not power.is_zero():
            y_exp[j] = a
            expand(j + 1, power, y_exp, scale / math.factorial(a))
            power = apply(sigmas[j], power)
            a += 1
            if a > degf:
                break
        y_exp[j] = 0

    expand(0, f, [0] * len(sigmas), Fraction(1))
    names = ["x0"] + [f"t{i}" for i in range(len(big_vars))]
    G = homogenize(g, next(v for v in names if v not in big_vars), g.degree())
    return ExtensionResult(g, sigmas, G, y_names)


def boxtimes_power(f: Poly, d: int) -> Poly:
    """The product of d copies of f, copy t in the variables v + str(t),
    each copy a ``Poly`` on all of them, multiplied one after another."""
    pad = (0,) * len(f.vars)
    new_vars = [v + str(t) for t in range(1, d + 1) for v in f.vars]
    out = Poly.const(new_vars, 1)
    for t in range(d):
        out = out * Poly(new_vars, {pad * t + e + pad * (d - 1 - t): c
                                    for e, c in f.terms.items()})
    return out


def sweet_piece_report(sp, B) -> dict:
    """The checks of ``sweet.sweet_piece_report``, grouping the entries of
    the piece by the triple of label sequences (tuples of labels) of
    their kept positions."""
    label_seqs = [[tuple(B.label(a, i) for i in seq) for seq in sp.kept[a]]
                  for a in range(3)]
    cls = []
    for a in range(3):
        m: Dict[tuple, List[int]] = {}
        for idx, ls in enumerate(label_seqs[a]):
            m.setdefault(ls, []).append(idx)
        cls.append(m)
    grouped: Dict[tuple, Dict[Tuple[int, int, int], Rat]] = {}
    for (i, j, k), c in sp.tensor.entries.items():
        key = (label_seqs[0][i], label_seqs[1][j], label_seqs[2][k])
        grouped.setdefault(key, {})[(i, j, k)] = c
    formats = set()
    multisets = set()
    axis_counts = [Counter() for _ in range(3)]
    for key, ent in grouped.items():
        formats.add(tuple(len(cls[a][key[a]]) for a in range(3)))
        multisets.add(tuple(sorted(ent.values())))
        for a in range(3):
            axis_counts[a][key[a]] += 1
    return {
        "support_blocks": len(grouped),
        "formats_equal": len(formats) <= 1,
        "entry_multisets_equal": len(multisets) <= 1,
        "marginals_uniform": all(len(set(c.values())) <= 1
                                 for c in axis_counts),
        "marginal_block_counts": [len(c) for c in axis_counts],
        "p_T": sp.p_T,
        "p_T_consistent": len(set([sp.p_T] +
                                  [len(set(ls)) for ls in label_seqs])) == 1,
        "note": "sufficient-condition check: format equality plus entry-"
                "multiset equality per block; full block-isomorphism testing "
                "is not decided here",
    }
