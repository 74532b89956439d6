"""Oracles shared by the test modules.

``rref`` is the dense elimination over Q that the sparse answers of
``exact`` are checked against, and ``packed_key`` the key of an exponent
in the partials columns of ``apolar``, built apart from it;
``spy_fallbacks`` records each exact elimination that
``exact.sparse_kernel`` falls back to when its primes do not answer, and
``spy_rows_read`` how far each elimination mod a prime reads its rows.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

from apolarium import exact
from apolarium.exact import Rat


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


def packed_key(a, w):
    """|a| above the complement of a packed in fields of w bits, variable 0
    highest: the key of ``apolar._divisor_columns``."""
    width = w * len(a)
    packed = 0
    for x in a:
        packed = packed << w | x
    return sum(a) << width | (1 << width) - 1 - packed


def spy_fallbacks(monkeypatch):
    """One list per ``SparseEchelon`` that ``exact`` builds while the spy
    is set, holding the rows inserted into it, in order."""
    calls = []

    class Spy(exact.SparseEchelon):
        def __init__(self, key_order):
            super().__init__(key_order)
            self.rows = []
            calls.append(self.rows)

        def insert(self, vec):
            self.rows.append(vec)
            return super().insert(vec)
    monkeypatch.setattr(exact, "SparseEchelon", Spy)
    return calls


def spy_rows_read(monkeypatch):
    """The number of rows each ``exact._echelon_mod_p`` call reads while
    the spy is set, in call order."""
    counts = []
    eliminate = exact._echelon_mod_p

    def spy(rows, p, ncols=None):
        counts.append(0)

        def counted():
            for row in rows:
                counts[-1] += 1
                yield row
        return eliminate(counted(), p, ncols)
    monkeypatch.setattr(exact, "_echelon_mod_p", spy)
    return counts
